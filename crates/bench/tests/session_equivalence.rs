//! Old-vs-new transmit-path equivalence at registry operating points.
//!
//! The session layer (compiled trace programs on
//! `Machine::run_session`) replaced the per-access actor stepping loop as
//! the transmit path.  These tests pin that contract at the quick-scale
//! operating points the registry actually runs: for the exact
//! `(encoding, period, seed)` tuples of the `fig5-7` scenario,
//! `transmit_frame` and its stepped oracle `transmit_frame_stepped` must
//! produce byte-identical transmission reports, and the session-based
//! scenarios must stay thread-count invariant (including their
//! simulated-work counters).

use bench::{registry, Scale, SEED};
use runner::{execute, RunConfig};
use wb_channel::channel::ChannelConfig;
use wb_channel::encoding::SymbolEncoding;
use wb_channel::protocol::Frame;
use wb_channel::session::ChannelSession;

/// The `fig5-7` registry operating points (encoding, period) with their
/// derived quick-scale seeds.
fn fig5_7_points() -> Vec<(SymbolEncoding, u64, u64)> {
    let reg = registry();
    let scenario = *reg.get("fig5-7").expect("fig5-7 is registered");
    // The (encoding, period) tuples below mirror the scenario's own match;
    // if the registry grows or reshapes the sweep, fail loudly instead of
    // silently testing stale operating points.
    assert_eq!(
        (scenario.points)(Scale::Quick),
        4,
        "fig5-7's sweep changed; update this test's operating points"
    );
    (0..4)
        .map(|index| {
            let seed = scenario.point_seed(SEED, index);
            match index {
                0 => (SymbolEncoding::binary(1).unwrap(), 5_500, seed),
                1 => (SymbolEncoding::binary(4).unwrap(), 5_500, seed),
                2 => (SymbolEncoding::binary(8).unwrap(), 5_500, seed),
                _ => (SymbolEncoding::paper_two_bit(), 4_000, seed),
            }
        })
        .collect()
}

#[test]
fn stepped_and_compiled_transmissions_are_byte_identical_at_registry_points() {
    for (encoding, period, seed) in fig5_7_points() {
        let config = ChannelConfig::builder()
            .encoding(encoding.clone())
            .period_cycles(period)
            .seed(seed)
            .build()
            .unwrap();
        let mut compiled = ChannelSession::new(config.clone()).unwrap();
        let mut stepped = ChannelSession::new(config).unwrap();
        let payload: Vec<bool> = (0..64).map(|i| (i ^ (i >> 2)) % 3 == 1).collect();
        let frame = Frame::from_payload(&payload);
        let a = compiled.transmit_frame(&frame).unwrap();
        let b = stepped.transmit_frame_stepped(&frame).unwrap();
        assert_eq!(
            a, b,
            "transmit backends diverged for {encoding} @ Ts={period} seed={seed:#x}"
        );
    }
}

#[test]
fn session_based_scenarios_are_thread_count_invariant_with_sim_counters() {
    let reg = registry();
    let selected = reg
        .select(&["fig5-7".to_owned(), "bandwidth".to_owned()])
        .expect("session scenarios exist");
    let run_at = |threads: usize| {
        execute(
            &selected,
            &RunConfig {
                scale: Scale::Quick,
                threads,
                root_seed: SEED,
                progress: false,
            },
        )
    };
    let serial = run_at(1);
    let parallel = run_at(8);
    for (s, p) in serial.iter().zip(&parallel) {
        assert!(s.error.is_none(), "{}: {:?}", s.id, s.error);
        assert_eq!(s.id, p.id);
        assert_eq!(s.sim_cycles, p.sim_cycles, "{}", s.id);
        assert_eq!(s.sim_accesses, p.sim_accesses, "{}", s.id);
        assert!(
            s.sim_accesses > 0,
            "{} is session-backed and must report simulated work",
            s.id
        );
        for ((s_stem, s_table), (p_stem, p_table)) in s.tables.iter().zip(&p.tables) {
            assert_eq!(s_stem, p_stem);
            assert_eq!(s_table.to_json(), p_table.to_json(), "{}", s.id);
        }
    }
}
