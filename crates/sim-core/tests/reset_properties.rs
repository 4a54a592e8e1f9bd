//! Property-based coverage for `Machine::reset`.
//!
//! The resident experiment service recycles one `Machine` across jobs, so a
//! reset must be indistinguishable from fresh construction for *arbitrary*
//! prior traffic — not just the hand-picked patterns of the unit tests.  The
//! properties here dirty a machine with a generated trace (on a generated
//! hierarchy preset), reset it, and require outcome-for-outcome identical
//! replay against a genuinely fresh machine.

use proptest::prelude::*;
use sim_cache::prelude::{HierarchyPreset, PhysAddr, PolicyKind, TraceOp, TraceSummary};
use sim_core::prelude::{Machine, MachineConfig};

fn arbitrary_policy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::TrueLru),
        Just(PolicyKind::TreePlru),
        Just(PolicyKind::Random),
        Just(PolicyKind::IntelLike),
        Just(PolicyKind::Nru),
        Just(PolicyKind::Srrip),
    ]
}

fn arbitrary_preset() -> impl Strategy<Value = HierarchyPreset> {
    prop_oneof![
        Just(HierarchyPreset::IntelInclusive),
        Just(HierarchyPreset::AmdNonInclusive),
        Just(HierarchyPreset::AmdExclusive),
        Just(HierarchyPreset::ArmPoc),
    ]
}

/// `(kind, line)` op streams; lines span 1 MiB so the trace exercises all
/// three levels without needing pathological set collisions.
fn arbitrary_trace() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..4, 0u64..(1 << 14)), 1..250)
}

fn preset_machine_config(preset: HierarchyPreset, policy: PolicyKind, seed: u64) -> MachineConfig {
    let mut config = MachineConfig::xeon_e5_2650(policy, seed);
    config.hierarchy = preset
        .config(policy, 16, seed)
        .expect("preset configs are valid");
    config
}

/// Runs one generated op through the machine's two direct calls: a load,
/// store or flush as a one-op `run_trace`, anything else as a one-address
/// `measured_chase`.  Returns the trace summary or the chase's
/// `(measured, true_latency)`.
fn drive(machine: &mut Machine, domain: u16, kind: u8, line: u64) -> (TraceSummary, (u64, u64)) {
    let addr = PhysAddr(line * 64);
    let op = match kind {
        0 => TraceOp::read(addr),
        1 => TraceOp::write(addr),
        2 => TraceOp::flush(addr),
        _ => {
            let chase = machine.measured_chase(domain, &[addr]);
            return (TraceSummary::default(), chase);
        }
    };
    (machine.run_trace(domain, &[op]), (0, 0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After arbitrary warm-up traffic under one configuration, a reset
    /// machine replays any trace exactly like a fresh machine built with the
    /// target configuration: same trace summaries, same measured timestamps
    /// (RNG stream position), same clock.
    #[test]
    fn reset_machine_replays_any_trace_like_a_fresh_one(
        warm_preset in arbitrary_preset(),
        preset in arbitrary_preset(),
        warm_policy in arbitrary_policy(),
        policy in arbitrary_policy(),
        warmup in arbitrary_trace(),
        ops in arbitrary_trace(),
        warm_seed in 0u64..1000,
        seed in 0u64..1000,
    ) {
        let mut recycled =
            Machine::new(preset_machine_config(warm_preset, warm_policy, warm_seed)).unwrap();
        for &(kind, line) in &warmup {
            drive(&mut recycled, 4, kind, line);
        }

        let target = preset_machine_config(preset, policy, seed);
        recycled.reset(target).unwrap();
        let mut fresh = Machine::new(target).unwrap();
        prop_assert_eq!(recycled.now(), 0);

        for (i, &(kind, line)) in ops.iter().enumerate() {
            let matched = drive(&mut recycled, 2, kind, line) == drive(&mut fresh, 2, kind, line);
            prop_assert!(matched, "replay diverged at op {} ({:?})", i, (kind, line));
        }

        prop_assert_eq!(recycled.now(), fresh.now());
    }
}
