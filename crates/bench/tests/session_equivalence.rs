//! Thread-count invariance of the session-backed scenarios.
//!
//! Covert-channel frames run as compiled trace programs on
//! `Machine::run_session`. The scenarios built on them (`fig5-7` and
//! `bandwidth`) must produce identical tables and identical simulated-work
//! counters whether the runner executes them on one worker thread or many.

use bench::{registry, Scale, SEED};
use runner::{execute, RunConfig};

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
