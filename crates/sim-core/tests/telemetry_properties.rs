//! Property-based coverage for the telemetry sink's zero-interference
//! contract.
//!
//! The tracing layer must be a pure observer: enabling the sink on a
//! machine may never change a single scheduling decision, measured
//! latency, access count or phase attribution. The properties here build
//! arbitrary multi-threaded trace programs (random op mixes, phase
//! annotations, hierarchy presets, replacement policies and seeds), run
//! them twice — once with the null sink, once recording — and require the
//! two [`sim_core::prelude::SessionReport`]s to be bit-identical, while
//! the recorded timeline itself must validate: per-domain begin/end spans
//! properly nested and timestamps monotone in simulated cycles.

use proptest::prelude::*;
use sim_cache::prelude::{HierarchyPreset, PhysAddr, PolicyKind};
use sim_core::prelude::{Machine, MachineConfig, Phase, TraceProgram};
use sim_core::telemetry::{export, EventKind};

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

/// `(kind, line, phase)` step streams: loads, stores, measured chases and
/// relative waits, each annotated with an arbitrary telemetry phase.
fn arbitrary_steps() -> impl Strategy<Value = Vec<(u8, u64, u8)>> {
    proptest::collection::vec((0u8..4, 0u64..(1 << 12), 0u8..7), 1..120)
}

fn preset_machine_config(preset: HierarchyPreset, policy: PolicyKind, seed: u64) -> MachineConfig {
    let mut config = MachineConfig::xeon_e5_2650(policy, seed);
    config.hierarchy = preset
        .config(policy, 16, seed)
        .expect("preset configs are valid");
    config
}

/// Compiles one generated step stream into a phase-annotated program.
fn build_program(name: &str, domain: u16, steps: &[(u8, u64, u8)]) -> TraceProgram {
    let mut program = TraceProgram::new(name, domain);
    for &(kind, line, phase) in steps {
        let addr = PhysAddr(line * 64);
        program.phase(Phase::ALL[phase as usize % Phase::ALL.len()]);
        match kind {
            0 => {
                program.load(addr);
            }
            1 => {
                program.store(addr);
            }
            2 => {
                program.chase(&[addr, PhysAddr((line ^ 0x3f) * 64)]);
            }
            _ => {
                program.wait_rel(line % 97 + 1);
            }
        }
    }
    program
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// An active sink is invisible to the simulation: the full session
    /// report — scheduling, measured latencies, perf summaries, phase
    /// attribution — is bit-identical with tracing on or off, and the
    /// recorded events themselves form a valid, nested, cycle-monotone
    /// timeline bounded by the session's finish cycle.
    #[test]
    fn an_active_sink_never_perturbs_a_session(
        preset in arbitrary_preset(),
        policy in arbitrary_policy(),
        sender_steps in arbitrary_steps(),
        receiver_steps in arbitrary_steps(),
        seed in 0u64..1000,
        limit in 10_000u64..200_000,
    ) {
        let config = preset_machine_config(preset, policy, seed);
        let programs = [
            build_program("sender", 1, &sender_steps),
            build_program("receiver", 2, &receiver_steps),
        ];

        let mut plain = Machine::new(config).unwrap();
        let baseline = plain.run_session(&programs, &mut [], limit);

        let mut traced = Machine::new(config).unwrap();
        traced.enable_tracing();
        let report = traced.run_session(&programs, &mut [], limit);

        // Bit-identical observable behaviour, including every measured
        // latency (the decoded bits downstream) and the phase attribution.
        prop_assert_eq!(&report, &baseline);
        prop_assert_eq!(traced.now(), plain.now());
        prop_assert_eq!(report.phase_cycles().total(), baseline.phase_cycles().total());

        // The null sink records nothing; the active one records a valid
        // timeline: per-domain nesting, monotone cycles, balanced spans.
        prop_assert!(plain.trace_events().is_empty());
        let events = traced.take_trace();
        prop_assert!(!events.is_empty());
        prop_assert!(export::validate(&events).is_ok(), "{:?}", export::validate(&events));
        let begins = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Begin { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::End { .. }))
            .count();
        prop_assert_eq!(begins, ends);
        prop_assert!(begins > 0);
        for event in &events {
            prop_assert!(event.at <= report.finished_at);
        }
    }

    /// Draining the sink and rerunning on a reset machine reproduces the
    /// exact event stream: telemetry is as deterministic as the results.
    #[test]
    fn recorded_timelines_are_reproducible(
        preset in arbitrary_preset(),
        policy in arbitrary_policy(),
        steps in arbitrary_steps(),
        seed in 0u64..1000,
    ) {
        let config = preset_machine_config(preset, policy, seed);
        let programs = [build_program("solo", 1, &steps)];

        let mut machine = Machine::new(config).unwrap();
        machine.enable_tracing();
        machine.run_session(&programs, &mut [], 100_000);
        let first = machine.take_trace();

        machine.reset(config).unwrap();
        machine.enable_tracing();
        machine.run_session(&programs, &mut [], 100_000);
        let second = machine.take_trace();

        prop_assert_eq!(first, second);
    }
}
