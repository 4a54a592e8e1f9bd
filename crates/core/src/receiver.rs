//! The WB-channel receiver (Algorithm 2 + the receiver half of Algorithm 3).
//!
//! The receiver first fills the target set with its own clean lines
//! (initialisation phase), then once per sampling period measures the latency
//! of replacing the target set with a pointer-chasing walk over one of two
//! alternating replacement sets.  Because the decode itself refills the
//! target set with clean lines, no separate re-initialisation is needed —
//! the property the paper highlights at the end of Section IV.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_cache::line::DomainId;
use sim_cache::trace::TraceOp;
use sim_core::memlayout::ChannelLayout;
use sim_core::session::TraceProgram;
use sim_core::telemetry::Phase;

/// The covert-channel receiver: a sampling schedule over its channel layout,
/// compiled into a [`TraceProgram`] for the simulated SMT core.
#[derive(Debug)]
pub struct WbReceiver {
    name: String,
    domain: DomainId,
    layout: ChannelLayout,
    /// Sampling period `Tr` in cycles.
    period: u64,
    max_samples: usize,
    /// The seed the per-sample shuffle stream derives from.
    seed: u64,
    /// Cycle at which the sender's first period starts; the first sample is
    /// taken half a period after this rendezvous point.
    start_at: u64,
}

impl WbReceiver {
    /// Creates a receiver that takes `max_samples` measurements, one per
    /// `period` cycles (at least one), sampling `period / 2` cycles into
    /// each period.  Sampling mid-period keeps the measurement away from
    /// the sender's encoding burst at the period start, which is what a
    /// careful attacker does.
    pub fn new(
        domain: DomainId,
        layout: ChannelLayout,
        period: u64,
        max_samples: usize,
        seed: u64,
    ) -> WbReceiver {
        WbReceiver {
            name: "wb-receiver".to_owned(),
            domain,
            layout,
            period: period.max(1),
            max_samples,
            seed,
            start_at: 0,
        }
    }

    /// Aligns the first sample to half a period after the given absolute
    /// cycle — the rendezvous time the sender and receiver agreed on.
    #[must_use]
    pub fn with_start_epoch(mut self, start_at: u64) -> WbReceiver {
        self.start_at = start_at;
        self
    }

    /// Compiles the receiver's full sampling schedule into a
    /// [`TraceProgram`] for [`sim_core::machine::Machine::run_session`]: the
    /// initialisation loads (warm both replacement sets into the outer cache
    /// levels, so the first decodes are L2-served, then fill the target set
    /// with the receiver's own clean lines — the paper's initialisation
    /// phase), the first-sample alignment wait half a period into the first
    /// period, and per sample a measured pointer chase over the alternating
    /// shuffled replacement sets followed by the period wait anchored at the
    /// chase's issue time.  The shuffles are drawn from the constructor's
    /// seed.
    pub fn compile(&self) -> TraceProgram {
        let mut program = TraceProgram::new(self.name.clone(), self.domain);
        self.compile_into(&mut program);
        program
    }

    /// [`WbReceiver::compile`] into an existing program: clears it and
    /// rebuilds the schedule in place, keeping its name, domain and arena
    /// capacity.  Each sample's shuffle is drawn straight into the chase
    /// arena.
    pub fn compile_into(&self, program: &mut TraceProgram) {
        program.clear();
        if self.max_samples == 0 {
            // Nothing to sample: the receiver does not even initialise.
            return;
        }
        // Steps: the prime batch and the floor wait, then per sample an
        // anchor, a chase and a period wait.
        let replacement = self.layout.replacement_a.len();
        program.reserve(
            2 + 3 * self.max_samples,
            2 * replacement + self.layout.target_lines.len(),
            self.max_samples * replacement,
        );
        program
            .phase(Phase::Prime)
            .ops(self.layout.prime_lines().map(TraceOp::read));
        program
            .phase(Phase::Wait)
            .wait_floor(self.start_at, self.period / 2);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7265_6376);
        for sample in 0..self.max_samples {
            program.phase(Phase::Decode);
            program.anchor();
            let replacement = self.layout.replacement_for(sample as u64);
            program.chase_shuffled(replacement.lines(), &mut rng);
            if sample + 1 < self.max_samples {
                program.phase(Phase::Wait).wait_anchor(self.period);
            }
        }
        if cfg!(debug_assertions) {
            program.assert_valid();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cache::addr::CacheGeometry;
    use sim_cache::policy::PolicyKind;
    use sim_cache::trace::TraceKind;
    use sim_core::machine::{Machine, MachineConfig};
    use sim_core::session::TraceStep;

    fn layout() -> ChannelLayout {
        crate::PartyLines::build(CacheGeometry::xeon_l1d(), crate::REPLACEMENT_SIZE).receiver
    }

    /// The chase orders of the compiled program, one per sample.
    fn chases(program: &TraceProgram) -> Vec<&[sim_cache::addr::PhysAddr]> {
        program
            .steps()
            .iter()
            .filter_map(|&step| match step {
                TraceStep::Chase { start, end } => Some(&program.chase_arena()[start..end]),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn init_phase_warms_replacement_sets_then_fills_the_target_set() {
        let receiver = WbReceiver::new(1, layout(), 5_000, 4, 9);
        let program = receiver.compile();
        // One batch of init loads comes first.
        let TraceStep::Ops { start, end } = program.steps()[0] else {
            panic!("the program starts with its init loads");
        };
        let init = &program.op_arena()[start..end];
        assert!(init.iter().all(|op| op.kind == TraceKind::Read));
        // 10 + 10 replacement-set lines warmed, then the 8 target lines.
        let reference = layout();
        let expected: Vec<u64> = reference
            .replacement_a
            .lines()
            .iter()
            .chain(reference.replacement_b.lines())
            .chain(reference.target_lines.lines())
            .map(|a| a.value())
            .collect();
        let loaded: Vec<u64> = init.iter().map(|op| op.addr.value()).collect();
        assert_eq!(loaded.len(), 28);
        assert_eq!(loaded, expected, "target set is initialised last");
    }

    #[test]
    fn collects_the_requested_number_of_samples_and_stops() {
        let receiver = WbReceiver::new(1, layout(), 5_000, 5, 9);
        let program = receiver.compile();
        assert_eq!(chases(&program).len(), 5);
        let mut machine = Machine::new(MachineConfig::ideal(PolicyKind::TreePlru, 0)).unwrap();
        let report = machine.run_session(std::slice::from_ref(&program), &mut [], 1_000_000);
        let receiver = &report.programs[0];
        assert!(
            receiver.finished,
            "the receiver stops after its last sample"
        );
        assert_eq!(receiver.measurements.len(), 5);
        assert_eq!(report.finished_at, receiver.measurements[4].at);
        // No samples: the program is empty.
        let idle = WbReceiver::new(1, layout(), 5_000, 0, 9).compile();
        assert!(idle.steps().is_empty());
    }

    #[test]
    fn replacement_sets_alternate_between_decodes() {
        let receiver = WbReceiver::new(1, layout(), 1_000, 4, 9);
        let program = receiver.compile();
        let chases = chases(&program);
        assert_eq!(chases.len(), 4);
        let set_of = |addrs: &[sim_cache::addr::PhysAddr]| -> Vec<u64> {
            let mut v: Vec<u64> = addrs.iter().map(|p| p.value()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            set_of(chases[0]),
            set_of(chases[2]),
            "decode 0 and 2 use set A"
        );
        assert_eq!(
            set_of(chases[1]),
            set_of(chases[3]),
            "decode 1 and 3 use set B"
        );
        assert_ne!(set_of(chases[0]), set_of(chases[1]), "A and B are disjoint");
        assert_ne!(chases[0], chases[2], "each decode draws a fresh order");
    }

    #[test]
    fn sampling_points_are_one_period_apart() {
        let receiver = WbReceiver::new(1, layout(), 2_000, 3, 9);
        let program = receiver.compile();
        let waits: Vec<TraceStep> = program
            .steps()
            .iter()
            .copied()
            .filter(|step| !matches!(step, TraceStep::Ops { .. } | TraceStep::Chase { .. }))
            .collect();
        // The first sample lands half a period after init (or the epoch, if
        // later); each later one a period after the previous chase issued.
        let period = [TraceStep::WaitAnchor { offset: 2_000 }, TraceStep::Anchor];
        let mut expected = vec![
            TraceStep::WaitFloor {
                floor: 0,
                offset: 1_000,
            },
            TraceStep::Anchor,
        ];
        expected.extend(period.repeat(2));
        assert_eq!(waits, expected);
        // On a machine, the chases start one period apart exactly.
        let mut machine = Machine::new(MachineConfig::ideal(PolicyKind::TreePlru, 0)).unwrap();
        let report = machine.run_session(std::slice::from_ref(&program), &mut [], 1_000_000);
        let starts: Vec<u64> = report.programs[0]
            .measurements
            .iter()
            .map(|m| m.at - m.measured)
            .collect();
        assert_eq!(starts[1] - starts[0], 2_000);
        assert_eq!(starts[2] - starts[1], 2_000);
    }
}
