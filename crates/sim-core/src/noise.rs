//! Noise processes.
//!
//! Section VI of the paper analyses how "noisy cache lines" — lines loaded
//! into the target set by other code on the core — disturb the LRU channel
//! but barely affect the WB channel (Figure 8).  [`NoisyNeighbor`] is the
//! actor that produces exactly that interference: it periodically touches
//! lines that map to the attacked set.

use crate::memlayout::SetLines;
use crate::process::AddressSpace;
use crate::program::{Action, Actor, Completion};
use crate::session::TraceProgram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_cache::addr::CacheGeometry;
use sim_cache::line::DomainId;

/// An actor that injects "noisy cache lines" into one target set.
#[derive(Debug)]
pub struct NoisyNeighbor {
    name: String,
    domain: DomainId,
    lines: SetLines,
    /// Cycles between consecutive touches.
    interval: u64,
    /// Fraction of touches that are stores (dirtying the noisy line), in
    /// `[0, 1]`.  The paper's noise discussion uses loads (clean lines);
    /// store noise is the stronger variant discussed in Sec. VI's closing
    /// caveat.
    store_fraction: f64,
    /// The construction seed (kept so [`NoisyNeighbor::compile`] can replay
    /// the identical load/store stream from the start).
    seed: u64,
    rng: StdRng,
    next_line: usize,
    waiting: bool,
}

impl NoisyNeighbor {
    /// Creates a noise process touching `line_count` lines of `set` every
    /// `interval` cycles.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        space: AddressSpace,
        geometry: CacheGeometry,
        set: usize,
        line_count: usize,
        interval: u64,
        store_fraction: f64,
        domain: DomainId,
        seed: u64,
    ) -> NoisyNeighbor {
        NoisyNeighbor {
            name: format!("noise@set{set}"),
            domain,
            lines: SetLines::build(space, geometry, set, line_count.max(1), 9_000),
            interval: interval.max(1),
            store_fraction: store_fraction.clamp(0.0, 1.0),
            seed,
            rng: StdRng::seed_from_u64(seed),
            next_line: 0,
            waiting: false,
        }
    }
    /// Compiles the noise process's schedule up to (at least) `limit` cycles
    /// of session time into a [`TraceProgram`].
    ///
    /// The actor runs forever; the compiled program covers the whole session
    /// horizon by over-provisioning iterations (each wait-plus-touch cycle
    /// consumes more than `interval` cycles, so `limit / interval + 4`
    /// iterations can never be exhausted before the deadline).  The
    /// load/store decisions replay the constructor seed's stream, exactly as
    /// the actor would draw them touch by touch.
    pub fn compile(&self, limit: u64) -> TraceProgram {
        let mut program = TraceProgram::new(self.name.clone(), self.domain);
        program.phase(crate::telemetry::Phase::Noise);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let iterations = limit / self.interval + 4;
        for k in 0..iterations {
            program.wait_rel(self.interval);
            let addr = self.lines.line((k as usize) % self.lines.len());
            if rng.gen_bool(self.store_fraction) {
                program.store(addr);
            } else {
                program.load(addr);
            }
        }
        if cfg!(debug_assertions) {
            program.assert_valid();
        }
        program
    }
}

impl Actor for NoisyNeighbor {
    fn name(&self) -> &str {
        &self.name
    }

    fn domain(&self) -> DomainId {
        self.domain
    }

    fn next_action(&mut self, now: u64) -> Action {
        if !self.waiting {
            self.waiting = true;
            return Action::WaitUntil(now + self.interval);
        }
        self.waiting = false;
        let addr = self.lines.line(self.next_line);
        self.next_line = (self.next_line + 1) % self.lines.len();
        if self.rng.gen_bool(self.store_fraction) {
            Action::Store(addr)
        } else {
            Action::Load(addr)
        }
    }

    fn on_completion(&mut self, _completion: &Completion) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig};
    use crate::process::ProcessId;
    use sim_cache::policy::PolicyKind;

    #[test]
    fn noisy_neighbor_touches_only_the_target_set() {
        let mut machine = Machine::new(MachineConfig::ideal(PolicyKind::TrueLru, 1)).unwrap();
        let g = machine.l1_geometry();
        let set = 33;
        let mut noise =
            NoisyNeighbor::new(AddressSpace::new(ProcessId(5)), g, set, 3, 500, 0.0, 5, 42);
        {
            let mut actors: Vec<&mut dyn Actor> = vec![&mut noise];
            machine.run(&mut actors, 50_000);
        }
        // The noise process owns lines only in the target set.
        let owned_in_target = machine.hierarchy().l1().owned_count_in_set(set, 5);
        assert!(
            owned_in_target > 0,
            "noise lines must have landed in the set"
        );
        for other in 0..g.num_sets {
            if other != set {
                assert_eq!(machine.hierarchy().l1().owned_count_in_set(other, 5), 0);
            }
        }
        assert!(noise.name().contains("set33"));
    }

    #[test]
    fn store_noise_dirties_lines() {
        let mut machine = Machine::new(MachineConfig::ideal(PolicyKind::TrueLru, 1)).unwrap();
        let g = machine.l1_geometry();
        let set = 12;
        let mut noise =
            NoisyNeighbor::new(AddressSpace::new(ProcessId(6)), g, set, 2, 200, 1.0, 6, 43);
        {
            let mut actors: Vec<&mut dyn Actor> = vec![&mut noise];
            machine.run(&mut actors, 20_000);
        }
        assert!(machine.hierarchy().l1().dirty_count_in_set(set) > 0);
    }
}
