//! Noise processes.
//!
//! Section VI of the paper analyses how "noisy cache lines" — lines loaded
//! into the target set by other code on the core — disturb the LRU channel
//! but barely affect the WB channel (Figure 8).  [`NoisyNeighbor`] compiles
//! the program that produces exactly that interference: it periodically
//! touches lines that map to the attacked set.

use crate::memlayout::SetLines;
use crate::process::AddressSpace;
use crate::session::TraceProgram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_cache::addr::CacheGeometry;
use sim_cache::line::DomainId;

/// A noise process that injects "noisy cache lines" into one target set.
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
    /// The seed of the load/store decision stream.
    seed: u64,
}

impl NoisyNeighbor {
    /// Creates a noise process touching `line_count` lines of `set` every
    /// `interval` cycles, a `store_fraction` of the touches being stores.
    ///
    /// The caller guarantees `line_count >= 1`, `interval >= 1` and a
    /// `store_fraction` in `[0, 1]`; `wb_channel`'s channel configuration
    /// builder rejects any other noise.
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
            lines: SetLines::build(space, geometry, set, line_count, 9_000),
            interval,
            store_fraction,
            seed,
        }
    }

    /// Compiles the noise process's schedule up to (at least) `limit` cycles
    /// of session time into a [`TraceProgram`].
    ///
    /// The process runs forever; the compiled program covers the whole
    /// session horizon by over-provisioning iterations (each wait-plus-touch
    /// cycle consumes more than `interval` cycles, so `limit / interval + 4`
    /// iterations can never be exhausted before the deadline).  Each touch
    /// draws its load/store decision from the constructor seed's stream and
    /// cycles through the noisy lines in order.
    pub fn compile(&self, limit: u64) -> TraceProgram {
        let mut program = TraceProgram::new(self.name.clone(), self.domain);
        self.compile_into(limit, &mut program);
        program
    }

    /// [`NoisyNeighbor::compile`] into an existing program: clears it and
    /// rebuilds the schedule in place, keeping its name, domain and arena
    /// capacity.
    pub fn compile_into(&self, limit: u64, program: &mut TraceProgram) {
        program.clear();
        program.phase(crate::telemetry::Phase::Noise);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let iterations = limit / self.interval + 4;
        program.reserve(2 * iterations as usize, iterations as usize, 0);
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
    }
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
        let noise = NoisyNeighbor::new(AddressSpace::new(ProcessId(5)), g, set, 3, 500, 0.0, 5, 42);
        let program = noise.compile(50_000);
        assert!(program.name().contains("set33"));
        assert_eq!(program.stats().ops, 50_000 / 500 + 4);
        let report = machine.run_session(std::slice::from_ref(&program), &mut [], 50_000);
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
        assert_eq!(
            report.programs[0].summary.writes, 0,
            "load noise never stores"
        );
    }

    #[test]
    fn store_noise_dirties_lines() {
        let mut machine = Machine::new(MachineConfig::ideal(PolicyKind::TrueLru, 1)).unwrap();
        let g = machine.l1_geometry();
        let set = 12;
        let noise = NoisyNeighbor::new(AddressSpace::new(ProcessId(6)), g, set, 2, 200, 1.0, 6, 43);
        let program = noise.compile(20_000);
        let report = machine.run_session(std::slice::from_ref(&program), &mut [], 20_000);
        assert!(report.hit_limit, "the schedule outlasts the session");
        assert_eq!(
            report.programs[0].summary.reads, 0,
            "store noise never loads"
        );
        assert!(machine.hierarchy().l1().dirty_count_in_set(set) > 0);
    }
}
