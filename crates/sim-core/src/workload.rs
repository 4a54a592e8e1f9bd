//! Benign co-runner workloads.
//!
//! Table VII of the paper compares the sender's cache miss rates against a
//! baseline in which the sender shares its physical core with a benign `g++`
//! compile job.  We obviously cannot run gcc inside the simulator, so
//! [`CompilerWorkload`] emulates the cache *footprint* of a compiler front
//! end: streaming reads over a large source buffer, hash-table-like random
//! probes into a symbol table, and bursts of stores into an output buffer.

use crate::process::AddressSpace;
use crate::program::{Action, Actor, Completion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_cache::line::DomainId;

/// Size of the streaming "source text" region in bytes.
const SOURCE_BYTES: u64 = 2 * 1024 * 1024;
/// Size of the randomly probed "symbol table" region in bytes.
const SYMBOL_TABLE_BYTES: u64 = 512 * 1024;
/// Size of the sequentially written "output" region in bytes.
const OUTPUT_BYTES: u64 = 1024 * 1024;
/// Fraction of accesses that are symbol-table probes.
const PROBE_FRACTION: f64 = 0.35;
/// Fraction of accesses that are output stores.
const STORE_FRACTION: f64 = 0.20;
/// Compute cycles between memory accesses (models non-memory work).
const THINK_TIME: u64 = 6;

/// A `g++`-like benign co-runner.
#[derive(Debug)]
pub struct CompilerWorkload {
    space: AddressSpace,
    domain: DomainId,
    rng: StdRng,
    source_cursor: u64,
    output_cursor: u64,
    pending_think: bool,
}

/// Region base offsets inside the workload's virtual address space.
const SOURCE_BASE: u64 = 0x1000_0000;
const SYMBOLS_BASE: u64 = 0x2000_0000;
const OUTPUT_BASE: u64 = 0x3000_0000;

impl CompilerWorkload {
    /// Creates the workload in `space`, attributed to `domain`.
    pub fn new(space: AddressSpace, domain: DomainId, seed: u64) -> CompilerWorkload {
        CompilerWorkload {
            space,
            domain,
            rng: StdRng::seed_from_u64(seed),
            source_cursor: 0,
            output_cursor: 0,
            pending_think: false,
        }
    }
}

impl Actor for CompilerWorkload {
    fn name(&self) -> &str {
        "g++"
    }

    fn domain(&self) -> DomainId {
        self.domain
    }

    fn next_action(&mut self, _now: u64) -> Action {
        if self.pending_think {
            self.pending_think = false;
            return Action::Compute(THINK_TIME);
        }
        self.pending_think = true;
        let roll: f64 = self.rng.gen();
        if roll < STORE_FRACTION {
            // Sequential stores into the output buffer (dirty lines!).
            let addr = self
                .space
                .translate(OUTPUT_BASE + (self.output_cursor % OUTPUT_BYTES));
            self.output_cursor += 64;
            Action::Store(addr)
        } else if roll < STORE_FRACTION + PROBE_FRACTION {
            // Random probe into the symbol table.
            let offset = self.rng.gen_range(0..SYMBOL_TABLE_BYTES) & !63;
            Action::Load(self.space.translate(SYMBOLS_BASE + offset))
        } else {
            // Streaming read of the source text.
            let addr = self
                .space
                .translate(SOURCE_BASE + (self.source_cursor % SOURCE_BYTES));
            self.source_cursor += 64;
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
    fn compiler_workload_touches_all_three_regions() {
        let mut machine = Machine::new(MachineConfig::ideal(PolicyKind::TreePlru, 0)).unwrap();
        let mut workload = CompilerWorkload::new(AddressSpace::new(ProcessId(3)), 3, 99);
        {
            let mut actors: Vec<&mut dyn Actor> = vec![&mut workload];
            machine.run(&mut actors, 500_000);
        }
        let perf = machine.perf(3);
        assert!(perf.l1_loads > 1_000, "loads: {}", perf.l1_loads);
        assert!(perf.stores > 100, "stores: {}", perf.stores);
        // The multi-megabyte working set cannot fit in the L1/L2: there must
        // be misses at every level, giving the non-trivial baseline miss
        // rates of Table VII.
        assert!(perf.l1_miss_rate() > 0.0);
        assert!(perf.l2_miss_rate() > 0.0);
        assert_eq!(workload.name(), "g++");
    }

    #[test]
    fn compiler_workload_creates_dirty_lines_across_sets() {
        let mut machine = Machine::new(MachineConfig::ideal(PolicyKind::TreePlru, 1)).unwrap();
        let mut workload = CompilerWorkload::new(AddressSpace::new(ProcessId(4)), 4, 7);
        {
            let mut actors: Vec<&mut dyn Actor> = vec![&mut workload];
            machine.run(&mut actors, 300_000);
        }
        let g = machine.l1_geometry();
        let dirty_sets = (0..g.num_sets)
            .filter(|&s| machine.hierarchy().l1().dirty_count_in_set(s) > 0)
            .count();
        assert!(dirty_sets > 4, "stores should dirty lines in many sets");
    }
}
