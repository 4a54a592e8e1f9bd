//! Benign co-runner workloads.
//!
//! Table VII of the paper compares the sender's cache miss rates against a
//! baseline in which the sender shares its physical core with a benign `g++`
//! compile job.  We obviously cannot run gcc inside the simulator, so
//! [`CompilerWorkload`] emulates the cache *footprint* of a compiler front
//! end: streaming reads over a large source buffer, hash-table-like random
//! probes into a symbol table, and bursts of stores into an output buffer.

use crate::process::AddressSpace;
use crate::session::TraceProgram;
use crate::telemetry::Phase;
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
/// Accesses emitted per [`CompilerWorkload::refill`]: bounds the chunk arena
/// (the stream itself is unbounded).
pub const CHUNK_ACCESSES: usize = 1024;

/// A `g++`-like benign co-runner.
///
/// The workload is open loop — it draws only from its own RNG and never
/// reacts to timing — so its unbounded stream is emitted in fixed-size
/// chunks: [`crate::machine::Machine::run_session`] refills a reused
/// [`TraceProgram`] whenever the previous chunk is drained.
#[derive(Debug)]
pub struct CompilerWorkload {
    space: AddressSpace,
    domain: DomainId,
    rng: StdRng,
    source_cursor: u64,
    output_cursor: u64,
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
        }
    }

    /// An empty chunk arena for [`CompilerWorkload::refill`], named `g++`
    /// and attributed to the workload's domain.
    pub fn chunk(&self) -> TraceProgram {
        TraceProgram::new("g++", self.domain)
    }

    /// Clears `program` and emits the next [`CHUNK_ACCESSES`] accesses of
    /// the stream into it, each followed by a relative wait of the think
    /// time (the compute between two memory accesses).
    pub fn refill(&mut self, program: &mut TraceProgram) {
        program.clear();
        program.phase(Phase::Noise);
        for _ in 0..CHUNK_ACCESSES {
            let roll: f64 = self.rng.gen();
            if roll < STORE_FRACTION {
                // Sequential stores into the output buffer (dirty lines!).
                let addr = self
                    .space
                    .translate(OUTPUT_BASE + (self.output_cursor % OUTPUT_BYTES));
                self.output_cursor += 64;
                program.store(addr);
            } else if roll < STORE_FRACTION + PROBE_FRACTION {
                // Random probe into the symbol table.
                let offset = self.rng.gen_range(0..SYMBOL_TABLE_BYTES) & !63;
                program.load(self.space.translate(SYMBOLS_BASE + offset));
            } else {
                // Streaming read of the source text.
                let addr = self
                    .space
                    .translate(SOURCE_BASE + (self.source_cursor % SOURCE_BYTES));
                self.source_cursor += 64;
                program.load(addr);
            }
            program.wait_rel(THINK_TIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig};
    use crate::process::ProcessId;
    use crate::session::TraceStep;
    use sim_cache::policy::PolicyKind;
    use sim_cache::trace::TraceKind;

    #[test]
    fn compiler_workload_touches_all_three_regions() {
        let space = AddressSpace::new(ProcessId(3));
        let mut workload = CompilerWorkload::new(space, 3, 99);
        let mut chunk = workload.chunk();
        workload.refill(&mut chunk);
        assert_eq!(chunk.name(), "g++");
        assert_eq!(chunk.domain(), 3);
        // One access then one think-time wait, CHUNK_ACCESSES times.
        assert_eq!(chunk.steps().len(), 2 * CHUNK_ACCESSES);
        assert!(chunk
            .steps()
            .iter()
            .skip(1)
            .step_by(2)
            .all(|&s| s == TraceStep::WaitRel { offset: THINK_TIME }));
        let region = |base: u64, bytes: u64| {
            let lo = space.translate(base).value();
            move |addr: u64| (lo..lo + bytes).contains(&addr)
        };
        let (source, symbols, output) = (
            region(SOURCE_BASE, SOURCE_BYTES),
            region(SYMBOLS_BASE, SYMBOL_TABLE_BYTES),
            region(OUTPUT_BASE, OUTPUT_BYTES),
        );
        let ops = chunk.op_arena();
        assert_eq!(ops.len(), CHUNK_ACCESSES);
        let count = |pred: &dyn Fn(&sim_cache::trace::TraceOp) -> bool| {
            ops.iter().filter(|op| pred(op)).count()
        };
        let stores = count(&|op| op.kind == TraceKind::Write && output(op.addr.value()));
        let probes = count(&|op| op.kind == TraceKind::Read && symbols(op.addr.value()));
        let streams = count(&|op| op.kind == TraceKind::Read && source(op.addr.value()));
        assert_eq!(stores + probes + streams, CHUNK_ACCESSES, "no stray access");
        // Roughly 20% stores, 35% probes and 45% streaming reads.
        let tenth = CHUNK_ACCESSES / 10;
        assert!(stores > tenth && probes > 2 * tenth && streams > 3 * tenth);

        // The multi-megabyte working set cannot fit in the L1/L2: there must
        // be misses at every level, giving the non-trivial baseline miss
        // rates of Table VII.
        let mut machine = Machine::new(MachineConfig::ideal(PolicyKind::TreePlru, 0)).unwrap();
        let report = machine.run_session(&[], std::slice::from_mut(&mut workload), 500_000);
        let summary = report.programs[0].summary;
        assert!(summary.reads > 1_000, "loads: {}", summary.reads);
        assert!(summary.writes > 100, "stores: {}", summary.writes);
        assert!(summary.l1_misses() > 0);
        assert!(summary.llc_hits + summary.memory_accesses > 0);
    }

    #[test]
    fn compiler_workload_creates_dirty_lines_across_sets() {
        let mut machine = Machine::new(MachineConfig::ideal(PolicyKind::TreePlru, 1)).unwrap();
        let mut workload = CompilerWorkload::new(AddressSpace::new(ProcessId(4)), 4, 7);
        let report = machine.run_session(&[], std::slice::from_mut(&mut workload), 300_000);
        assert!(report.hit_limit, "the stream never runs dry");
        assert!(!report.programs[0].finished);
        let g = machine.l1_geometry();
        let dirty_sets = (0..g.num_sets)
            .filter(|&s| machine.hierarchy().l1().dirty_count_in_set(s) > 0)
            .count();
        assert!(dirty_sets > 4, "stores should dirty lines in many sets");
    }
}
