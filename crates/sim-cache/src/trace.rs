//! Batched trace execution.
//!
//! The bulk paths of every experiment — warming loops, replacement sweeps,
//! prime/probe passes, throughput benchmarks — issue long runs of accesses
//! where only the *aggregate* matters: total cycles, per-level hit counts,
//! write-back traffic.  Driving those through
//! [`crate::hierarchy::CacheHierarchy::read`] one call at a time forces the
//! caller to receive, and usually collect, one
//! [`crate::outcome::AccessOutcome`] per access.
//!
//! [`TraceOp`] and [`TraceSummary`] are the batched alternative:
//! [`crate::hierarchy::CacheHierarchy::run_trace`] executes a slice of
//! operations back-to-back and folds every outcome into one summary, so the
//! bulk paths allocate nothing and touch no per-access state.  The per-op
//! semantics (ordering, latency attribution, write-backs) are identical to the
//! per-access API — the batch is purely an execution-efficiency contract.

use crate::addr::PhysAddr;
use crate::outcome::{AccessKind, AccessOutcome, HitLevel};
use std::fmt;

/// The kind of one batched trace operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A demand load.
    Read,
    /// A demand store.
    Write,
    /// A `clflush`-style invalidation.
    Flush,
}

/// One operation of a batched trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceOp {
    /// What to do.
    pub kind: TraceKind,
    /// The address to do it to.
    pub addr: PhysAddr,
}

impl TraceOp {
    /// A demand load of `addr`.
    pub fn read(addr: PhysAddr) -> TraceOp {
        TraceOp {
            kind: TraceKind::Read,
            addr,
        }
    }

    /// A demand store to `addr`.
    pub fn write(addr: PhysAddr) -> TraceOp {
        TraceOp {
            kind: TraceKind::Write,
            addr,
        }
    }

    /// A flush of the line containing `addr`.
    pub fn flush(addr: PhysAddr) -> TraceOp {
        TraceOp {
            kind: TraceKind::Flush,
            addr,
        }
    }
}

/// Aggregate outcome of one batched trace.
///
/// The sum of the per-access [`AccessOutcome`]s, and the only aggregate
/// record of them: the per-process counters of the stealth tables are read
/// from it.  Hit levels count *demand* accesses only (flushes are tallied
/// separately), and
/// `writebacks` counts dirty write-backs performed at **all** levels, exactly
/// like [`AccessOutcome::writebacks`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total operations executed (reads + writes + flushes).
    pub ops: u64,
    /// Total cycles attributed to the trace.
    pub cycles: u64,
    /// Demand loads executed.
    pub reads: u64,
    /// Demand stores executed.
    pub writes: u64,
    /// Flushes executed.
    pub flushes: u64,
    /// Demand loads that missed the L1.
    pub read_misses: u64,
    /// Demand stores that missed the L1.
    pub write_misses: u64,
    /// Demand accesses served by the L1 data cache.
    pub l1_hits: u64,
    /// Demand accesses served by the L2.
    pub l2_hits: u64,
    /// Demand accesses served by the LLC.
    pub llc_hits: u64,
    /// Demand accesses served by main memory.
    pub memory_accesses: u64,
    /// Dirty write-backs performed across all levels.
    pub writebacks: u64,
    /// Accesses that evicted a dirty L1 victim (the WB-channel event).
    pub dirty_victims: u64,
}

impl TraceSummary {
    /// Folds one access outcome into the summary.
    #[inline]
    pub fn absorb(&mut self, outcome: &AccessOutcome) {
        self.ops += 1;
        self.cycles += outcome.cycles;
        self.writebacks += u64::from(outcome.writebacks);
        if outcome.l1_victim_dirty {
            self.dirty_victims += 1;
        }
        match outcome.kind {
            AccessKind::Flush => {
                self.flushes += 1;
                return;
            }
            AccessKind::Read => {
                self.reads += 1;
                if outcome.hit != HitLevel::L1D {
                    self.read_misses += 1;
                }
            }
            AccessKind::Write => {
                self.writes += 1;
                if outcome.hit != HitLevel::L1D {
                    self.write_misses += 1;
                }
            }
            // Prefetches are not demand accesses: like flushes they count
            // toward ops/cycles/writebacks only, never the hit levels.
            AccessKind::Prefetch => return,
        }
        match outcome.hit {
            HitLevel::L1D => self.l1_hits += 1,
            HitLevel::L2 => self.l2_hits += 1,
            HitLevel::L3 => self.llc_hits += 1,
            HitLevel::Memory => self.memory_accesses += 1,
        }
    }

    /// Merges another summary into this one (for chunked traces).
    pub fn merge(&mut self, other: &TraceSummary) {
        self.ops += other.ops;
        self.cycles += other.cycles;
        self.reads += other.reads;
        self.writes += other.writes;
        self.flushes += other.flushes;
        self.read_misses += other.read_misses;
        self.write_misses += other.write_misses;
        self.l1_hits += other.l1_hits;
        self.l2_hits += other.l2_hits;
        self.llc_hits += other.llc_hits;
        self.memory_accesses += other.memory_accesses;
        self.writebacks += other.writebacks;
        self.dirty_victims += other.dirty_victims;
    }

    /// Demand accesses executed (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Demand accesses that missed the L1.
    pub fn l1_misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops in {} cycles (L1 {} / L2 {} / LLC {} / mem {}, {} writebacks)",
            self.ops,
            self.cycles,
            self.l1_hits,
            self.l2_hits,
            self.llc_hits,
            self.memory_accesses,
            self.writebacks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;

    fn outcome(kind: AccessKind, hit: HitLevel, cycles: u64, dirty: bool) -> AccessOutcome {
        AccessOutcome {
            kind,
            hit,
            cycles,
            l1_filled: hit != HitLevel::L1D,
            l1_evicted: dirty.then_some(LineAddr(0)),
            l1_victim_dirty: dirty,
            writebacks: u32::from(dirty),
        }
    }

    #[test]
    fn absorb_classifies_kinds_and_levels() {
        let mut s = TraceSummary::default();
        s.absorb(&outcome(AccessKind::Read, HitLevel::L1D, 4, false));
        s.absorb(&outcome(AccessKind::Read, HitLevel::L2, 22, true));
        s.absorb(&outcome(AccessKind::Write, HitLevel::Memory, 200, false));
        s.absorb(&outcome(AccessKind::Flush, HitLevel::Memory, 19, false));
        assert_eq!(s.ops, 4);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.read_misses, 1);
        assert_eq!(s.write_misses, 1);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.l2_hits, 1);
        assert_eq!(s.llc_hits, 0);
        assert_eq!(s.memory_accesses, 1, "flushes do not count as demand");
        assert_eq!(s.cycles, 4 + 22 + 200 + 19);
        assert_eq!(s.writebacks, 1);
        assert_eq!(s.dirty_victims, 1);
        assert_eq!(s.accesses(), 3);
        assert_eq!(s.l1_misses(), 2);
    }

    #[test]
    fn prefetch_outcomes_never_touch_the_demand_counters() {
        let mut s = TraceSummary::default();
        let mut prefetch = outcome(AccessKind::Prefetch, HitLevel::L1D, 0, true);
        prefetch.writebacks = 2;
        s.absorb(&prefetch);
        assert_eq!(s.ops, 1);
        assert_eq!(s.writebacks, 2);
        assert_eq!(s.dirty_victims, 1);
        assert_eq!(s.accesses(), 0, "prefetches are not demand accesses");
        assert_eq!(
            s.l1_hits + s.l2_hits + s.llc_hits + s.memory_accesses,
            s.accesses(),
            "hit levels partition the demand accesses exactly"
        );
    }

    #[test]
    fn merge_is_fieldwise_addition() {
        let mut a = TraceSummary::default();
        a.absorb(&outcome(AccessKind::Read, HitLevel::L1D, 4, false));
        let mut b = TraceSummary::default();
        b.absorb(&outcome(AccessKind::Write, HitLevel::L2, 22, true));
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.ops, 2);
        assert_eq!(merged.cycles, 26);
        assert_eq!(merged.writebacks, 1);
    }

    #[test]
    fn constructors_tag_the_kind() {
        assert_eq!(TraceOp::read(PhysAddr(0)).kind, TraceKind::Read);
        assert_eq!(TraceOp::write(PhysAddr(0)).kind, TraceKind::Write);
        assert_eq!(TraceOp::flush(PhysAddr(0)).kind, TraceKind::Flush);
    }

    #[test]
    fn display_mentions_levels() {
        let s = TraceSummary::default();
        assert!(s.to_string().contains("L1"));
    }
}
