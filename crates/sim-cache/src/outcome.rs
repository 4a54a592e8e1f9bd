//! Access outcomes.
//!
//! Every demand access to the hierarchy returns an [`AccessOutcome`]: where
//! the access was served from, whether the L1 victim was dirty (the bit of
//! information the WB channel extracts), and the cycle cost.  The cost is the
//! value the receiver's pointer-chasing loop accumulates.

use crate::addr::LineAddr;
use std::fmt;

/// The kind of memory operation performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand load.
    Read,
    /// A demand store.
    Write,
    /// A `clflush`-style invalidation.
    Flush,
    /// A hardware or software prefetch.
    Prefetch,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Flush => "flush",
            AccessKind::Prefetch => "prefetch",
        };
        f.write_str(s)
    }
}

/// Where in the hierarchy a demand access was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Served by the L1 data cache.
    L1D,
    /// Served by the L2 cache.
    L2,
    /// Served by the last-level cache.
    L3,
    /// Served by main memory.
    Memory,
}

impl fmt::Display for HitLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HitLevel::L1D => "L1D",
            HitLevel::L2 => "L2",
            HitLevel::L3 => "LLC",
            HitLevel::Memory => "memory",
        };
        f.write_str(s)
    }
}

/// The result of one access to a [`crate::hierarchy::CacheHierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Operation performed.
    pub kind: AccessKind,
    /// Level that served the access.
    pub hit: HitLevel,
    /// Total latency attributed to the access, in core cycles.
    pub cycles: u64,
    /// Whether a line was installed into the L1 as part of this access.
    pub l1_filled: bool,
    /// The line evicted from the L1 to make room, if any.
    pub l1_evicted: Option<LineAddr>,
    /// Whether that evicted L1 line was dirty (i.e. a write-back happened).
    ///
    /// This is the micro-architectural event whose latency footprint the WB
    /// channel measures.
    pub l1_victim_dirty: bool,
    /// Total number of dirty write-backs this access performed across **all**
    /// levels of the hierarchy: a dirty L1 victim pushed into the L2, a dirty
    /// L2 victim spilled into the LLC, a dirty LLC victim written to memory,
    /// and (for flushes) one per level that held a dirty copy.  Every path —
    /// demand miss, no-allocate store, random-fill, prefetch, flush — counts
    /// with the same convention, and so do the inclusion-policy flows: a
    /// dirty copy removed by inclusive back-invalidation, a dirty L1 copy
    /// folded into an exclusive LLC victim, and a dirty victim routed to the
    /// point of coherency each count exactly one write-back at the level
    /// that held the data.  This count is the one record of write-back
    /// traffic: [`crate::trace::TraceSummary`] sums it per program, and the
    /// per-level split is read off the levels' dirty state before and after
    /// the access ([`crate::cache::Cache::is_dirty`],
    /// [`crate::cache::Cache::dirty_count_in_set`]).
    pub writebacks: u32,
}

impl AccessOutcome {
    /// Convenience constructor for an L1 hit with the given latency.
    pub fn l1_hit(kind: AccessKind, cycles: u64) -> AccessOutcome {
        AccessOutcome {
            kind,
            hit: HitLevel::L1D,
            cycles,
            l1_filled: false,
            l1_evicted: None,
            l1_victim_dirty: false,
            writebacks: 0,
        }
    }
}

impl fmt::Display for AccessOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} served by {} in {} cycles (victim dirty: {})",
            self.kind, self.hit, self.cycles, self.l1_victim_dirty
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_hit_constructor() {
        let outcome = AccessOutcome::l1_hit(AccessKind::Read, 4);
        assert_eq!(outcome.hit, HitLevel::L1D);
        assert_eq!(outcome.cycles, 4);
        assert!(!outcome.l1_victim_dirty);
        assert_eq!(outcome.writebacks, 0);
    }

    #[test]
    fn display_strings() {
        assert_eq!(AccessKind::Read.to_string(), "read");
        assert_eq!(AccessKind::Flush.to_string(), "flush");
        assert_eq!(HitLevel::Memory.to_string(), "memory");
        let outcome = AccessOutcome::l1_hit(AccessKind::Write, 5);
        assert!(outcome.to_string().contains("L1D"));
    }
}
