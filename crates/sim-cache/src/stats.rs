//! Access statistics.
//!
//! The paper's stealthiness analysis (Tables VI and VII) is entirely about
//! counter values: cache loads per millisecond and per-level miss rates of
//! the sender process.  [`CacheStats`] is the per-level counter block the
//! simulator maintains; the per-process counts those tables read are each
//! program's [`crate::trace::TraceSummary`].

use std::fmt;
use std::ops::{Add, AddAssign};

/// Counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Loads that hit in this level.
    pub read_hits: u64,
    /// Loads that missed in this level.
    pub read_misses: u64,
    /// Stores that hit in this level.
    pub write_hits: u64,
    /// Stores that missed in this level.
    pub write_misses: u64,
    /// Lines filled into this level.
    pub fills: u64,
    /// Valid lines evicted from this level.
    pub evictions: u64,
    /// Dirty lines written back to the next level on eviction or flush.
    pub writebacks: u64,
    /// Lines filled due to prefetches rather than demand accesses.
    pub prefetch_fills: u64,
    /// Lines invalidated by flush instructions.
    pub flushes: u64,
}

impl CacheStats {
    /// Total hits (reads + writes).
    pub fn hits(&self) -> u64 {
        self.read_hits + self.write_hits
    }

    /// Total misses (reads + writes).
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Total demand accesses observed by this level.
    pub fn accesses(&self) -> u64 {
        self.hits() + self.misses()
    }

    /// Miss rate in `[0, 1]`; zero when the level saw no accesses.
    pub fn miss_rate(&self) -> f64 {
        let accesses = self.accesses();
        if accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / accesses as f64
        }
    }

    /// Load (read) accesses only — the quantity of the paper's Table VI.
    pub fn loads(&self) -> u64 {
        self.read_hits + self.read_misses
    }

    /// Load miss rate in `[0, 1]`.
    pub fn load_miss_rate(&self) -> f64 {
        let loads = self.loads();
        if loads == 0 {
            0.0
        } else {
            self.read_misses as f64 / loads as f64
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = CacheStats::default();
    }
}

impl Add for CacheStats {
    type Output = CacheStats;

    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            read_hits: self.read_hits + rhs.read_hits,
            read_misses: self.read_misses + rhs.read_misses,
            write_hits: self.write_hits + rhs.write_hits,
            write_misses: self.write_misses + rhs.write_misses,
            fills: self.fills + rhs.fills,
            evictions: self.evictions + rhs.evictions,
            writebacks: self.writebacks + rhs.writebacks,
            prefetch_fills: self.prefetch_fills + rhs.prefetch_fills,
            flushes: self.flushes + rhs.flushes,
        }
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        *self = *self + rhs;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accesses={} hits={} misses={} miss_rate={:.2}% writebacks={}",
            self.accesses(),
            self.hits(),
            self.misses(),
            self.miss_rate() * 100.0,
            self.writebacks
        )
    }
}

/// Statistics for a whole [`crate::hierarchy::CacheHierarchy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 data-cache counters.
    pub l1d: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// Last-level-cache counters.
    pub llc: CacheStats,
    /// Accesses that had to go all the way to memory: demand fetches plus
    /// dirty LLC victims written back to memory.
    pub memory_accesses: u64,
    /// Total cycles attributed to demand accesses.
    pub total_cycles: u64,
    /// Dirty L1 lines written back: evicted into the L2, or flushed (a
    /// flushed dirty line goes straight to memory; no L2 copy is created).
    pub l1_writebacks: u64,
    /// Dirty L2 lines written back: evicted or spilled into the LLC, or
    /// flushed (straight to memory).
    pub l2_writebacks: u64,
    /// Dirty LLC lines written back to memory — the end of the spill chain.
    /// Every eviction-driven write-back here also counts one memory access.
    pub llc_writebacks: u64,
    /// Upper-level copies removed to maintain an inclusion policy: inclusive
    /// back-invalidation after an LLC eviction, or the L1-copy fold-in when
    /// an exclusive LLC absorbs an L2 victim.  Dirty copies removed this way
    /// additionally count as write-backs at their level.
    pub back_invalidations: u64,
}

impl HierarchyStats {
    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = HierarchyStats::default();
    }
}

impl Add for HierarchyStats {
    type Output = HierarchyStats;

    fn add(self, rhs: HierarchyStats) -> HierarchyStats {
        HierarchyStats {
            l1d: self.l1d + rhs.l1d,
            l2: self.l2 + rhs.l2,
            llc: self.llc + rhs.llc,
            memory_accesses: self.memory_accesses + rhs.memory_accesses,
            total_cycles: self.total_cycles + rhs.total_cycles,
            l1_writebacks: self.l1_writebacks + rhs.l1_writebacks,
            l2_writebacks: self.l2_writebacks + rhs.l2_writebacks,
            llc_writebacks: self.llc_writebacks + rhs.llc_writebacks,
            back_invalidations: self.back_invalidations + rhs.back_invalidations,
        }
    }
}

impl AddAssign for HierarchyStats {
    fn add_assign(&mut self, rhs: HierarchyStats) {
        *self = *self + rhs;
    }
}

impl fmt::Display for HierarchyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "L1D: {}", self.l1d)?;
        writeln!(f, "L2 : {}", self.l2)?;
        writeln!(f, "LLC: {}", self.llc)?;
        writeln!(f, "memory accesses: {}", self.memory_accesses)?;
        write!(
            f,
            "writebacks: L1->L2 {} / L2->LLC {} / LLC->mem {} / back-invalidations {}",
            self.l1_writebacks, self.l2_writebacks, self.llc_writebacks, self.back_invalidations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_accesses() {
        let stats = CacheStats::default();
        assert_eq!(stats.miss_rate(), 0.0);
        assert_eq!(stats.load_miss_rate(), 0.0);
        assert_eq!(stats.accesses(), 0);
    }

    #[test]
    fn miss_rate_is_misses_over_accesses() {
        let stats = CacheStats {
            read_hits: 60,
            read_misses: 20,
            write_hits: 15,
            write_misses: 5,
            ..CacheStats::default()
        };
        assert_eq!(stats.accesses(), 100);
        assert!((stats.miss_rate() - 0.25).abs() < 1e-12);
        assert_eq!(stats.loads(), 80);
        assert!((stats.load_miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn addition_is_fieldwise() {
        let a = CacheStats {
            read_hits: 1,
            writebacks: 2,
            ..CacheStats::default()
        };
        let b = CacheStats {
            read_hits: 3,
            flushes: 4,
            ..CacheStats::default()
        };
        let c = a + b;
        assert_eq!(c.read_hits, 4);
        assert_eq!(c.writebacks, 2);
        assert_eq!(c.flushes, 4);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn hierarchy_stats_add_and_reset() {
        let mut h = HierarchyStats::default();
        h.l1d.read_hits = 5;
        h.memory_accesses = 2;
        let sum = h + h;
        assert_eq!(sum.l1d.read_hits, 10);
        assert_eq!(sum.memory_accesses, 4);
        let mut h2 = sum;
        h2.reset();
        assert_eq!(h2, HierarchyStats::default());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!CacheStats::default().to_string().is_empty());
        assert!(!HierarchyStats::default().to_string().is_empty());
    }
}
