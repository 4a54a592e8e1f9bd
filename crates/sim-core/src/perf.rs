//! Performance-counter model.
//!
//! The paper's stealthiness analysis reads Linux `perf` counters: cache loads
//! per millisecond (Table VI) and per-level miss rates of the sender process
//! (Table VII).  The simulator attributes every access outcome to the issuing
//! domain and accumulates the same counters here.

use sim_cache::line::DomainId;
use sim_cache::outcome::{AccessKind, AccessOutcome, HitLevel};
use sim_cache::trace::TraceSummary;
use std::collections::BTreeMap;

/// Counters for one process/domain, mirroring the events the paper samples
/// with `perf` (`L1-dcache-loads`, `L1-dcache-load-misses`, and the L2/LLC
/// equivalents).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Loads that reached the L1 (i.e. all demand loads).
    pub l1_loads: u64,
    /// Loads that missed in the L1.
    pub l1_load_misses: u64,
    /// Stores issued.
    pub stores: u64,
    /// Stores that missed in the L1.
    pub store_misses: u64,
    /// References that reached the L2 (L1 misses).
    pub l2_references: u64,
    /// References that missed in the L2.
    pub l2_misses: u64,
    /// References that reached the LLC (L2 misses).
    pub llc_references: u64,
    /// References that missed in the LLC (served by memory).
    pub llc_misses: u64,
    /// Cycles during which the domain was executing (busy) on the core.
    pub busy_cycles: u64,
}

impl PerfCounters {
    /// Records one access outcome.
    pub fn record(&mut self, outcome: &AccessOutcome) {
        match outcome.kind {
            AccessKind::Read => {
                self.l1_loads += 1;
                if outcome.hit != HitLevel::L1D {
                    self.l1_load_misses += 1;
                }
            }
            AccessKind::Write => {
                self.stores += 1;
                if outcome.hit != HitLevel::L1D {
                    self.store_misses += 1;
                }
            }
            AccessKind::Flush | AccessKind::Prefetch => {}
        }
        if matches!(outcome.kind, AccessKind::Read | AccessKind::Write) {
            if outcome.hit != HitLevel::L1D {
                self.l2_references += 1;
            }
            if matches!(outcome.hit, HitLevel::L3 | HitLevel::Memory) {
                self.llc_references += 1;
            }
            if outcome.hit == HitLevel::Memory {
                self.llc_misses += 1;
            }
            if matches!(outcome.hit, HitLevel::L3 | HitLevel::Memory) {
                self.l2_misses += 1;
            }
        }
        self.busy_cycles += outcome.cycles;
    }

    /// Records a whole batched-trace summary in one step — the bulk-path
    /// counterpart of [`PerfCounters::record`], with identical counter
    /// semantics (flush cycles land in `busy_cycles` only, exactly as a
    /// per-op flush outcome would).
    pub fn record_trace(&mut self, summary: &TraceSummary) {
        self.l1_loads += summary.reads;
        self.l1_load_misses += summary.read_misses;
        self.stores += summary.writes;
        self.store_misses += summary.write_misses;
        self.l2_references += summary.l1_misses();
        self.l2_misses += summary.llc_hits + summary.memory_accesses;
        self.llc_references += summary.llc_hits + summary.memory_accesses;
        self.llc_misses += summary.memory_accesses;
        self.busy_cycles += summary.cycles;
    }

    /// Total L1 data-cache accesses (loads + stores).
    pub fn l1_accesses(&self) -> u64 {
        self.l1_loads + self.stores
    }

    /// L1 data-cache miss rate over loads and stores, in `[0, 1]`.
    pub fn l1_miss_rate(&self) -> f64 {
        ratio(self.l1_load_misses + self.store_misses, self.l1_accesses())
    }

    /// L2 miss rate, in `[0, 1]`.
    pub fn l2_miss_rate(&self) -> f64 {
        ratio(self.l2_misses, self.l2_references)
    }

    /// LLC miss rate, in `[0, 1]`.
    pub fn llc_miss_rate(&self) -> f64 {
        ratio(self.llc_misses, self.llc_references)
    }

    /// Cache loads per millisecond at the given core clock (Table VI metric).
    ///
    /// `elapsed_cycles` is the wall-clock duration of the measurement window,
    /// not just the busy cycles.
    pub fn loads_per_ms(&self, level: PerfLevel, elapsed_cycles: u64, clock_ghz: f64) -> f64 {
        let loads = match level {
            PerfLevel::L1 => self.l1_loads,
            PerfLevel::L2 => self.l2_references,
            PerfLevel::Llc => self.llc_references,
            PerfLevel::Total => self.l1_loads + self.l2_references + self.llc_references,
        };
        if elapsed_cycles == 0 {
            return 0.0;
        }
        let elapsed_ms = elapsed_cycles as f64 / (clock_ghz * 1e6);
        loads as f64 / elapsed_ms
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Which level a [`PerfCounters::loads_per_ms`] query refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PerfLevel {
    /// L1 data cache.
    L1,
    /// L2 cache.
    L2,
    /// Last-level cache.
    Llc,
    /// Sum over all levels (the paper's "Total" row in Table VI).
    Total,
}

/// Per-domain performance-counter store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerfStore {
    // BTreeMap so `iter()` walks domains in a stable order regardless of
    // process-level hasher seeding.
    counters: BTreeMap<DomainId, PerfCounters>,
}

impl PerfStore {
    /// Creates an empty store.
    pub fn new() -> PerfStore {
        PerfStore::default()
    }

    /// Records an outcome for `domain`.
    pub fn record(&mut self, domain: DomainId, outcome: &AccessOutcome) {
        self.counters.entry(domain).or_default().record(outcome);
    }

    /// Records a batched-trace summary for `domain`.
    pub fn record_trace(&mut self, domain: DomainId, summary: &TraceSummary) {
        self.counters
            .entry(domain)
            .or_default()
            .record_trace(summary);
    }

    /// The counters of `domain` (zeroed if the domain never ran).
    pub fn counters(&self, domain: DomainId) -> PerfCounters {
        self.counters.get(&domain).copied().unwrap_or_default()
    }

    /// Resets every counter.
    pub fn reset(&mut self) {
        self.counters.clear();
    }

    /// Iterates over all `(domain, counters)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DomainId, &PerfCounters)> {
        self.counters.iter().map(|(&d, c)| (d, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cache::addr::LineAddr;

    fn outcome(kind: AccessKind, hit: HitLevel, cycles: u64) -> AccessOutcome {
        AccessOutcome {
            kind,
            hit,
            cycles,
            l1_filled: hit != HitLevel::L1D,
            l1_evicted: Some(LineAddr(0)),
            l1_victim_dirty: false,
            writebacks: 0,
        }
    }

    #[test]
    fn l1_hit_counts_only_l1() {
        let mut perf = PerfCounters::default();
        perf.record(&outcome(AccessKind::Read, HitLevel::L1D, 4));
        assert_eq!(perf.l1_loads, 1);
        assert_eq!(perf.l1_load_misses, 0);
        assert_eq!(perf.l2_references, 0);
        assert_eq!(perf.busy_cycles, 4);
        assert_eq!(perf.l1_miss_rate(), 0.0);
    }

    #[test]
    fn memory_access_counts_every_level() {
        let mut perf = PerfCounters::default();
        perf.record(&outcome(AccessKind::Read, HitLevel::Memory, 200));
        assert_eq!(perf.l1_load_misses, 1);
        assert_eq!(perf.l2_references, 1);
        assert_eq!(perf.l2_misses, 1);
        assert_eq!(perf.llc_references, 1);
        assert_eq!(perf.llc_misses, 1);
        assert_eq!(perf.l1_miss_rate(), 1.0);
        assert_eq!(perf.llc_miss_rate(), 1.0);
    }

    #[test]
    fn stores_are_tracked_separately() {
        let mut perf = PerfCounters::default();
        perf.record(&outcome(AccessKind::Write, HitLevel::L1D, 4));
        perf.record(&outcome(AccessKind::Write, HitLevel::L2, 11));
        assert_eq!(perf.stores, 2);
        assert_eq!(perf.store_misses, 1);
        assert_eq!(perf.l1_accesses(), 2);
        assert!((perf.l1_miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn flushes_and_prefetches_do_not_count_as_loads() {
        let mut perf = PerfCounters::default();
        perf.record(&outcome(AccessKind::Flush, HitLevel::Memory, 30));
        perf.record(&outcome(AccessKind::Prefetch, HitLevel::L1D, 0));
        assert_eq!(perf.l1_loads, 0);
        assert_eq!(perf.l2_references, 0);
    }

    #[test]
    fn loads_per_ms_uses_wall_clock() {
        let mut perf = PerfCounters::default();
        for _ in 0..1000 {
            perf.record(&outcome(AccessKind::Read, HitLevel::L1D, 4));
        }
        // 1000 loads over 2.2e6 cycles at 2.2 GHz = exactly 1 ms => 1000/ms.
        let per_ms = perf.loads_per_ms(PerfLevel::L1, 2_200_000, 2.2);
        assert!((per_ms - 1000.0).abs() < 1e-6);
        assert_eq!(perf.loads_per_ms(PerfLevel::L1, 0, 2.2), 0.0);
        assert_eq!(perf.loads_per_ms(PerfLevel::L2, 2_200_000, 2.2), 0.0);
        assert!(perf.loads_per_ms(PerfLevel::Total, 2_200_000, 2.2) >= per_ms);
    }

    #[test]
    fn record_trace_matches_per_outcome_recording() {
        // One batched summary must land on exactly the counters the
        // equivalent per-op outcomes would have produced.
        let outcomes = [
            outcome(AccessKind::Read, HitLevel::L1D, 4),
            outcome(AccessKind::Read, HitLevel::L2, 22),
            outcome(AccessKind::Write, HitLevel::L3, 51),
            outcome(AccessKind::Write, HitLevel::Memory, 211),
            outcome(AccessKind::Flush, HitLevel::Memory, 19),
        ];
        let mut serial = PerfCounters::default();
        let mut summary = TraceSummary::default();
        for o in &outcomes {
            serial.record(o);
            summary.absorb(o);
        }
        let mut batched = PerfCounters::default();
        batched.record_trace(&summary);
        assert_eq!(batched, serial);
    }

    #[test]
    fn store_separates_domains() {
        let mut store = PerfStore::new();
        store.record(3, &outcome(AccessKind::Read, HitLevel::L1D, 4));
        store.record(4, &outcome(AccessKind::Read, HitLevel::Memory, 200));
        assert_eq!(store.counters(3).l1_loads, 1);
        assert_eq!(store.counters(3).llc_references, 0);
        assert_eq!(store.counters(4).llc_misses, 1);
        assert_eq!(store.counters(9), PerfCounters::default());
        assert_eq!(store.iter().count(), 2);
        store.reset();
        assert_eq!(store.counters(3), PerfCounters::default());
    }
}
