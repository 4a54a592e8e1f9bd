//! Exact least-recently-used replacement.

use super::ReplacementPolicy;
use crate::waymask::WayMask;

/// True LRU: every access stamps the way with a monotonically increasing
/// sequence number; the victim is the candidate with the smallest stamp.
///
/// The paper notes (Sec. IV-A) that true LRU needs `N·log(N)` bits per set and
/// is therefore rarely implemented exactly in hardware, but it is the
/// reference behaviour against which Tree-PLRU and the Intel-like policy are
/// compared in Table II.
#[derive(Debug, Clone)]
pub struct TrueLru {
    ways: usize,
    /// `stamps[set * ways + way]` = last-use timestamp (0 = never used).
    stamps: Vec<u64>,
    clock: u64,
}

impl TrueLru {
    /// Creates LRU metadata for `num_sets` sets of `ways` ways.
    pub fn new(num_sets: usize, ways: usize) -> TrueLru {
        TrueLru {
            ways,
            stamps: vec![0; num_sets * ways],
            clock: 0,
        }
    }

    #[inline(always)]
    fn touch(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.stamps[set * self.ways + way] = self.clock;
    }

    /// Returns the ways of `set` ordered from least to most recently used.
    ///
    /// Exposed for tests and for the LRU-channel baseline, which needs to
    /// reason about eviction order explicitly.
    pub fn eviction_order(&self, set: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.ways).collect();
        order.sort_by_key(|&way| self.stamps[set * self.ways + way]);
        order
    }

    /// Returns the policy to its state at construction, given that only the
    /// stamps of `touched` changed since then: those are cleared and the
    /// clock restarts.
    pub(crate) fn reset_touched(&mut self, _seed: u64, touched: impl Iterator<Item = usize>) {
        for set in touched {
            self.stamps[set * self.ways..(set + 1) * self.ways].fill(0);
        }
        self.clock = 0;
    }
}

impl ReplacementPolicy for TrueLru {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.stamps[set * self.ways + way] = 0;
    }

    /// The candidate of `set` with the smallest stamp, the lowest such way
    /// on a tie (never-used and invalidated ways all stamp 0).
    ///
    /// A select loop over the whole stamp row: a way that is not a
    /// candidate reads as `u64::MAX`, and a strictly smaller stamp replaces
    /// the running minimum, so the loop has a fixed trip count and no
    /// data-dependent branch.  Starting from the lowest candidate keeps it
    /// the answer when every candidate's stamp is `u64::MAX`.
    #[inline(always)]
    fn choose_victim(&mut self, set: usize, candidates: WayMask) -> Option<usize> {
        let candidates = candidates.bits();
        let stamps = &self.stamps[set * self.ways..(set + 1) * self.ways];
        let mut victim = candidates.trailing_zeros() as usize;
        if victim >= self.ways {
            return None;
        }
        let mut oldest = u64::MAX;
        for (way, &stamp) in stamps.iter().enumerate() {
            let excluded = (!candidates >> way & 1).wrapping_neg();
            let stamp = stamp | excluded;
            if stamp < oldest {
                (victim, oldest) = (way, stamp);
            }
        }
        Some(victim)
    }

    fn reset(&mut self) {
        self.stamps.fill(0);
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_is_least_recently_used() {
        let mut lru = TrueLru::new(1, 4);
        let all = WayMask::all(4);
        for way in 0..4 {
            lru.on_fill(0, way);
        }
        // Touch 0 and 2; the oldest untouched way is 1.
        lru.on_hit(0, 0);
        lru.on_hit(0, 2);
        assert_eq!(lru.choose_victim(0, all), Some(1));
        lru.on_hit(0, 1);
        assert_eq!(lru.choose_victim(0, all), Some(3));
    }

    #[test]
    fn invalidated_way_becomes_immediate_victim() {
        let mut lru = TrueLru::new(1, 4);
        for way in 0..4 {
            lru.on_fill(0, way);
        }
        lru.on_invalidate(0, 3);
        assert_eq!(lru.choose_victim(0, WayMask::all(4)), Some(3));
    }

    #[test]
    fn mask_restricts_selection() {
        let mut lru = TrueLru::new(1, 4);
        for way in 0..4 {
            lru.on_fill(0, way);
        }
        // Way 0 is globally oldest but excluded from the candidates.
        let mask = WayMask::EMPTY.with(2).with(3);
        assert_eq!(lru.choose_victim(0, mask), Some(2));
    }

    #[test]
    fn eviction_order_matches_access_history() {
        let mut lru = TrueLru::new(2, 4);
        for way in [3usize, 1, 0, 2] {
            lru.on_fill(1, way);
        }
        assert_eq!(lru.eviction_order(1), vec![3, 1, 0, 2]);
        // Untouched set keeps index order.
        assert_eq!(lru.eviction_order(0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn access_sequence_of_w_new_lines_evicts_everything() {
        // The property the WB receiver relies on: with true LRU, accessing W
        // distinct new lines replaces the entire set (Sec. IV-A).
        let ways = 8;
        let mut lru = TrueLru::new(1, ways);
        for way in 0..ways {
            lru.on_fill(0, way);
        }
        // Way 0 holds the sender's dirty line; fill 8 new lines.
        let mut evicted = Vec::new();
        for _ in 0..ways {
            let victim = lru.choose_victim(0, WayMask::all(ways)).unwrap();
            evicted.push(victim);
            lru.on_fill(0, victim);
        }
        assert!(evicted.contains(&0), "line 0 must be swept out");
        let mut sorted = evicted.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ways, "every way evicted exactly once");
    }

    #[test]
    fn reset_clears_history() {
        let mut lru = TrueLru::new(1, 2);
        lru.on_fill(0, 1);
        lru.reset();
        assert_eq!(lru.choose_victim(0, WayMask::all(2)), Some(0));
    }
}
