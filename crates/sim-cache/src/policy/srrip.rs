//! Static re-reference interval prediction (SRRIP).

use super::ReplacementPolicy;
use crate::waymask::WayMask;

/// SRRIP with 2-bit re-reference prediction values (RRPVs).
///
/// New lines are inserted with a *long* re-reference prediction (RRPV = 2),
/// hits promote a line to RRPV = 0, and the victim is the first candidate
/// with RRPV = 3 (ageing every candidate when none qualifies).  SRRIP is the
/// style of policy used in recent Intel LLCs; it is included as an ablation
/// point showing the WB channel also works when insertion is not MRU.
///
/// Victim choice ages the candidates in one step by however much the oldest
/// one lacks, so it allocates nothing and never loops over ageing rounds.
#[derive(Debug, Clone)]
pub struct Srrip {
    ways: usize,
    rrpv: Vec<u8>,
}

/// Maximum RRPV for the 2-bit implementation.
const MAX_RRPV: u8 = 3;
/// Insertion RRPV (the "long re-reference interval" of the SRRIP paper).
const INSERT_RRPV: u8 = 2;

impl Srrip {
    /// Creates SRRIP metadata for `num_sets` sets of `ways` ways.
    pub fn new(num_sets: usize, ways: usize) -> Srrip {
        Srrip {
            ways,
            rrpv: vec![MAX_RRPV; num_sets * ways],
        }
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Returns the policy to its state at construction, given that only the
    /// RRPVs of `touched` changed since then.
    pub(crate) fn reset_touched(&mut self, _seed: u64, touched: impl Iterator<Item = usize>) {
        for set in touched {
            self.rrpv[set * self.ways..(set + 1) * self.ways].fill(MAX_RRPV);
        }
    }
}

impl ReplacementPolicy for Srrip {
    fn name(&self) -> &'static str {
        "SRRIP"
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        let idx = self.idx(set, way);
        self.rrpv[idx] = 0;
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        let idx = self.idx(set, way);
        self.rrpv[idx] = INSERT_RRPV;
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        let idx = self.idx(set, way);
        self.rrpv[idx] = MAX_RRPV;
    }

    fn choose_victim(&mut self, set: usize, candidates: WayMask) -> Option<usize> {
        let candidates = candidates.and(WayMask::all(self.ways));
        let rrpv = &mut self.rrpv[set * self.ways..(set + 1) * self.ways];
        // The candidates' highest RRPV, found without a data-dependent
        // branch.
        let mut max = 0;
        for w in candidates.iter() {
            max = max.max(rrpv[w]);
        }
        // Ageing every candidate one step at a time until one reaches
        // MAX_RRPV is one step of `MAX_RRPV - max`: no candidate saturates
        // before the oldest gets there.  The victim is then the lowest
        // candidate at MAX_RRPV, exactly as in the stepwise loop.
        let age = MAX_RRPV - max;
        if age > 0 {
            for w in candidates.iter() {
                rrpv[w] += age;
            }
        }
        candidates.iter().find(|&w| rrpv[w] == MAX_RRPV)
    }

    fn reset(&mut self) {
        self.rrpv.fill(MAX_RRPV);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_set_evicts_lowest_way_first() {
        let mut srrip = Srrip::new(1, 4);
        assert_eq!(srrip.choose_victim(0, WayMask::all(4)), Some(0));
    }

    #[test]
    fn hit_lines_outlive_inserted_lines() {
        let mut srrip = Srrip::new(1, 4);
        for w in 0..4 {
            srrip.on_fill(0, w);
        }
        srrip.on_hit(0, 1); // RRPV 0
                            // Ways 0,2,3 have RRPV 2; way 1 has 0.  Ageing makes 0,2,3 reach 3
                            // before way 1, so the victim must not be way 1.
        let v = srrip.choose_victim(0, WayMask::all(4)).unwrap();
        assert_ne!(v, 1);
    }

    #[test]
    fn ageing_terminates_and_respects_mask() {
        let mut srrip = Srrip::new(1, 8);
        for w in 0..8 {
            srrip.on_fill(0, w);
            srrip.on_hit(0, w);
        }
        let mask = WayMask::EMPTY.with(6).with(7);
        let v = srrip.choose_victim(0, mask).unwrap();
        assert!(v == 6 || v == 7);
        assert_eq!(srrip.choose_victim(0, WayMask::EMPTY), None);
    }

    #[test]
    fn reset_restores_max_rrpv() {
        let mut srrip = Srrip::new(1, 4);
        srrip.on_hit(0, 2);
        srrip.reset();
        assert_eq!(srrip.choose_victim(0, WayMask::all(4)), Some(0));
    }
}
