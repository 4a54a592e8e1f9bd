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
/// A set's RRPVs are two bit planes, one word each: bit `w` of `high` and
/// of `low` are the two bits of way `w`'s RRPV.  Victim choice is word
/// operations on the planes: the candidates' highest RRPV, ageing every
/// candidate in one step by however much the oldest one lacks, and the
/// lowest candidate at 3.  It allocates nothing and has no per-way loop.
#[derive(Debug, Clone)]
pub struct Srrip {
    ways: WayMask,
    rrpv: Vec<Planes>,
}

/// The RRPVs of one set as bit planes (bit `w` ↔ way `w`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Planes {
    high: u64,
    low: u64,
}

/// Maximum RRPV for the 2-bit implementation: both planes set.
const MAX_RRPV: u8 = 3;
/// Insertion RRPV (the "long re-reference interval" of the SRRIP paper).
const INSERT_RRPV: u8 = 2;

/// All ones when `bit` is set, zero otherwise.
#[inline(always)]
fn spread(bit: bool) -> u64 {
    0u64.wrapping_sub(u64::from(bit))
}

impl Planes {
    /// Every way at `MAX_RRPV`.
    const FRESH: Planes = Planes {
        high: u64::MAX,
        low: u64::MAX,
    };

    /// `self` with way `way`'s RRPV set to `rrpv`.
    #[inline(always)]
    fn with(self, way: usize, rrpv: u8) -> Planes {
        let bit = 1u64 << way;
        Planes {
            high: (self.high & !bit) | (spread(rrpv & 2 != 0) & bit),
            low: (self.low & !bit) | (spread(rrpv & 1 != 0) & bit),
        }
    }
}

impl Srrip {
    /// Creates SRRIP metadata for `num_sets` sets of `ways` ways.
    pub fn new(num_sets: usize, ways: usize) -> Srrip {
        Srrip {
            ways: WayMask::all(ways),
            rrpv: vec![Planes::FRESH; num_sets],
        }
    }

    /// Returns the policy to its state at construction, given that only the
    /// RRPVs of `touched` changed since then.
    pub(crate) fn reset_touched(&mut self, _seed: u64, touched: impl Iterator<Item = usize>) {
        for set in touched {
            self.rrpv[set] = Planes::FRESH;
        }
    }
}

impl ReplacementPolicy for Srrip {
    fn name(&self) -> &'static str {
        "SRRIP"
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.rrpv[set] = self.rrpv[set].with(way, 0);
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.rrpv[set] = self.rrpv[set].with(way, INSERT_RRPV);
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.rrpv[set] = self.rrpv[set].with(way, MAX_RRPV);
    }

    /// Ages the candidates and returns the lowest one at `MAX_RRPV`: the
    /// stepwise loop (age every candidate by one until one reaches it) in
    /// one step.
    #[inline(always)]
    fn choose_victim(&mut self, set: usize, candidates: WayMask) -> Option<usize> {
        let c = candidates.and(self.ways).bits();
        if c == 0 {
            return None;
        }
        let Planes { high, low } = self.rrpv[set];
        // The candidates' highest RRPV, bit by bit: its high bit is set when
        // any candidate's is, and its low bit when a candidate with that
        // high bit has its low bit set.
        let top_high = high & c != 0;
        let top = (high | !spread(top_high)) & c;
        let top_low = low & top != 0;
        // Ageing every candidate one step at a time until one reaches
        // MAX_RRPV is one step of `MAX_RRPV - max`: no candidate saturates
        // before the oldest gets there, so the 2-bit add never carries out.
        let (add_high, add_low) = (spread(!top_high) & c, spread(!top_low) & c);
        let low_aged = low ^ add_low;
        let high_aged = high ^ add_high ^ (low & add_low);
        self.rrpv[set] = Planes {
            high: high_aged,
            low: low_aged,
        };
        // The lowest candidate at MAX_RRPV, exactly as in the stepwise loop.
        Some((high_aged & low_aged & c).trailing_zeros() as usize)
    }

    fn reset(&mut self) {
        self.rrpv.fill(Planes::FRESH);
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
