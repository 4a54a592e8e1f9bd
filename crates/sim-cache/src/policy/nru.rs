//! Not-recently-used replacement.

use super::ReplacementPolicy;
use crate::waymask::WayMask;

/// NRU: a single reference bit per line.
///
/// On an access the line's bit is set; the victim is the lowest-indexed
/// candidate with a clear bit, and if every candidate has its bit set all
/// bits are cleared first.  NRU is a common low-cost approximation in
/// embedded cores and serves as another ablation point for the WB channel's
/// claim that the attack is policy-agnostic.
#[derive(Debug, Clone)]
pub struct Nru {
    ways: usize,
    /// One reference word per set: bit `w` is way `w`'s reference bit, so a
    /// victim choice is a mask operation and a trailing-zero count.
    referenced: Vec<u64>,
}

impl Nru {
    /// Creates NRU metadata for `num_sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` exceeds 64, the width of a [`WayMask`].
    pub fn new(num_sets: usize, ways: usize) -> Nru {
        assert!(ways <= 64, "NRU supports at most 64 ways");
        Nru {
            ways,
            referenced: vec![0; num_sets],
        }
    }

    /// Returns the policy to its state at construction, given that only the
    /// reference words of `touched` changed since then.
    pub(crate) fn reset_touched(&mut self, _seed: u64, touched: impl Iterator<Item = usize>) {
        for set in touched {
            self.referenced[set] = 0;
        }
    }
}

impl ReplacementPolicy for Nru {
    fn name(&self) -> &'static str {
        "NRU"
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.referenced[set] |= 1 << way;
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.referenced[set] |= 1 << way;
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.referenced[set] &= !(1 << way);
    }

    fn choose_victim(&mut self, set: usize, candidates: WayMask) -> Option<usize> {
        let candidates = candidates.and(WayMask::all(self.ways));
        let unreferenced = candidates.and(WayMask::from_bits(!self.referenced[set]));
        if let Some(way) = unreferenced.first() {
            return Some(way);
        }
        // All candidates referenced: clear the whole set's bits (the classic
        // NRU "generation" reset) and pick the first candidate.
        let way = candidates.first()?;
        self.referenced[set] = 0;
        Some(way)
    }

    fn reset(&mut self) {
        self.referenced.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreferenced_way_is_preferred() {
        let mut nru = Nru::new(1, 4);
        nru.on_fill(0, 0);
        nru.on_fill(0, 1);
        nru.on_fill(0, 3);
        // Way 2 never referenced.
        assert_eq!(nru.choose_victim(0, WayMask::all(4)), Some(2));
    }

    #[test]
    fn generation_reset_when_all_referenced() {
        let mut nru = Nru::new(1, 4);
        for w in 0..4 {
            nru.on_fill(0, w);
        }
        // Everything referenced: the reset kicks in and way 0 is chosen.
        assert_eq!(nru.choose_victim(0, WayMask::all(4)), Some(0));
        // After the reset, bits are clear, so way 0 again (still unreferenced).
        assert_eq!(nru.choose_victim(0, WayMask::all(4)), Some(0));
    }

    #[test]
    fn mask_restricts_victims_and_reset_works() {
        let mut nru = Nru::new(1, 4);
        for w in 0..4 {
            nru.on_fill(0, w);
        }
        let mask = WayMask::EMPTY.with(1).with(2);
        let v = nru.choose_victim(0, mask).unwrap();
        assert!(v == 1 || v == 2);
        assert_eq!(nru.choose_victim(0, WayMask::EMPTY), None);
        nru.reset();
        assert_eq!(nru.choose_victim(0, WayMask::all(4)), Some(0));
    }
}
