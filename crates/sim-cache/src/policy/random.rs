//! Pseudo-random replacement.

use super::{PolicyRng, ReplacementPolicy};
use crate::waymask::WayMask;

/// Uniform pseudo-random victim selection.
///
/// Most ARM cores ship a pseudo-random (LFSR-based) replacement policy;
/// Section VI-A of the paper shows that the WB channel still works against it
/// because sweeping the target set with a replacement set of size `L`
/// replaces at least one of `d` dirty lines with probability
/// `p = 1 − ((W − d) / W)^L` (Table V).  This implementation draws victims
/// uniformly from the candidate mask using a deterministic xorshift64* state,
/// so experiments remain reproducible.
#[derive(Debug, Clone)]
pub struct PseudoRandom {
    /// Every way of the cache.
    all: WayMask,
    rng: PolicyRng,
}

impl PseudoRandom {
    /// Creates the policy; `num_sets` is accepted for interface symmetry.
    pub fn new(_num_sets: usize, ways: usize, seed: u64) -> PseudoRandom {
        PseudoRandom {
            all: WayMask::all(ways),
            rng: PolicyRng::new(seed),
        }
    }

    /// Returns the policy to its state at construction with `seed`: the
    /// victim stream restarts from the seed.  There is no per-set state, so
    /// `touched` is not read.
    pub(crate) fn reset_touched(&mut self, seed: u64, _touched: impl Iterator<Item = usize>) {
        self.rng = PolicyRng::new(seed);
    }
}

impl ReplacementPolicy for PseudoRandom {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn on_hit(&mut self, _set: usize, _way: usize) {}

    fn on_fill(&mut self, _set: usize, _way: usize) {}

    fn on_invalidate(&mut self, _set: usize, _way: usize) {}

    #[inline(always)]
    fn choose_victim(&mut self, _set: usize, candidates: WayMask) -> Option<usize> {
        let mask = candidates.and(self.all);
        let count = mask.count();
        if count == 0 {
            return None;
        }
        // A full mask's `nth` is the draw itself.
        mask.nth(self.rng.below(count))
    }

    fn reset(&mut self) {
        // The LFSR keeps running across resets on real hardware; keep state.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victims_cover_all_candidate_ways() {
        let mut policy = PseudoRandom::new(1, 8, 1234);
        let mask = WayMask::all(8);
        let mut seen = [false; 8];
        for _ in 0..512 {
            let v = policy.choose_victim(0, mask).unwrap();
            seen[v] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all ways should eventually be chosen"
        );
    }

    #[test]
    fn victims_respect_mask() {
        let mut policy = PseudoRandom::new(1, 8, 99);
        let mask = WayMask::EMPTY.with(1).with(4).with(7);
        for _ in 0..256 {
            let v = policy.choose_victim(0, mask).unwrap();
            assert!(mask.contains(v));
        }
        assert_eq!(policy.choose_victim(0, WayMask::EMPTY), None);
    }

    #[test]
    fn same_seed_gives_same_sequence() {
        let mut a = PseudoRandom::new(1, 8, 5);
        let mut b = PseudoRandom::new(1, 8, 5);
        let mask = WayMask::all(8);
        for _ in 0..100 {
            assert_eq!(a.choose_victim(0, mask), b.choose_victim(0, mask));
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let mut policy = PseudoRandom::new(1, 8, 42);
        let mask = WayMask::all(8);
        let mut counts = [0usize; 8];
        let trials = 16_000;
        for _ in 0..trials {
            counts[policy.choose_victim(0, mask).unwrap()] += 1;
        }
        let expected = trials / 8;
        for (way, &count) in counts.iter().enumerate() {
            let deviation = (count as f64 - expected as f64).abs() / expected as f64;
            assert!(
                deviation < 0.15,
                "way {way} chosen {count} times, expected ~{expected}"
            );
        }
    }

    #[test]
    fn table_v_probability_shape_holds_empirically() {
        // Reproduce the core of Table V at policy level: with d dirty lines
        // in an 8-way set and a replacement set of size L, the probability
        // that at least one dirty line is chosen grows with d and L and
        // roughly follows 1 - ((W-d)/W)^L.
        let ways = 8usize;
        let trials = 4000;
        let check = |d: usize, l: usize, analytic: f64| {
            let mut hits = 0usize;
            for trial in 0..trials {
                let mut policy = PseudoRandom::new(1, ways, 0xC0FFEE + trial as u64);
                // Dirty lines occupy ways 0..d.
                let mut dirty_present = vec![true; d];
                for _ in 0..l {
                    let v = policy.choose_victim(0, WayMask::all(ways)).unwrap();
                    if v < d {
                        dirty_present[v] = false;
                    }
                    policy.on_fill(0, v);
                }
                if dirty_present.iter().any(|&p| !p) {
                    hits += 1;
                }
            }
            let measured = hits as f64 / trials as f64;
            assert!(
                (measured - analytic).abs() < 0.05,
                "d={d} L={l}: measured {measured:.3} vs analytic {analytic:.3}"
            );
        };
        check(2, 10, 1.0 - (6.0f64 / 8.0).powi(10));
        check(3, 10, 1.0 - (5.0f64 / 8.0).powi(10));
        check(3, 13, 1.0 - (5.0f64 / 8.0).powi(13));
    }
}
