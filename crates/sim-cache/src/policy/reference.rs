//! Reference models for the property test in `policy/mod.rs`: SRRIP, NRU
//! and Intel-like written the plain way, ageing one step at a time, with a
//! `bool` per reference bit and a saturating staleness counter per way.
//! The real policies must choose the same victim at every step.

use super::{IntelLike, PolicyRng, ReplacementPolicy, TreePlru};
use crate::waymask::WayMask;

/// SRRIP that ages every candidate by one until one reaches `MAX_RRPV`.
pub(super) struct SrripModel {
    ways: usize,
    rrpv: Vec<u8>,
}

const MAX_RRPV: u8 = 3;
const INSERT_RRPV: u8 = 2;

impl SrripModel {
    pub(super) fn new(num_sets: usize, ways: usize) -> SrripModel {
        SrripModel {
            ways,
            rrpv: vec![MAX_RRPV; num_sets * ways],
        }
    }
}

impl ReplacementPolicy for SrripModel {
    fn name(&self) -> &'static str {
        "SRRIP"
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = 0;
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = INSERT_RRPV;
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = MAX_RRPV;
    }

    fn choose_victim(&mut self, set: usize, candidates: WayMask) -> Option<usize> {
        let candidates: Vec<usize> = candidates.iter().filter(|&w| w < self.ways).collect();
        if candidates.is_empty() {
            return None;
        }
        loop {
            if let Some(&way) = candidates
                .iter()
                .find(|&&w| self.rrpv[set * self.ways + w] >= MAX_RRPV)
            {
                return Some(way);
            }
            for &w in &candidates {
                let idx = set * self.ways + w;
                self.rrpv[idx] = (self.rrpv[idx] + 1).min(MAX_RRPV);
            }
        }
    }

    fn reset(&mut self) {
        self.rrpv.fill(MAX_RRPV);
    }
}

/// NRU with one `bool` per line.
pub(super) struct NruModel {
    ways: usize,
    referenced: Vec<bool>,
}

impl NruModel {
    pub(super) fn new(num_sets: usize, ways: usize) -> NruModel {
        NruModel {
            ways,
            referenced: vec![false; num_sets * ways],
        }
    }
}

impl ReplacementPolicy for NruModel {
    fn name(&self) -> &'static str {
        "NRU"
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.referenced[set * self.ways + way] = true;
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.referenced[set * self.ways + way] = true;
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.referenced[set * self.ways + way] = false;
    }

    fn choose_victim(&mut self, set: usize, candidates: WayMask) -> Option<usize> {
        let candidates: Vec<usize> = candidates.iter().filter(|&w| w < self.ways).collect();
        if candidates.is_empty() {
            return None;
        }
        if let Some(&way) = candidates
            .iter()
            .find(|&&w| !self.referenced[set * self.ways + w])
        {
            return Some(way);
        }
        for w in 0..self.ways {
            self.referenced[set * self.ways + w] = false;
        }
        candidates.first().copied()
    }

    fn reset(&mut self) {
        self.referenced.fill(false);
    }
}

/// Intel-like with a saturating staleness counter per way, aged on every
/// fill, and a `Vec` of the other candidates for a mispredicted victim.
pub(super) struct IntelLikeModel {
    plru: TreePlru,
    rng: PolicyRng,
    ways: usize,
    staleness: Vec<u32>,
}

impl IntelLikeModel {
    /// The model of `IntelLike::new(num_sets, ways, seed)`, default tuning.
    pub(super) fn new(num_sets: usize, ways: usize, seed: u64) -> IntelLikeModel {
        let mut plru = TreePlru::new(num_sets, ways).expect("power-of-two ways");
        let mut rng = PolicyRng::new(seed);
        for set in 0..num_sets {
            plru.set_raw_bits(set, rng.next_u64());
        }
        IntelLikeModel {
            plru,
            rng,
            ways,
            staleness: vec![0; num_sets * ways],
        }
    }
}

impl ReplacementPolicy for IntelLikeModel {
    fn name(&self) -> &'static str {
        "Intel-like"
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.plru.on_hit(set, way);
        self.staleness[set * self.ways + way] = 0;
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.plru.on_fill(set, way);
        for w in 0..self.ways {
            let idx = set * self.ways + w;
            if w == way {
                self.staleness[idx] = 0;
            } else {
                self.staleness[idx] = self.staleness[idx].saturating_add(1);
            }
        }
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.plru.on_invalidate(set, way);
        self.staleness[set * self.ways + way] = 0;
    }

    fn choose_victim(&mut self, set: usize, candidates: WayMask) -> Option<usize> {
        let mask = candidates.and(WayMask::all(self.ways));
        if mask.is_empty() {
            return None;
        }
        let staleness = |w: usize| self.staleness[set * self.ways + w];
        let most_stale = mask
            .iter()
            .max_by_key(|&w| staleness(w))
            .filter(|&w| staleness(w) >= IntelLike::DEFAULT_MAX_STALENESS);
        if let Some(stale) = most_stale {
            return Some(stale);
        }
        let plru_choice = self.plru.choose_victim(set, mask)?;
        // The draws in their plain forms: a float compare and a `%`.
        if mask.count() > 1
            && (self.rng.next_u64() as f64 / u64::MAX as f64) < IntelLike::DEFAULT_MISPREDICT
        {
            let others: Vec<usize> = mask.iter().filter(|&w| w != plru_choice).collect();
            return Some(others[(self.rng.next_u64() % others.len() as u64) as usize]);
        }
        Some(plru_choice)
    }

    fn reset(&mut self) {
        self.plru.reset();
        self.staleness.fill(0);
    }
}
