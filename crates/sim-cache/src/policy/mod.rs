//! Replacement policies.
//!
//! The WB channel works *regardless* of the replacement policy as long as the
//! receiver's replacement set is large enough to sweep every resident line
//! out of the target set (Sec. IV-A and VI-A of the paper).  To reproduce the
//! paper's policy studies (Tables II and V) the simulator therefore provides:
//!
//! * [`TrueLru`] — textbook least-recently-used with exact ages.
//! * [`TreePlru`] — the tree pseudo-LRU approximation gem5 implements and the
//!   paper simulates.
//! * [`PseudoRandom`] — LFSR-driven random victim selection, as found in many
//!   ARM cores (Sec. VI-A).
//! * [`IntelLike`] — an *approximation* of the undocumented, imperfect L1
//!   policy the paper measures on the Xeon E5-2650 (Table II): Tree-PLRU with
//!   occasional mispredicted victims plus an anti-starvation bound that
//!   guarantees eviction once ten distinct lines have been filled.
//! * [`Nru`] and [`Srrip`] — extensions the hierarchy-matrix scenario sweeps.
//!
//! Every policy implements the [`ReplacementPolicy`] method set; a
//! [`crate::cache::Cache`] holds one through a statically dispatched enum, so
//! no policy call goes through a trait object.
//!
//! No policy allocates on the access path: a hit, fill or invalidation
//! updates O(1) words, and a victim choice scans at most the set's ways.
//! SRRIP ages its candidates in one step, NRU keeps one reference word per
//! set, and Intel-like derives each way's staleness from a per-set fill
//! count instead of ageing every way on a fill.  The test module checks
//! SRRIP, NRU and Intel-like victim for victim against reference models
//! written the plain way (`reference.rs`), under random operation mixes and
//! candidate masks.

mod intel_like;
mod lru;
mod nru;
mod plru;
mod random;
#[cfg(test)]
mod reference;
mod srrip;

pub use intel_like::IntelLike;
pub use lru::TrueLru;
pub use nru::Nru;
pub use plru::TreePlru;
pub use random::PseudoRandom;
pub use srrip::Srrip;

use crate::waymask::WayMask;
use std::fmt;

/// The method set every replacement policy implements.
///
/// A policy instance manages the metadata for *all* sets of one cache level;
/// the cache passes the set index on every call.  Victim selection receives a
/// candidate [`WayMask`] so that locked lines and foreign partitions can be
/// excluded (PLcache / NoMo / DAWG defenses).
pub trait ReplacementPolicy {
    /// Short, human-readable policy name used in result tables.
    fn name(&self) -> &'static str;

    /// Records a hit on `way` of `set`.
    fn on_hit(&mut self, set: usize, way: usize);

    /// Records that a new line has just been installed in `way` of `set`.
    fn on_fill(&mut self, set: usize, way: usize);

    /// Records that `way` of `set` was invalidated (flush or external evict).
    fn on_invalidate(&mut self, set: usize, way: usize);

    /// Chooses a victim way within `set`, restricted to `candidates`.
    ///
    /// Returns `None` when `candidates` is empty; the cache treats that as
    /// "no fill possible" (it happens only under extreme partitioning).
    fn choose_victim(&mut self, set: usize, candidates: WayMask) -> Option<usize>;

    /// Resets all metadata to the post-power-on state.
    fn reset(&mut self);
}

/// Enumerates the built-in policies; used in configurations and sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PolicyKind {
    /// Exact least-recently-used.
    TrueLru,
    /// Tree pseudo-LRU (gem5's default for set-associative caches).
    TreePlru,
    /// Uniform pseudo-random victim selection (LFSR driven).
    Random,
    /// Approximation of the measured Intel Xeon E5-2650 L1D behaviour.
    IntelLike,
    /// Not-recently-used (single reference bit per line).
    Nru,
    /// Static re-reference interval prediction with 2-bit RRPVs.
    Srrip,
}

impl PolicyKind {
    /// The policies compared in the paper's Table II.
    pub const TABLE_II: [PolicyKind; 3] = [
        PolicyKind::TrueLru,
        PolicyKind::TreePlru,
        PolicyKind::IntelLike,
    ];

    /// Human-readable label used in result tables.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::TrueLru => "LRU",
            PolicyKind::TreePlru => "Tree-PLRU",
            PolicyKind::Random => "Random",
            PolicyKind::IntelLike => "Intel-like",
            PolicyKind::Nru => "NRU",
            PolicyKind::Srrip => "SRRIP",
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The replacement policy a [`crate::cache::Cache`] holds: one variant per
/// [`PolicyKind`], every call statically dispatched.
///
/// `on_hit`, `on_fill` and `choose_victim_and_fill` are forced inline into
/// the cache's lookup and fill, so a Tree-PLRU hit or eviction is
/// straight-line code inside the hierarchy's batch loops; victim choice for
/// the other policies is one out-of-line call that allocates nothing and
/// touches only the set's own metadata.
#[derive(Debug)]
pub(crate) enum PolicyDispatch {
    TreePlru(TreePlru),
    TrueLru(TrueLru),
    Random(PseudoRandom),
    IntelLike(IntelLike),
    Nru(Nru),
    Srrip(Srrip),
}

/// Evaluates `$call` on the policy inside any [`PolicyDispatch`] variant.
macro_rules! dispatch {
    ($self:expr, $p:ident => $call:expr) => {
        match $self {
            PolicyDispatch::TreePlru($p) => $call,
            PolicyDispatch::TrueLru($p) => $call,
            PolicyDispatch::Random($p) => $call,
            PolicyDispatch::IntelLike($p) => $call,
            PolicyDispatch::Nru($p) => $call,
            PolicyDispatch::Srrip($p) => $call,
        }
    };
}

impl PolicyDispatch {
    /// Instantiates the policy `kind` for a cache with `num_sets` sets of
    /// `ways` ways.  `seed` drives any internal randomness.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::UnsupportedAssociativity`] when the policy
    /// cannot handle the requested associativity (Tree-PLRU and Intel-like
    /// need a power of two number of ways).
    pub(crate) fn build(
        kind: PolicyKind,
        num_sets: usize,
        ways: usize,
        seed: u64,
    ) -> crate::Result<PolicyDispatch> {
        Ok(match kind {
            PolicyKind::TreePlru => PolicyDispatch::TreePlru(TreePlru::new(num_sets, ways)?),
            PolicyKind::TrueLru => PolicyDispatch::TrueLru(TrueLru::new(num_sets, ways)),
            PolicyKind::Random => PolicyDispatch::Random(PseudoRandom::new(num_sets, ways, seed)),
            PolicyKind::IntelLike => {
                PolicyDispatch::IntelLike(IntelLike::new(num_sets, ways, seed)?)
            }
            PolicyKind::Nru => PolicyDispatch::Nru(Nru::new(num_sets, ways)),
            PolicyKind::Srrip => PolicyDispatch::Srrip(Srrip::new(num_sets, ways)),
        })
    }

    /// Short, human-readable policy name used in result tables.
    pub(crate) fn name(&self) -> &'static str {
        dispatch!(self, p => p.name())
    }

    /// Records a hit on `way` of `set`.
    #[inline(always)]
    pub(crate) fn on_hit(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_hit(set, way))
    }

    /// Records that a new line has just been installed in `way` of `set`.
    #[inline(always)]
    pub(crate) fn on_fill(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_fill(set, way))
    }

    /// Records that `way` of `set` was invalidated.
    #[inline]
    pub(crate) fn on_invalidate(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_invalidate(set, way))
    }

    /// Chooses a victim way within `set`, restricted to `candidates`.
    #[inline]
    pub(crate) fn choose_victim(&mut self, set: usize, candidates: WayMask) -> Option<usize> {
        dispatch!(self, p => p.choose_victim(set, candidates))
    }

    /// `choose_victim` immediately followed by `on_fill` of the chosen way —
    /// the eviction hot path.  Tree-PLRU fuses the two updates of its
    /// per-set direction word into one read-modify-write; every other policy
    /// runs the two calls back-to-back, so the behaviour is identical for
    /// all variants.
    #[inline(always)]
    pub(crate) fn choose_victim_and_fill(
        &mut self,
        set: usize,
        candidates: WayMask,
    ) -> Option<usize> {
        match self {
            PolicyDispatch::TreePlru(p) => p.choose_and_touch(set, candidates),
            _ => self.choose_victim_then_fill(set, candidates),
        }
    }

    /// [`PolicyDispatch::choose_victim_and_fill`] for every policy but
    /// Tree-PLRU, kept out of line so the inlined fill stays small.
    #[inline(never)]
    fn choose_victim_then_fill(&mut self, set: usize, candidates: WayMask) -> Option<usize> {
        let way = self.choose_victim(set, candidates)?;
        self.on_fill(set, way);
        Some(way)
    }

    /// Resets all metadata to the post-power-on state (the reference-model
    /// tests' reset; caches use [`PolicyDispatch::reset_touched`]).
    #[cfg(test)]
    pub(crate) fn reset(&mut self) {
        dispatch!(self, p => p.reset())
    }

    /// Returns the policy, in place, to the state [`PolicyDispatch::build`]
    /// gives for its kind and geometry and `seed`, given that no set outside
    /// `touched` changed since the last build or reset.  The touched sets'
    /// state is cleared; state shared by every set is rebuilt: LRU's clock,
    /// the victim stream of Random and Intel-like, and Intel-like's initial
    /// trees, which it redraws for every set.
    pub(crate) fn reset_touched(&mut self, seed: u64, touched: impl Iterator<Item = usize>) {
        dispatch!(self, p => p.reset_touched(seed, touched))
    }
}

/// A tiny deterministic PRNG (xorshift64*) used inside policies.
///
/// Policies cannot use thread-local entropy: experiments must be exactly
/// reproducible from the configured seed, and pulling a heavyweight RNG into
/// the victim-selection hot path would dominate simulator profiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PolicyRng {
    state: u64,
}

impl PolicyRng {
    pub(crate) fn new(seed: u64) -> PolicyRng {
        // Avoid the all-zero fixed point.
        PolicyRng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub(crate) fn below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        (self.next_u64() % bound as u64) as usize
    }

    /// Bernoulli draw with probability `p`.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ALL: [PolicyKind; 6] = [
        PolicyKind::TrueLru,
        PolicyKind::TreePlru,
        PolicyKind::Random,
        PolicyKind::IntelLike,
        PolicyKind::Nru,
        PolicyKind::Srrip,
    ];

    fn exercise(policy: &mut PolicyDispatch, ways: usize) {
        let all = WayMask::all(ways);
        // Fill every way, touch a few, and ensure victims stay in range and
        // respect the candidate mask.
        for way in 0..ways {
            policy.on_fill(0, way);
        }
        policy.on_hit(0, 0);
        policy.on_hit(0, ways - 1);
        for _ in 0..32 {
            let victim = policy.choose_victim(0, all).expect("candidates not empty");
            assert!(victim < ways);
            policy.on_fill(0, victim);
        }
        let restricted = WayMask::EMPTY.with(2).with(3);
        for _ in 0..16 {
            let victim = policy.choose_victim(0, restricted).unwrap();
            assert!(victim == 2 || victim == 3, "victim {victim} escaped mask");
            policy.on_fill(0, victim);
        }
        assert!(policy.choose_victim(0, WayMask::EMPTY).is_none());
        policy.on_invalidate(0, 1);
        policy.reset();
    }

    #[test]
    fn every_policy_respects_the_candidate_mask() {
        for kind in ALL {
            let mut policy = PolicyDispatch::build(kind, 4, 8, 0xfeed).unwrap();
            assert_eq!(policy.name(), kind.label());
            exercise(&mut policy, 8);
        }
    }

    proptest! {
        /// Replacement policies never return a victim outside the candidate
        /// mask.
        #[test]
        fn victims_respect_candidate_masks(
            kind in 0..ALL.len(),
            mask_bits in 1u64..255,
            fills in proptest::collection::vec(0usize..8, 0..64),
            seed in 0u64..1000,
        ) {
            let mut p = PolicyDispatch::build(ALL[kind], 4, 8, seed).unwrap();
            for way in fills {
                p.on_fill(1, way);
            }
            let mask = WayMask::from_bits(mask_bits);
            if let Some(victim) = p.choose_victim(1, mask) {
                prop_assert!(mask.contains(victim));
                prop_assert!(victim < 8);
            } else {
                prop_assert!(mask.is_empty());
            }
        }
    }

    /// The plain reference model of `kind` (SRRIP, NRU or Intel-like).
    fn reference_model(
        kind: PolicyKind,
        num_sets: usize,
        ways: usize,
        seed: u64,
    ) -> Box<dyn ReplacementPolicy> {
        match kind {
            PolicyKind::Srrip => Box::new(reference::SrripModel::new(num_sets, ways)),
            PolicyKind::Nru => Box::new(reference::NruModel::new(num_sets, ways)),
            PolicyKind::IntelLike => Box::new(reference::IntelLikeModel::new(num_sets, ways, seed)),
            _ => unreachable!("no reference model for {kind}"),
        }
    }

    proptest! {
        /// SRRIP, NRU and Intel-like choose the same victim as their
        /// reference models at every step of a random mix of hits, fills,
        /// invalidations, victim choices and resets, under candidate masks
        /// that include locked ways, way partitions and arbitrary subsets.
        #[test]
        fn victims_match_reference_models(
            kind in 0usize..3,
            ways_log2 in 2u32..5,
            seed in 0u64..1000,
            ops in proptest::collection::vec(
                (0u8..16, 0usize..4, 0usize..16, 0u64..u64::MAX, 0u8..4),
                1..400,
            ),
        ) {
            let kind = [PolicyKind::Srrip, PolicyKind::Nru, PolicyKind::IntelLike][kind];
            let ways = 1usize << ways_log2;
            let mut policy = PolicyDispatch::build(kind, 4, ways, seed).unwrap();
            let mut model = reference_model(kind, 4, ways, seed);
            for (step, (op, set, way, bits, mask_kind)) in ops.into_iter().enumerate() {
                let way = way % ways;
                match op {
                    0..=2 => {
                        policy.on_hit(set, way);
                        model.on_hit(set, way);
                    }
                    3..=5 => {
                        policy.on_fill(set, way);
                        model.on_fill(set, way);
                    }
                    6 => {
                        policy.on_invalidate(set, way);
                        model.on_invalidate(set, way);
                    }
                    7..=14 => {
                        let all = WayMask::all(ways);
                        let mask = match mask_kind {
                            0 => all,
                            // A locked line.
                            1 => all.without(way),
                            // A partition: a contiguous run of ways.
                            2 => WayMask::range(way, way + 1 + bits as usize % (ways - way)),
                            // Any subset, bits beyond the associativity included.
                            _ => WayMask::from_bits(bits),
                        };
                        let victim = policy.choose_victim_and_fill(set, mask);
                        let expected = model.choose_victim(set, mask);
                        if let Some(way) = expected {
                            model.on_fill(set, way);
                        }
                        prop_assert_eq!(victim, expected, "{} step {}: mask {:?}", kind, step, mask);
                    }
                    _ => {
                        policy.reset();
                        model.reset();
                    }
                }
            }
        }
    }

    proptest! {
        /// Resetting in place only the sets a random operation mix touched
        /// leaves every policy in exactly the state a fresh build with the
        /// new seed has: its whole `Debug` form (every word, stamp, RRPV,
        /// tree and the stream state) is equal.
        #[test]
        fn reset_touched_matches_a_fresh_build(
            kind in 0..ALL.len(),
            seed in 0u64..1000,
            reseed in 0u64..1000,
            ops in proptest::collection::vec((0u8..4, 0usize..16, 0usize..8), 0..200),
        ) {
            let kind = ALL[kind];
            let mut policy = PolicyDispatch::build(kind, 16, 8, seed).unwrap();
            let mut touched = [false; 16];
            for (op, set, way) in ops {
                touched[set] = true;
                match op {
                    0 => policy.on_hit(set, way),
                    1 => policy.on_fill(set, way),
                    2 => policy.on_invalidate(set, way),
                    _ => {
                        let _ = policy.choose_victim_and_fill(set, WayMask::all(8).without(way));
                    }
                }
            }
            policy.reset_touched(reseed, (0..16).filter(|&set| touched[set]));
            let fresh = PolicyDispatch::build(kind, 16, 8, reseed).unwrap();
            prop_assert_eq!(format!("{policy:?}"), format!("{fresh:?}"));
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PolicyKind::TrueLru.to_string(), "LRU");
        assert_eq!(PolicyKind::TreePlru.to_string(), "Tree-PLRU");
        assert_eq!(PolicyKind::Random.label(), "Random");
        assert_eq!(PolicyKind::IntelLike.label(), "Intel-like");
        assert_eq!(PolicyKind::Nru.label(), "NRU");
        assert_eq!(PolicyKind::Srrip.label(), "SRRIP");
    }

    #[test]
    fn tree_plru_rejects_non_power_of_two() {
        assert!(PolicyDispatch::build(PolicyKind::TreePlru, 4, 6, 0).is_err());
        assert!(PolicyDispatch::build(PolicyKind::IntelLike, 4, 6, 0).is_err());
    }

    #[test]
    fn policy_rng_is_deterministic_and_bounded() {
        let mut a = PolicyRng::new(7);
        let mut b = PolicyRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..1000 {
            assert!(a.below(8) < 8);
        }
        assert!(!a.chance(0.0));
        assert!(a.chance(1.0));
    }

    #[test]
    fn table_ii_policy_list() {
        assert_eq!(PolicyKind::TABLE_II.len(), 3);
    }
}
