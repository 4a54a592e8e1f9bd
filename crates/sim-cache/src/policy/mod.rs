//! Replacement policies.
//!
//! The WB channel works *regardless* of the replacement policy as long as the
//! receiver's replacement set is large enough to sweep every resident line
//! out of the target set (Sec. IV-A and VI-A of the paper).  To reproduce the
//! paper's policy studies (Tables II and V) the simulator therefore provides
//! the full menagerie:
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
//! * [`Fifo`], [`Nru`] and [`Srrip`] — extensions; the hierarchy-matrix
//!   scenario sweeps [`Nru`] and [`Srrip`], the property tests all three.
//!
//! Policies are driven through the object-safe [`ReplacementPolicy`] trait so
//! a [`crate::cache::Cache`] can hold any of them behind a `Box`.

mod fifo;
mod intel_like;
mod lru;
mod nru;
mod plru;
mod random;
mod srrip;

pub use fifo::Fifo;
pub use intel_like::IntelLike;
pub use lru::TrueLru;
pub use nru::Nru;
pub use plru::TreePlru;
pub use random::PseudoRandom;
pub use srrip::Srrip;

use crate::waymask::WayMask;
use std::fmt;

/// Object-safe interface every replacement policy implements.
///
/// A policy instance manages the metadata for *all* sets of one cache level;
/// the cache passes the set index on every call.  Victim selection receives a
/// candidate [`WayMask`] so that locked lines and foreign partitions can be
/// excluded (PLcache / NoMo / DAWG defenses).
pub trait ReplacementPolicy: fmt::Debug + Send {
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
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
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
    /// Intel-like with explicit mispredict probability and staleness bound.
    IntelLikeTuned {
        /// Probability that victim selection deviates from the PLRU choice.
        mispredict: f64,
        /// Number of consecutive fills a line can survive without being
        /// touched before it is forcibly evicted.
        max_staleness: u32,
    },
    /// First-in first-out.
    Fifo,
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
            PolicyKind::IntelLike | PolicyKind::IntelLikeTuned { .. } => "Intel-like",
            PolicyKind::Fifo => "FIFO",
            PolicyKind::Nru => "NRU",
            PolicyKind::Srrip => "SRRIP",
        }
    }

    /// Instantiates the policy for a cache with `num_sets` sets of
    /// `ways` ways.  `seed` drives any internal randomness.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::UnsupportedAssociativity`] when the policy
    /// cannot handle the requested associativity (Tree-PLRU needs a power of
    /// two number of ways).
    pub fn build(
        self,
        num_sets: usize,
        ways: usize,
        seed: u64,
    ) -> crate::Result<Box<dyn ReplacementPolicy>> {
        Ok(match self {
            PolicyKind::TrueLru => Box::new(TrueLru::new(num_sets, ways)),
            PolicyKind::TreePlru => Box::new(TreePlru::new(num_sets, ways)?),
            PolicyKind::Random => Box::new(PseudoRandom::new(num_sets, ways, seed)),
            PolicyKind::IntelLike => Box::new(IntelLike::new(num_sets, ways, seed)?),
            PolicyKind::IntelLikeTuned {
                mispredict,
                max_staleness,
            } => Box::new(IntelLike::with_parameters(
                num_sets,
                ways,
                seed,
                mispredict,
                max_staleness,
            )?),
            PolicyKind::Fifo => Box::new(Fifo::new(num_sets, ways)),
            PolicyKind::Nru => Box::new(Nru::new(num_sets, ways)),
            PolicyKind::Srrip => Box::new(Srrip::new(num_sets, ways)),
        })
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The policy dispatcher a [`crate::cache::Cache`] holds.
///
/// The policies on the WB-channel hot path (Tree-PLRU and its Intel-like
/// perturbation, true LRU, pseudo-random) get static enum dispatch; the
/// ablation-only policies stay behind the object-safe trait.  The behaviour
/// is identical either way — this is purely a devirtualisation of the hot
/// calls.  `on_hit`, `on_fill` and `choose_victim_and_fill` are forced
/// inline into the cache's lookup and fill, so a Tree-PLRU hit or eviction
/// is straight-line code inside the hierarchy's batch loops; victim choice
/// for the other policies is one out-of-line call.
#[derive(Debug)]
pub(crate) enum PolicyDispatch {
    /// Statically dispatched Tree-PLRU.
    TreePlru(TreePlru),
    /// Statically dispatched true LRU.
    TrueLru(TrueLru),
    /// Statically dispatched pseudo-random (LFSR).
    Random(PseudoRandom),
    /// Statically dispatched Intel-like imperfect PLRU.
    IntelLike(IntelLike),
    /// Everything else (FIFO, NRU, SRRIP) through the trait object.
    Boxed(Box<dyn ReplacementPolicy>),
}

impl PolicyDispatch {
    /// Instantiates the dispatcher for `kind`.
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
            other => PolicyDispatch::Boxed(other.build(num_sets, ways, seed)?),
        })
    }

    /// Short, human-readable policy name used in result tables.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            PolicyDispatch::TreePlru(p) => p.name(),
            PolicyDispatch::TrueLru(p) => p.name(),
            PolicyDispatch::Random(p) => p.name(),
            PolicyDispatch::IntelLike(p) => p.name(),
            PolicyDispatch::Boxed(p) => p.name(),
        }
    }

    /// Records a hit on `way` of `set`.
    #[inline(always)]
    pub(crate) fn on_hit(&mut self, set: usize, way: usize) {
        match self {
            PolicyDispatch::TreePlru(p) => p.on_hit(set, way),
            PolicyDispatch::TrueLru(p) => p.on_hit(set, way),
            PolicyDispatch::Random(p) => p.on_hit(set, way),
            PolicyDispatch::IntelLike(p) => p.on_hit(set, way),
            PolicyDispatch::Boxed(p) => p.on_hit(set, way),
        }
    }

    /// Records that a new line has just been installed in `way` of `set`.
    #[inline(always)]
    pub(crate) fn on_fill(&mut self, set: usize, way: usize) {
        match self {
            PolicyDispatch::TreePlru(p) => p.on_fill(set, way),
            PolicyDispatch::TrueLru(p) => p.on_fill(set, way),
            PolicyDispatch::Random(p) => p.on_fill(set, way),
            PolicyDispatch::IntelLike(p) => p.on_fill(set, way),
            PolicyDispatch::Boxed(p) => p.on_fill(set, way),
        }
    }

    /// Records that `way` of `set` was invalidated.
    #[inline]
    pub(crate) fn on_invalidate(&mut self, set: usize, way: usize) {
        match self {
            PolicyDispatch::TreePlru(p) => p.on_invalidate(set, way),
            PolicyDispatch::TrueLru(p) => p.on_invalidate(set, way),
            PolicyDispatch::Random(p) => p.on_invalidate(set, way),
            PolicyDispatch::IntelLike(p) => p.on_invalidate(set, way),
            PolicyDispatch::Boxed(p) => p.on_invalidate(set, way),
        }
    }

    /// Chooses a victim way within `set`, restricted to `candidates`.
    #[inline]
    pub(crate) fn choose_victim(&mut self, set: usize, candidates: WayMask) -> Option<usize> {
        match self {
            PolicyDispatch::TreePlru(p) => p.choose_victim(set, candidates),
            PolicyDispatch::TrueLru(p) => p.choose_victim(set, candidates),
            PolicyDispatch::Random(p) => p.choose_victim(set, candidates),
            PolicyDispatch::IntelLike(p) => p.choose_victim(set, candidates),
            PolicyDispatch::Boxed(p) => p.choose_victim(set, candidates),
        }
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

    /// Resets all metadata to the post-power-on state.
    pub(crate) fn reset(&mut self) {
        match self {
            PolicyDispatch::TreePlru(p) => p.reset(),
            PolicyDispatch::TrueLru(p) => p.reset(),
            PolicyDispatch::Random(p) => p.reset(),
            PolicyDispatch::IntelLike(p) => p.reset(),
            PolicyDispatch::Boxed(p) => p.reset(),
        }
    }
}

/// A tiny deterministic PRNG (xorshift64*) used inside policies.
///
/// Policies cannot use thread-local entropy: experiments must be exactly
/// reproducible from the configured seed, and pulling a heavyweight RNG into
/// the victim-selection hot path would dominate simulator profiles.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
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

    fn exercise(policy: &mut dyn ReplacementPolicy, ways: usize) {
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
        let kinds = [
            PolicyKind::TrueLru,
            PolicyKind::TreePlru,
            PolicyKind::Random,
            PolicyKind::IntelLike,
            PolicyKind::Fifo,
            PolicyKind::Nru,
            PolicyKind::Srrip,
        ];
        for kind in kinds {
            let mut policy = kind.build(4, 8, 0xfeed).unwrap();
            exercise(policy.as_mut(), 8);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PolicyKind::TrueLru.to_string(), "LRU");
        assert_eq!(PolicyKind::TreePlru.to_string(), "Tree-PLRU");
        assert_eq!(PolicyKind::Random.label(), "Random");
        assert_eq!(PolicyKind::IntelLike.label(), "Intel-like");
        assert_eq!(
            PolicyKind::IntelLikeTuned {
                mispredict: 0.5,
                max_staleness: 9
            }
            .label(),
            "Intel-like"
        );
    }

    #[test]
    fn tree_plru_rejects_non_power_of_two() {
        assert!(PolicyKind::TreePlru.build(4, 6, 0).is_err());
        assert!(PolicyKind::IntelLike.build(4, 6, 0).is_err());
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
