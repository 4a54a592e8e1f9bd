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
//! A fill that evicts is one call, [`ReplacementPolicy::choose_and_fill`]:
//! the victim choice and the fill touch together.  The victim scans have
//! no data-dependent branch.  SRRIP keeps a set's RRPVs as two bit-plane
//! words and ages its candidates in one step with word operations, LRU
//! finds the smallest stamp with a select loop, NRU keeps one reference
//! word per set, Random's draw on a full mask is the victim itself
//! ([`WayMask::nth`]), and Intel-like, with no partition and no lock,
//! computes its stalest, PLRU and deviated ways and selects one.
//! Intel-like derives each way's staleness from a per-set fill count
//! instead of ageing every way on a fill.  No draw divides: Random and
//! Intel-like reduce a draw by a way count with a table of Lemire magics
//! (`PolicyRng::below`), and a fixed-probability draw compares the raw
//! value with a threshold found once (`Chance`).  The test module checks
//! LRU, Random, SRRIP, NRU and Intel-like victim for victim against
//! reference models written the plain way (`reference.rs`, its draws by
//! `%` and a float compare), under random operation mixes and candidate
//! masks on 4- to 64-way sets.

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

    /// [`ReplacementPolicy::choose_victim`] immediately followed by
    /// [`ReplacementPolicy::on_fill`] of the chosen way: a fill that evicts.
    /// A policy overrides it where doing both in one step is cheaper; the
    /// result and the state after it are the two calls'.
    #[inline(always)]
    fn choose_and_fill(&mut self, set: usize, candidates: WayMask) -> Option<usize> {
        let way = self.choose_victim(set, candidates)?;
        self.on_fill(set, way);
        Some(way)
    }

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
/// A cache's set view holds one word of a set's policy state: Tree-PLRU's
/// direction word ([`PolicyDispatch::view_word`]).  The `*_in` calls update
/// that word under Tree-PLRU and the state in place under every other
/// policy.  They are forced inline into the cache's lookup and fill, so a
/// Tree-PLRU hit or eviction is straight-line code on a local inside the
/// hierarchy's batch loops.  Under every other policy a hit or a fill into
/// an empty way is one out-of-line call, and a fill that evicts is one
/// out-of-line call too (`choose_victim_then_fill`): one match, then the
/// policy's victim choice and fill touch inlined together.  It allocates
/// nothing and touches only the set's own metadata.  Inlining these arms
/// into the Tree-PLRU fill measured as noise and grows the hot loop, so
/// they stay out of line.
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

    /// Records a hit on `way` of `set`, in place.  Tree-PLRU's touch is
    /// inlined; every other policy's is one out-of-line call.
    #[inline(always)]
    pub(crate) fn on_hit(&mut self, set: usize, way: usize) {
        match self {
            PolicyDispatch::TreePlru(p) => p.on_hit(set, way),
            _ => self.on_hit_elsewhere(set, way),
        }
    }

    /// Records that a new line has just been installed in `way` of `set`,
    /// in place, inlined like [`PolicyDispatch::on_hit`].
    #[inline(always)]
    pub(crate) fn on_fill(&mut self, set: usize, way: usize) {
        match self {
            PolicyDispatch::TreePlru(p) => p.on_fill(set, way),
            _ => self.on_fill_elsewhere(set, way),
        }
    }

    /// [`PolicyDispatch::on_hit`] for every policy but Tree-PLRU.
    #[inline(never)]
    fn on_hit_elsewhere(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_hit(set, way))
    }

    /// [`PolicyDispatch::on_fill`] for every policy but Tree-PLRU.
    #[inline(never)]
    fn on_fill_elsewhere(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_fill(set, way))
    }

    /// Records that `way` of `set` was invalidated.
    #[inline]
    pub(crate) fn on_invalidate(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_invalidate(set, way))
    }

    /// Chooses a victim way within `set`, restricted to `candidates` (the
    /// policy tests' entry point; caches choose and fill in one call).
    #[cfg(test)]
    pub(crate) fn choose_victim(&mut self, set: usize, candidates: WayMask) -> Option<usize> {
        dispatch!(self, p => p.choose_victim(set, candidates))
    }

    /// The word of `set`'s state a set view holds: Tree-PLRU's direction
    /// word, and 0 (unused) under every other policy.
    #[inline(always)]
    pub(crate) fn view_word(&self, set: usize) -> u64 {
        match self {
            PolicyDispatch::TreePlru(p) => p.word(set),
            _ => 0,
        }
    }

    /// Writes back a word read by [`PolicyDispatch::view_word`] and updated
    /// by the `*_in` calls since.
    #[inline(always)]
    pub(crate) fn store_view_word(&mut self, set: usize, word: u64) {
        if let PolicyDispatch::TreePlru(p) = self {
            p.set_word(set, word);
        }
    }

    /// Records a hit on `way` of `set`, whose view word is `word`.
    #[inline(always)]
    pub(crate) fn on_hit_in(&mut self, set: usize, way: usize, word: &mut u64) {
        match self {
            PolicyDispatch::TreePlru(p) => *word = p.touched(*word, way),
            _ => self.on_hit(set, way),
        }
    }

    /// Records a fill of `way` of `set`, whose view word is `word`.
    #[inline(always)]
    pub(crate) fn on_fill_in(&mut self, set: usize, way: usize, word: &mut u64) {
        match self {
            PolicyDispatch::TreePlru(p) => *word = p.touched(*word, way),
            _ => self.on_fill(set, way),
        }
    }

    /// `choose_victim` immediately followed by `on_fill` of the chosen way,
    /// in `set` whose view word is `word` — the eviction hot path.
    /// Tree-PLRU walks and touches its direction word in one step; every
    /// other policy runs its [`ReplacementPolicy::choose_and_fill`], whose
    /// result and state are the two calls' back to back.
    #[inline(always)]
    pub(crate) fn choose_victim_and_fill_in(
        &mut self,
        set: usize,
        candidates: WayMask,
        word: &mut u64,
    ) -> Option<usize> {
        match self {
            PolicyDispatch::TreePlru(p) => p.choose_and_touch(word, candidates),
            _ => self.choose_victim_then_fill(set, candidates),
        }
    }

    /// [`PolicyDispatch::choose_victim_and_fill_in`] for every policy but
    /// Tree-PLRU: one out-of-line call that chooses the victim and does the
    /// fill touch under one match (each policy's
    /// [`ReplacementPolicy::choose_and_fill`] inlines here), so the inlined
    /// fill stays small.
    #[inline(never)]
    fn choose_victim_then_fill(&mut self, set: usize, candidates: WayMask) -> Option<usize> {
        dispatch!(self, p => p.choose_and_fill(set, candidates))
    }

    /// [`PolicyDispatch::choose_victim_and_fill_in`] on `set`'s own view
    /// word (the policy tests' entry point).
    #[cfg(test)]
    pub(crate) fn choose_victim_and_fill(
        &mut self,
        set: usize,
        candidates: WayMask,
    ) -> Option<usize> {
        let mut word = self.view_word(set);
        let way = self.choose_victim_and_fill_in(set, candidates, &mut word);
        self.store_view_word(set, word);
        way
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    /// Uniform value in `[0, bound)`: exactly `next_u64() % bound`, without
    /// a divide.  `bound` is a way count, in `1..=64`.
    #[inline]
    pub(crate) fn below(&mut self, bound: usize) -> usize {
        fastmod(self.next_u64(), bound)
    }

    /// Bernoulli draw: `true` with the probability `chance` was built for.
    /// Probability 0 or 1 draws nothing from the stream.
    #[inline]
    pub(crate) fn chance(&mut self, chance: Chance) -> bool {
        match chance {
            Chance::Never => false,
            Chance::Always => true,
            Chance::Below(threshold) => self.next_u64() < threshold,
        }
    }
}

/// `ceil(2^128 / d)` for every divisor `d` in `1..=64`, wrapped to `u128`
/// (`d = 1` wraps to 0, which [`fastmod`] turns into the right remainder,
/// 0).  Index 0 is unused.
const FASTMOD_MAGIC: [u128; 65] = {
    let mut magic = [0; 65];
    let mut d = 1;
    while d <= 64 {
        magic[d] = (u128::MAX / d as u128).wrapping_add(1);
        d += 1;
    }
    magic
};

/// `x % d` for `d` in `1..=64`, as multiplies: Lemire's direct remainder
/// (Lemire, Kaser and Kurz, "Faster remainder by direct computation",
/// 2019).  With `c = ceil(2^128 / d)`, the low 128 bits of `c * x` are the
/// fractional part of `x / d` scaled by 2^128; times `d` and shifted down
/// by 128 bits, it is the remainder.  It is exact for every 64-bit `x`
/// because 128 fraction bits are at least the 64 + log2(64) bits that
/// their theorem asks for.
#[inline(always)]
fn fastmod(x: u64, d: usize) -> usize {
    debug_assert!((1..=64).contains(&d));
    let fraction = FASTMOD_MAGIC[d].wrapping_mul(u128::from(x));
    let d = d as u128;
    // `fraction * d >> 128`, from the two 64-bit halves of `fraction`.
    let high = (fraction >> 64) * d;
    let low = ((fraction & u128::from(u64::MAX)) * d) >> 64;
    ((high + low) >> 64) as usize
}

/// A Bernoulli draw of fixed probability, resolved once into an integer
/// threshold on the raw stream value.
///
/// The float test `x as f64 / u64::MAX as f64 < p` is monotone in `x`, so
/// it holds exactly for the `x` below the first one that fails it;
/// [`Chance::new`] finds that `x` by binary search and every draw becomes
/// one integer compare, with the same outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Chance {
    /// Probability 0 or less: no draw.
    Never,
    /// Probability 1 or more: no draw.
    Always,
    /// One draw `x`, a success when `x < threshold`.
    Below(u64),
}

impl Chance {
    /// The draw of probability `p`.
    pub(crate) fn new(p: f64) -> Chance {
        if p <= 0.0 {
            return Chance::Never;
        }
        if p >= 1.0 {
            return Chance::Always;
        }
        let hit = |x: u64| (x as f64 / u64::MAX as f64) < p;
        // `hit(u64::MAX)` is `1.0 < p`, false here: the first miss exists.
        let (mut lo, mut hi) = (0u64, u64::MAX);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if hit(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Chance::Below(lo)
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

    /// The plain reference model of `kind` (every policy but Tree-PLRU).
    fn reference_model(
        kind: PolicyKind,
        num_sets: usize,
        ways: usize,
        seed: u64,
    ) -> Box<dyn ReplacementPolicy> {
        match kind {
            PolicyKind::TrueLru => Box::new(reference::LruModel::new(num_sets, ways)),
            PolicyKind::Random => Box::new(reference::RandomModel::new(ways, seed)),
            PolicyKind::Srrip => Box::new(reference::SrripModel::new(num_sets, ways)),
            PolicyKind::Nru => Box::new(reference::NruModel::new(num_sets, ways)),
            PolicyKind::IntelLike => Box::new(reference::IntelLikeModel::new(num_sets, ways, seed)),
            _ => unreachable!("no reference model for {kind}"),
        }
    }

    /// The policies with a reference model.
    const MODELLED: [PolicyKind; 5] = [
        PolicyKind::TrueLru,
        PolicyKind::Random,
        PolicyKind::Srrip,
        PolicyKind::Nru,
        PolicyKind::IntelLike,
    ];

    proptest! {
        /// LRU, Random, SRRIP, NRU and Intel-like choose the same victim as
        /// their reference models at every step of a random mix of hits,
        /// fills, invalidations, victim choices and resets, under candidate
        /// masks that include locked ways, way partitions and arbitrary
        /// subsets, on 4- to 64-way sets (Intel-like, a tree, on the power
        /// of two at or below the drawn count).
        #[test]
        fn victims_match_reference_models(
            kind in 0..MODELLED.len(),
            ways in 4usize..=64,
            seed in 0u64..1000,
            ops in proptest::collection::vec(
                (0u8..16, 0usize..4, 0usize..64, 0u64..u64::MAX, 0u8..4),
                1..400,
            ),
        ) {
            let kind = MODELLED[kind];
            let ways = if kind == PolicyKind::IntelLike {
                1 << ways.ilog2()
            } else {
                ways
            };
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
        assert!(!a.chance(Chance::new(0.0)));
        assert!(a.chance(Chance::new(1.0)));
    }

    #[test]
    fn draw_below_is_the_remainder_for_every_way_count() {
        let mut stream = PolicyRng::new(2022);
        let samples: Vec<u64> = (0..4096).map(|_| stream.next_u64()).collect();
        for d in 1..=64usize {
            let divisor = d as u64;
            let top = u64::MAX / divisor * divisor;
            let edges = [
                0,
                1,
                divisor - 1,
                divisor,
                divisor + 1,
                (1 << 63) - 1,
                1 << 63,
                top - 1,
                top,
                u64::MAX - 1,
                u64::MAX,
            ];
            for &x in edges.iter().chain(&samples) {
                assert_eq!(fastmod(x, d) as u64, x % divisor, "{x} % {d}");
            }
            let (mut rng, mut plain) = (PolicyRng::new(divisor), PolicyRng::new(divisor));
            for _ in 0..256 {
                assert_eq!(rng.below(d) as u64, plain.next_u64() % divisor);
            }
        }
    }

    #[test]
    fn draw_chance_is_the_float_test() {
        let float = |x: u64, p: f64| (x as f64 / u64::MAX as f64) < p;
        assert_eq!(Chance::new(0.0), Chance::Never);
        assert_eq!(Chance::new(1.0), Chance::Always);
        for p in [0.0, 0.222, 0.42, 1.0] {
            let chance = Chance::new(p);
            let (mut rng, mut plain) = (PolicyRng::new(5), PolicyRng::new(5));
            if let Chance::Below(threshold) = chance {
                // The stream values on either side of the threshold.
                for x in (threshold - 3..=threshold + 3).chain([0, u64::MAX]) {
                    assert_eq!(x < threshold, float(x, p), "p = {p}, x = {x}");
                }
                for _ in 0..4096 {
                    assert_eq!(rng.chance(chance), float(plain.next_u64(), p), "p = {p}");
                }
            } else {
                for _ in 0..64 {
                    assert_eq!(rng.chance(chance), p >= 1.0);
                }
                assert_eq!(rng, plain, "p = {p} draws nothing");
            }
        }
    }

    #[test]
    fn table_ii_policy_list() {
        assert_eq!(PolicyKind::TABLE_II.len(), 3);
    }
}
