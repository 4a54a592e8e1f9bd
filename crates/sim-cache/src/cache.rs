//! A single cache level.
//!
//! [`Cache`] combines the tag-store arena, a replacement policy and the
//! per-domain way partitions.  It knows nothing about latency or about other
//! levels; [`crate::hierarchy::CacheHierarchy`] composes several `Cache`s
//! and attributes cycles.
//!
//! ## Tag-store layout
//!
//! The tag store is a **structure of arrays**: the tags of line
//! `(set, way)` live in one contiguous `Box<[u64]>` at `set * ways + way`,
//! owner domains in a parallel array, and each set's valid/dirty/locked
//! way state is packed into one record (`SetMasks`) of three `u64` bit
//! masks.  Next to the tags, each set keeps a one-byte fingerprint of every
//! way's tag, eight ways to a `u64` word.  A lookup compares all of a set's
//! fingerprints at once with a few word operations, keeps the valid ways
//! among the matches, and checks the full tag only there, so it has no
//! per-way loop whose exit the branch predictor must guess.  Dirty counts,
//! lock exclusion and empty-way selection are single mask operations, and
//! per-domain way partitions resolve through a dense [`PartitionTable`]
//! rather than a `HashMap`.  perfbench's `sim-core.exec_ns_per_access` row
//! tracks the cost per access inside a channel frame.
//!
//! The interface is deliberately attacker-visible: experiments can ask how
//! many dirty lines a set currently holds, lock lines (PLcache defense) or
//! restrict a protection domain to a subset of the ways (NoMo / DAWG).

use crate::addr::{CacheGeometry, LineAddr, PhysAddr};
use crate::config::{CacheConfig, WritePolicy};
use crate::line::DomainId;
use crate::policy::PolicyDispatch;
use crate::waymask::{PartitionTable, WayMask};
use std::fmt;

/// Per-access context: which protection domain issued the access.
///
/// Domains feed two mechanisms: way partitioning (a domain may only fill
/// into its allotted ways) and line ownership, which the DAWG defense and
/// [`Cache::owned_count_in_set`] read.  The domain's way mask is resolved
/// once per access through the cache's dense [`PartitionTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AccessContext {
    /// The issuing protection/attribution domain.
    pub domain: DomainId,
}

impl AccessContext {
    /// Context for a given domain.
    pub fn for_domain(domain: DomainId) -> AccessContext {
        AccessContext { domain }
    }
}

/// A line evicted by a fill, reported to the caller so write-backs can be
/// propagated to the next level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Address of the evicted line.
    pub addr: LineAddr,
    /// Whether the evicted line was dirty (requires a write-back).
    pub dirty: bool,
    /// Domain that owned the evicted line.
    pub owner: DomainId,
}

/// Result of installing a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// The way that holds the line, or `None` when the fill was bypassed
    /// (partitioning and locks can leave no way to fill).
    pub way: Option<usize>,
    /// The valid line that had to be evicted, if any.
    pub evicted: Option<EvictedLine>,
}

/// Packed per-set way-state masks (bit `i` describes way `i`).
///
/// The dirty and locked masks are always subsets of the valid mask.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SetMasks {
    /// Ways holding a valid line.
    valid: u64,
    /// Ways holding a dirty line.
    dirty: u64,
    /// Ways holding a locked line (PLcache).
    locked: u64,
}

/// Ways per fingerprint word: one byte per way.
const WAYS_PER_WORD: usize = 8;

/// The low 7 bits of every byte of a word.
const LOW_SEVEN: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// The one-byte fingerprint of `tag`, in the low byte: the top byte of a
/// Fibonacci hash, so tags that differ only in their high bits (address
/// regions a power of two apart) still get different fingerprints.
#[inline(always)]
fn fingerprint(tag: u64) -> u64 {
    tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56
}

/// The bytes of `word` that are zero, as bits 0..8 (byte `i` ↔ bit `i`).
///
/// The SWAR has-zero-byte test in its exact form: adding 0x7f to a byte's
/// low seven bits sets its top bit unless they are all zero, and no carry
/// crosses a byte.  A multiply then gathers the eight top bits into one
/// byte (byte `i`'s bit lands on bit `56 + i`, every other product term
/// below bit 56 or above bit 63).
#[inline(always)]
fn zero_bytes(word: u64) -> u64 {
    let top_bits = !(((word & LOW_SEVEN) + LOW_SEVEN) | word | LOW_SEVEN);
    (top_bits >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// The sets filled since the last reset: one bit per set, so its size is
/// bounded by the geometry however much traffic the cache sees.
///
/// A set's masks and policy state can change only once a line is resident
/// in it, and every set's first fill after a reset lands in an empty set.
/// So marking a set on that fill-into-an-empty-set path covers every set
/// whose state a reset has to clear, at one mask test on a path that is
/// already off the eviction hot loop.
#[derive(Debug, Clone)]
struct TouchedSets {
    words: Box<[u64]>,
}

impl TouchedSets {
    fn new(num_sets: usize) -> TouchedSets {
        TouchedSets {
            words: vec![0; num_sets.div_ceil(64)].into_boxed_slice(),
        }
    }

    #[inline(always)]
    fn insert(&mut self, set: usize) {
        self.words[set / 64] |= 1 << (set % 64);
    }

    /// The marked sets in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(index, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    index * 64 + bit
                })
            })
        })
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }
}

/// One level of the cache hierarchy.
pub struct Cache {
    config: CacheConfig,
    /// Ways per set, denormalised from the geometry for the hot path.
    ways: usize,
    /// The tag arena: the tag of line `(set, way)` at `set * ways + way`.
    /// Storing the tags contiguously (instead of packed 16-byte records)
    /// keeps a set's candidate tags on one dense row.
    tags: Box<[u64]>,
    /// [`fingerprint`] bytes of `tags`: byte `way % 8` of word
    /// `set * fingerprint_words + way / 8` fingerprints line `(set, way)`.
    /// Written with the tag and never cleared: an invalid way's stale byte
    /// may match, but [`Cache::find`] keeps only the valid ways.
    fingerprints: Box<[u64]>,
    /// Fingerprint words per set, `ways.div_ceil(8)` (at most 8).
    fingerprint_words: usize,
    /// Owner domain of line `(set, way)`, parallel to `tags`.
    owners: Box<[DomainId]>,
    /// Per-set packed way-state masks (valid/dirty/locked), one record per
    /// set so a fill's state updates touch one contiguous slot.
    masks: Box<[SetMasks]>,
    policy: PolicyDispatch,
    /// The sets [`Cache::reset`] has to clear.
    touched: TouchedSets,
    /// Per-domain way restriction (NoMo / DAWG), dense by domain id.
    partitions: PartitionTable,
    /// Precomputed mask of every way of this cache.
    all_ways: WayMask,
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("level", &self.config.level)
            .field("geometry", &self.config.geometry)
            .field("policy", &self.policy.name())
            .finish()
    }
}

impl Cache {
    /// Builds a cache from its configuration; `seed` drives any randomness in
    /// the replacement policy.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidGeometry`] for a geometry
    /// [`CacheGeometry::new`] would not build, and propagates policy
    /// construction errors (e.g. Tree-PLRU with a non-power-of-two
    /// associativity).
    pub fn new(config: CacheConfig, seed: u64) -> crate::Result<Cache> {
        let geometry = config.geometry;
        // The geometry's fields are public: a hand-built one must still be
        // the one `CacheGeometry::new` derives from its dimensions.
        let derived = CacheGeometry::new(
            geometry.size_bytes,
            geometry.associativity,
            geometry.line_size,
        )?;
        if derived != geometry {
            return Err(crate::Error::InvalidGeometry {
                field: "num_sets",
                value: geometry.num_sets,
                requirement: "must be size_bytes / (associativity * line_size)",
            });
        }
        let policy = PolicyDispatch::build(
            config.replacement,
            geometry.num_sets,
            geometry.associativity,
            seed,
        )?;
        let all_ways = WayMask::all(geometry.associativity);
        let fingerprint_words = geometry.associativity.div_ceil(WAYS_PER_WORD);
        Ok(Cache {
            config,
            ways: geometry.associativity,
            tags: vec![0u64; geometry.num_sets * geometry.associativity].into_boxed_slice(),
            fingerprints: vec![0u64; geometry.num_sets * fingerprint_words].into_boxed_slice(),
            fingerprint_words,
            owners: vec![0; geometry.num_sets * geometry.associativity].into_boxed_slice(),
            masks: vec![SetMasks::default(); geometry.num_sets].into_boxed_slice(),
            policy,
            touched: TouchedSets::new(geometry.num_sets),
            partitions: PartitionTable::new(all_ways),
            all_ways,
        })
    }

    /// Resets this cache to the state [`Cache::new`] would produce for
    /// `(config, seed)`, in place when the geometry and policy kind are
    /// unchanged.
    ///
    /// Behaviourally indistinguishable from a fresh construction: the masks
    /// of every set filled since the last reset are cleared (stale tags and
    /// fingerprints in invalid ways can never match or be observed), the
    /// replacement policy returns to its state for the seed in those sets,
    /// and the partitions are cleared.  The cost is O(sets touched) (plus one tree draw per set
    /// for Intel-like); a different geometry or policy kind rebuilds the
    /// whole cache.
    ///
    /// # Errors
    ///
    /// Propagates policy construction errors (as [`Cache::new`] would).
    pub fn reset(&mut self, config: CacheConfig, seed: u64) -> crate::Result<()> {
        if config.geometry != self.config.geometry || config.replacement != self.config.replacement
        {
            *self = Cache::new(config, seed)?;
            return Ok(());
        }
        self.policy.reset_touched(seed, self.touched.iter());
        for set in self.touched.iter() {
            self.masks[set] = SetMasks::default();
        }
        self.touched.clear();
        self.config = config;
        self.partitions.clear();
        Ok(())
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.config.geometry
    }

    /// Restricts `domain` to the given ways for fills and victim selection.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::EmptyWayMask`] if the mask enables no way.
    pub fn set_partition(&mut self, domain: DomainId, mask: WayMask) -> crate::Result<()> {
        let mask = mask.and(self.all_ways);
        if mask.is_empty() {
            return Err(crate::Error::EmptyWayMask);
        }
        self.partitions.set(domain, mask);
        Ok(())
    }

    /// The way mask `domain` is allowed to use.
    pub fn partition_of(&self, domain: DomainId) -> WayMask {
        self.partitions.resolve(domain)
    }

    /// The `(set index, tag)` pair of `addr` in this cache's geometry —
    /// computed once per access and threaded through the `*_at` entry points
    /// so the lookup and the subsequent fill never redo the address math.
    #[inline(always)]
    pub(crate) fn set_and_tag(&self, addr: PhysAddr) -> (usize, u64) {
        let g = self.config.geometry;
        (g.set_index(addr), g.tag(addr))
    }

    /// Finds the way of `set` holding `tag`, if resident — the tag match on
    /// the access hot path, one path for every associativity.
    ///
    /// XORs each of the set's fingerprint words with the tag's fingerprint
    /// repeated in every byte, turns the zero bytes into a way mask and
    /// keeps the valid ways; only those candidates' full tags are compared,
    /// in ascending way order, so the result is the lowest valid way whose
    /// tag matches.  There is no per-way loop exit to predict, which a
    /// way scan mispredicts on the receiver's shuffled chase orders: a miss
    /// usually has no candidate and a hit one, each a single test.
    #[inline(always)]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let probe = fingerprint(tag) * 0x0101_0101_0101_0101;
        let row = set * self.fingerprint_words;
        // Word 0 exists in every cache; the loop runs only above 8 ways, so
        // an 8-way lookup stays straight-line code.
        let mut matches = zero_bytes(self.fingerprints[row] ^ probe);
        for word in 1..self.fingerprint_words {
            matches |= zero_bytes(self.fingerprints[row + word] ^ probe) << (word * WAYS_PER_WORD);
        }
        let mut candidates = matches & self.masks[set].valid;
        let base = set * self.ways;
        while candidates != 0 {
            let way = candidates.trailing_zeros() as usize;
            if self.tags[base + way] == tag {
                return Some(way);
            }
            candidates &= candidates - 1;
        }
        None
    }

    /// The mask bit of one way.
    #[inline(always)]
    fn bit(way: usize) -> u64 {
        1u64 << way
    }

    /// Whether the line containing `addr` is resident (no state change).
    pub fn contains(&self, addr: PhysAddr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.find(set, tag).is_some()
    }

    /// Whether the line containing `addr` is resident *and dirty*.
    pub fn is_dirty(&self, addr: PhysAddr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.find(set, tag)
            .map(|way| self.masks[set].dirty & Self::bit(way) != 0)
            .unwrap_or(false)
    }

    /// Number of dirty lines currently in `set`.
    ///
    /// This is the quantity the WB sender controls; exposing it lets tests
    /// and experiments verify the encoding without going through timing.
    pub fn dirty_count_in_set(&self, set: usize) -> usize {
        self.masks[set].dirty.count_ones() as usize
    }

    /// Number of valid lines currently in `set`.
    pub fn valid_count_in_set(&self, set: usize) -> usize {
        self.masks[set].valid.count_ones() as usize
    }

    /// Number of valid lines in `set` owned by `domain`.
    pub fn owned_count_in_set(&self, set: usize, domain: DomainId) -> usize {
        let valid = self.masks[set].valid;
        let base = set * self.ways;
        self.owners[base..base + self.ways]
            .iter()
            .enumerate()
            .filter(|&(way, &owner)| valid & Self::bit(way) != 0 && owner == domain)
            .count()
    }

    /// Looks up the line `(set, tag)` (precomputed by [`Cache::set_and_tag`])
    /// for a load.  On a hit the policy is refreshed; on a miss nothing
    /// changes.  The hierarchy's demand path resolves the address once and
    /// reuses it for the fill.
    #[inline(always)]
    pub(crate) fn lookup_read_at(&mut self, set: usize, tag: u64) -> Option<usize> {
        let way = self.find(set, tag)?;
        self.policy.on_hit(set, way);
        Some(way)
    }

    /// Looks up the line `(set, tag)` for a store.  Under a write-back
    /// policy a hit marks the line dirty — the state transition the WB
    /// channel is built on.  Under write-through the line stays clean (the
    /// hierarchy forwards the store to the next level).
    #[inline(always)]
    pub(crate) fn lookup_write_at(&mut self, set: usize, tag: u64) -> Option<usize> {
        let way = self.find(set, tag)?;
        self.policy.on_hit(set, way);
        if self.config.write_policy == WritePolicy::WriteBack {
            self.masks[set].dirty |= Self::bit(way);
        }
        Some(way)
    }

    /// Installs the line containing `addr`: a demand or prefetch fill, a
    /// dirty write-back from the level above, or (into an exclusive LLC) a
    /// clean or dirty victim from the level above.
    ///
    /// A resident line is only refreshed, and marked dirty when `dirty` is
    /// set under a write-back policy; nothing is evicted.  A missing line is
    /// installed with the given dirty state (clean under write-through).
    /// Ways are chosen in this order: an invalid allowed way first, then the
    /// replacement policy restricted to the domain's partition minus locked
    /// ways.  If no way is permitted the fill is bypassed.
    ///
    /// Forced inline so the hierarchy's dirty-victim push into the L2 stays
    /// straight-line code on the demand path.
    #[inline(always)]
    pub fn fill(&mut self, addr: PhysAddr, ctx: AccessContext, dirty: bool) -> FillOutcome {
        let (set, tag) = self.set_and_tag(addr);
        if let Some(way) = self.find(set, tag) {
            // Dirty bit before the policy touch, so the inlined write-back
            // push shares `find`'s bounds check on `masks[set]`.
            if dirty && self.config.write_policy == WritePolicy::WriteBack {
                self.masks[set].dirty |= Self::bit(way);
            }
            self.policy.on_hit(set, way);
            return FillOutcome {
                way: Some(way),
                evicted: None,
            };
        }
        self.fill_missing_at(set, tag, ctx, dirty)
    }

    /// [`Cache::fill`] for a line the caller knows is **not** resident (a
    /// lookup on this level just missed and nothing filled it since), with
    /// the `(set, tag)` pair precomputed — skips the residency re-scan and
    /// the address math on the demand-miss path.
    #[inline(always)]
    pub(crate) fn fill_missing_at(
        &mut self,
        set: usize,
        tag: u64,
        ctx: AccessContext,
        dirty: bool,
    ) -> FillOutcome {
        debug_assert!(
            self.find(set, tag).is_none(),
            "fill_missing caller must have observed a miss"
        );

        // The set's state record is loaded once up front and written back
        // once after the install — the whole fill is one load/store pair on
        // the masks array.
        let mut state = self.masks[set];

        // The domain's allotment is a dense-array load; locked ways (always
        // a subset of the valid ways) are excluded with one mask operation.
        let allowed = self.partitions.resolve(ctx.domain);
        let candidates = allowed.and(WayMask::from_bits(!state.locked));

        // An invalid allowed way, if any, is preferred over the policy's
        // victim; the per-set valid mask answers that in one mask operation
        // (fills prefer empty ways before running the policy, as real tag
        // pipelines do).  `trailing_zeros` yields the lowest such way,
        // matching the way-order scan this replaced.
        let invalid = !state.valid & allowed.bits();
        // The fill touch (`on_fill`) is issued together with the victim
        // choice: nothing reads policy state between the two, and Tree-PLRU
        // fuses them into one direction-word update.
        let way = if invalid != 0 {
            if state.valid == 0 {
                self.touched.insert(set);
            }
            let way = invalid.trailing_zeros() as usize;
            self.policy.on_fill(set, way);
            Some(way)
        } else {
            self.policy.choose_victim_and_fill(set, candidates)
        };
        let Some(way) = way else {
            return FillOutcome {
                way: None,
                evicted: None,
            };
        };

        let bit = Self::bit(way);
        let index = set * self.ways + way;
        let evicted = if state.valid & bit != 0 {
            Some(EvictedLine {
                addr: self.config.geometry.line_addr(set, self.tags[index]),
                dirty: state.dirty & bit != 0,
                owner: self.owners[index],
            })
        } else {
            None
        };

        let store_dirty = dirty && self.config.write_policy == WritePolicy::WriteBack;
        self.tags[index] = tag;
        let slot = &mut self.fingerprints[set * self.fingerprint_words + way / WAYS_PER_WORD];
        let shift = way % WAYS_PER_WORD * 8;
        *slot = (*slot & !(0xff << shift)) | (fingerprint(tag) << shift);
        self.owners[index] = ctx.domain;
        state.valid |= bit;
        if store_dirty {
            state.dirty |= bit;
        } else {
            state.dirty &= !bit;
        }
        // A refill always installs an unlocked line (locks die with the
        // victim), mirroring the packed-flag overwrite this replaced.
        state.locked &= !bit;
        self.masks[set] = state;

        FillOutcome {
            way: Some(way),
            evicted,
        }
    }

    /// Installs every line of `addrs`, in order, discarding the per-fill
    /// outcomes (the batch counterpart of [`Cache::fill`], used by the
    /// eviction experiments' warm loops).
    pub fn fill_all(&mut self, addrs: &[PhysAddr], ctx: AccessContext, dirty: bool) {
        for &addr in addrs {
            let _ = self.fill(addr, ctx, dirty);
        }
    }

    /// Invalidates the line containing `addr`, returning `Some(was_dirty)`
    /// if it was resident.
    ///
    /// Both `clflush` and the residency moves of inclusion policies use it:
    /// inclusive back-invalidation (an LLC eviction forcing the upper-level
    /// copies out) and exclusive promotion (an LLC hit moving the line up).
    /// Any write-back this implies is the caller's to count, in the
    /// access's [`crate::outcome::AccessOutcome::writebacks`].
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<bool> {
        let (set, tag) = self.set_and_tag(addr);
        let way = self.find(set, tag)?;
        let bit = Self::bit(way);
        let masks = &mut self.masks[set];
        let was_dirty = masks.dirty & bit != 0;
        masks.valid &= !bit;
        masks.dirty &= !bit;
        masks.locked &= !bit;
        self.policy.on_invalidate(set, way);
        Some(was_dirty)
    }

    /// Locks the resident line containing `addr` against eviction (PLcache).
    /// Returns `true` if the line was resident and is now locked.
    pub fn lock_line(&mut self, addr: PhysAddr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        if let Some(way) = self.find(set, tag) {
            self.masks[set].locked |= Self::bit(way);
            true
        } else {
            false
        }
    }

    /// Unlocks the resident line containing `addr`.  Returns `true` if the
    /// line was resident.
    pub fn unlock_line(&mut self, addr: PhysAddr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        if let Some(way) = self.find(set, tag) {
            self.masks[set].locked &= !Self::bit(way);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheLevel;
    use crate::policy::PolicyKind;

    fn l1(policy: PolicyKind) -> Cache {
        Cache::new(CacheConfig::xeon_l1d(policy), 7).unwrap()
    }

    fn addr(set: usize, tag: u64) -> PhysAddr {
        PhysAddr::from_set_and_tag(set, tag, CacheGeometry::xeon_l1d())
    }

    #[test]
    fn read_miss_then_fill_then_hit() {
        let mut cache = l1(PolicyKind::TrueLru);
        let ctx = AccessContext::default();
        let a = addr(5, 1);
        let (set, tag) = cache.set_and_tag(a);
        assert!(cache.lookup_read_at(set, tag).is_none());
        let fill = cache.fill(a, ctx, false);
        assert!(fill.way.is_some());
        assert!(fill.evicted.is_none());
        assert!(cache.lookup_read_at(set, tag).is_some());
        assert_eq!(cache.valid_count_in_set(5), 1, "one fill, no other line");
        assert_eq!(cache.dirty_count_in_set(5), 0);
    }

    #[test]
    fn write_hit_marks_line_dirty_under_write_back() {
        let mut cache = l1(PolicyKind::TrueLru);
        let ctx = AccessContext::for_domain(1);
        let a = addr(0, 3);
        cache.fill(a, ctx, false);
        assert!(!cache.is_dirty(a));
        cache.fill(a, ctx, true);
        assert!(cache.is_dirty(a), "store hit must set the dirty bit");
        assert_eq!(cache.dirty_count_in_set(0), 1);
    }

    #[test]
    fn write_hit_stays_clean_under_write_through() {
        let config = CacheConfig::builder(CacheLevel::L1D)
            .write_policy(WritePolicy::WriteThrough)
            .build()
            .unwrap();
        let mut cache = Cache::new(config, 0).unwrap();
        let ctx = AccessContext::default();
        let a = addr(0, 3);
        cache.fill(a, ctx, true);
        assert!(
            !cache.is_dirty(a),
            "write-through caches never hold dirty lines"
        );
        cache.fill(a, ctx, true);
        assert!(!cache.is_dirty(a));
    }

    #[test]
    fn filling_a_full_set_evicts_and_reports_dirty_victims() {
        let mut cache = l1(PolicyKind::TrueLru);
        let ctx = AccessContext::default();
        let set = 9;
        // Fill the set with 8 lines; make the first one dirty.
        for tag in 0..8u64 {
            cache.fill(addr(set, tag), ctx, tag == 0);
        }
        assert_eq!(cache.dirty_count_in_set(set), 1);
        // The 9th fill must evict the LRU line, which is the dirty tag 0.
        let outcome = cache.fill(addr(set, 100), ctx, false);
        let evicted = outcome.evicted.expect("a line must be evicted");
        assert!(evicted.dirty);
        assert_eq!(evicted.addr, cache.geometry().line_addr(set, 0));
        assert!(!cache.contains(addr(set, 0)));
        assert_eq!(cache.valid_count_in_set(set), 8);
        assert_eq!(cache.dirty_count_in_set(set), 0);
    }

    #[test]
    fn fill_all_installs_every_line_in_order() {
        let mut cache = l1(PolicyKind::TrueLru);
        let ctx = AccessContext::for_domain(2);
        let set = 4;
        let addrs: Vec<PhysAddr> = (0..8).map(|t| addr(set, t)).collect();
        cache.fill_all(&addrs, ctx, true);
        assert_eq!(cache.dirty_count_in_set(set), 8);
        assert_eq!(cache.valid_count_in_set(set), 8);
        // Identical to eight single fills: the LRU victim is tag 0.
        let outcome = cache.fill(addr(set, 100), ctx, false);
        assert_eq!(
            outcome.evicted.expect("eviction").addr,
            cache.geometry().line_addr(set, 0)
        );
    }

    #[test]
    fn locked_lines_are_never_evicted() {
        let mut cache = l1(PolicyKind::TrueLru);
        let ctx = AccessContext::default();
        let set = 2;
        let protected = addr(set, 0);
        cache.fill(protected, ctx, true);
        assert!(cache.lock_line(protected));
        // Fill far more lines than the associativity.
        for tag in 1..32u64 {
            cache.fill(addr(set, tag), ctx, false);
        }
        assert!(cache.contains(protected), "locked line must survive");
        assert!(cache.is_dirty(protected));
        assert!(cache.unlock_line(protected));
        for tag in 32..64u64 {
            cache.fill(addr(set, tag), ctx, false);
        }
        assert!(
            !cache.contains(protected),
            "unlocked line is evictable again"
        );
    }

    #[test]
    fn partitions_confine_fills_to_allowed_ways() {
        let mut cache = l1(PolicyKind::TrueLru);
        // Domain 1 may only use ways 0-3, domain 2 only ways 4-7 (NoMo).
        cache.set_partition(1, WayMask::range(0, 4)).unwrap();
        cache.set_partition(2, WayMask::range(4, 8)).unwrap();
        let set = 11;
        for tag in 0..16u64 {
            cache.fill(addr(set, tag), AccessContext::for_domain(1), false);
        }
        assert_eq!(cache.owned_count_in_set(set, 1), 4);
        for tag in 100..104u64 {
            cache.fill(addr(set, tag), AccessContext::for_domain(2), false);
        }
        assert_eq!(
            cache.owned_count_in_set(set, 1),
            4,
            "domain 2 must not evict domain 1"
        );
        assert_eq!(cache.owned_count_in_set(set, 2), 4);
        assert!(cache.set_partition(1, WayMask::EMPTY).is_err());
    }

    #[test]
    fn dirty_fill_marks_or_installs_dirty() {
        let mut cache = Cache::new(CacheConfig::xeon_l2(), 3).unwrap();
        let ctx = AccessContext::default();
        let g = cache.geometry();
        let a = PhysAddr::from_set_and_tag(17, 4, g);
        // Not resident: installed dirty.
        assert!(cache.fill(a, ctx, true).evicted.is_none());
        assert!(cache.is_dirty(a));
        // Resident clean line becomes dirty.
        let b = PhysAddr::from_set_and_tag(17, 5, g);
        cache.fill(b, ctx, false);
        assert!(!cache.is_dirty(b));
        cache.fill(b, ctx, true);
        assert!(cache.is_dirty(b));
    }

    #[test]
    fn invalidate_reports_dirtiness_and_counts_flush() {
        let mut cache = l1(PolicyKind::TreePlru);
        let ctx = AccessContext::default();
        let a = addr(30, 2);
        assert_eq!(cache.invalidate(a), None);
        cache.fill(a, ctx, true);
        assert_eq!(cache.invalidate(a), Some(true));
        assert!(!cache.contains(a));
        assert_eq!(cache.valid_count_in_set(30), 0);
        assert_eq!(cache.dirty_count_in_set(30), 0);
        assert_eq!(cache.invalidate(a), None, "the line is gone");
    }

    #[test]
    fn refilling_resident_line_does_not_evict() {
        let mut cache = l1(PolicyKind::TreePlru);
        let ctx = AccessContext::default();
        let a = addr(4, 9);
        cache.fill(a, ctx, false);
        let again = cache.fill(a, ctx, true);
        assert!(again.way.is_some());
        assert!(again.evicted.is_none());
        assert!(cache.is_dirty(a), "dirty refill upgrades the line");
        assert_eq!(cache.valid_count_in_set(4), 1, "second fill is a refresh");
    }

    #[test]
    fn set_counts_read_the_arena_contents() {
        let mut cache = l1(PolicyKind::TrueLru);
        let ctx = AccessContext::for_domain(3);
        cache.fill(addr(6, 40), ctx, true);
        cache.fill(addr(6, 41), ctx, false);
        cache.fill(addr(6, 42), AccessContext::for_domain(4), false);
        assert_eq!(cache.valid_count_in_set(6), 3);
        assert_eq!(cache.dirty_count_in_set(6), 1);
        assert_eq!(cache.owned_count_in_set(6, 3), 2);
        assert_eq!(cache.owned_count_in_set(6, 4), 1);
        assert_eq!(cache.owned_count_in_set(6, 5), 0);
        // Only set 6 was touched.
        assert_eq!(cache.valid_count_in_set(7), 0);
        assert_eq!(cache.owned_count_in_set(7, 3), 0);
        // An invalidated way no longer counts for its former owner.
        cache.invalidate(addr(6, 41));
        assert_eq!(cache.valid_count_in_set(6), 2);
        assert_eq!(cache.owned_count_in_set(6, 3), 1);
    }

    /// The plain way scan: the first valid way whose tag matches.
    fn scan(cache: &Cache, set: usize, tag: u64) -> Option<usize> {
        let valid = cache.masks[set].valid;
        (0..cache.ways)
            .find(|&way| valid & Cache::bit(way) != 0 && cache.tags[set * cache.ways + way] == tag)
    }

    #[test]
    fn zero_bytes_flags_exactly_the_zero_bytes() {
        for word in [0, u64::MAX, 0x0100_ff80_0001_7f00, 0x8080_8080_8080_8080] {
            let expected = (0..8)
                .filter(|byte| (word >> (byte * 8)) as u8 == 0)
                .fold(0, |mask, byte| mask | 1 << byte);
            assert_eq!(zero_bytes(word), expected, "{word:#x}");
        }
    }

    #[test]
    fn the_full_tag_decides_between_equal_fingerprints() {
        let mut cache = l1(PolicyKind::TrueLru);
        let ctx = AccessContext::default();
        // Three tags with one fingerprint byte.
        let shared = fingerprint(1);
        let twins: Vec<u64> = (1..)
            .filter(|&tag| fingerprint(tag) == shared)
            .take(3)
            .collect();
        let set = 12;
        cache.fill(addr(set, 500), ctx, false);
        let first = cache.fill(addr(set, twins[0]), ctx, false).way;
        let second = cache.fill(addr(set, twins[1]), ctx, true).way;
        assert_eq!((first, second), (Some(1), Some(2)));
        assert_eq!(cache.find(set, twins[0]), Some(1));
        assert_eq!(cache.find(set, twins[1]), Some(2));
        assert_eq!(cache.find(set, twins[2]), None, "same byte, other tag");
        assert!(cache.is_dirty(addr(set, twins[1])));
        assert!(!cache.is_dirty(addr(set, twins[0])));
        // The lower candidate gone, the higher one is still found.
        assert_eq!(cache.invalidate(addr(set, twins[0])), Some(false));
        assert_eq!(cache.find(set, twins[0]), None);
        assert_eq!(cache.find(set, twins[1]), Some(2));
    }

    proptest::proptest! {
        /// Under random fills, stores, invalidations and resets, `find`
        /// returns exactly what the plain way scan returns, for every tag of
        /// the stream's universe in the set each operation touched.  Small tag universes collide
        /// in fingerprint bytes, and invalidated ways keep stale bytes.
        #[test]
        fn find_matches_a_plain_scan(
            ways_index in 0usize..6,
            policy_index in 0usize..3,
            ops in proptest::collection::vec((0u8..8, 0usize..2, 0u64..160, 0u16..3), 1..300),
        ) {
            let ways = [1usize, 2, 4, 8, 16, 64][ways_index];
            let policy = [PolicyKind::TrueLru, PolicyKind::Random, PolicyKind::Srrip][policy_index];
            let config = CacheConfig::builder(CacheLevel::L1D)
                .size_bytes(2 * ways * 64)
                .associativity(ways)
                .replacement(policy)
                .build()
                .unwrap();
            let mut cache = Cache::new(config, 9).unwrap();
            let g = cache.geometry();
            // Tags that differ only in high bits as well as low ones.
            let tag_of = |n: u64| ((n % 3) << 40) | (n / 3);
            for (op, set, n, domain) in ops {
                let tag = tag_of(n);
                let a = PhysAddr::from_set_and_tag(set, tag, g);
                let ctx = AccessContext::for_domain(domain);
                match op {
                    0..=2 => {
                        let _ = cache.fill(a, ctx, false);
                    }
                    3..=4 => {
                        if cache.lookup_write_at(set, tag).is_none() {
                            let _ = cache.fill_missing_at(set, tag, ctx, true);
                        }
                    }
                    5..=6 => {
                        let _ = cache.invalidate(a);
                    }
                    _ => cache.reset(config, 9).unwrap(),
                }
                for n in 0..160 {
                    let tag = tag_of(n);
                    proptest::prop_assert_eq!(cache.find(set, tag), scan(&cache, set, tag));
                }
            }
        }
    }

    #[test]
    fn debug_formatting_mentions_policy() {
        let cache = l1(PolicyKind::TreePlru);
        let text = format!("{cache:?}");
        assert!(text.contains("Tree-PLRU"));
    }
}
