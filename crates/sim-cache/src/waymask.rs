//! Way masks: restricting which ways of a set may be used.
//!
//! Way masks serve two purposes in this reproduction:
//!
//! * **Victim candidate filtering.** The replacement policy is only allowed to
//!   evict ways that are present in the candidate mask.  Locked lines
//!   (PLcache) and ways reserved for another protection domain (NoMo, DAWG)
//!   are removed from the mask before the policy runs.
//! * **Fill placement.**  A domain that owns only a subset of the ways can
//!   only install new lines into that subset.
//!
//! [`PartitionTable`] maps protection domains to their way masks as a dense
//! array so the per-access partition resolution is a bounds-checked index,
//! not a hash lookup.

use crate::line::DomainId;
use std::fmt;

/// A bitmask over the ways of a cache set (way `i` ↔ bit `i`).
///
/// Supports up to 64 ways, which comfortably covers every cache in the paper
/// (8-way L1/L2, 20-way LLC).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayMask(u64);

impl WayMask {
    /// A mask with no ways enabled.
    pub const EMPTY: WayMask = WayMask(0);

    /// The most ways a mask covers: one bit of a `u64` each.
    pub const MAX_WAYS: usize = 64;

    /// Creates a mask enabling all `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` exceeds 64.
    pub fn all(ways: usize) -> WayMask {
        assert!(ways <= Self::MAX_WAYS, "way masks support at most 64 ways");
        if ways == Self::MAX_WAYS {
            WayMask(u64::MAX)
        } else {
            WayMask((1u64 << ways) - 1)
        }
    }

    /// Creates a mask from a raw bit pattern.
    pub fn from_bits(bits: u64) -> WayMask {
        WayMask(bits)
    }

    /// Creates a mask covering the half-open way range `start..end`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > 64`.
    pub fn range(start: usize, end: usize) -> WayMask {
        assert!(
            start <= end && end <= 64,
            "invalid way range {start}..{end}"
        );
        let mut mask = 0u64;
        for way in start..end {
            mask |= 1 << way;
        }
        WayMask(mask)
    }

    /// Returns the raw bit pattern.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Returns `true` if way `way` is enabled.
    pub fn contains(self, way: usize) -> bool {
        way < 64 && (self.0 >> way) & 1 == 1
    }

    /// Enables a way, returning the new mask.
    #[must_use]
    pub fn with(self, way: usize) -> WayMask {
        assert!(way < 64, "way index {way} out of range");
        WayMask(self.0 | (1 << way))
    }

    /// Disables a way, returning the new mask.
    #[must_use]
    pub fn without(self, way: usize) -> WayMask {
        assert!(way < 64, "way index {way} out of range");
        WayMask(self.0 & !(1 << way))
    }

    /// Intersection of two masks.
    #[must_use]
    pub fn and(self, other: WayMask) -> WayMask {
        WayMask(self.0 & other.0)
    }

    /// Union of two masks.
    #[must_use]
    pub fn or(self, other: WayMask) -> WayMask {
        WayMask(self.0 | other.0)
    }

    /// Returns `true` if no way is enabled.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of enabled ways.
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates over the enabled way indices in ascending order.
    pub fn iter(self) -> WayMaskIter {
        WayMaskIter { remaining: self.0 }
    }

    /// Returns the lowest enabled way, if any.
    pub fn first(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros() as usize)
        }
    }

    /// Returns the `n`-th enabled way (0-based), if any.
    ///
    /// Used by random-replacement policies to pick a victim uniformly among
    /// the candidate ways.
    pub fn nth(self, n: usize) -> Option<usize> {
        self.iter().nth(n)
    }
}

impl fmt::Debug for WayMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WayMask({:#b})", self.0)
    }
}

impl fmt::Binary for WayMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::LowerHex for WayMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl Default for WayMask {
    /// The default mask enables all 64 representable ways; callers normally
    /// intersect it with [`WayMask::all`] for the actual associativity.
    fn default() -> Self {
        WayMask(u64::MAX)
    }
}

impl FromIterator<usize> for WayMask {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut mask = WayMask::EMPTY;
        for way in iter {
            mask = mask.with(way);
        }
        mask
    }
}

/// A dense map from protection domains to way masks.
///
/// Domains are small integers (the covert-channel experiments use 0–7), so
/// the table is a `Vec<WayMask>` indexed by domain id, grown on demand up to
/// the highest partitioned domain; every other domain resolves to the
/// default mask (all ways of the cache).  [`PartitionTable::resolve`] — the
/// call on the fill path of every access — is therefore one length compare
/// and one indexed load, where the previous `HashMap<DomainId, WayMask>`
/// paid a SipHash round per access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionTable {
    /// `masks[domain]` when `domain < masks.len()`; `default` otherwise.
    masks: Vec<WayMask>,
    /// The mask unpartitioned domains resolve to.
    default: WayMask,
}

impl PartitionTable {
    /// An empty table where every domain resolves to `default`.
    pub fn new(default: WayMask) -> PartitionTable {
        PartitionTable {
            masks: Vec::new(),
            default,
        }
    }

    /// Restricts `domain` to `mask`.
    pub fn set(&mut self, domain: DomainId, mask: WayMask) {
        let index = usize::from(domain);
        if index >= self.masks.len() {
            self.masks.resize(index + 1, self.default);
        }
        self.masks[index] = mask;
    }

    /// Removes every restriction.
    pub fn clear(&mut self) {
        self.masks.clear();
    }

    /// Whether any domain is restricted.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// The mask `domain` may use.
    #[inline]
    pub fn resolve(&self, domain: DomainId) -> WayMask {
        let index = usize::from(domain);
        if index < self.masks.len() {
            self.masks[index]
        } else {
            self.default
        }
    }
}

/// Iterator over the enabled ways of a [`WayMask`], produced by [`WayMask::iter`].
#[derive(Debug, Clone)]
pub struct WayMaskIter {
    remaining: u64,
}

impl Iterator for WayMaskIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            None
        } else {
            let way = self.remaining.trailing_zeros() as usize;
            self.remaining &= self.remaining - 1;
            Some(way)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for WayMaskIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_enables_exactly_n_ways() {
        for n in 0..=64 {
            let mask = WayMask::all(n);
            assert_eq!(mask.count(), n);
            for way in 0..n {
                assert!(mask.contains(way));
            }
            if n < 64 {
                assert!(!mask.contains(n));
            }
        }
    }

    #[test]
    fn with_without_round_trip() {
        let mask = WayMask::EMPTY.with(3).with(7);
        assert!(mask.contains(3));
        assert!(mask.contains(7));
        assert!(!mask.contains(0));
        assert_eq!(mask.without(3).count(), 1);
    }

    #[test]
    fn range_covers_half_open_interval() {
        let mask = WayMask::range(2, 5);
        assert_eq!(mask.iter().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert!(WayMask::range(3, 3).is_empty());
    }

    #[test]
    fn iter_yields_ascending_ways() {
        let mask = WayMask::from_bits(0b1010_0110);
        assert_eq!(mask.iter().collect::<Vec<_>>(), vec![1, 2, 5, 7]);
        assert_eq!(mask.iter().len(), 4);
        assert_eq!(mask.first(), Some(1));
        assert_eq!(mask.nth(2), Some(5));
        assert_eq!(mask.nth(4), None);
    }

    #[test]
    fn set_operations() {
        let a = WayMask::from_bits(0b1100);
        let b = WayMask::from_bits(0b0110);
        assert_eq!(a.and(b).bits(), 0b0100);
        assert_eq!(a.or(b).bits(), 0b1110);
    }

    #[test]
    fn from_iterator_collects_ways() {
        let mask: WayMask = [0usize, 2, 4].into_iter().collect();
        assert_eq!(mask.bits(), 0b10101);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn all_rejects_more_than_64() {
        let _ = WayMask::all(65);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", WayMask::EMPTY).is_empty());
        assert_eq!(format!("{:b}", WayMask::from_bits(0b101)), "101");
    }

    #[test]
    fn partition_table_resolves_dense_and_default() {
        let all = WayMask::all(8);
        let mut table = PartitionTable::new(all);
        assert!(table.is_empty());
        assert_eq!(table.resolve(0), all);
        assert_eq!(table.resolve(9999), all);
        table.set(3, WayMask::range(0, 4));
        assert_eq!(table.resolve(3), WayMask::range(0, 4));
        // Domains below the grown index fall back to the default mask.
        assert_eq!(table.resolve(0), all);
        assert_eq!(table.resolve(2), all);
        assert_eq!(table.resolve(4), all, "beyond the table: default");
        table.set(0, WayMask::range(4, 8));
        assert_eq!(table.resolve(0), WayMask::range(4, 8));
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.resolve(3), all);
    }
}
