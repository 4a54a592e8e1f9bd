//! Cache-set introspection views.
//!
//! The tag store lives in structure-of-arrays form per cache level (a
//! contiguous tag array plus per-set valid/dirty/locked bit masks, see
//! [`crate::cache::Cache`]); a [`SetView`] borrows the `ways`-long slices of
//! one set and provides the bookkeeping the WB-channel experiments need to
//! introspect (dirty-line counts, resident tags, lock masks).  All
//! replacement decisions live in [`crate::policy`]; the view is purely
//! read-only storage access.

use crate::line::{CacheLine, DomainId};
use crate::waymask::WayMask;

/// A shared view of one set of a set-associative cache: the `W` tags and
/// owners of the level's arena plus the set's packed state masks.
#[derive(Debug, Clone, Copy)]
pub struct SetView<'a> {
    tags: &'a [u64],
    owners: &'a [DomainId],
    valid: u64,
    dirty: u64,
    locked: u64,
}

impl<'a> SetView<'a> {
    /// Wraps the storage of one set (callers pass exactly `ways` tags and
    /// owners plus the set's valid/dirty/locked way masks).
    pub(crate) fn new(
        tags: &'a [u64],
        owners: &'a [DomainId],
        valid: u64,
        dirty: u64,
        locked: u64,
    ) -> SetView<'a> {
        debug_assert_eq!(tags.len(), owners.len());
        SetView {
            tags,
            owners,
            valid,
            dirty,
            locked,
        }
    }

    /// Number of ways.
    pub fn ways(&self) -> usize {
        self.tags.len()
    }

    /// Finds the way holding `tag`, if resident.
    pub fn find(&self, tag: u64) -> Option<usize> {
        self.tags
            .iter()
            .enumerate()
            .position(|(way, &t)| t == tag && (self.valid >> way) & 1 == 1)
    }

    /// The state of one way, materialised as a [`CacheLine`] value.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn line(&self, way: usize) -> CacheLine {
        assert!(way < self.ways(), "way {way} out of range");
        CacheLine::from_parts(
            self.tags[way],
            self.owners[way],
            (self.valid >> way) & 1 == 1,
            (self.dirty >> way) & 1 == 1,
            (self.locked >> way) & 1 == 1,
        )
    }

    /// Number of valid lines in the set.
    pub fn valid_count(&self) -> usize {
        self.valid.count_ones() as usize
    }

    /// Number of dirty lines in the set.
    ///
    /// This is the quantity the WB sender modulates (0–8 dirty lines encode
    /// the symbol) and the receiver infers from the replacement latency.
    pub fn dirty_count(&self) -> usize {
        self.dirty.count_ones() as usize
    }

    /// Number of locked lines in the set (PLcache defense).
    pub fn locked_count(&self) -> usize {
        self.locked.count_ones() as usize
    }

    /// Mask of ways whose lines are locked.
    pub fn locked_mask(&self) -> WayMask {
        WayMask::from_bits(self.locked)
    }

    /// Tags of all valid lines, in way order.
    pub fn resident_tags(&self) -> Vec<u64> {
        self.tags
            .iter()
            .enumerate()
            .filter(|(way, _)| (self.valid >> way) & 1 == 1)
            .map(|(_, &t)| t)
            .collect()
    }

    /// Number of valid lines owned by `domain`.
    pub fn owned_count(&self, domain: DomainId) -> usize {
        self.owners
            .iter()
            .enumerate()
            .filter(|(way, &owner)| (self.valid >> way) & 1 == 1 && owner == domain)
            .count()
    }

    /// Iterates over `(way, line)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, CacheLine)> + '_ {
        (0..self.ways()).map(|way| (way, self.line(way)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small mutable set model for the view tests.
    struct Bed {
        tags: Vec<u64>,
        owners: Vec<DomainId>,
        valid: u64,
        dirty: u64,
        locked: u64,
    }

    impl Bed {
        fn new(ways: usize) -> Bed {
            Bed {
                tags: vec![0; ways],
                owners: vec![0; ways],
                valid: 0,
                dirty: 0,
                locked: 0,
            }
        }

        fn fill(&mut self, way: usize, tag: u64, dirty: bool, owner: DomainId) {
            self.tags[way] = tag;
            self.owners[way] = owner;
            self.valid |= 1 << way;
            if dirty {
                self.dirty |= 1 << way;
            } else {
                self.dirty &= !(1 << way);
            }
        }

        fn view(&self) -> SetView<'_> {
            SetView::new(
                &self.tags,
                &self.owners,
                self.valid,
                self.dirty,
                self.locked,
            )
        }
    }

    #[test]
    fn new_set_is_empty() {
        let bed = Bed::new(8);
        let set = bed.view();
        assert_eq!(set.ways(), 8);
        assert_eq!(set.valid_count(), 0);
        assert_eq!(set.dirty_count(), 0);
        assert_eq!(set.find(0), None);
    }

    #[test]
    fn find_locates_resident_tags() {
        let mut bed = Bed::new(4);
        bed.fill(2, 0xaa, false, 1);
        bed.fill(3, 0xbb, true, 2);
        let set = bed.view();
        assert_eq!(set.find(0xaa), Some(2));
        assert_eq!(set.find(0xbb), Some(3));
        assert_eq!(set.find(0xcc), None);
        assert_eq!(set.valid_count(), 2);
        assert_eq!(set.dirty_count(), 1);
        assert_eq!(set.owned_count(1), 1);
        assert_eq!(set.owned_count(2), 1);
        assert_eq!(set.owned_count(3), 0);
        assert_eq!(set.resident_tags(), vec![0xaa, 0xbb]);
        assert_eq!(set.line(2).tag(), 0xaa);
        assert!(set.line(3).is_dirty());
        assert_eq!(set.iter().count(), 4);
    }

    #[test]
    fn dirty_count_tracks_the_wb_symbol() {
        let mut bed = Bed::new(8);
        for d in 0..8 {
            bed.fill(d, d as u64, true, 1);
            assert_eq!(bed.view().dirty_count(), d + 1);
        }
    }

    #[test]
    fn locked_mask_covers_locked_ways() {
        let mut bed = Bed::new(4);
        bed.fill(1, 5, true, 0);
        bed.locked |= 1 << 1;
        bed.fill(2, 6, true, 0);
        let set = bed.view();
        assert_eq!(set.locked_count(), 1);
        assert_eq!(set.locked_mask().bits(), 0b10);
        assert!(set.line(1).is_locked());
        assert!(!set.line(2).is_locked());
    }
}
