//! Cache-line state as a value type.
//!
//! A [`CacheLine`] describes one way of a set: the tag plus a one-byte flag
//! word carrying the valid bit, the **dirty bit** that the WB channel
//! abuses, an optional lock bit (PLcache defense) and the identifier of the
//! protection domain that installed the line (DAWG defense, perf
//! attribution).
//!
//! [`crate::cache::Cache`] stores this state in structure-of-arrays form
//! (contiguous tag and owner arrays plus per-set packed state masks) for
//! the access hot path; [`CacheLine`] is the *materialised* per-way view
//! that [`crate::set::SetView`] hands to introspection callers and tests.

/// The protection/attribution domain a line belongs to.
///
/// In the covert-channel experiments domain 0 is the receiver, domain 1 the
/// sender, and higher values are used for noise processes and benign
/// co-runners.  Defenses such as DAWG use the domain to decide way
/// visibility.
pub type DomainId = u16;

/// Flag bit: the way holds a valid line.
const VALID: u8 = 1 << 0;
/// Flag bit: the line was modified and must be written back on eviction.
const DIRTY: u8 = 1 << 1;
/// Flag bit: the line may not be selected as a victim (PLcache).
const LOCKED: u8 = 1 << 2;

/// State of one cache line (one way of one set), packed into 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheLine {
    /// Tag of the held line (meaningful only when the valid flag is set).
    tag: u64,
    /// Packed valid/dirty/locked flags.
    flags: u8,
    /// Domain that installed the line.
    owner: DomainId,
}

impl CacheLine {
    /// An invalid (empty) way.
    pub fn invalid() -> CacheLine {
        CacheLine {
            tag: 0,
            flags: 0,
            owner: 0,
        }
    }

    /// Assembles a line value from its unpacked state — used by
    /// [`crate::set::SetView`] to materialise one way of the
    /// structure-of-arrays tag store for introspection.
    pub(crate) fn from_parts(
        tag: u64,
        owner: DomainId,
        valid: bool,
        dirty: bool,
        locked: bool,
    ) -> CacheLine {
        let mut flags = 0;
        if valid {
            flags |= VALID;
            if dirty {
                flags |= DIRTY;
            }
            if locked {
                flags |= LOCKED;
            }
        }
        CacheLine { tag, flags, owner }
    }

    /// Installs a new line in this way, replacing whatever was there.
    ///
    /// The dirty bit of the new line is `dirty` (true when the fill is caused
    /// by a write-allocate store miss).
    pub fn fill(&mut self, tag: u64, dirty: bool, owner: DomainId) {
        self.tag = tag;
        self.flags = VALID | if dirty { DIRTY } else { 0 };
        self.owner = owner;
    }

    /// Invalidates the way (e.g. `clflush`), returning whether the line was
    /// dirty so the caller can model the write-back.
    pub fn invalidate(&mut self) -> bool {
        let was_dirty = self.flags & (VALID | DIRTY) == VALID | DIRTY;
        self.flags = 0;
        was_dirty
    }

    /// Whether the way holds a valid line.
    pub fn is_valid(self) -> bool {
        self.flags & VALID != 0
    }

    /// Whether the line is dirty (valid and modified).
    pub fn is_dirty(self) -> bool {
        self.flags & (VALID | DIRTY) == VALID | DIRTY
    }

    /// Whether the line is locked against eviction.
    pub fn is_locked(self) -> bool {
        self.flags & (VALID | LOCKED) == VALID | LOCKED
    }

    /// The stored tag.  Only meaningful when [`CacheLine::is_valid`] is true.
    pub fn tag(self) -> u64 {
        self.tag
    }

    /// Whether the way holds a valid line with the given tag — the arena's
    /// branchless tag-match primitive.
    pub fn matches(self, tag: u64) -> bool {
        self.flags & VALID != 0 && self.tag == tag
    }

    /// The domain that installed the line.
    pub fn owner(self) -> DomainId {
        self.owner
    }

    /// Marks the line dirty (a store hit under a write-back policy).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is invalid: the cache controller
    /// must never mark an empty way dirty.
    pub fn mark_dirty(&mut self) {
        debug_assert!(self.is_valid(), "cannot mark an invalid line dirty");
        self.flags |= DIRTY;
    }

    /// Clears the dirty bit (after a write-back or under write-through).
    pub fn clear_dirty(&mut self) {
        self.flags &= !DIRTY;
    }

    /// Sets or clears the lock bit (PLcache).
    pub fn set_locked(&mut self, locked: bool) {
        if self.is_valid() {
            if locked {
                self.flags |= LOCKED;
            } else {
                self.flags &= !LOCKED;
            }
        }
    }
}

impl Default for CacheLine {
    fn default() -> Self {
        CacheLine::invalid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_line_is_clean_and_unlocked() {
        let line = CacheLine::invalid();
        assert!(!line.is_valid());
        assert!(!line.is_dirty());
        assert!(!line.is_locked());
        assert!(!line.matches(0), "an invalid way matches no tag");
    }

    #[test]
    fn packed_line_is_sixteen_bytes() {
        // The whole point of the packing: a 64-set x 8-way L1 arena is
        // 8 KiB of contiguous memory.
        assert!(std::mem::size_of::<CacheLine>() <= 16);
    }

    #[test]
    fn fill_sets_tag_owner_and_dirty() {
        let mut line = CacheLine::invalid();
        line.fill(0xdead, true, 3);
        assert!(line.is_valid());
        assert!(line.is_dirty());
        assert_eq!(line.tag(), 0xdead);
        assert_eq!(line.owner(), 3);
        assert!(line.matches(0xdead));
        assert!(!line.matches(0xbeef));
    }

    #[test]
    fn invalidate_reports_dirtyness_exactly_once() {
        let mut line = CacheLine::invalid();
        line.fill(1, true, 0);
        assert!(line.invalidate(), "first invalidate sees the dirty line");
        assert!(!line.invalidate(), "second invalidate sees nothing");
        assert!(!line.is_valid());
    }

    #[test]
    fn mark_and_clear_dirty() {
        let mut line = CacheLine::invalid();
        line.fill(7, false, 1);
        assert!(!line.is_dirty());
        line.mark_dirty();
        assert!(line.is_dirty());
        line.clear_dirty();
        assert!(!line.is_dirty());
    }

    #[test]
    fn locking_requires_validity() {
        let mut line = CacheLine::invalid();
        line.set_locked(true);
        assert!(!line.is_locked(), "an invalid line cannot be locked");
        line.fill(9, false, 0);
        line.set_locked(true);
        assert!(line.is_locked());
        line.set_locked(false);
        assert!(!line.is_locked());
    }

    #[test]
    fn refill_clears_lock() {
        let mut line = CacheLine::invalid();
        line.fill(1, false, 0);
        line.set_locked(true);
        line.fill(2, false, 1);
        assert!(!line.is_locked());
        assert_eq!(line.tag(), 2);
    }
}
