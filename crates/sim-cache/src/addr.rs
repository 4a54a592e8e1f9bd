//! Addresses and cache geometry.
//!
//! The paper targets a virtually-indexed, physically-tagged (VIPT) L1 data
//! cache: with 64 sets and 64-byte lines, bits 0–5 of an address select the
//! byte within the line and bits 6–11 select the set, so a user-space process
//! can build eviction/replacement sets for any target set purely from virtual
//! addresses.  The simulator mirrors that arithmetic here.
//!
//! Two address new-types are provided:
//!
//! * [`PhysAddr`] — a byte address as seen by the cache hierarchy.  Processes
//!   in `sim-core` get disjoint physical regions, which models the paper's
//!   threat model of *no shared memory* between sender and receiver.
//! * [`LineAddr`] — an address truncated to cache-line granularity, used as
//!   the tag-store key.

use crate::waymask::WayMask;
use std::fmt;

/// A byte-granular physical address in the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

/// A cache-line-granular address (the low `log2(line_size)` bits are zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::LowerHex for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for PhysAddr {
    fn from(value: u64) -> Self {
        PhysAddr(value)
    }
}

impl From<PhysAddr> for u64 {
    fn from(value: PhysAddr) -> Self {
        value.0
    }
}

impl PhysAddr {
    /// Returns the raw address value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Returns the address advanced by `bytes`.
    #[must_use]
    pub fn offset(self, bytes: u64) -> PhysAddr {
        PhysAddr(self.0.wrapping_add(bytes))
    }

    /// Truncates the address to line granularity for the given geometry.
    pub fn line(self, geometry: CacheGeometry) -> LineAddr {
        LineAddr(self.0 & !((geometry.line_size as u64) - 1))
    }

    /// Builds an address that maps to `set` with the given `tag` under
    /// `geometry`.
    ///
    /// This is the simulator-side equivalent of the attacker picking virtual
    /// addresses "with the same index bits but different tag bits" (Sec. IV of
    /// the paper) to construct a replacement set for a chosen target set.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range for the geometry.
    pub fn from_set_and_tag(set: usize, tag: u64, geometry: CacheGeometry) -> PhysAddr {
        assert!(
            set < geometry.num_sets,
            "set {set} out of range (cache has {} sets)",
            geometry.num_sets
        );
        let offset_bits = geometry.line_offset_bits();
        let index_bits = geometry.index_bits();
        PhysAddr((tag << (offset_bits + index_bits)) | ((set as u64) << offset_bits))
    }
}

impl LineAddr {
    /// Returns the raw address value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The dimensions of a single cache level.
///
/// `CacheGeometry` is `Copy` and carried inside [`crate::config::CacheConfig`];
/// it performs the index/tag arithmetic that both the simulator and the
/// attacker code (in `sim-core::memlayout`) need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Number of ways in each set.
    pub associativity: usize,
    /// Cache-line size in bytes.
    pub line_size: usize,
    /// Number of sets (`size_bytes / (associativity * line_size)`).
    pub num_sets: usize,
}

impl CacheGeometry {
    /// Computes a geometry from capacity, associativity and line size.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidGeometry`] if any dimension is zero, the
    /// associativity exceeds [`WayMask::MAX_WAYS`] (a set's way state is one
    /// `u64` mask), the line size or derived set count is not a power of
    /// two, or the capacity is not divisible by `associativity * line_size`.
    pub fn new(
        size_bytes: usize,
        associativity: usize,
        line_size: usize,
    ) -> crate::Result<CacheGeometry> {
        if size_bytes == 0 {
            return Err(crate::Error::InvalidGeometry {
                field: "size_bytes",
                value: size_bytes,
                requirement: "must be non-zero",
            });
        }
        if associativity == 0 {
            return Err(crate::Error::InvalidGeometry {
                field: "associativity",
                value: associativity,
                requirement: "must be non-zero",
            });
        }
        if associativity > WayMask::MAX_WAYS {
            return Err(crate::Error::InvalidGeometry {
                field: "associativity",
                value: associativity,
                requirement: "must be at most 64 (one bit per way in a set's masks)",
            });
        }
        if line_size == 0 || !line_size.is_power_of_two() {
            return Err(crate::Error::InvalidGeometry {
                field: "line_size",
                value: line_size,
                requirement: "must be a non-zero power of two",
            });
        }
        let way_bytes =
            associativity
                .checked_mul(line_size)
                .ok_or(crate::Error::InvalidGeometry {
                    field: "associativity",
                    value: associativity,
                    requirement: "associativity * line_size overflows",
                })?;
        if size_bytes % way_bytes != 0 {
            return Err(crate::Error::InvalidGeometry {
                field: "size_bytes",
                value: size_bytes,
                requirement: "must be a multiple of associativity * line_size",
            });
        }
        let num_sets = size_bytes / way_bytes;
        if !num_sets.is_power_of_two() {
            return Err(crate::Error::InvalidGeometry {
                field: "num_sets",
                value: num_sets,
                requirement: "derived set count must be a power of two",
            });
        }
        Ok(CacheGeometry {
            size_bytes,
            associativity,
            line_size,
            num_sets,
        })
    }

    /// The L1 data-cache geometry of the Intel Xeon E5-2650 used throughout
    /// the paper: 32 KiB, 8-way, 64-byte lines, 64 sets.
    pub fn xeon_l1d() -> CacheGeometry {
        CacheGeometry::new(32 * 1024, 8, 64).expect("static geometry is valid")
    }

    /// A 256 KiB, 8-way private L2, matching Sandy Bridge.
    pub fn xeon_l2() -> CacheGeometry {
        CacheGeometry::new(256 * 1024, 8, 64).expect("static geometry is valid")
    }

    /// A scaled-down last-level cache (2 MiB, 16-way).
    ///
    /// The real E5-2650 carries a 20 MiB shared LLC; the WB channel only
    /// exercises the L1/L2 boundary, so the simulator uses a smaller LLC to
    /// keep experiment run time low.
    pub fn scaled_llc() -> CacheGeometry {
        CacheGeometry::new(2 * 1024 * 1024, 16, 64).expect("static geometry is valid")
    }

    /// Number of bits used for the byte offset within a line.
    pub fn line_offset_bits(self) -> u32 {
        self.line_size.trailing_zeros()
    }

    /// Number of bits used for the set index.
    pub fn index_bits(self) -> u32 {
        self.num_sets.trailing_zeros()
    }

    /// Extracts the set index of an address.
    pub fn set_index(self, addr: PhysAddr) -> usize {
        ((addr.0 >> self.line_offset_bits()) & ((self.num_sets as u64) - 1)) as usize
    }

    /// Extracts the tag of an address.
    pub fn tag(self, addr: PhysAddr) -> u64 {
        addr.0 >> (self.line_offset_bits() + self.index_bits())
    }

    /// Reconstructs the line address from a `(set, tag)` pair.
    pub fn line_addr(self, set: usize, tag: u64) -> LineAddr {
        LineAddr(
            (tag << (self.line_offset_bits() + self.index_bits()))
                | ((set as u64) << self.line_offset_bits()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_l1d_matches_table_iii() {
        let g = CacheGeometry::xeon_l1d();
        assert_eq!(g.size_bytes, 32 * 1024);
        assert_eq!(g.associativity, 8);
        assert_eq!(g.line_size, 64);
        assert_eq!(g.num_sets, 64);
        assert_eq!(g.line_offset_bits(), 6);
        assert_eq!(g.index_bits(), 6);
    }

    #[test]
    fn set_index_uses_bits_6_to_11() {
        let g = CacheGeometry::xeon_l1d();
        // Bits 0-5: offset; bits 6-11: index (as described in Sec. IV).
        let addr = PhysAddr(0b1010_1011_1100_0000 | 0b11_1111);
        assert_eq!(g.set_index(addr), 0b101111);
        assert_eq!(g.tag(addr), 0b1010);
    }

    #[test]
    fn from_set_and_tag_round_trips() {
        let g = CacheGeometry::xeon_l1d();
        for set in [0usize, 1, 13, 63] {
            for tag in [0u64, 1, 7, 1024] {
                let addr = PhysAddr::from_set_and_tag(set, tag, g);
                assert_eq!(g.set_index(addr), set, "set mismatch");
                assert_eq!(g.tag(addr), tag, "tag mismatch");
                assert_eq!(addr.line(g), g.line_addr(set, tag));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_set_and_tag_rejects_bad_set() {
        let g = CacheGeometry::xeon_l1d();
        let _ = PhysAddr::from_set_and_tag(64, 0, g);
    }

    #[test]
    fn geometry_rejects_bad_dimensions() {
        assert!(CacheGeometry::new(0, 8, 64).is_err());
        assert!(CacheGeometry::new(32 * 1024, 0, 64).is_err());
        assert!(CacheGeometry::new(32 * 1024, 8, 0).is_err());
        assert!(CacheGeometry::new(32 * 1024, 8, 48).is_err());
        assert!(CacheGeometry::new(32 * 1024 + 64, 8, 64).is_err());
        // 3-way caches exist; 96 sets would not be a power of two though.
        assert!(CacheGeometry::new(3 * 96 * 64, 3, 64).is_err());
    }

    #[test]
    fn line_truncation_clears_offset_bits() {
        let g = CacheGeometry::xeon_l1d();
        let addr = PhysAddr(0x1234_5678);
        assert_eq!(addr.line(g).value() & 0x3f, 0);
        assert_eq!(addr.line(g).value(), 0x1234_5640);
    }

    #[test]
    fn offset_wraps_safely() {
        let addr = PhysAddr(u64::MAX);
        assert_eq!(addr.offset(1), PhysAddr(0));
    }

    #[test]
    fn display_formats_as_hex() {
        assert_eq!(PhysAddr(0xabc).to_string(), "0xabc");
        assert_eq!(LineAddr(0x40).to_string(), "0x40");
        assert_eq!(format!("{:x}", PhysAddr(0xabc)), "abc");
    }
}
