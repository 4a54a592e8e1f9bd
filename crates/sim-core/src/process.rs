//! Processes and address spaces.
//!
//! The paper's threat model (Sec. III) is two *distinct Linux processes* in
//! separate address spaces — no shared memory — pinned to the two hyper-
//! threads of one physical core.  The simulator models an address space as a
//! disjoint slice of the physical address range: a virtual address is mapped
//! to `(pid << ASID_SHIFT) | vaddr`, which preserves the low-order bits that
//! select the cache set (the L1 is virtually indexed) while guaranteeing that
//! two processes never alias the same physical line.

use sim_cache::addr::{CacheGeometry, PhysAddr};
use std::fmt;

/// Bit position at which the process identifier is spliced into physical
/// addresses.  Leaves 1 TiB of private address space per process.
pub const ASID_SHIFT: u32 = 40;

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u16);

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

impl From<u16> for ProcessId {
    fn from(value: u16) -> Self {
        ProcessId(value)
    }
}

/// An address space: translates process-local virtual addresses into the
/// simulator's flat physical space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddressSpace {
    pid: ProcessId,
}

impl AddressSpace {
    /// Creates the address space of `pid`.
    pub fn new(pid: ProcessId) -> AddressSpace {
        AddressSpace { pid }
    }

    /// The owning process.
    pub fn pid(self) -> ProcessId {
        self.pid
    }

    /// Translates a virtual address into a physical address.
    ///
    /// # Panics
    ///
    /// Panics if `vaddr` does not fit below the ASID bits (the simulated
    /// private address space is 1 TiB).
    pub fn translate(self, vaddr: u64) -> PhysAddr {
        assert!(
            vaddr < (1u64 << ASID_SHIFT),
            "virtual address {vaddr:#x} exceeds the simulated address space"
        );
        PhysAddr(((self.pid.0 as u64) << ASID_SHIFT) | vaddr)
    }

    /// A virtual address in this address space that maps to cache `set` with
    /// the given `tag` under `geometry` — the building block for eviction and
    /// replacement sets (Sec. IV of the paper).
    pub fn addr_for_set(self, set: usize, tag: u64, geometry: CacheGeometry) -> PhysAddr {
        let vaddr = PhysAddr::from_set_and_tag(set, tag, geometry).value();
        self.translate(vaddr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_preserves_set_index_bits() {
        let g = CacheGeometry::xeon_l1d();
        let a = AddressSpace::new(ProcessId(3));
        let vaddr = 0x1_2345_67C0u64;
        let phys = a.translate(vaddr);
        assert_eq!(g.set_index(phys), g.set_index(PhysAddr(vaddr)));
        assert_ne!(phys.value(), vaddr);
    }

    #[test]
    fn distinct_processes_never_share_lines() {
        let g = CacheGeometry::xeon_l1d();
        let a = AddressSpace::new(ProcessId(1));
        let b = AddressSpace::new(ProcessId(2));
        for tag in 0..64u64 {
            let pa = a.addr_for_set(5, tag, g);
            let pb = b.addr_for_set(5, tag, g);
            assert_eq!(g.set_index(pa), 5);
            assert_eq!(g.set_index(pb), 5);
            assert_ne!(pa.line(g), pb.line(g), "no shared memory between processes");
        }
    }

    #[test]
    fn addr_for_set_round_trips_set_and_differs_by_tag() {
        let g = CacheGeometry::xeon_l1d();
        let a = AddressSpace::new(ProcessId(7));
        let x = a.addr_for_set(13, 1, g);
        let y = a.addr_for_set(13, 2, g);
        assert_eq!(g.set_index(x), 13);
        assert_eq!(g.set_index(y), 13);
        assert_ne!(x.line(g), y.line(g));
    }

    #[test]
    #[should_panic(expected = "exceeds the simulated address space")]
    fn oversized_virtual_address_panics() {
        AddressSpace::new(ProcessId(0)).translate(1u64 << ASID_SHIFT);
    }

    #[test]
    fn process_ids_display_convert_and_own_their_address_space() {
        assert_eq!(AddressSpace::new(ProcessId(9)).pid(), ProcessId(9));
        assert_eq!(ProcessId(9).to_string(), "pid9");
        assert_eq!(ProcessId::from(4u16), ProcessId(4));
    }
}
