//! Attacker memory layout: target-set lines and replacement sets.
//!
//! Section IV of the paper describes how the receiver builds its data
//! structures: the L1 is virtually indexed, so the process simply allocates
//! an array the size of the L1 and picks the lines whose index bits equal the
//! target set (and whose tags differ).  [`SetLines`] captures exactly that: a
//! collection of same-set, different-tag lines inside one process's address
//! space, from which replacement sets and the sender's "lines 0..N" are drawn.
//! [`ChannelLayout`] is the receiver's whole layout, and [`Sweeps`] walks its
//! alternating replacement sets in Algorithm 2's shuffled order.

use crate::process::AddressSpace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sim_cache::addr::{CacheGeometry, PhysAddr};

/// A family of cache lines that all map to one target set of the L1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetLines {
    set: usize,
    lines: Vec<PhysAddr>,
}

impl SetLines {
    /// Builds `count` lines in `space` that map to `set`, using consecutive
    /// tags starting at `first_tag`.
    ///
    /// Different `first_tag` values give disjoint line families, which is how
    /// the receiver constructs its two alternating replacement sets A and B
    /// (Algorithm 2) without reusing addresses.
    pub fn build(
        space: AddressSpace,
        geometry: CacheGeometry,
        set: usize,
        count: usize,
        first_tag: u64,
    ) -> SetLines {
        let lines = (0..count as u64)
            .map(|i| space.addr_for_set(set, first_tag + i, geometry))
            .collect();
        SetLines { set, lines }
    }

    /// The target set these lines map to.
    pub fn set(&self) -> usize {
        self.set
    }

    /// The lines, in tag order.
    pub fn lines(&self) -> &[PhysAddr] {
        &self.lines
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the family is empty.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The `i`-th line.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn line(&self, i: usize) -> PhysAddr {
        self.lines[i]
    }

    /// A copy of the lines in a random order — the pointer-chasing layout the
    /// receiver uses to defeat hardware prefetching (Sec. IV-B).  The
    /// harnesses shuffle into reused buffers instead ([`Sweeps`],
    /// [`crate::session::TraceProgram::chase_shuffled`]); this copy is the
    /// tests' reference draw for them.
    #[cfg(test)]
    pub fn shuffled<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> Vec<PhysAddr> {
        let mut order = self.lines.clone();
        order.shuffle(rng);
        order
    }
}

/// The largest replacement set a [`ChannelLayout`] can hold while sets A and
/// B stay disjoint: B's tags start this many tags after A's.
pub const MAX_REPLACEMENT_SIZE: usize = 1_000;

/// The full memory layout used by one party of the WB channel on one target
/// set: the "lines 0..N" it can dirty plus two disjoint replacement sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelLayout {
    /// Lines the party can access/modify in the target set (the paper's
    /// `lines 0–N`).
    pub target_lines: SetLines,
    /// Replacement set A (receiver only).
    pub replacement_a: SetLines,
    /// Replacement set B (receiver only).
    pub replacement_b: SetLines,
}

impl ChannelLayout {
    /// Builds a layout for `space` on `set`:
    ///
    /// * `target_count` lines for encoding (8 for the paper's 8-way L1),
    /// * two disjoint replacement sets of `replacement_size` lines each
    ///   (the paper uses 10, per Table II).
    ///
    /// # Panics
    ///
    /// Panics if `replacement_size` exceeds [`MAX_REPLACEMENT_SIZE`]: the
    /// two sets would share lines.
    pub fn build(
        space: AddressSpace,
        geometry: CacheGeometry,
        set: usize,
        target_count: usize,
        replacement_size: usize,
    ) -> ChannelLayout {
        assert!(
            replacement_size <= MAX_REPLACEMENT_SIZE,
            "replacement sets of {replacement_size} lines would overlap (at most {MAX_REPLACEMENT_SIZE})"
        );
        // Tag ranges are disjoint by construction.
        let first_a = 1_000;
        let first_b = first_a + MAX_REPLACEMENT_SIZE as u64;
        let target_lines = SetLines::build(space, geometry, set, target_count, 0);
        let replacement_a = SetLines::build(space, geometry, set, replacement_size, first_a);
        let replacement_b = SetLines::build(space, geometry, set, replacement_size, first_b);
        ChannelLayout {
            target_lines,
            replacement_a,
            replacement_b,
        }
    }

    /// The replacement set to use for the `n`-th decode (alternating A/B, as
    /// in Algorithm 2).
    pub fn replacement_for(&self, n: u64) -> &SetLines {
        if n % 2 == 0 {
            &self.replacement_a
        } else {
            &self.replacement_b
        }
    }

    /// The lines in prime order: set A, then set B, then the target-set
    /// lines — the receiver's initialisation loads (Algorithm 2), which warm
    /// both replacement sets into the outer levels and leave the target set
    /// filled with its own clean lines.
    pub fn prime_lines(&self) -> impl Iterator<Item = PhysAddr> + '_ {
        self.replacement_a
            .lines()
            .iter()
            .chain(self.replacement_b.lines())
            .chain(self.target_lines.lines())
            .copied()
    }
}

/// The measured sweeps of one receiver: the orders of its pointer-chase
/// walks over the alternating replacement sets, drawn from one seeded
/// stream.
#[derive(Debug)]
pub struct Sweeps {
    rng: StdRng,
    count: u64,
    /// The order of the latest sweep, reshuffled in place every sweep.
    order: Vec<PhysAddr>,
}

impl Sweeps {
    /// Sweeps whose shuffles are drawn from a stream seeded with `seed`.
    pub fn new(seed: u64) -> Sweeps {
        Sweeps {
            rng: StdRng::seed_from_u64(seed),
            count: 0,
            order: Vec::new(),
        }
    }

    /// The order of the next sweep over `layout`: the `n`-th call returns
    /// [`ChannelLayout::replacement_for`]`(n)` shuffled into one reused
    /// buffer: its lines in tag order, then one `SliceRandom::shuffle` on
    /// the stream, so the draws are those of shuffling a fresh copy.
    pub fn next_order(&mut self, layout: &ChannelLayout) -> &[PhysAddr] {
        let replacement = layout.replacement_for(self.count);
        self.count += 1;
        self.order.clear();
        self.order.extend_from_slice(replacement.lines());
        self.order.shuffle(&mut self.rng);
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcessId;

    fn geometry() -> CacheGeometry {
        CacheGeometry::xeon_l1d()
    }

    #[test]
    fn all_lines_map_to_the_target_set_with_distinct_tags() {
        let space = AddressSpace::new(ProcessId(1));
        let g = geometry();
        let lines = SetLines::build(space, g, 42, 10, 5);
        assert_eq!(lines.len(), 10);
        assert!(!lines.is_empty());
        assert_eq!(lines.set(), 42);
        let mut tags = Vec::new();
        for &a in lines.lines() {
            assert_eq!(g.set_index(a), 42);
            tags.push(g.tag(a));
        }
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 10, "tags must be distinct");
        assert_eq!(lines.line(0), lines.lines()[0]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let space = AddressSpace::new(ProcessId(1));
        let lines = SetLines::build(space, geometry(), 3, 10, 0);
        let mut rng = StdRng::seed_from_u64(7);
        let shuffled = lines.shuffled(&mut rng);
        assert_eq!(shuffled.len(), 10);
        let mut a = shuffled.clone();
        let mut b = lines.lines().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_orders() {
        let space = AddressSpace::new(ProcessId(1));
        let lines = SetLines::build(space, geometry(), 7, 10, 0);
        let a = lines.shuffled(&mut StdRng::seed_from_u64(1));
        let b = lines.shuffled(&mut StdRng::seed_from_u64(2));
        assert_ne!(a, b);
    }

    /// Every line of `layout` is distinct.
    fn assert_disjoint(layout: &ChannelLayout) {
        let mut all: Vec<PhysAddr> = layout
            .target_lines
            .lines()
            .iter()
            .chain(layout.replacement_a.lines())
            .chain(layout.replacement_b.lines())
            .copied()
            .collect();
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), before, "line families must not overlap");
    }

    #[test]
    fn channel_layout_sets_are_disjoint() {
        let space = AddressSpace::new(ProcessId(2));
        let layout = ChannelLayout::build(space, geometry(), 13, 8, 10);
        assert_eq!(layout.target_lines.len(), 8);
        assert_eq!(layout.replacement_a.len(), 10);
        assert_eq!(layout.replacement_b.len(), 10);
        assert_disjoint(&layout);
    }

    #[test]
    fn the_largest_replacement_sets_stay_disjoint() {
        let space = AddressSpace::new(ProcessId(1));
        let layout = ChannelLayout::build(space, geometry(), 5, 8, MAX_REPLACEMENT_SIZE);
        assert_eq!(layout.replacement_b.len(), MAX_REPLACEMENT_SIZE);
        assert_disjoint(&layout);
    }

    #[test]
    #[should_panic(expected = "would overlap")]
    fn oversized_replacement_sets_are_refused() {
        let space = AddressSpace::new(ProcessId(1));
        ChannelLayout::build(space, geometry(), 5, 8, MAX_REPLACEMENT_SIZE + 1);
    }

    #[test]
    fn replacement_sets_alternate() {
        let space = AddressSpace::new(ProcessId(2));
        let layout = ChannelLayout::build(space, geometry(), 1, 8, 10);
        assert_eq!(layout.replacement_for(0), &layout.replacement_a);
        assert_eq!(layout.replacement_for(1), &layout.replacement_b);
        assert_eq!(layout.replacement_for(2), &layout.replacement_a);
    }

    #[test]
    fn sweeps_alternate_a_and_b_in_the_orders_of_shuffled() {
        let layout = ChannelLayout::build(AddressSpace::new(ProcessId(1)), geometry(), 21, 8, 10);
        let mut sweeps = Sweeps::new(0xca1b);
        let mut reference = StdRng::seed_from_u64(0xca1b);
        for n in 0..6 {
            let set = [&layout.replacement_a, &layout.replacement_b][n % 2];
            let expected = set.shuffled(&mut reference);
            assert_eq!(sweeps.next_order(&layout), &expected[..], "sweep {n}");
        }
    }

    #[test]
    fn prime_lines_run_a_then_b_then_the_target_lines() {
        let layout = ChannelLayout::build(AddressSpace::new(ProcessId(1)), geometry(), 21, 8, 10);
        let primed: Vec<PhysAddr> = layout.prime_lines().collect();
        assert_eq!(primed.len(), 28);
        assert_eq!(&primed[..10], layout.replacement_a.lines());
        assert_eq!(&primed[10..20], layout.replacement_b.lines());
        assert_eq!(&primed[20..], layout.target_lines.lines());
    }

    #[test]
    fn sender_and_receiver_layouts_share_no_lines() {
        let g = geometry();
        let sender = ChannelLayout::build(AddressSpace::new(ProcessId(1)), g, 9, 8, 10);
        let receiver = ChannelLayout::build(AddressSpace::new(ProcessId(2)), g, 9, 8, 10);
        for &s in sender.target_lines.lines() {
            for &r in receiver.target_lines.lines() {
                assert_ne!(s, r, "the threat model forbids shared memory");
            }
        }
    }
}
