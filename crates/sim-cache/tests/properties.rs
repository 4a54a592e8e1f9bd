//! Property-based tests for the cache simulator's core invariants.

use proptest::prelude::*;
use sim_cache::cache::FillOutcome;
use sim_cache::hierarchy::RandomFillConfig;
use sim_cache::prelude::*;

fn arbitrary_policy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::TrueLru),
        Just(PolicyKind::TreePlru),
        Just(PolicyKind::Random),
        Just(PolicyKind::IntelLike),
        Just(PolicyKind::Nru),
        Just(PolicyKind::Srrip),
    ]
}

const ALL_POLICIES: [PolicyKind; 6] = [
    PolicyKind::TrueLru,
    PolicyKind::TreePlru,
    PolicyKind::Random,
    PolicyKind::IntelLike,
    PolicyKind::Nru,
    PolicyKind::Srrip,
];

/// One operation on a single `Cache`: `(kind, set, tag, domain)` over the
/// first `sets` L1 sets and four domains.
fn cache_op(sets: usize) -> impl Strategy<Value = (u8, usize, u64, u8)> {
    (0u8..8, 0..sets, 0u64..24, 0u8..4)
}

/// Applies a [`cache_op`] and returns everything it observes: residency
/// before the access, the fill outcome, and the result of an invalidation,
/// lock or partition.  Kinds 0–2 read, 3–4 write (a fill that refreshes a
/// resident line or installs a missing one, clean or dirty), 5
/// invalidates, 6 locks the line and 7 confines the domain to a way range
/// drawn from the tag.
fn cache_step(
    cache: &mut Cache,
    (kind, set, tag, domain): (u8, usize, u64, u8),
) -> (bool, Option<FillOutcome>, Option<bool>) {
    let addr = PhysAddr::from_set_and_tag(set, tag, cache.geometry());
    let ctx = AccessContext::for_domain(domain.into());
    match kind {
        0..=4 => {
            let hit = cache.contains(addr);
            (hit, Some(cache.fill(addr, ctx, kind >= 3)), None)
        }
        5 => (false, None, cache.invalidate(addr)),
        6 => (false, None, Some(cache.lock_line(addr))),
        _ => {
            let first = tag as usize % 8;
            let mask = WayMask::range(first, first + 1 + (tag as usize / 8) % (8 - first));
            (
                false,
                None,
                Some(cache.set_partition(domain.into(), mask).is_ok()),
            )
        }
    }
}

fn arbitrary_inclusion() -> impl Strategy<Value = InclusionPolicy> {
    prop_oneof![
        Just(InclusionPolicy::Inclusive),
        Just(InclusionPolicy::NonInclusive),
        Just(InclusionPolicy::Exclusive),
    ]
}

fn arbitrary_routing() -> impl Strategy<Value = WritebackRouting> {
    prop_oneof![
        Just(WritebackRouting::NextLevel),
        Just(WritebackRouting::PointOfCoherency),
    ]
}

fn arbitrary_preset() -> impl Strategy<Value = HierarchyPreset> {
    prop_oneof![
        Just(HierarchyPreset::IntelInclusive),
        Just(HierarchyPreset::AmdNonInclusive),
        Just(HierarchyPreset::AmdExclusive),
        Just(HierarchyPreset::ArmPoc),
    ]
}

/// Ops of the inclusion-policy traces: `(kind, set, tag)` triples where every
/// level collides on the set index.  131072-byte strides keep the L1 (64
/// sets), L2 (512 sets) and LLC (2048 sets) set indices equal, so ~40 tags
/// over a 16-way LLC set force LLC evictions — the traffic that exercises
/// back-invalidation, exclusive victim installs and the spill chains.
fn colliding_ops() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    proptest::collection::vec((0u8..3, 0u64..4, 0..COLLIDING_TAGS), 1..300)
}

/// The tags [`colliding_ops`] draws from: every line a trace can touch.
const COLLIDING_TAGS: u64 = 40;

fn colliding_addr(set: u64, tag: u64) -> PhysAddr {
    PhysAddr(set * 64 + tag * 131_072)
}

/// The colliding lines of `set` other than tag `skip` that each level
/// (L1, L2, LLC) holds dirty, one bit per tag.
fn dirty_tags(h: &CacheHierarchy, set: u64, skip: u64) -> [u64; 3] {
    [h.l1(), h.l2(), h.llc()].map(|level| {
        (0..COLLIDING_TAGS)
            .filter(|&tag| tag != skip && level.is_dirty(colliding_addr(set, tag)))
            .fold(0, |bits, tag| bits | 1 << tag)
    })
}

/// The L1 mechanisms a batched run must honour besides the plain L1: a
/// partitioned tracing domain, locked lines, random fill and a
/// write-through L1.
const L1_VARIANTS: usize = 5;

/// The domain the batched-versus-serial properties trace for.
const TRACE_DOMAIN: u16 = 3;

/// A `preset` hierarchy with L1 variant `variant` (0 plain, 1 the tracing
/// domain partitioned to ways 2..6, 2 locked lines, 3 random fill, 4
/// write-through), after `warmup` ran access by access for another domain
/// (which then, under variant 2, locks every third line it left in the
/// L1).  Deterministic: two calls build the same hierarchy.
fn variant_hierarchy(
    preset: HierarchyPreset,
    policy: PolicyKind,
    variant: usize,
    seed: u64,
    warmup: &[(u8, u64, u64)],
) -> CacheHierarchy {
    let mut config = preset.config(policy, 16, seed).unwrap();
    match variant {
        3 => config.l1_random_fill = Some(RandomFillConfig { window: 4 }),
        4 => config.l1d.write_policy = WritePolicy::WriteThrough,
        _ => {}
    }
    let mut h = CacheHierarchy::new(config).unwrap();
    if variant == 1 {
        h.l1_mut()
            .set_partition(TRACE_DOMAIN, WayMask::range(2, 6))
            .unwrap();
    }
    let other = AccessContext::for_domain(1);
    for &(kind, set, tag) in warmup {
        let addr = colliding_addr(set, tag);
        match kind {
            0 => h.read(addr, other),
            1 => h.write(addr, other),
            _ => h.flush(addr),
        };
    }
    if variant == 2 {
        for &(_, set, tag) in warmup.iter().filter(|&&(_, _, tag)| tag % 3 == 0) {
            h.l1_mut().lock_line(colliding_addr(set, tag));
        }
    }
    h
}

/// Whether each level holds, and holds dirty, each line `ops` and
/// `warmup` touch: the end state the batched-versus-serial properties
/// compare.
fn residency(h: &CacheHierarchy, ops: &[(u8, u64, u64)], warmup: &[(u8, u64, u64)]) -> Vec<bool> {
    ops.iter()
        .chain(warmup)
        .flat_map(|&(_, set, tag)| {
            let addr = colliding_addr(set, tag);
            [h.l1(), h.l2(), h.llc()].map(|level| [level.contains(addr), level.is_dirty(addr)])
        })
        .flatten()
        .collect()
}

fn hierarchy_for(
    inclusion: InclusionPolicy,
    writeback: WritebackRouting,
    policy: PolicyKind,
    seed: u64,
) -> CacheHierarchy {
    let mut config = HierarchyConfig::xeon_e5_2650(policy, seed);
    config.inclusion = inclusion;
    config.writeback = writeback;
    CacheHierarchy::new(config).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The set index and tag always reconstruct the original line address.
    #[test]
    fn geometry_set_and_tag_round_trip(addr in 0u64..1 << 40) {
        let g = CacheGeometry::xeon_l1d();
        let phys = PhysAddr(addr);
        let set = g.set_index(phys);
        let tag = g.tag(phys);
        prop_assert!(set < g.num_sets);
        prop_assert_eq!(g.line_addr(set, tag), phys.line(g));
    }

    /// After any access sequence the number of dirty lines in a set can never
    /// exceed the associativity, and a sweep of 10 distinct new lines clears
    /// every dirty line (the invariant the WB receiver relies on): always
    /// under true LRU, and under Tree-PLRU when the set is full before the
    /// sweep, which the receiver's prime provides.
    #[test]
    fn dirty_lines_are_bounded_and_sweepable(
        policy in arbitrary_policy(),
        ops in proptest::collection::vec((0u8..2, 0u64..12), 1..120),
        seed in 0u64..1000,
    ) {
        let mut cache = Cache::new(CacheConfig::xeon_l1d(policy), seed).unwrap();
        let g = cache.geometry();
        let set = 13usize;
        let ctx = AccessContext::for_domain(2);
        for (kind, tag) in ops {
            let addr = PhysAddr::from_set_and_tag(set, tag, g);
            cache.fill(addr, ctx, kind != 0);
            prop_assert!(cache.dirty_count_in_set(set) <= g.associativity);
            prop_assert!(cache.valid_count_in_set(set) <= g.associativity);
        }
        // Receiver sweep: 10 distinct fresh lines leave the set clean under
        // true LRU from any state.  Tree-PLRU evicts every way in as many
        // consecutive misses only once no invalid way is left to fill first;
        // from a partly filled set it can keep a dirty way (pinned by
        // `a_half_filled_tree_plru_set_keeps_a_dirty_way_after_ten_fresh_fills`).
        // The guarantee is only probabilistic for pseudo-random replacement
        // (Table V), SRRIP can protect recently hit lines beyond 10 fills, and
        // the Intel-like approximation guarantees it only for the specific
        // access pattern of the Table II experiment (covered by its unit
        // tests), not for arbitrary histories.
        let full_before_sweep = cache.valid_count_in_set(set) == g.associativity;
        let receiver = AccessContext::for_domain(1);
        for i in 0..10u64 {
            let addr = PhysAddr::from_set_and_tag(set, 10_000 + i, g);
            prop_assert!(!cache.contains(addr));
            cache.fill(addr, receiver, false);
        }
        let sweep_guaranteed = match policy {
            PolicyKind::TrueLru => true,
            PolicyKind::TreePlru => full_before_sweep,
            _ => false,
        };
        if sweep_guaranteed {
            prop_assert_eq!(cache.dirty_count_in_set(set), 0);
        }
    }

    /// Hierarchy latencies are consistent: every access costs at least an L1
    /// hit, misses cost at least an L2 hit, and a dirty victim never makes an
    /// access cheaper than the same access with a clean victim.
    #[test]
    fn hierarchy_latency_ordering(
        addresses in proptest::collection::vec(0u64..1 << 20, 1..200),
        writes in proptest::collection::vec(any::<bool>(), 1..200),
    ) {
        let mut h = CacheHierarchy::xeon_e5_2650(PolicyKind::TreePlru, 7);
        let lat = h.latency_model();
        let ctx = AccessContext::default();
        for (addr, is_write) in addresses.iter().zip(writes.iter().cycle()) {
            let a = PhysAddr(addr & !63);
            let outcome = if *is_write { h.write(a, ctx) } else { h.read(a, ctx) };
            prop_assert!(outcome.cycles >= lat.l1_hit);
            if outcome.hit != HitLevel::L1D {
                prop_assert!(outcome.cycles >= lat.l2_hit);
            }
            if outcome.l1_victim_dirty {
                prop_assert!(outcome.cycles >= lat.l2_hit + lat.l1_dirty_writeback);
                prop_assert!(outcome.writebacks >= 1);
            }
        }
    }

    /// Write-backs agree with the dirty state they drain: for any trace and
    /// any inclusion × routing × policy combination, a flush performs one
    /// write-back per level that held the line dirty just before it, and a
    /// demand access counts at least one write-back per dirty line that left
    /// a level (evicted, spilled or back-invalidated; the accessed line
    /// itself only gains dirty bits or moves up), and at least the dirty L1
    /// victim's.  This is the differential check that the inclusion-policy
    /// flows (back-invalidation, exclusive victim folding, point-of-coherency
    /// routing) never drop or double-count a dirty line.
    #[test]
    fn writebacks_agree_with_the_dirty_state_across_levels(
        inclusion in arbitrary_inclusion(),
        routing in arbitrary_routing(),
        policy in arbitrary_policy(),
        ops in colliding_ops(),
        seed in 0u64..1000,
    ) {
        let mut h = hierarchy_for(inclusion, routing, policy, seed);
        let ctx = AccessContext::for_domain(2);
        for (step, &(kind, set, tag)) in ops.iter().enumerate() {
            let addr = colliding_addr(set, tag);
            if kind == 2 {
                let dirty_levels = [h.l1(), h.l2(), h.llc()]
                    .iter()
                    .filter(|level| level.is_dirty(addr))
                    .count();
                let outcome = h.flush(addr);
                prop_assert_eq!(
                    outcome.writebacks as usize,
                    dirty_levels,
                    "step {}: flush write-backs diverged from the dirty copies \
                     (inclusion {:?}, routing {:?})",
                    step,
                    inclusion,
                    routing
                );
            } else {
                let before = dirty_tags(&h, set, tag);
                let outcome = if kind == 0 { h.read(addr, ctx) } else { h.write(addr, ctx) };
                let after = dirty_tags(&h, set, tag);
                let drained: u32 = before
                    .iter()
                    .zip(&after)
                    .map(|(was, is)| (was & !is).count_ones())
                    .sum();
                prop_assert!(
                    outcome.writebacks >= drained,
                    "step {}: {} dirty lines left a level, {:?} (inclusion {:?}, routing {:?})",
                    step,
                    drained,
                    outcome,
                    inclusion,
                    routing
                );
                prop_assert!(
                    outcome.writebacks >= u32::from(outcome.l1_victim_dirty),
                    "step {}: {:?} (inclusion {:?}, routing {:?})",
                    step,
                    outcome,
                    inclusion,
                    routing
                );
            }
        }
    }

    /// An exclusive LLC holds only victims: at no point during any trace may
    /// a line be resident in the LLC and in the L1 or L2 at the same time.
    #[test]
    fn exclusive_llc_never_duplicates_upper_level_lines(
        routing in arbitrary_routing(),
        policy in arbitrary_policy(),
        ops in colliding_ops(),
        seed in 0u64..1000,
    ) {
        let mut h = hierarchy_for(InclusionPolicy::Exclusive, routing, policy, seed);
        let ctx = AccessContext::for_domain(1);
        for &(kind, set, tag) in &ops {
            let addr = colliding_addr(set, tag);
            match kind {
                0 => h.read(addr, ctx),
                1 => h.write(addr, ctx),
                _ => h.flush(addr),
            };
            for probe_tag in 0..COLLIDING_TAGS {
                let probe = colliding_addr(set, probe_tag);
                if h.llc().contains(probe) {
                    prop_assert!(
                        !h.l1().contains(probe) && !h.l2().contains(probe),
                        "{:?} resident in the LLC and an upper level at once",
                        probe
                    );
                }
            }
        }
    }

    /// An inclusive LLC is a superset of the upper levels: any line resident
    /// in the L1 or L2 must also be resident in the LLC, at every step of any
    /// trace (back-invalidation on LLC eviction is what maintains this).
    #[test]
    fn inclusive_llc_is_a_superset_of_upper_levels(
        routing in arbitrary_routing(),
        policy in arbitrary_policy(),
        ops in colliding_ops(),
        seed in 0u64..1000,
    ) {
        let mut h = hierarchy_for(InclusionPolicy::Inclusive, routing, policy, seed);
        let ctx = AccessContext::for_domain(1);
        for &(kind, set, tag) in &ops {
            let addr = colliding_addr(set, tag);
            match kind {
                0 => h.read(addr, ctx),
                1 => h.write(addr, ctx),
                _ => h.flush(addr),
            };
            for probe_tag in 0..COLLIDING_TAGS {
                let probe = colliding_addr(set, probe_tag);
                if h.l1().contains(probe) || h.l2().contains(probe) {
                    prop_assert!(
                        h.llc().contains(probe),
                        "{:?} resident in an upper level but not the LLC",
                        probe
                    );
                }
            }
        }
    }

    /// The batched trace fast path agrees with the per-access API on every
    /// hierarchy preset, policy and L1 variant, not just the default
    /// Intel-inclusive machine: same summary, same final residency and
    /// dirty state at every level.  Four L1 sets make same-set stretches
    /// common, so a batched run holds one set view across many accesses,
    /// flushes and spill chains.
    #[test]
    fn run_trace_matches_per_access_on_every_preset(
        preset in arbitrary_preset(),
        policy in arbitrary_policy(),
        variant in 0..L1_VARIANTS,
        warmup in colliding_ops(),
        ops in colliding_ops(),
        seed in 0u64..1000,
    ) {
        let trace: Vec<TraceOp> = ops
            .iter()
            .map(|&(kind, set, tag)| {
                let addr = colliding_addr(set, tag);
                match kind {
                    0 => TraceOp::read(addr),
                    1 => TraceOp::write(addr),
                    _ => TraceOp::flush(addr),
                }
            })
            .collect();
        let ctx = AccessContext::for_domain(TRACE_DOMAIN);

        let mut batched = variant_hierarchy(preset, policy, variant, seed, &warmup);
        let summary = batched.run_trace(&trace, ctx);

        let mut serial = variant_hierarchy(preset, policy, variant, seed, &warmup);
        let mut expected = TraceSummary::default();
        for op in &trace {
            let outcome = match op.kind {
                TraceKind::Read => serial.read(op.addr, ctx),
                TraceKind::Write => serial.write(op.addr, ctx),
                TraceKind::Flush => serial.flush(op.addr),
            };
            expected.absorb(&outcome);
        }

        prop_assert_eq!(summary, expected, "variant {}", variant);
        prop_assert_eq!(residency(&batched, &ops, &warmup), residency(&serial, &ops, &warmup));
    }

    /// The batched read trace (the receiver's pointer chase) agrees with
    /// one `read` at a time, on every preset, policy and L1 variant: same
    /// summary, same final residency and dirty state at every level.
    #[test]
    fn run_read_trace_matches_per_access_on_every_preset(
        preset in arbitrary_preset(),
        policy in arbitrary_policy(),
        variant in 0..L1_VARIANTS,
        warmup in colliding_ops(),
        ops in colliding_ops(),
        seed in 0u64..1000,
    ) {
        let addrs: Vec<PhysAddr> = ops.iter().map(|&(_, set, tag)| colliding_addr(set, tag)).collect();
        let ctx = AccessContext::for_domain(TRACE_DOMAIN);

        let mut batched = variant_hierarchy(preset, policy, variant, seed, &warmup);
        let summary = batched.run_read_trace(&addrs, ctx);

        let mut serial = variant_hierarchy(preset, policy, variant, seed, &warmup);
        let mut expected = TraceSummary::default();
        for &addr in &addrs {
            expected.absorb(&serial.read(addr, ctx));
        }

        prop_assert_eq!(summary, expected, "variant {}", variant);
        prop_assert_eq!(residency(&batched, &ops, &warmup), residency(&serial, &ops, &warmup));
    }

    /// `Cache::reset` is indistinguishable from constructing a fresh cache,
    /// for every policy, whether the reset keeps the policy kind (an
    /// in-place reset of the sets filled since the last one) or switches it
    /// (a rebuild), and after one reset or two back to back.  Warm-up
    /// traffic from several domains spreads over the first 48 sets, locks
    /// lines and partitions ways; the replay after the reset spreads over
    /// all 64 sets, so some sets are first touched only then.  Every
    /// operation's result and every set's final contents must match a fresh
    /// cache op for op.
    #[test]
    fn cache_reset_matches_a_fresh_cache(
        warmup in proptest::collection::vec(cache_op(48), 0..300),
        ops in proptest::collection::vec(cache_op(64), 1..300),
        switch in 1usize..6,
        double in any::<bool>(),
        seed in 0u64..1000,
        midseed in 0u64..1000,
        reseed in 0u64..1000,
    ) {
        for (index, &policy) in ALL_POLICIES.iter().enumerate() {
            let switched = ALL_POLICIES[(index + switch) % ALL_POLICIES.len()];
            for before in [policy, switched] {
                let config = CacheConfig::xeon_l1d(policy);
                let mut recycled = Cache::new(CacheConfig::xeon_l1d(before), seed).unwrap();
                for &op in &warmup {
                    cache_step(&mut recycled, op);
                }
                if double {
                    recycled.reset(CacheConfig::xeon_l1d(before), midseed).unwrap();
                }
                recycled.reset(config, reseed).unwrap();
                let mut fresh = Cache::new(config, reseed).unwrap();
                for (step, &op) in ops.iter().enumerate() {
                    prop_assert_eq!(
                        cache_step(&mut recycled, op),
                        cache_step(&mut fresh, op),
                        "{} after {}: step {} {:?}", policy, before, step, op
                    );
                }
                for set in 0..64 {
                    prop_assert_eq!(recycled.valid_count_in_set(set), fresh.valid_count_in_set(set));
                    prop_assert_eq!(recycled.dirty_count_in_set(set), fresh.dirty_count_in_set(set));
                    for domain in 0..4 {
                        prop_assert_eq!(
                            recycled.owned_count_in_set(set, domain),
                            fresh.owned_count_in_set(set, domain)
                        );
                    }
                }
            }
        }
    }

    /// `CacheHierarchy::reset` is indistinguishable from fresh construction
    /// on every preset: after arbitrary warm-up traffic (under a different
    /// seed), resetting and replaying a trace yields outcome-for-outcome
    /// identical results.
    #[test]
    fn hierarchy_reset_matches_a_fresh_hierarchy(
        preset in arbitrary_preset(),
        policy in arbitrary_policy(),
        warmup in colliding_ops(),
        ops in colliding_ops(),
        seed in 0u64..1000,
        reseed in 0u64..1000,
    ) {
        let ctx = AccessContext::for_domain(3);
        let mut recycled = CacheHierarchy::new(preset.config(policy, 16, seed).unwrap()).unwrap();
        for &(kind, set, tag) in &warmup {
            let addr = colliding_addr(set, tag);
            match kind {
                0 => recycled.read(addr, ctx),
                1 => recycled.write(addr, ctx),
                _ => recycled.flush(addr),
            };
        }
        let next = preset.config(policy, 16, reseed).unwrap();
        recycled.reset(next).unwrap();
        let mut fresh = CacheHierarchy::new(next).unwrap();
        for &(kind, set, tag) in &ops {
            let addr = colliding_addr(set, tag);
            let (replayed, reference) = match kind {
                0 => (recycled.read(addr, ctx), fresh.read(addr, ctx)),
                1 => (recycled.write(addr, ctx), fresh.write(addr, ctx)),
                _ => (recycled.flush(addr), fresh.flush(addr)),
            };
            prop_assert_eq!(replayed, reference);
        }
    }

    /// Way masks behave like sets of way indices.
    #[test]
    fn waymask_set_semantics(bits_a in any::<u64>(), bits_b in any::<u64>()) {
        let a = WayMask::from_bits(bits_a);
        let b = WayMask::from_bits(bits_b);
        prop_assert_eq!(a.and(b).count(), (bits_a & bits_b).count_ones() as usize);
        prop_assert_eq!(a.or(b).count(), (bits_a | bits_b).count_ones() as usize);
        let collected: WayMask = a.iter().collect();
        prop_assert_eq!(collected.bits(), a.bits());
    }
}

/// Tree-PLRU sweeps every old line only from a full set.  With four valid
/// lines (the last three dirty) in ways 0–3, the first four of ten fresh
/// fills take the invalid ways 4–7; the tree then names ways 0, 4, 2, 6, 1
/// and 5 as the next six victims, so the dirty line in way 3 survives.
#[test]
fn a_half_filled_tree_plru_set_keeps_a_dirty_way_after_ten_fresh_fills() {
    let mut cache = Cache::new(CacheConfig::xeon_l1d(PolicyKind::TreePlru), 501).unwrap();
    let g = cache.geometry();
    let set = 13usize;
    let sender = AccessContext::for_domain(2);
    for (dirty, tag) in [(false, 4), (true, 9), (true, 7), (true, 2)] {
        cache.fill(PhysAddr::from_set_and_tag(set, tag, g), sender, dirty);
    }
    assert_eq!(cache.valid_count_in_set(set), 4);
    let receiver = AccessContext::for_domain(1);
    for i in 0..10u64 {
        cache.fill(
            PhysAddr::from_set_and_tag(set, 10_000 + i, g),
            receiver,
            false,
        );
    }
    let survivor = PhysAddr::from_set_and_tag(set, 2, g);
    assert!(cache.contains(survivor) && cache.is_dirty(survivor));
    assert_eq!(cache.dirty_count_in_set(set), 1);
}
