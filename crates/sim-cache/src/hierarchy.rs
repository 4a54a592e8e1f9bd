//! The multi-level cache hierarchy.
//!
//! [`CacheHierarchy`] composes an L1 data cache, a unified L2 and a shared
//! LLC in front of a flat memory model, and attributes a cycle count to every
//! demand access according to the [`crate::latency::LatencyModel`].  The
//! latency attribution follows the paper's measurements (Table IV): an access
//! that is served by the L2 and must evict a *dirty* L1 line is roughly twice
//! as slow as one that evicts a clean line — that asymmetry is the WB channel.

use crate::addr::{CacheGeometry, PhysAddr};
use crate::cache::{AccessContext, Cache, EvictedLine, SetView};
use crate::config::{CacheConfig, WritePolicy};
use crate::latency::LatencyModel;
use crate::outcome::{AccessKind, AccessOutcome, HitLevel};
use crate::policy::PolicyKind;
use crate::seed::stream_seed;
use crate::trace::{TraceKind, TraceOp, TraceSummary};

// The per-level RNG streams are derived with SplitMix64 (`crate::seed`) so
// that textually close seeds (`2k` vs `2k + 1`, or seeds differing only in
// the bits a plain XOR constant touches) land on well-separated points of
// the generator orbit.  The previous scheme (`seed | 1` for the fill stream,
// `seed ^ 0x1111`-style constants per level) made adjacent seeds collide
// outright.

/// Stream constants for [`stream_seed`].
const L1D_STREAM: u64 = 1;
const L2_STREAM: u64 = 2;
const LLC_STREAM: u64 = 3;
const FILL_STREAM: u64 = 4;

/// The random-fill RNG seed for a hierarchy seed.
///
/// xorshift64* (the fill RNG) has an all-zero fixed point; SplitMix64 maps
/// exactly one input to zero, so guard it with a constant.  Shared by
/// [`CacheHierarchy::new`] and [`CacheHierarchy::reset`] so a reset machine
/// stays bit-identical to a fresh one.
fn fill_seed(seed: u64) -> u64 {
    match stream_seed(seed, FILL_STREAM) {
        0 => 0x9E37_79B9_7F4A_7C15,
        s => s,
    }
}

/// How the LLC relates to the levels above it.
///
/// Commercial parts differ here (Intel server parts were classically
/// inclusive, AMD Zen LLCs are non-inclusive or exclusive victim caches),
/// and the WB channel's signal path differs with them — which is why the
/// hierarchy-matrix scenario sweeps this axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InclusionPolicy {
    /// Upper levels hold a subset of the LLC: fills install at every level
    /// and an LLC eviction back-invalidates the L1/L2 copies (dirty copies
    /// are written back to memory on the way out).
    Inclusive,
    /// Fill-inclusive but eviction-independent: fills install at every
    /// level, yet an LLC eviction leaves upper-level copies alone.
    NonInclusive,
    /// The LLC is a victim cache: fills bypass it entirely, L2 victims —
    /// clean or dirty — are installed into it, and an LLC hit *moves* the
    /// line up (single-copy residency: a line valid in the LLC is valid
    /// nowhere above it).
    Exclusive,
}

/// Where a dirty victim's data is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritebackRouting {
    /// Dirty victims stop at the next cache level (the Intel/AMD shape).
    NextLevel,
    /// ARM point-of-coherency rules: a dirty victim's data is written
    /// through to memory rather than parking in the next level, so deep
    /// levels stay clean.  Residency is unaffected — only the destination
    /// of the write (and the memory-access accounting) changes.
    PointOfCoherency,
}

/// Configuration of a full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// L1 data cache configuration.
    pub l1d: CacheConfig,
    /// L2 configuration.
    pub l2: CacheConfig,
    /// Last-level cache configuration.
    pub llc: CacheConfig,
    /// LLC inclusion policy.
    pub inclusion: InclusionPolicy,
    /// Dirty-victim routing.
    pub writeback: WritebackRouting,
    /// Latency model.
    pub latency: LatencyModel,
    /// Optional random-fill L1 (Liu & Lee's RF cache, evaluated as a defense
    /// in Sec. VIII): demand-read misses return data to the core without
    /// filling the requested line; instead a random line from a window of
    /// ± `window` lines around the request is brought in.
    pub l1_random_fill: Option<RandomFillConfig>,
    /// Seed for replacement-policy randomness.
    pub seed: u64,
}

/// Configuration of the random-fill L1 defense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomFillConfig {
    /// Half-width of the fill neighbourhood, in cache lines: at most
    /// [`RandomFillConfig::MAX_WINDOW`].
    pub window: u64,
}

impl RandomFillConfig {
    /// The widest neighbourhood a hierarchy accepts, so that the fill draw
    /// over `2 * window + 1` lines cannot overflow.
    pub const MAX_WINDOW: u64 = 1 << 32;

    /// Rejects a window above [`RandomFillConfig::MAX_WINDOW`].
    fn check(config: Option<RandomFillConfig>) -> crate::Result<()> {
        match config {
            Some(RandomFillConfig { window }) if window > Self::MAX_WINDOW => {
                Err(crate::Error::InvalidGeometry {
                    field: "l1_random_fill.window",
                    value: usize::try_from(window).unwrap_or(usize::MAX),
                    requirement: "must be at most 2^32 lines",
                })
            }
            _ => Ok(()),
        }
    }
}

impl HierarchyConfig {
    /// A hierarchy shaped like the paper's Intel Xeon E5-2650 (Table III),
    /// with the requested L1 replacement policy.
    pub fn xeon_e5_2650(l1_policy: PolicyKind, seed: u64) -> HierarchyConfig {
        HierarchyConfig {
            l1d: CacheConfig::xeon_l1d(l1_policy),
            l2: CacheConfig::xeon_l2(),
            llc: CacheConfig::scaled_llc(),
            inclusion: InclusionPolicy::Inclusive,
            writeback: WritebackRouting::NextLevel,
            latency: LatencyModel::xeon_e5_2650(),
            l1_random_fill: None,
            seed,
        }
    }

    /// Same machine but with a write-through, no-write-allocate L1 (the
    /// defense of Sec. VIII).
    pub fn write_through_l1(l1_policy: PolicyKind, seed: u64) -> HierarchyConfig {
        let mut config = Self::xeon_e5_2650(l1_policy, seed);
        config.l1d.write_policy = WritePolicy::WriteThrough;
        config
    }
}

/// A named commercial-processor hierarchy shape — the sweep axis of the
/// `hierarchy-matrix` scenario.
///
/// Each preset bundles an [`InclusionPolicy`], a [`WritebackRouting`] and a
/// [`LatencyModel`]; the L1/L2 geometries stay at the paper's Table III
/// values so the channel's eviction sets (64 L1 sets, 8 ways) keep working,
/// and only the LLC associativity varies along the matrix's second axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyPreset {
    /// Intel server shape: inclusive LLC, Table IV latencies (the default
    /// everywhere outside the matrix — [`HierarchyConfig::xeon_e5_2650`]).
    IntelInclusive,
    /// AMD Zen-2-like shape: non-inclusive LLC, Zen-ish latencies.
    AmdNonInclusive,
    /// AMD Zen-1-like shape: exclusive (victim) LLC, Zen-ish latencies.
    AmdExclusive,
    /// ARM Cortex-A-like shape: non-inclusive shared cache with
    /// point-of-coherency write-back routing and ARM-ish latencies.
    ArmPoc,
}

impl HierarchyPreset {
    /// Every preset, in matrix order.
    pub const ALL: [HierarchyPreset; 4] = [
        HierarchyPreset::IntelInclusive,
        HierarchyPreset::AmdNonInclusive,
        HierarchyPreset::AmdExclusive,
        HierarchyPreset::ArmPoc,
    ];

    /// Stable kebab-case label (used in tables and on the command line).
    pub fn label(self) -> &'static str {
        match self {
            HierarchyPreset::IntelInclusive => "intel-inclusive",
            HierarchyPreset::AmdNonInclusive => "amd-noninclusive",
            HierarchyPreset::AmdExclusive => "amd-exclusive",
            HierarchyPreset::ArmPoc => "arm-poc",
        }
    }

    /// The preset's inclusion policy.
    pub fn inclusion(self) -> InclusionPolicy {
        match self {
            HierarchyPreset::IntelInclusive => InclusionPolicy::Inclusive,
            HierarchyPreset::AmdNonInclusive | HierarchyPreset::ArmPoc => {
                InclusionPolicy::NonInclusive
            }
            HierarchyPreset::AmdExclusive => InclusionPolicy::Exclusive,
        }
    }

    /// The preset's dirty-victim routing.
    pub fn writeback(self) -> WritebackRouting {
        match self {
            HierarchyPreset::ArmPoc => WritebackRouting::PointOfCoherency,
            _ => WritebackRouting::NextLevel,
        }
    }

    /// The preset's latency model.
    pub fn latency(self) -> LatencyModel {
        match self {
            HierarchyPreset::IntelInclusive => LatencyModel::xeon_e5_2650(),
            HierarchyPreset::AmdNonInclusive | HierarchyPreset::AmdExclusive => {
                LatencyModel::amd_zen_like()
            }
            HierarchyPreset::ArmPoc => LatencyModel::arm_cortex_like(),
        }
    }

    /// Builds the full hierarchy configuration for this preset with the
    /// given L1 replacement policy and LLC associativity.
    ///
    /// `IntelInclusive` with `llc_associativity == 16` reproduces
    /// [`HierarchyConfig::xeon_e5_2650`] exactly.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidGeometry`] when the LLC associativity
    /// does not divide the 2 MiB capacity into a realisable geometry.
    pub fn config(
        self,
        l1_policy: PolicyKind,
        llc_associativity: usize,
        seed: u64,
    ) -> crate::Result<HierarchyConfig> {
        let llc = CacheConfig::builder(crate::config::CacheLevel::L3)
            .size_bytes(2 * 1024 * 1024)
            .associativity(llc_associativity)
            .line_size(64)
            .replacement(PolicyKind::TreePlru)
            .build()?;
        let mut config = HierarchyConfig::xeon_e5_2650(l1_policy, seed);
        config.llc = llc;
        config.inclusion = self.inclusion();
        config.writeback = self.writeback();
        config.latency = self.latency();
        Ok(config)
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::xeon_e5_2650(PolicyKind::TreePlru, 0)
    }
}

/// A three-level cache hierarchy with cycle attribution.
#[derive(Debug)]
pub struct CacheHierarchy {
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    inclusion: InclusionPolicy,
    writeback: WritebackRouting,
    latency: LatencyModel,
    random_fill: Option<RandomFillConfig>,
    fill_rng_state: u64,
}

impl CacheHierarchy {
    /// Builds a hierarchy from its configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the individual cache levels.
    pub fn new(config: HierarchyConfig) -> crate::Result<CacheHierarchy> {
        RandomFillConfig::check(config.l1_random_fill)?;
        Ok(CacheHierarchy {
            l1d: Cache::new(config.l1d, stream_seed(config.seed, L1D_STREAM))?,
            l2: Cache::new(config.l2, stream_seed(config.seed, L2_STREAM))?,
            llc: Cache::new(config.llc, stream_seed(config.seed, LLC_STREAM))?,
            inclusion: config.inclusion,
            writeback: config.writeback,
            latency: config.latency,
            random_fill: config.l1_random_fill,
            fill_rng_state: fill_seed(config.seed),
        })
    }

    /// Convenience constructor for the paper's machine.
    ///
    /// # Panics
    ///
    /// Never panics: the built-in configuration is statically valid.
    pub fn xeon_e5_2650(l1_policy: PolicyKind, seed: u64) -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::xeon_e5_2650(l1_policy, seed))
            .expect("built-in configuration is valid")
    }

    /// Resets this hierarchy to the state [`CacheHierarchy::new`] would
    /// produce for `config`, each level in place when its geometry and
    /// policy kind are unchanged, at a cost of O(sets touched since the last
    /// reset) (see [`Cache::reset`]).  Behaviourally indistinguishable from
    /// a fresh construction.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the individual cache levels.
    pub fn reset(&mut self, config: HierarchyConfig) -> crate::Result<()> {
        RandomFillConfig::check(config.l1_random_fill)?;
        self.l1d
            .reset(config.l1d, stream_seed(config.seed, L1D_STREAM))?;
        self.l2
            .reset(config.l2, stream_seed(config.seed, L2_STREAM))?;
        self.llc
            .reset(config.llc, stream_seed(config.seed, LLC_STREAM))?;
        self.inclusion = config.inclusion;
        self.writeback = config.writeback;
        self.latency = config.latency;
        self.random_fill = config.l1_random_fill;
        self.fill_rng_state = fill_seed(config.seed);
        Ok(())
    }

    /// The latency model in use.
    pub fn latency_model(&self) -> LatencyModel {
        self.latency
    }

    /// The L1 data-cache geometry (used to construct eviction sets).
    pub fn l1_geometry(&self) -> CacheGeometry {
        self.l1d.geometry()
    }

    /// Shared access to the L1 data cache.
    pub fn l1(&self) -> &Cache {
        &self.l1d
    }

    /// Exclusive access to the L1 data cache (partitioning, locking).
    pub fn l1_mut(&mut self) -> &mut Cache {
        &mut self.l1d
    }

    /// Shared access to the L2 cache.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Shared access to the last-level cache.
    pub fn llc(&self) -> &Cache {
        &self.llc
    }

    /// Performs a demand load: a run of one access.
    pub fn read(&mut self, addr: PhysAddr, ctx: AccessContext) -> AccessOutcome {
        self.demand_access(addr, ctx, AccessKind::Read)
    }

    /// Performs a demand store: a run of one access.
    pub fn write(&mut self, addr: PhysAddr, ctx: AccessContext) -> AccessOutcome {
        self.demand_access(addr, ctx, AccessKind::Write)
    }

    /// Executes a batched trace of operations back-to-back for one domain and
    /// returns the aggregate [`TraceSummary`].
    ///
    /// Per-op semantics are identical to calling [`CacheHierarchy::read`],
    /// [`CacheHierarchy::write`] and [`CacheHierarchy::flush`] in sequence —
    /// same ordering, same latency attribution, same write-backs — but the
    /// bulk caller never receives (or collects) per-access
    /// [`AccessOutcome`]s, and consecutive accesses to one L1 set share one
    /// set view (see [`CacheHierarchy::run_read_trace`]).  This is the hot
    /// entry point of the sweep engine; perfbench's `sim-cache.*` kernels
    /// time it on fixed traces.
    pub fn run_trace(&mut self, ops: &[TraceOp], ctx: AccessContext) -> TraceSummary {
        self.run_views(ops, ctx, |op| (op.addr, op.kind))
    }

    /// Batched all-reads trace over a plain address slice — the receiver's
    /// pointer-chase shape.  Identical to [`CacheHierarchy::run_trace`] with
    /// every op a read, but consumes the addresses directly so chase callers
    /// (which already hold `&[PhysAddr]`) never build a `TraceOp` vector.
    ///
    /// Each stretch of consecutive reads to one L1 set runs on one set view:
    /// that set's way masks, first fingerprint word and Tree-PLRU direction
    /// word stay in locals from the stretch's first access to its last,
    /// instead of going back to memory between accesses.  A pointer chase
    /// over one eviction set — the WB receiver's whole measurement — is a
    /// single stretch.
    pub fn run_read_trace(&mut self, addrs: &[PhysAddr], ctx: AccessContext) -> TraceSummary {
        self.run_views(addrs, ctx, |addr| (addr, TraceKind::Read))
    }

    /// The loop behind [`CacheHierarchy::run_trace`] and
    /// [`CacheHierarchy::run_read_trace`]: each item becomes an access
    /// through `op`, and the L1 set view moves only when the set changes.
    #[inline(always)]
    fn run_views<T: Copy>(
        &mut self,
        items: &[T],
        ctx: AccessContext,
        op: impl Fn(T) -> (PhysAddr, TraceKind),
    ) -> TraceSummary {
        let mut summary = TraceSummary::default();
        let Some(&first) = items.first() else {
            return summary;
        };
        let mut view = self.l1d.load_view(self.l1d.set_and_tag(op(first).0).0);
        for &item in items {
            let (addr, kind) = op(item);
            let outcome = match kind {
                TraceKind::Read => self.access_held(&mut view, addr, ctx, AccessKind::Read),
                TraceKind::Write => self.access_held(&mut view, addr, ctx, AccessKind::Write),
                TraceKind::Flush => self.outside_view(&mut view, |h| h.flush(addr)),
            };
            summary.absorb(&outcome);
        }
        self.l1d.store_view(&view);
        summary
    }

    /// One demand access of a run on the held `view`, moved to `addr`'s L1
    /// set first when it holds another one.
    #[inline(always)]
    fn access_held(
        &mut self,
        view: &mut SetView,
        addr: PhysAddr,
        ctx: AccessContext,
        kind: AccessKind,
    ) -> AccessOutcome {
        let (set, tag) = self.l1d.set_and_tag(addr);
        if view.set() != set {
            self.l1d.store_view(view);
            *view = self.l1d.load_view(set);
        }
        self.access_in(view, addr, tag, ctx, kind)
    }

    /// Runs `step` on the hierarchy with `view` stored, and reloads the view
    /// after it: the way around a held view for every step that can reach
    /// the L1 other than through it (the walk beyond the L2, an L2 spill
    /// chain, random fill, the write-through store paths and flushes).
    #[inline(always)]
    fn outside_view<R>(&mut self, view: &mut SetView, step: impl FnOnce(&mut Self) -> R) -> R {
        self.l1d.store_view(view);
        let result = step(self);
        *view = self.l1d.load_view(view.set());
        result
    }

    /// Flushes the line containing `addr` from every level (`clflush`).
    ///
    /// The flush latency depends on whether the line was cached and whether a
    /// dirty copy had to be written back — the timing asymmetry that the
    /// Flush+Flush channel (Gruss et al., compared against in Sec. VI)
    /// exploits.
    pub fn flush(&mut self, addr: PhysAddr) -> AccessOutcome {
        let mut cycles = self.latency.l1_hit;
        let mut writebacks = 0u32;
        let mut was_present = false;
        // A dirty L1 copy stalls the flush for the full L1 write-back; dirty
        // copies in the L2/LLC overlap with the flush walk and only cost the
        // (small) deep write-back penalty — the same asymmetry the demand-miss
        // path models.  Charging `l1_dirty_writeback` at every level (the old
        // behaviour) overstated deep flushes by ~9 cycles per level.
        if let Some(dirty) = self.l1d.invalidate(addr) {
            was_present = true;
            if dirty {
                writebacks += 1;
                cycles += self.latency.l1_dirty_writeback;
            }
        }
        for dirty in [self.l2.invalidate(addr), self.llc.invalidate(addr)] {
            let Some(dirty) = dirty else { continue };
            was_present = true;
            if dirty {
                writebacks += 1;
                cycles += self.latency.deep_dirty_writeback;
            }
        }
        if was_present {
            // Invalidating a resident line takes a few extra cycles per level
            // walked (the Flush+Flush signal).
            cycles += self.latency.l1_hit;
        }
        // clflush is ordered like a store that must reach memory.
        cycles += self.latency.l2_hit;
        AccessOutcome {
            kind: AccessKind::Flush,
            hit: HitLevel::Memory,
            cycles,
            l1_filled: false,
            l1_evicted: None,
            l1_victim_dirty: false,
            writebacks,
        }
    }

    /// Installs `addr` into the L1 as a prefetch (no demand latency).
    ///
    /// Used by the Prefetch-guard defense to inject noise lines.
    pub fn prefetch_into_l1(&mut self, addr: PhysAddr, ctx: AccessContext) -> AccessOutcome {
        let fill = self.l1d.fill(addr, ctx, false);
        let mut writebacks = 0;
        let mut victim_dirty = false;
        let mut evicted_addr = None;
        if let Some(evicted) = fill.evicted {
            evicted_addr = Some(evicted.addr);
            if evicted.dirty {
                victim_dirty = true;
                writebacks += 1 + self
                    .push_writeback_to_l2(evicted)
                    .map_or(0, |spill| self.spill_l2_victim(spill));
            }
        }
        AccessOutcome {
            kind: AccessKind::Prefetch,
            hit: HitLevel::L1D,
            cycles: 0,
            l1_filled: fill.way.is_some(),
            l1_evicted: evicted_addr,
            l1_victim_dirty: victim_dirty,
            writebacks,
        }
    }

    /// Writes a dirty L1 victim back into the L2 and returns the line the
    /// L2 evicted for it, if any, for [`CacheHierarchy::spill_l2_victim`].
    ///
    /// The common case — the victim's line is still in the L2 and only
    /// turns dirty there — touches no L1 state, so a held L1 view stays
    /// held across it.
    #[inline(always)]
    fn push_writeback_to_l2(&mut self, evicted: EvictedLine) -> Option<EvictedLine> {
        let owner_ctx = AccessContext::for_domain(evicted.owner);
        let addr = PhysAddr(evicted.addr.value());
        // Under point-of-coherency routing the dirty data drains to memory;
        // the line stays cached below, but clean.
        let to_memory = self.writeback == WritebackRouting::PointOfCoherency;
        self.l2.fill(addr, owner_ctx, !to_memory).evicted
    }

    /// Propagates a line evicted from the L2 according to the inclusion
    /// policy and write-back routing.  Returns the number of write-backs
    /// performed (the L2 victim's own, plus any the chain triggers).
    #[cold]
    #[inline(never)]
    fn spill_l2_victim(&mut self, spill: EvictedLine) -> u32 {
        let spill_ctx = AccessContext::for_domain(spill.owner);
        let addr = PhysAddr(spill.addr.value());

        if self.inclusion == InclusionPolicy::Exclusive {
            // Victim cache: clean and dirty L2 victims both move into the
            // LLC.  Any L1 copy is folded into the outgoing victim first so
            // the single-copy invariant (LLC ⟹ nowhere above) holds.
            let mut writebacks = 0u32;
            let mut dirty = spill.dirty;
            if self.l1d.invalidate(addr) == Some(true) {
                writebacks += 1;
                dirty = true;
            }
            if dirty {
                writebacks += 1;
            }
            let install_dirty = dirty && self.writeback != WritebackRouting::PointOfCoherency;
            return match self.llc.fill(addr, spill_ctx, install_dirty).evicted {
                Some(displaced) if displaced.dirty => writebacks + 1,
                _ => writebacks,
            };
        }

        if !spill.dirty {
            return 0;
        }
        if self.writeback == WritebackRouting::PointOfCoherency {
            // The data goes to the point of coherency; LLC residency is
            // unchanged (a fill-inclusive copy may already sit there, clean).
            return 1;
        }
        match self.llc.fill(addr, spill_ctx, true).evicted {
            Some(displaced) => {
                let mut writebacks = 1;
                if displaced.dirty {
                    // The dirty LLC victim leaves the hierarchy: it must
                    // reach memory (previously this line was silently
                    // dropped).
                    writebacks += 1;
                }
                if self.inclusion == InclusionPolicy::Inclusive {
                    writebacks += self.back_invalidate(PhysAddr(displaced.addr.value()));
                }
                writebacks
            }
            None => 1,
        }
    }

    /// Enforces inclusion after an LLC eviction: removes the victim's L1/L2
    /// copies, writing dirty ones back to memory (the fill they overlap with
    /// absorbs their latency).  Returns the number of write-backs performed.
    #[cold]
    #[inline(never)]
    fn back_invalidate(&mut self, victim: PhysAddr) -> u32 {
        let l1_dirty = self.l1d.invalidate(victim) == Some(true);
        let l2_dirty = self.l2.invalidate(victim) == Some(true);
        u32::from(l1_dirty) + u32::from(l2_dirty)
    }

    /// The demand path behind [`CacheHierarchy::read`] and
    /// [`CacheHierarchy::write`]: a run of one access, on a view of the L1
    /// set loaded before it and stored after it.
    #[inline(always)]
    fn demand_access(
        &mut self,
        addr: PhysAddr,
        ctx: AccessContext,
        kind: AccessKind,
    ) -> AccessOutcome {
        let (set, tag) = self.l1d.set_and_tag(addr);
        let mut view = self.l1d.load_view(set);
        let outcome = self.access_in(&mut view, addr, tag, ctx, kind);
        self.l1d.store_view(&view);
        outcome
    }

    /// One demand access to `addr`, whose L1 tag is `l1_tag`, on the held
    /// view of its L1 set — the one L1 lookup/fill/evict path.
    ///
    /// Forced inline into each run loop with `kind` a constant, so the
    /// common cases compile to straight-line code there: an L1 hit, and an
    /// L1 miss served by the L2 that evicts a clean or dirty L1 victim into
    /// an L2-resident line.  These stay inside the view.  Everything rarer
    /// is one out-of-line call, run [outside the view](Self::outside_view):
    /// the walk beyond the L2, random fill, write-through stores, L2 spill
    /// chains, exclusive promotion and inclusive back-invalidation.
    #[inline(always)]
    fn access_in(
        &mut self,
        view: &mut SetView,
        addr: PhysAddr,
        l1_tag: u64,
        ctx: AccessContext,
        kind: AccessKind,
    ) -> AccessOutcome {
        let is_write = kind == AccessKind::Write;
        let write_through = self.l1d.config().write_policy == WritePolicy::WriteThrough;

        // ---- L1 lookup --------------------------------------------------
        if self.l1d.lookup_in(view, l1_tag, is_write).is_some() {
            let mut outcome = AccessOutcome::l1_hit(kind, self.latency.l1_hit);
            if is_write && write_through {
                self.outside_view(view, |h| h.write_through_hit(addr, ctx, &mut outcome));
            }
            return outcome;
        }

        // ---- L1 miss: the L2, then the outer walk ------------------------
        let (l2_set, l2_tag) = self.l2.set_and_tag(addr);
        let (hit, mut cycles, mut writebacks) =
            if self.l2.lookup_at(l2_set, l2_tag, is_write).is_some() {
                (HitLevel::L2, self.latency.l2_hit, 0)
            } else {
                self.outside_view(view, |h| {
                    h.fetch_beyond_l2(addr, ctx, is_write, l2_set, l2_tag)
                })
            };

        // ---- Random-fill defense: read misses bypass the L1 fill ----------
        if !is_write && self.random_fill.is_some() {
            return self.outside_view(view, |h| {
                h.random_fill_read(addr, ctx, hit, cycles, writebacks)
            });
        }

        // ---- Fill the L1, or store around a write-through one -------------
        let mut l1_filled = false;
        let mut l1_evicted = None;
        let mut l1_victim_dirty = false;

        if is_write && write_through {
            (cycles, writebacks) =
                self.outside_view(view, |h| h.store_around_l1(addr, ctx, cycles, writebacks));
        } else {
            // A write-back L1 allocates on a store miss and holds the line
            // dirty.  The L1 lookup above missed and the outer walk never
            // fills the L1, so the residency re-scan is skipped.
            let fill = self.l1d.fill_missing_in(view, l1_tag, ctx, is_write);
            l1_filled = fill.way.is_some();
            if let Some(evicted) = fill.evicted {
                l1_evicted = Some(evicted.addr);
                if evicted.dirty {
                    // The heart of the WB channel: evicting a dirty victim
                    // stalls the fill for the write-back.
                    l1_victim_dirty = true;
                    cycles += self.latency.l1_dirty_writeback;
                    writebacks += 1;
                    if let Some(spill) = self.push_writeback_to_l2(evicted) {
                        writebacks += self.outside_view(view, |h| h.spill_l2_victim(spill));
                    }
                }
            }
        }

        AccessOutcome {
            kind,
            hit,
            cycles,
            l1_filled,
            l1_evicted,
            l1_victim_dirty,
            writebacks,
        }
    }

    /// Serves an access that missed the L1 and the L2 (whose lookup gave
    /// `(l2_set, l2_tag)`) from the LLC or memory, filling the outer levels
    /// as needed.  Returns the serving level, the base latency (excluding
    /// any L1 victim write-back) and the number of deep write-backs the walk
    /// performed.
    #[inline(never)]
    fn fetch_beyond_l2(
        &mut self,
        addr: PhysAddr,
        ctx: AccessContext,
        is_write: bool,
        l2_set: usize,
        l2_tag: u64,
    ) -> (HitLevel, u64, u32) {
        let mut writebacks = 0u32;
        let (llc_set, llc_tag) = self.llc.set_and_tag(addr);
        let llc_hit = self.llc.lookup_at(llc_set, llc_tag, is_write).is_some();
        let mut promote_dirty = false;
        let (level, base) = if llc_hit {
            if self.inclusion == InclusionPolicy::Exclusive {
                promote_dirty = self.promote_from_exclusive_llc(addr);
            }
            (HitLevel::L3, self.latency.l3_hit)
        } else {
            if self.inclusion != InclusionPolicy::Exclusive {
                // Memory supplies the line; install it in the LLC (which
                // just missed, so the residency re-scan can be skipped).
                // An exclusive LLC is bypassed: it only ever holds victims.
                let fill = self.llc.fill_missing_at(llc_set, llc_tag, ctx, false);
                if let Some(evicted) = fill.evicted {
                    if evicted.dirty {
                        // Write-back to memory; latency folded into the miss.
                        writebacks += 1;
                    }
                    if self.inclusion == InclusionPolicy::Inclusive {
                        writebacks += self.back_invalidate(PhysAddr(evicted.addr.value()));
                    }
                }
            }
            (HitLevel::Memory, self.latency.memory)
        };

        // Install in the L2 on the way in (the L2 lookup missed and nothing
        // filled the L2 since; inclusive back-invalidation can only have
        // *removed* lines).
        let mut extra = 0;
        let fill = self.l2.fill_missing_at(l2_set, l2_tag, ctx, promote_dirty);
        if let Some(evicted) = fill.evicted {
            if evicted.dirty {
                extra += self.latency.deep_dirty_writeback;
            }
            writebacks += self.spill_l2_victim(evicted);
        }
        (level, base + extra, writebacks)
    }

    /// Exclusive-LLC hit: single-copy residency means the hit *moves* the
    /// line up.  Removes the LLC copy and returns its dirty bit, which rides
    /// along into the L2 install.
    #[cold]
    #[inline(never)]
    fn promote_from_exclusive_llc(&mut self, addr: PhysAddr) -> bool {
        self.llc.invalidate(addr).unwrap_or(false)
    }

    /// A store hit in a write-through L1: the store must synchronously
    /// update the L2 as well, which then holds the line dirty.  Adds the
    /// through-write latency and the spill chain's write-backs to `outcome`.
    #[cold]
    #[inline(never)]
    fn write_through_hit(
        &mut self,
        addr: PhysAddr,
        ctx: AccessContext,
        outcome: &mut AccessOutcome,
    ) {
        outcome.cycles += self.latency.write_through_store;
        let fill = self.l2.fill(addr, ctx, true);
        if let Some(evicted) = fill.evicted {
            // The outcome counts the spill chain like every other path (see
            // `AccessOutcome::writebacks`).
            outcome.writebacks = self.spill_l2_victim(evicted);
        }
    }

    /// A store miss in a write-through L1, which does not allocate: the
    /// store goes directly to the L2 (already looked up by the caller) and
    /// the L1 is untouched.  Makes sure the L2 holds the line dirty and
    /// returns the updated `(cycles, writebacks)`.
    #[cold]
    #[inline(never)]
    fn store_around_l1(
        &mut self,
        addr: PhysAddr,
        ctx: AccessContext,
        mut cycles: u64,
        mut writebacks: u32,
    ) -> (u64, u32) {
        let fill = self.l2.fill(addr, ctx, true);
        if let Some(evicted) = fill.evicted {
            if evicted.dirty {
                cycles += self.latency.deep_dirty_writeback;
            }
            writebacks += self.spill_l2_victim(evicted);
        }
        (cycles, writebacks)
    }

    /// Handles an L1 read miss under the random-fill defense: the demanded
    /// line is sent to the core without being installed; a random line from
    /// the configured neighbourhood is filled instead.
    #[cold]
    #[inline(never)]
    fn random_fill_read(
        &mut self,
        addr: PhysAddr,
        ctx: AccessContext,
        hit: HitLevel,
        cycles: u64,
        writebacks: u32,
    ) -> AccessOutcome {
        let window = self.random_fill.map(|c| c.window.max(1)).unwrap_or(1);
        // xorshift64* step for a deterministic, cheap fill choice.
        let mut x = self.fill_rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.fill_rng_state = x;
        let offset =
            (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % (2 * window + 1)) as i64 - window as i64;
        let line_size = self.l1d.geometry().line_size as i64;
        let fill_target = (addr.value() as i64).saturating_add(offset.saturating_mul(line_size));
        let fill_addr = PhysAddr(fill_target.max(0) as u64);

        let mut cycles = cycles;
        let mut writebacks = writebacks;
        let mut victim_dirty = false;
        let mut evicted_addr = None;
        let mut filled = false;
        // Only fill the alternative line if it is already cached somewhere
        // below (the RF cache fetches it in the background; a line that would
        // miss all the way to memory is skipped by this model).
        if self.l2.contains(fill_addr) || self.llc.contains(fill_addr) {
            let fill = self.l1d.fill(fill_addr, ctx, false);
            filled = fill.way.is_some();
            if let Some(evicted) = fill.evicted {
                evicted_addr = Some(evicted.addr);
                if evicted.dirty {
                    // The write-back still occupies the L1 fill port, so the
                    // demand read observes it — which is why a *small* fill
                    // window does not defeat the WB channel (Sec. VIII).
                    victim_dirty = true;
                    cycles += self.latency.l1_dirty_writeback;
                    writebacks += 1 + self
                        .push_writeback_to_l2(evicted)
                        .map_or(0, |spill| self.spill_l2_victim(spill));
                }
            }
        }
        AccessOutcome {
            kind: AccessKind::Read,
            hit,
            cycles,
            l1_filled: filled,
            l1_evicted: evicted_addr,
            l1_victim_dirty: victim_dirty,
            writebacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy(policy: PolicyKind) -> CacheHierarchy {
        CacheHierarchy::xeon_e5_2650(policy, 99)
    }

    fn addr(set: usize, tag: u64) -> PhysAddr {
        PhysAddr::from_set_and_tag(set, tag, CacheGeometry::xeon_l1d())
    }

    #[test]
    fn first_access_goes_to_memory_then_hits_in_l1() {
        let mut h = hierarchy(PolicyKind::TrueLru);
        let ctx = AccessContext::default();
        let a = addr(0, 1);
        let miss = h.read(a, ctx);
        assert_eq!(miss.hit, HitLevel::Memory);
        assert!(miss.cycles >= h.latency_model().memory);
        let hit = h.read(a, ctx);
        assert_eq!(hit.hit, HitLevel::L1D);
        assert_eq!(hit.cycles, h.latency_model().l1_hit);
    }

    #[test]
    fn l2_hit_with_clean_vs_dirty_victim_matches_table_iv() {
        let mut h = hierarchy(PolicyKind::TrueLru);
        let ctx = AccessContext::default();
        let set = 7;
        let lat = h.latency_model();

        // Warm the set and the L2 with 9 lines (tags 0..9).
        for tag in 0..9u64 {
            h.read(addr(set, tag), ctx);
        }
        // Re-read tag 0 so it has to come from the L2, evicting a clean line.
        for tag in 0..16u64 {
            // Bring lines back so L2 holds everything.
            h.read(addr(set, tag), ctx);
        }
        // Clean victim case: read a line that is in L2 but not in L1.
        let clean = h.read(addr(set, 0), ctx);
        assert_eq!(clean.hit, HitLevel::L2);
        assert!(!clean.l1_victim_dirty);
        assert_eq!(clean.cycles, lat.l2_hit, "L2 hit + clean victim");

        // Dirty victim case: dirty a resident line, then force its eviction
        // by reading an L2-resident line that maps to the same set.
        let mut h = hierarchy(PolicyKind::TrueLru);
        for tag in 0..16u64 {
            h.read(addr(set, tag), ctx);
        }
        // L1 now holds tags 8..16; dirty the LRU one (tag 8).
        h.write(addr(set, 8), ctx);
        // Touch the others so tag 8 becomes LRU again.
        for tag in 9..16u64 {
            h.read(addr(set, tag), ctx);
        }
        let dirty = h.read(addr(set, 0), ctx);
        assert_eq!(dirty.hit, HitLevel::L2);
        assert!(dirty.l1_victim_dirty, "the dirty line must be the victim");
        assert_eq!(
            dirty.cycles,
            lat.l2_hit_dirty_victim(),
            "L2 hit + dirty victim costs the write-back penalty"
        );
        assert!(dirty.cycles > clean.cycles);
    }

    #[test]
    fn store_miss_write_allocates_and_dirties_the_line() {
        let mut h = hierarchy(PolicyKind::TreePlru);
        let ctx = AccessContext::default();
        let a = addr(3, 5);
        let outcome = h.write(a, ctx);
        assert!(outcome.l1_filled);
        assert!(
            h.l1().is_dirty(a),
            "write-allocate must install a dirty line"
        );
        assert_eq!(h.l1().dirty_count_in_set(3), 1);
    }

    #[test]
    fn write_through_l1_never_holds_dirty_lines() {
        let config = HierarchyConfig::write_through_l1(PolicyKind::TreePlru, 1);
        let mut h = CacheHierarchy::new(config).unwrap();
        let lat = h.latency_model();
        let ctx = AccessContext::default();
        let a = addr(3, 5);
        h.read(a, ctx);
        let store = h.write(a, ctx);
        assert_eq!(
            store.cycles,
            lat.l1_hit + lat.write_through_store,
            "a store hit pays the L1 hit and the through-write"
        );
        assert!(!h.l1().is_dirty(a));
        assert!(h.l2().is_dirty(a), "the through-write dirties the L2 copy");
        assert_eq!(h.l1().dirty_count_in_set(3), 0);
        // A store miss does not allocate in the L1; the L2 takes the store.
        let b = addr(3, 9);
        let valid = h.l1().valid_count_in_set(3);
        h.write(b, ctx);
        assert!(!h.l1().contains(b));
        assert_eq!(h.l1().valid_count_in_set(3), valid);
        assert!(h.l2().is_dirty(b), "the store miss dirties the L2 line");
    }

    #[test]
    fn flush_removes_the_line_from_every_level() {
        let mut h = hierarchy(PolicyKind::TreePlru);
        let ctx = AccessContext::default();
        let a = addr(10, 4);
        h.write(a, ctx);
        let flush = h.flush(a);
        assert!(
            flush.writebacks >= 1,
            "dirty line flush performs a write-back"
        );
        assert!(!h.l1().contains(a));
        assert!(!h.l2().contains(a));
        assert!(!h.llc().contains(a));
        let reload = h.read(a, ctx);
        assert_eq!(reload.hit, HitLevel::Memory);
    }

    #[test]
    fn replacement_sweep_latency_scales_with_dirty_count() {
        // The end-to-end property behind Figure 4: sweeping a target set with
        // a replacement set of 10 lines costs ~10 extra cycles per dirty line.
        let ctx_receiver = AccessContext::for_domain(0);
        let ctx_sender = AccessContext::for_domain(1);
        let set = 21;
        let sweep = |h: &mut CacheHierarchy, tags: std::ops::Range<u64>| -> u64 {
            tags.map(|t| h.read(addr(set, 1000 + t), ctx_receiver).cycles)
                .sum()
        };
        let mut totals = Vec::new();
        for d in 0..=8usize {
            let mut h = hierarchy(PolicyKind::TrueLru);
            //

            // Receiver initialisation: fill the target set with clean lines
            // and warm the replacement sets into the L2.
            for t in 0..8u64 {
                h.read(addr(set, t), ctx_receiver);
            }
            for t in 0..20u64 {
                h.read(addr(set, 1000 + t), ctx_receiver);
            }
            for t in 0..8u64 {
                h.read(addr(set, t), ctx_receiver);
            }
            // Sender encoding: dirty `d` lines of the target set.
            for t in 0..d as u64 {
                h.write(addr(set, t), ctx_sender);
            }
            // Receiver decoding: sweep with replacement set of 10 lines.
            totals.push(sweep(&mut h, 0..10));
        }
        let penalty = LatencyModel::xeon_e5_2650().per_dirty_line_penalty();
        for d in 1..=8usize {
            let delta = totals[d] as i64 - totals[d - 1] as i64;
            assert!(
                (delta - penalty as i64).abs() <= 2,
                "dirty line {d} should add ~{penalty} cycles, added {delta} (totals {totals:?})"
            );
        }
    }

    /// A 1-way, 1-set hierarchy at every level: eviction chains are exact.
    /// The spill-chain tests predate inclusion policies and pin the
    /// eviction-independent (non-inclusive) accounting.
    fn one_way_hierarchy() -> CacheHierarchy {
        tiny_hierarchy(InclusionPolicy::NonInclusive, WritebackRouting::NextLevel)
    }

    fn tiny_hierarchy(inclusion: InclusionPolicy, writeback: WritebackRouting) -> CacheHierarchy {
        let tiny = |level| {
            crate::config::CacheConfig::builder(level)
                .size_bytes(64)
                .associativity(1)
                .line_size(64)
                .replacement(PolicyKind::TrueLru)
                .build()
                .expect("tiny geometry is valid")
        };
        let config = HierarchyConfig {
            l1d: tiny(crate::config::CacheLevel::L1D),
            l2: tiny(crate::config::CacheLevel::L2),
            llc: tiny(crate::config::CacheLevel::L3),
            inclusion,
            writeback,
            latency: LatencyModel::xeon_e5_2650(),
            l1_random_fill: None,
            seed: 0,
        };
        CacheHierarchy::new(config).expect("tiny hierarchy is valid")
    }

    #[test]
    fn inclusive_llc_eviction_back_invalidates_upper_copies() {
        let mut h = tiny_hierarchy(InclusionPolicy::Inclusive, WritebackRouting::NextLevel);
        let g = h.l1_geometry();
        let ctx = AccessContext::default();
        let a = PhysAddr::from_set_and_tag(0, 1, g);
        let b = PhysAddr::from_set_and_tag(0, 2, g);
        // A sits dirty in the L1 with clean copies below.
        h.write(a, ctx);
        assert!(h.l1().is_dirty(a) && h.l2().contains(a) && h.llc().contains(a));
        // B's LLC fill evicts A; inclusion forces the L1/L2 copies out too,
        // and the dirty L1 copy must reach memory.
        let outcome = h.read(b, ctx);
        assert!(!h.l1().contains(a) && !h.l2().contains(a) && !h.llc().contains(a));
        assert_eq!(outcome.writebacks, 1, "the dirty back-invalidated copy");
        assert_eq!(outcome.hit, HitLevel::Memory);
        // A's dirty data left the hierarchy: no level holds a dirty line.
        for level in [h.l1(), h.l2(), h.llc()] {
            assert_eq!(level.valid_count_in_set(0), 1, "B alone");
            assert_eq!(level.dirty_count_in_set(0), 0);
        }
    }

    #[test]
    fn exclusive_llc_holds_only_victims_and_hits_promote() {
        let mut h = tiny_hierarchy(InclusionPolicy::Exclusive, WritebackRouting::NextLevel);
        let g = h.l1_geometry();
        let ctx = AccessContext::default();
        let a = PhysAddr::from_set_and_tag(0, 1, g);
        let b = PhysAddr::from_set_and_tag(0, 2, g);
        // A miss fill bypasses the LLC entirely.
        h.read(a, ctx);
        assert!(h.l1().contains(a) && h.l2().contains(a));
        assert!(!h.llc().contains(a), "fills bypass an exclusive LLC");
        // B displaces A from L2 (and the folded L1 copy): the victim — clean
        // — lands in the LLC, nowhere above.
        h.read(b, ctx);
        assert!(h.llc().contains(a) && !h.l1().contains(a) && !h.l2().contains(a));
        assert!(!h.llc().is_dirty(a));
        assert!(!h.llc().contains(b), "B's own fill bypassed the LLC");
        // Hitting A again moves it back up and out of the LLC.
        let promoted = h.read(a, ctx);
        assert_eq!(promoted.hit, HitLevel::L3);
        assert!(
            !h.llc().contains(a),
            "an exclusive hit removes the LLC copy"
        );
        assert!(h.l1().contains(a) && h.l2().contains(a));
    }

    #[test]
    fn exclusive_promotion_preserves_the_dirty_bit() {
        let mut h = tiny_hierarchy(InclusionPolicy::Exclusive, WritebackRouting::NextLevel);
        let g = h.l1_geometry();
        let ctx = AccessContext::default();
        let a = PhysAddr::from_set_and_tag(0, 1, g);
        let b = PhysAddr::from_set_and_tag(0, 2, g);
        h.write(a, ctx);
        // Evicting dirty A out of L1+L2 folds the dirty bit into the LLC
        // victim.
        h.read(b, ctx);
        assert!(h.llc().is_dirty(a), "the victim carries its dirty bit");
        // Promoting A back up re-creates a dirty upper copy; nothing was
        // written to memory along the way.
        let promoted = h.read(a, ctx);
        assert!(h.l2().is_dirty(a), "promotion must not lose dirtiness");
        assert!(!h.llc().contains(a));
        // A is served by the LLC and B's victim spill is clean: no memory
        // traffic either way.
        assert_eq!(promoted.hit, HitLevel::L3);
        assert_eq!(promoted.writebacks, 0);
        assert!(h.llc().contains(b) && !h.llc().is_dirty(b));
    }

    #[test]
    fn point_of_coherency_routes_dirty_victims_to_memory() {
        let mut h = tiny_hierarchy(
            InclusionPolicy::NonInclusive,
            WritebackRouting::PointOfCoherency,
        );
        let g = h.l1_geometry();
        let ctx = AccessContext::default();
        let a = PhysAddr::from_set_and_tag(0, 1, g);
        let b = PhysAddr::from_set_and_tag(0, 2, g);
        h.write(a, ctx);
        // B evicts dirty A from the L1: the data goes straight to memory and
        // the L2 keeps only a *clean* copy — deep levels never turn dirty.
        let outcome = h.read(b, ctx);
        assert!(outcome.l1_victim_dirty);
        assert_eq!(outcome.hit, HitLevel::Memory);
        // A's dirty write-back is the only one: B's LLC and L2 fills evict
        // clean copies of A.
        assert_eq!(outcome.writebacks, 1);
        assert!(h.l2().contains(a));
        assert!(!h.l2().is_dirty(a), "PoC write-backs leave the L2 clean");
        for level in [h.l1(), h.l2(), h.llc()] {
            assert_eq!(level.dirty_count_in_set(0), 0);
        }
    }

    #[test]
    fn preset_labels_are_distinct_and_intel_matches_the_default() {
        let labels: std::collections::HashSet<&str> =
            HierarchyPreset::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), HierarchyPreset::ALL.len());
        let intel = HierarchyPreset::IntelInclusive
            .config(PolicyKind::TreePlru, 16, 7)
            .expect("intel preset is valid");
        assert_eq!(
            intel,
            HierarchyConfig::xeon_e5_2650(PolicyKind::TreePlru, 7)
        );
        let arm = HierarchyPreset::ArmPoc
            .config(PolicyKind::TreePlru, 16, 7)
            .expect("arm preset is valid");
        assert_eq!(arm.writeback, WritebackRouting::PointOfCoherency);
        assert_eq!(arm.inclusion, InclusionPolicy::NonInclusive);
        // The 8-way LLC variant is a realisable geometry for every preset.
        for preset in HierarchyPreset::ALL {
            let config = preset
                .config(PolicyKind::Srrip, 8, 1)
                .expect("8-way LLC is valid");
            assert_eq!(config.llc.geometry.associativity, 8);
            CacheHierarchy::new(config).expect("preset hierarchies construct");
        }
    }

    #[test]
    fn flush_charges_l1_dirty_full_penalty_but_deep_dirty_only_deep() {
        let ctx = AccessContext::default();
        let lat = LatencyModel::xeon_e5_2650();
        let set = 11;

        // Clean-resident line: no write-back at any level.
        let mut h = hierarchy(PolicyKind::TrueLru);
        h.read(addr(set, 1), ctx);
        let clean = h.flush(addr(set, 1));
        assert_eq!(clean.writebacks, 0);
        assert_eq!(clean.cycles, lat.l1_hit + lat.l1_hit + lat.l2_hit);

        // L1-dirty line (L2/LLC copies clean): one full L1 write-back.
        let mut h = hierarchy(PolicyKind::TrueLru);
        h.write(addr(set, 1), ctx);
        assert!(h.l1().is_dirty(addr(set, 1)));
        assert!(!h.l2().is_dirty(addr(set, 1)) && !h.llc().is_dirty(addr(set, 1)));
        let l1_dirty = h.flush(addr(set, 1));
        assert_eq!(l1_dirty.writebacks, 1);
        assert_eq!(
            l1_dirty.cycles,
            lat.l1_hit + lat.l1_dirty_writeback + lat.l1_hit + lat.l2_hit
        );
        assert!(!h.l1().contains(addr(set, 1)));

        // L2-dirty line (evicted dirty from the L1 first): the deep copy
        // costs only the deep write-back penalty, not the L1 one.
        let mut h = hierarchy(PolicyKind::TrueLru);
        h.write(addr(set, 1), ctx);
        for tag in 2..10u64 {
            h.read(addr(set, tag), ctx); // 8 fills evict the dirty line to L2
        }
        assert!(!h.l1().contains(addr(set, 1)));
        assert!(h.l2().is_dirty(addr(set, 1)));
        assert!(!h.llc().is_dirty(addr(set, 1)));
        let deep_dirty = h.flush(addr(set, 1));
        assert_eq!(deep_dirty.writebacks, 1);
        assert_eq!(
            deep_dirty.cycles,
            lat.l1_hit + lat.deep_dirty_writeback + lat.l1_hit + lat.l2_hit
        );
        assert!(!h.l2().contains(addr(set, 1)) && !h.llc().contains(addr(set, 1)));
        assert!(
            deep_dirty.cycles < l1_dirty.cycles,
            "a deep dirty copy must be cheaper to flush than an L1-dirty one"
        );
    }

    #[test]
    fn three_level_spill_chain_counts_every_writeback() {
        // 1-way caches make the spill chain exact: writes A..D leave
        // L1{D*} L2{C*} LLC{B*} all dirty; a prefetch of E then triggers the
        // full L1 -> L2 -> LLC -> memory chain in one push.
        let mut h = one_way_hierarchy();
        let g = h.l1_geometry();
        let ctx = AccessContext::default();
        let line = |tag| PhysAddr::from_set_and_tag(0, tag, g);
        for tag in 0..4u64 {
            h.write(line(tag), ctx);
        }
        assert!(h.l1().is_dirty(line(3)));
        assert!(h.l2().is_dirty(line(2)));
        assert!(h.llc().is_dirty(line(1)));
        let outcome = h.prefetch_into_l1(line(4), ctx);
        assert_eq!(
            outcome.writebacks, 3,
            "one write-back per level of the chain"
        );
        // Each dirty line moved down one level: D from the L1 into the L2,
        // C from the L2 into the LLC, and B out of the LLC to memory.
        assert!(h.l1().contains(line(4)) && !h.l1().is_dirty(line(4)));
        assert!(h.l2().is_dirty(line(3)), "the L1 victim lands dirty");
        assert!(h.llc().is_dirty(line(2)), "the spilled L2 line lands dirty");
        assert!(
            [h.l1(), h.l2(), h.llc()]
                .iter()
                .all(|c| !c.contains(line(1))),
            "the dirty LLC victim must reach memory, not vanish"
        );
    }

    #[test]
    fn demand_outcomes_count_deep_writebacks_consistently() {
        // Same 1-way setup driven through the demand path: the outcome's
        // `writebacks` field must count the whole chain, as flush does.
        let mut h = one_way_hierarchy();
        let g = h.l1_geometry();
        let ctx = AccessContext::default();
        let line = |tag| PhysAddr::from_set_and_tag(0, tag, g);
        for tag in 0..4u64 {
            h.write(line(tag), ctx);
        }
        // Demand write of E: the LLC fill evicts dirty B to memory, the L2
        // fill spills dirty C into the LLC, and the L1 fill pushes dirty D
        // into the L2 (evicting the just-installed clean E copy there).
        let outcome = h.write(line(4), ctx);
        assert_eq!(outcome.writebacks, 3, "outcome: {outcome:?}");
        assert!(outcome.l1_victim_dirty);
    }

    #[test]
    fn adjacent_seeds_produce_distinct_policy_streams() {
        // `seed | 1` and the xor-constant decorrelation used to make seeds
        // 2k and 2k+1 share RNG streams; SplitMix64 derivation must not.
        let ctx = AccessContext::default();
        let victims = |seed: u64| -> Vec<Option<crate::addr::LineAddr>> {
            let mut h = hierarchy_with_seed(seed);
            let mut observed = Vec::new();
            for tag in 0..64u64 {
                let outcome = h.read(addr(5, tag), ctx);
                observed.push(outcome.l1_evicted);
            }
            observed
        };
        assert_ne!(
            victims(6),
            victims(7),
            "seeds 2k and 2k+1 must drive different random-replacement streams"
        );
    }

    fn hierarchy_with_seed(seed: u64) -> CacheHierarchy {
        let mut config = HierarchyConfig::xeon_e5_2650(PolicyKind::Random, seed);
        config.l1d.replacement = PolicyKind::Random;
        CacheHierarchy::new(config).expect("valid")
    }

    #[test]
    fn adjacent_seeds_produce_distinct_random_fill_streams() {
        let ctx = AccessContext::default();
        let fills = |seed: u64| -> Vec<u64> {
            let mut config = HierarchyConfig::xeon_e5_2650(PolicyKind::TrueLru, seed);
            config.l1_random_fill = Some(RandomFillConfig { window: 8 });
            let mut h = CacheHierarchy::new(config).expect("valid");
            let g = h.l1_geometry();
            // Warm a window of lines into the L2 so random fills can land.
            let warm: Vec<PhysAddr> = (0..32u64).map(|i| PhysAddr(0x10_000 + i * 64)).collect();
            let mut observed = Vec::new();
            for _ in 0..4 {
                for &a in &warm {
                    h.read(a, ctx);
                }
                for set in 0..g.num_sets {
                    observed.push(h.l1().valid_count_in_set(set) as u64);
                }
            }
            observed
        };
        assert_ne!(
            fills(6),
            fills(7),
            "seeds 2k and 2k+1 must drive different random-fill streams"
        );
    }

    #[test]
    fn run_trace_matches_per_access_calls_exactly() {
        let ctx = AccessContext::for_domain(1);
        let g = CacheGeometry::xeon_l1d();
        let ops: Vec<TraceOp> = (0..200u64)
            .map(|i| {
                let a = PhysAddr::from_set_and_tag((i % 16) as usize, i / 7, g);
                match i % 5 {
                    0 => TraceOp::write(a),
                    4 => TraceOp::flush(a),
                    _ => TraceOp::read(a),
                }
            })
            .collect();

        let mut batched = hierarchy(PolicyKind::TreePlru);
        let summary = batched.run_trace(&ops, ctx);

        let mut serial = hierarchy(PolicyKind::TreePlru);
        let mut expected = TraceSummary::default();
        for op in &ops {
            let outcome = match op.kind {
                TraceKind::Read => serial.read(op.addr, ctx),
                TraceKind::Write => serial.write(op.addr, ctx),
                TraceKind::Flush => serial.flush(op.addr),
            };
            expected.absorb(&outcome);
        }
        assert_eq!(summary, expected);
        assert_eq!(summary.ops, 200);
        let levels = |h: &CacheHierarchy| -> Vec<(usize, usize)> {
            [h.l1(), h.l2(), h.llc()]
                .iter()
                .flat_map(|c| {
                    (0..16).map(|set| (c.valid_count_in_set(set), c.dirty_count_in_set(set)))
                })
                .collect()
        };
        assert_eq!(levels(&batched), levels(&serial));
    }
}
