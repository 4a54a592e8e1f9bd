//! Cache-level configuration.
//!
//! A [`CacheConfig`] fully describes one cache level: its geometry, its write
//! policy (the crux of the paper — write-back caches carry dirty bits,
//! write-through caches do not) and its replacement policy.  The write
//! policy also fixes what a store miss does: a write-back level allocates
//! the line, a write-through L1 forwards the store to the L2 without
//! filling.  Configurations are built through [`CacheConfigBuilder`] so
//! that experiment code reads declaratively.

use crate::addr::CacheGeometry;
use crate::policy::PolicyKind;
use std::fmt;

/// Which level of the hierarchy a cache occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheLevel {
    /// First-level data cache (the level the WB channel targets).
    L1D,
    /// Unified second-level cache.
    L2,
    /// Shared last-level cache.
    L3,
}

impl CacheLevel {
    /// All levels, ordered from closest to the core outwards.
    pub const ALL: [CacheLevel; 3] = [CacheLevel::L1D, CacheLevel::L2, CacheLevel::L3];

    /// A short label used in tables ("L1D", "L2", "LLC").
    pub fn label(self) -> &'static str {
        match self {
            CacheLevel::L1D => "L1D",
            CacheLevel::L2 => "L2",
            CacheLevel::L3 => "LLC",
        }
    }
}

impl fmt::Display for CacheLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Write-hit policy.
///
/// * `WriteBack` — stores only update the cache and set the dirty bit; the
///   backing store is updated when the line is evicted.  A store miss
///   allocates the line (write-allocate).  This is the policy the WB
///   channel requires and the one deployed in the paper's target CPUs.
/// * `WriteThrough` — stores update the cache *and* the next level
///   synchronously, so no dirty bit is needed.  A store miss in a
///   write-through L1 goes to the L2 without filling the L1
///   (no-write-allocate).  Section VIII of the paper discusses this as an
///   (expensive) defense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WritePolicy {
    /// Update the backing store lazily on eviction; keep a dirty bit.
    #[default]
    WriteBack,
    /// Update the backing store on every store; no dirty bit.
    WriteThrough,
}

/// Full configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Which level this cache occupies.
    pub level: CacheLevel,
    /// Geometry (capacity, associativity, line size, set count).
    pub geometry: CacheGeometry,
    /// Write policy (store hits and, in the L1, store misses).
    pub write_policy: WritePolicy,
    /// Replacement policy.
    pub replacement: PolicyKind,
}

impl CacheConfig {
    /// Starts building a configuration for the given level.
    pub fn builder(level: CacheLevel) -> CacheConfigBuilder {
        CacheConfigBuilder::new(level)
    }

    /// The paper's L1D: 32 KiB, 8-way, 64 B lines, write-back.
    pub fn xeon_l1d(replacement: PolicyKind) -> CacheConfig {
        CacheConfig {
            level: CacheLevel::L1D,
            geometry: CacheGeometry::xeon_l1d(),
            write_policy: WritePolicy::WriteBack,
            replacement,
        }
    }

    /// A Sandy-Bridge-like private L2 (256 KiB, 8-way, write-back).
    pub fn xeon_l2() -> CacheConfig {
        CacheConfig {
            level: CacheLevel::L2,
            geometry: CacheGeometry::xeon_l2(),
            write_policy: WritePolicy::WriteBack,
            replacement: PolicyKind::TreePlru,
        }
    }

    /// A scaled-down shared LLC (2 MiB, 16-way, write-back).
    pub fn scaled_llc() -> CacheConfig {
        CacheConfig {
            level: CacheLevel::L3,
            geometry: CacheGeometry::scaled_llc(),
            write_policy: WritePolicy::WriteBack,
            replacement: PolicyKind::TreePlru,
        }
    }
}

/// Builder for [`CacheConfig`].
///
/// # Examples
///
/// ```rust
/// use sim_cache::config::{CacheConfig, CacheLevel, WritePolicy};
/// use sim_cache::policy::PolicyKind;
///
/// # fn main() -> Result<(), sim_cache::Error> {
/// let config = CacheConfig::builder(CacheLevel::L1D)
///     .size_bytes(32 * 1024)
///     .associativity(8)
///     .line_size(64)
///     .replacement(PolicyKind::TrueLru)
///     .write_policy(WritePolicy::WriteBack)
///     .build()?;
/// assert_eq!(config.geometry.num_sets, 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CacheConfigBuilder {
    level: CacheLevel,
    size_bytes: usize,
    associativity: usize,
    line_size: usize,
    write_policy: WritePolicy,
    replacement: PolicyKind,
}

impl CacheConfigBuilder {
    /// Creates a builder pre-populated with the paper's L1D defaults.
    pub fn new(level: CacheLevel) -> CacheConfigBuilder {
        CacheConfigBuilder {
            level,
            size_bytes: 32 * 1024,
            associativity: 8,
            line_size: 64,
            write_policy: WritePolicy::WriteBack,
            replacement: PolicyKind::TreePlru,
        }
    }

    /// Sets the total capacity in bytes.
    pub fn size_bytes(&mut self, size: usize) -> &mut Self {
        self.size_bytes = size;
        self
    }

    /// Sets the associativity (ways per set).
    pub fn associativity(&mut self, ways: usize) -> &mut Self {
        self.associativity = ways;
        self
    }

    /// Sets the line size in bytes.
    pub fn line_size(&mut self, bytes: usize) -> &mut Self {
        self.line_size = bytes;
        self
    }

    /// Sets the write policy.
    pub fn write_policy(&mut self, policy: WritePolicy) -> &mut Self {
        self.write_policy = policy;
        self
    }

    /// Sets the replacement policy.
    pub fn replacement(&mut self, policy: PolicyKind) -> &mut Self {
        self.replacement = policy;
        self
    }

    /// Validates the accumulated parameters and produces a [`CacheConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidGeometry`] when the dimensions do not
    /// describe a realisable cache.
    pub fn build(&self) -> crate::Result<CacheConfig> {
        let geometry = CacheGeometry::new(self.size_bytes, self.associativity, self.line_size)?;
        Ok(CacheConfig {
            level: self.level,
            geometry,
            write_policy: self.write_policy,
            replacement: self.replacement,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_paper_l1() {
        let config = CacheConfig::builder(CacheLevel::L1D).build().unwrap();
        assert_eq!(config, CacheConfig::xeon_l1d(PolicyKind::TreePlru));
    }

    #[test]
    fn builder_accepts_custom_dimensions() {
        let config = CacheConfig::builder(CacheLevel::L2)
            .size_bytes(512 * 1024)
            .associativity(16)
            .line_size(64)
            .replacement(PolicyKind::TrueLru)
            .write_policy(WritePolicy::WriteThrough)
            .build()
            .unwrap();
        assert_eq!(config.geometry.num_sets, 512);
        assert_eq!(config.write_policy, WritePolicy::WriteThrough);
    }

    #[test]
    fn builder_rejects_invalid_geometry() {
        let err = CacheConfig::builder(CacheLevel::L1D)
            .line_size(48)
            .build()
            .unwrap_err();
        assert!(matches!(err, crate::Error::InvalidGeometry { .. }));
    }

    #[test]
    fn more_ways_than_a_mask_holds_are_rejected() {
        let wide = |ways| {
            CacheConfig::builder(CacheLevel::L1D)
                .size_bytes(16384)
                .associativity(ways)
                .replacement(PolicyKind::Srrip)
                .build()
        };
        let err = wide(128).unwrap_err();
        assert!(
            matches!(
                err,
                crate::Error::InvalidGeometry {
                    field: "associativity",
                    value: 128,
                    ..
                }
            ),
            "{err}"
        );
        // The same way count through a hierarchy preset's LLC.
        let preset = crate::hierarchy::HierarchyPreset::IntelInclusive;
        assert!(matches!(
            preset.config(PolicyKind::TreePlru, 128, 0),
            Err(crate::Error::InvalidGeometry {
                field: "associativity",
                ..
            })
        ));
        // 64 ways is the widest cache that builds.
        crate::cache::Cache::new(wide(64).unwrap(), 0).unwrap();
    }

    #[test]
    fn level_labels() {
        assert_eq!(CacheLevel::L1D.to_string(), "L1D");
        assert_eq!(CacheLevel::L2.to_string(), "L2");
        assert_eq!(CacheLevel::L3.to_string(), "LLC");
        assert_eq!(CacheLevel::ALL.len(), 3);
    }

    #[test]
    fn defaults_are_write_back_allocate() {
        assert_eq!(WritePolicy::default(), WritePolicy::WriteBack);
    }
}
