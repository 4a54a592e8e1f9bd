//! # sim-cache
//!
//! A cycle-attributed, set-associative cache-hierarchy simulator built as the
//! hardware substrate for reproducing *Abusing Cache Line Dirty States to
//! Leak Information in Commercial Processors* (HPCA 2022).
//!
//! The paper's WB covert channel relies on a small number of
//! micro-architectural facts, all of which this crate models explicitly:
//!
//! * write-back caches keep a **dirty bit** per line and only update the
//!   backing store when a dirty line is evicted
//!   ([`cache::Cache::dirty_count_in_set`]);
//! * evicting a dirty victim therefore costs a **write-back penalty** on top
//!   of the fill latency ([`latency::LatencyModel`], calibrated to the
//!   paper's Table IV);
//! * which line becomes the victim is decided by a **replacement policy**
//!   ([`policy`]): true LRU, Tree-PLRU, pseudo-random (LFSR), an
//!   "Intel-like" imperfect PLRU that approximates the undocumented
//!   Xeon E5-2650 behaviour of the paper's Table II, plus NRU and SRRIP as
//!   extensions;
//! * victim selection can be restricted by **way masks** and **line locks**
//!   ([`waymask::WayMask`], [`cache::Cache::lock_line`]) which is how the
//!   NoMo / DAWG / PLcache defenses are expressed.
//!
//! The top-level entry point is [`hierarchy::CacheHierarchy`], a three-level
//! (L1D, L2, LLC) hierarchy in front of a flat memory model. Every access
//! returns an [`outcome::AccessOutcome`] describing where it hit, whether the
//! L1 victim was dirty, and how many cycles it took — the quantity the WB
//! channel receiver measures.
//!
//! ## Example
//!
//! ```rust
//! use sim_cache::prelude::*;
//!
//! # fn main() -> Result<(), sim_cache::Error> {
//! // A hierarchy shaped like the paper's Xeon E5-2650 L1D (32 KiB, 8-way).
//! let mut hierarchy = CacheHierarchy::xeon_e5_2650(PolicyKind::TreePlru, 42);
//!
//! let set = 13;
//! let a = PhysAddr::from_set_and_tag(set, 1, hierarchy.l1_geometry());
//! let b = PhysAddr::from_set_and_tag(set, 2, hierarchy.l1_geometry());
//!
//! // A store makes the line dirty; evicting it later costs the write-back
//! // penalty, which is exactly the signal the WB channel measures.
//! hierarchy.write(a, AccessContext::default());
//! let clean_evict = hierarchy.read(b, AccessContext::default());
//! assert!(clean_evict.cycles >= hierarchy.latency_model().l1_hit);
//! # Ok(())
//! # }
//! ```
//!
//! All randomness is driven by explicit seeds so that experiments are
//! reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod latency;
pub mod line;
pub mod outcome;
pub mod policy;
pub mod seed;
pub mod trace;
pub mod waymask;

mod error;

pub use error::Error;

/// Convenient glob-import of the most frequently used types.
pub mod prelude {
    pub use crate::addr::{CacheGeometry, LineAddr, PhysAddr};
    pub use crate::cache::{AccessContext, Cache};
    pub use crate::config::{CacheConfig, CacheConfigBuilder, CacheLevel, WritePolicy};
    pub use crate::hierarchy::{
        CacheHierarchy, HierarchyConfig, HierarchyPreset, InclusionPolicy, WritebackRouting,
    };
    pub use crate::latency::LatencyModel;
    pub use crate::outcome::{AccessKind, AccessOutcome, HitLevel};
    pub use crate::policy::PolicyKind;
    pub use crate::trace::{TraceKind, TraceOp, TraceSummary};
    pub use crate::waymask::WayMask;
}

/// A convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;
