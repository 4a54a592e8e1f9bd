//! # dirty-cache-repro
//!
//! Meta-crate for the reproduction of *Abusing Cache Line Dirty States to
//! Leak Information in Commercial Processors* (Cui, Yang, Cheng — HPCA 2022).
//!
//! This crate simply re-exports the workspace members so that the examples
//! and integration tests in the repository root can exercise the whole stack
//! through a single dependency:
//!
//! * [`sim_cache`] — set-associative write-back cache hierarchy simulator.
//! * [`sim_core`] — SMT core, TSC, OS-noise and workload substrate.
//! * [`analysis`] — statistics, thresholds, edit distance, table rendering.
//! * [`wb_channel`] — the paper's contribution: the WB covert/side channel.
//! * [`baselines`] — Prime+Probe and the LRU channel, Table I's classification.
//! * [`defenses`] — random-fill, partitioning, PLcache, DAWG, prefetch-guard,
//!   write-through and fuzzy-time defenses, with an evaluation harness.
//! * [`runner`] — the scenario registry and one-queue parallel executor
//!   behind the `repro` binary (see `docs/ARCHITECTURE.md`).
//! * [`service`] — the resident experiment service behind `repro serve`:
//!   HTTP job queue, content-addressed result cache, `/metrics`.
//!
//! ## Quickstart
//!
//! ```rust
//! use dirty_cache_repro::wb_channel::{ChannelConfig, ChannelSession, SymbolEncoding};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = ChannelConfig::builder()
//!     .encoding(SymbolEncoding::binary(1)?)
//!     .period_cycles(5_500)
//!     .seed(7)
//!     .build()?;
//! let mut session = ChannelSession::new(config)?;
//! let report = session.transmit_bits(&[true, false, true, true])?;
//! assert!(report.bit_error_rate() <= 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use analysis;
pub use baselines;
pub use defenses;
pub use runner;
pub use service;
pub use sim_cache;
pub use sim_core;
pub use wb_channel;
