//! # baselines
//!
//! The two baseline cache covert channels the paper runs head-to-head with
//! the WB channel, on the same simulator substrate — Figure 8's noise
//! robustness and Table VI's sender footprint:
//!
//! * [`prime_probe::PrimeProbe`] — Prime+Probe (Hit+Miss, contention-based).
//! * [`lru_channel::LruChannel`] — the LRU-state channel of Xiong & Szefer,
//!   the closest prior work.
//! * [`common`] — the calibrate-then-transmit period loop both run, and
//!   their report.
//! * [`comparison`] — the classification table (Table I, whose reuse-based
//!   rows are static), the Figure 8 noise-robustness experiment and Table VI
//!   load estimates.
//!
//! ## Example
//!
//! ```rust
//! use baselines::prime_probe::PrimeProbe;
//!
//! # fn main() -> Result<(), wb_channel::Error> {
//! let report = PrimeProbe::new(7).transmit(&[true, false, true, false], None)?;
//! assert!(report.bit_error_rate <= 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod common;
pub mod comparison;
pub mod lru_channel;
pub mod prime_probe;

pub use common::{BaselineReport, NoiseSpec};
pub use comparison::{classification_table, noise_robustness_comparison};
pub use lru_channel::LruChannel;
pub use prime_probe::PrimeProbe;
