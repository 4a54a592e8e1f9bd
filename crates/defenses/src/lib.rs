//! # defenses
//!
//! The defense catalogue of Section VIII of *Abusing Cache Line Dirty States
//! to Leak Information in Commercial Processors* and an evaluation harness
//! that measures how much of the WB channel survives each mitigation:
//!
//! * noise injection — Prefetch-guard, fuzzy time;
//! * randomisation — random replacement, the random-fill cache;
//! * partitioning — NoMo, DAWG, PLcache line locking;
//! * write-through L1 caches.
//!
//! The harness reports, per defense, the residual latency separation between
//! the channel's target set ([`wb_channel::TARGET_SET`]) when clean and when
//! holding [`evaluate::DIRTY_LINES`] dirty lines, and the accuracy of a
//! calibrated receiver, and compares the verdict against the paper's
//! expectation.
//!
//! ## Example
//!
//! ```rust
//! use defenses::{evaluate_defense, Defense, EvaluationConfig};
//!
//! # fn main() -> Result<(), wb_channel::Error> {
//! let config = EvaluationConfig { samples: 32, ..EvaluationConfig::default() };
//! let undefended = evaluate_defense(Defense::None, &config)?;
//! assert!(!undefended.mitigated);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod defense;
pub mod evaluate;

pub use defense::Defense;
pub use evaluate::{
    evaluate_all, evaluate_defense, evaluate_defense_majority, DefenseEvaluation, EvaluationConfig,
    MAJORITY_SEEDS,
};
