//! # analysis
//!
//! Measurement-analysis utilities shared by every experiment in the
//! reproduction of *Abusing Cache Line Dirty States to Leak Information in
//! Commercial Processors* (HPCA 2022):
//!
//! * [`stats`] — summary statistics (mean, standard deviation, percentiles)
//!   for latency samples.
//! * [`histogram`] — histograms and empirical CDFs, used to regenerate the
//!   paper's Figure 4.
//! * [`edit_distance`] — the edit distance the paper uses to score
//!   transmission error rates (Sec. V), covering bit flips, insertions and
//!   losses: one bit-parallel (Myers/Hyyrö) scorer for the distance and its
//!   per-type breakdown.
//! * [`threshold`] — latency-threshold calibration: a binary threshold for
//!   single-bit symbols and a k-level quantiser for multi-bit symbols.
//! * [`table`] — small Markdown/CSV/JSON table renderer used by the `repro`
//!   harness to emit every table and figure of the paper.
//! * [`json`] — the workspace's one JSON reader: result tables read back
//!   through [`table::Table::from_json`] and the experiment service's job
//!   specs.
//!
//! The crate is deliberately free of simulator dependencies so it can also be
//! used to post-process traces captured elsewhere.
//!
//! ## Example
//!
//! ```rust
//! use analysis::edit_distance::bit_error_rate;
//! use analysis::threshold::BinaryThreshold;
//!
//! let sent = [true, false, true, true];
//! let received = [true, false, false, true];
//! assert!((bit_error_rate(&sent, &received) - 0.25).abs() < 1e-12);
//!
//! let threshold = BinaryThreshold::calibrate(&[100.0, 102.0, 98.0], &[120.0, 122.0, 119.0]);
//! assert!(threshold.classify(125.0));
//! assert!(!threshold.classify(101.0));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod edit_distance;
pub mod histogram;
pub mod json;
pub mod stats;
pub mod table;
pub mod threshold;
