//! The scenario descriptor: one registered experiment of the evaluation.
//!
//! A scenario is a sweep of independent *points* (one eviction-set size, one
//! transmission period, one defense, …). Each point runs in isolation with a
//! pre-derived seed and returns a [`PointOutput`]; when all points of a
//! scenario have completed, its `assemble` function folds the outputs — in
//! point order — into the final named [`Table`]s. The split is what lets the
//! executor fan points out across threads without changing any result.

use crate::scale::Scale;
use analysis::table::Table;

/// Everything a sweep point gets to see when it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointCtx {
    /// Experiment scale (resolves to one `Sizes` row).
    pub scale: Scale,
    /// The point's pre-derived RNG seed (see [`crate::seed`]).
    pub seed: u64,
    /// Index of this point within the scenario's sweep.
    pub index: usize,
}

/// What one sweep point produces.
///
/// `rows` become rows of the scenario's primary table (in point order);
/// `values` carry raw numbers forward for assemblies that need cross-point
/// arithmetic (e.g. the WB/LRU load ratio of Table VI); `aux` carries rows
/// for secondary output tables (e.g. the raw Figure 4 CDF points).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointOutput {
    /// Rows for the scenario's primary table.
    pub rows: Vec<Vec<String>>,
    /// Raw values for cross-point assembly arithmetic.
    pub values: Vec<f64>,
    /// `(output stem, rows)` for auxiliary tables.
    pub aux: Vec<(String, Vec<Vec<String>>)>,
    /// Simulated cycles this point attributed to memory operations
    /// (sourced from the trace engine's `TraceSummary`s; zero when the
    /// point does not instrument its simulation).
    pub sim_cycles: u64,
    /// Simulated demand accesses this point executed (same source).
    pub sim_accesses: u64,
    /// Simulated cycles attributed to each protocol phase, in
    /// [`PHASE_LABELS`] order (all zero when the point does not instrument
    /// its simulation).
    pub phase_cycles: [u64; PHASE_COUNT],
}

/// Number of protocol-phase slots in [`PointOutput::phase_cycles`].
pub const PHASE_COUNT: usize = 7;

/// Labels of the phase-cycle slots, in slot order.
///
/// The order mirrors the simulator's telemetry phase taxonomy
/// (`sim_core::telemetry::Phase::ALL`); the runner itself stays domain-free
/// and treats these as opaque manifest column labels.
pub const PHASE_LABELS: [&str; PHASE_COUNT] = [
    "calibrate",
    "prime",
    "encode",
    "wait",
    "decode",
    "noise",
    "other",
];

impl PointOutput {
    /// A point output consisting of a single primary-table row.
    pub fn row<I, S>(cells: I) -> PointOutput
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        PointOutput {
            rows: vec![cells.into_iter().map(Into::into).collect()],
            ..PointOutput::default()
        }
    }
}

/// Runs one sweep point. Errors are strings so the runner stays domain-free.
pub type PointFn = fn(&PointCtx) -> Result<PointOutput, String>;

/// Folds all point outputs (in point order) into `(output stem, table)`
/// pairs. The first pair is the scenario's primary table.
pub type AssembleFn = fn(Scale, &[PointOutput]) -> Vec<(String, Table)>;

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Stable id used on the command line and in the manifest (kebab-case).
    pub id: &'static str,
    /// The paper artefact this reproduces (e.g. `"Table II"`).
    pub paper_ref: &'static str,
    /// The paper section the artefact appears in (e.g. `"Sec. IV-B"`).
    pub section: &'static str,
    /// One-line description for `repro list` and the architecture docs.
    pub summary: &'static str,
    /// Number of sweep points at a given scale.
    pub points: fn(Scale) -> usize,
    /// Runs one sweep point.
    pub run_point: PointFn,
    /// Assembles the point outputs into output tables.
    pub assemble: AssembleFn,
}

impl Scenario {
    /// The seed of point `index` under root seed `root`.
    pub fn point_seed(&self, root: u64, index: usize) -> u64 {
        crate::seed::point_seed(root, self.id, index)
    }

    /// The scenario-level seed recorded in the manifest.
    pub fn manifest_seed(&self, root: u64) -> u64 {
        crate::seed::scenario_seed(root, self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_helper_builds_one_row() {
        let out = PointOutput::row(["a", "b"]);
        assert_eq!(out.rows, vec![vec!["a".to_owned(), "b".to_owned()]]);
        assert!(out.values.is_empty() && out.aux.is_empty());
    }
}
