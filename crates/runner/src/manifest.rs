//! The run manifest: what ran, with which seeds, and where the outputs went.
//!
//! The manifest is an [`analysis::table::Table`] serialised with the crate's
//! hand-rolled JSON encoder, so downstream tooling can parse it back with
//! [`Table::from_json`] without any external dependency. Apart from the
//! wall-time column it is a pure function of `(root seed, scale, selection)`.

use crate::executor::ScenarioRun;
use analysis::table::{fixed, Table};
use std::io;
use std::path::{Path, PathBuf};

/// Column headers of the manifest table, in order.
///
/// The per-phase cycle columns (one per [`crate::scenario::PHASE_LABELS`]
/// entry) are appended after the original ten so positional consumers —
/// including [`WALL_MS_COLUMN`] — keep their indices.
pub const MANIFEST_HEADERS: [&str; 17] = [
    "id",
    "paper ref",
    "scale",
    "seed",
    "points",
    "sim cycles",
    "sim accesses",
    "wall (ms)",
    "status",
    "outputs",
    "calibrate cycles",
    "prime cycles",
    "encode cycles",
    "wait cycles",
    "decode cycles",
    "noise cycles",
    "other cycles",
];

/// Index of the only non-deterministic manifest column (wall time) — the
/// determinism tests blank it before comparing runs.
pub const WALL_MS_COLUMN: usize = 7;

/// Builds the manifest table for a set of completed scenario runs.
pub fn manifest_table(runs: &[ScenarioRun]) -> Table {
    let mut table = Table::new("repro run manifest", &MANIFEST_HEADERS);
    for run in runs {
        let outputs: Vec<String> = run
            .tables
            .iter()
            .map(|(stem, _)| format!("{stem}.{{md,csv,json}}"))
            .collect();
        let mut row = vec![
            run.id.to_owned(),
            run.paper_ref.to_owned(),
            run.scale.label().to_owned(),
            format!("{:#018x}", run.seed),
            run.points.to_string(),
            run.sim_cycles.to_string(),
            run.sim_accesses.to_string(),
            fixed(run.wall_ms, 1),
            run.error
                .clone()
                .map_or("ok".to_owned(), |e| format!("error: {e}")),
            outputs.join(" "),
        ];
        row.extend(run.phase_cycles.iter().map(u64::to_string));
        table.push_row(row);
    }
    table
}

/// Writes `manifest.json` under `out_dir` and returns its path.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing the file.
pub fn write_manifest(runs: &[ScenarioRun], out_dir: &Path) -> io::Result<PathBuf> {
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join("manifest.json");
    std::fs::write(&path, manifest_table(runs).to_json())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    fn run(id: &'static str, error: Option<String>) -> ScenarioRun {
        ScenarioRun {
            id,
            paper_ref: "Table II",
            scale: Scale::Quick,
            seed: 0xabcd,
            points: 3,
            wall_ms: 1.25,
            sim_cycles: 0,
            sim_accesses: 0,
            phase_cycles: [1, 2, 3, 4, 5, 6, 7],
            tables: vec![(id.to_owned(), Table::new("t", &["a"]))],
            error,
        }
    }

    #[test]
    fn phase_cycle_columns_follow_the_phase_labels_in_order() {
        use crate::scenario::PHASE_LABELS;
        for (i, label) in PHASE_LABELS.iter().enumerate() {
            assert_eq!(MANIFEST_HEADERS[10 + i], format!("{label} cycles"));
        }
        let table = manifest_table(&[run("table2", None)]);
        assert_eq!(table.rows[0][10..], ["1", "2", "3", "4", "5", "6", "7"]);
    }

    #[test]
    fn manifest_has_one_row_per_run_and_round_trips() {
        let runs = vec![run("table2", None), run("fig4", Some("boom".to_owned()))];
        let table = manifest_table(&runs);
        assert_eq!(table.len(), 2);
        assert_eq!(table.headers.len(), MANIFEST_HEADERS.len());
        assert_eq!(table.headers[WALL_MS_COLUMN], "wall (ms)");
        assert!(table.rows[0][8] == "ok");
        assert!(table.rows[1][8].starts_with("error: boom"));
        assert_eq!(table.headers[5], "sim cycles");
        assert_eq!(table.rows[0][5], "0");
        let back = Table::from_json(&table.to_json()).unwrap();
        assert_eq!(back, table);
    }

    #[test]
    fn write_manifest_creates_the_file() {
        let dir = std::env::temp_dir().join(format!("runner-manifest-{}", std::process::id()));
        let path = write_manifest(&[run("table2", None)], &dir).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(Table::from_json(&json).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
