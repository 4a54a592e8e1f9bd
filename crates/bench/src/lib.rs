//! # bench
//!
//! The reproduction harness: every table and figure of the paper's
//! evaluation, registered as a [`runner`] scenario in [`scenarios`] and
//! executed — serially or fanned out across cores — by the `repro` binary.
//!
//! Each scenario carries a stable id (`table2`, `fig6`, …), its paper
//! cross-reference, and a sweep of independently runnable points; iteration
//! counts come from the central [`Scale`] sizing table so quick smoke runs
//! (`repro run all --quick`) and paper-scale reproductions (`--full`) share
//! one code path. See `docs/ARCHITECTURE.md` for the scenario ↔ paper map.
//!
//! ```rust
//! use bench::{registry, Scale};
//! use runner::{execute, RunConfig};
//!
//! let registry = registry();
//! let table2 = registry.get("table2").expect("registered");
//! let config = RunConfig {
//!     scale: Scale::Quick,
//!     threads: 2,
//!     root_seed: bench::SEED,
//!     progress: false,
//! };
//! let runs = execute(&[table2], &config);
//! assert_eq!(runs[0].tables[0].1.len(), 3); // N = 8, 9, 10
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bench_sim;
pub mod check;
pub mod scenarios;
pub mod trace;

pub use runner::scale::{Scale, Sizes};
pub use scenarios::{registry, ALL_SCENARIOS, SEED};

#[cfg(test)]
mod tests {
    use super::*;
    use runner::scenario::{PointCtx, Scenario};

    /// Runs every point of a scenario inline and assembles the outputs —
    /// the single-threaded reference path the executor must agree with.
    fn run_serial(scenario: &Scenario, scale: Scale) -> Vec<(String, analysis::table::Table)> {
        let outputs: Vec<_> = (0..(scenario.points)(scale))
            .map(|index| {
                let ctx = PointCtx {
                    scale,
                    seed: scenario.point_seed(SEED, index),
                    index,
                };
                (scenario.run_point)(&ctx).expect("point runs")
            })
            .collect();
        (scenario.assemble)(scale, &outputs)
    }

    fn primary(id: &str) -> analysis::table::Table {
        let registry = registry();
        let scenario = registry.get(id).expect("registered");
        run_serial(scenario, Scale::Quick).remove(0).1
    }

    #[test]
    fn registry_ids_are_unique_and_cover_the_paper() {
        let registry = registry();
        assert_eq!(registry.scenarios().len(), ALL_SCENARIOS.len());
        for scenario in registry.scenarios() {
            assert!((scenario.points)(Scale::Quick) >= 1, "{}", scenario.id);
            assert!(
                (scenario.points)(Scale::Full) >= (scenario.points)(Scale::Quick),
                "{}",
                scenario.id
            );
            assert!(!scenario.paper_ref.is_empty() && !scenario.section.is_empty());
        }
        for id in [
            "table2",
            "table5",
            "fig4",
            "fig6",
            "defenses",
            "sidechannel",
        ] {
            assert!(registry.get(id).is_some(), "missing {id}");
        }
    }

    #[test]
    fn table2_has_three_sizes_and_three_policies() {
        let table = primary("table2");
        assert_eq!(table.len(), 3);
        assert_eq!(table.headers.len(), 4);
    }

    #[test]
    fn table4_matches_paper_ranges() {
        let table = primary("table4");
        assert_eq!(table.len(), 3);
        assert!(table.to_markdown().contains("L1D hit"));
    }

    #[test]
    fn fig4_produces_nine_rows_with_monotone_medians_and_raw_cdfs() {
        let registry = registry();
        let scenario = registry.get("fig4").expect("registered");
        let tables = run_serial(scenario, Scale::Quick);
        assert_eq!(tables.len(), 2);
        let (main, raw) = (&tables[0].1, &tables[1].1);
        assert_eq!(main.len(), 9);
        assert!(!raw.is_empty());
        let medians: Vec<f64> = main
            .rows
            .iter()
            .map(|row| row[2].parse().expect("numeric median"))
            .collect();
        assert!(medians.windows(2).all(|w| w[1] >= w[0]), "{medians:?}");
    }

    #[test]
    fn table5_contains_both_dirty_counts() {
        let table = primary("table5");
        assert_eq!(table.len(), 12);
    }

    #[test]
    fn side_channel_experiment_reports_three_scenarios() {
        let table = primary("sidechannel");
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn traces_experiment_covers_figures_5_and_7() {
        let table = primary("fig5-7");
        assert_eq!(table.len(), 4);
        assert!(table.to_markdown().contains("Figure 7"));
    }

    #[test]
    fn fig6_grid_size_follows_the_sizing_table() {
        let registry = registry();
        let scenario = registry.get("fig6").expect("registered");
        assert_eq!((scenario.points)(Scale::Quick), (3 + 1) * 6);
        assert_eq!((scenario.points)(Scale::Full), (8 + 1) * 6);
    }

    #[test]
    fn defenses_scenario_derives_its_seeds_like_every_other() {
        // The pinned calibration seed is gone: the majority verdict inside
        // `defenses::evaluate_defense_majority` makes the scenario robust to
        // the root seed, so it derives per-point seeds like everything else.
        let registry = registry();
        let scenario = registry.get("defenses").expect("registered");
        assert_ne!(scenario.point_seed(SEED, 0), scenario.point_seed(SEED, 1));
        assert_ne!(
            scenario.point_seed(SEED, 0),
            scenario.point_seed(SEED + 1, 0)
        );
    }
}
