//! Runs selected scenarios on the one-queue pool.
//!
//! All sweep points of all selected scenarios are flattened into one task
//! list (seeds pre-derived), fanned out across the pool, then grouped back
//! per scenario and assembled **in point order** — so the output is
//! bit-identical at any thread count, while a wide sweep like Figure 6
//! saturates every core instead of running its grid serially.

use crate::pool::run_ordered_catch;
use crate::scale::Scale;
use crate::scenario::{PointCtx, PointOutput, Scenario, PHASE_COUNT};
use analysis::table::Table;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Configuration of one `repro run` invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Experiment scale.
    pub scale: Scale,
    /// Worker threads (`1` runs everything inline on the caller).
    pub threads: usize,
    /// Root seed all derived scenario/point seeds descend from.
    pub root_seed: u64,
    /// Emit structured progress lines on stderr.
    pub progress: bool,
}

/// The outcome of one scenario within a run.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Scenario id.
    pub id: &'static str,
    /// Paper cross-reference (e.g. `"Table II"`).
    pub paper_ref: &'static str,
    /// Scale the scenario ran at.
    pub scale: Scale,
    /// The scenario-level seed recorded in the manifest.
    pub seed: u64,
    /// Number of sweep points that ran.
    pub points: usize,
    /// Wall time from the first point starting to the last point finishing.
    ///
    /// The only non-deterministic field of a run: everything else is a pure
    /// function of `(root seed, scale)`.
    pub wall_ms: f64,
    /// `(output stem, table)` pairs, primary table first. Empty on error.
    pub tables: Vec<(String, Table)>,
    /// The first point error, if any point failed.
    pub error: Option<String>,
    /// Simulated cycles summed over the scenario's points (zero for
    /// uninstrumented scenarios).
    pub sim_cycles: u64,
    /// Simulated demand accesses summed over the scenario's points.
    pub sim_accesses: u64,
    /// Per-phase simulated cycles summed over the scenario's points, in
    /// [`crate::scenario::PHASE_LABELS`] order.
    pub phase_cycles: [u64; PHASE_COUNT],
}

/// One task's result: timing plus the point outcome.
struct PointRun {
    started_ms: f64,
    finished_ms: f64,
    output: Result<PointOutput, String>,
}

/// Executes `scenarios` under `config` and returns one [`ScenarioRun`] per
/// scenario, in the given order.
pub fn execute(scenarios: &[&Scenario], config: &RunConfig) -> Vec<ScenarioRun> {
    let epoch = Instant::now();
    let point_counts: Vec<usize> = scenarios.iter().map(|s| (s.points)(config.scale)).collect();
    let remaining: Vec<AtomicUsize> = point_counts.iter().map(|&n| AtomicUsize::new(n)).collect();
    let announced: Vec<AtomicBool> = scenarios.iter().map(|_| AtomicBool::new(false)).collect();

    // Flatten every (scenario, point) into one task list, seeds pre-derived.
    let mut tasks: Vec<Box<dyn FnOnce() -> PointRun + Send + '_>> = Vec::new();
    for (si, scenario) in scenarios.iter().enumerate() {
        for index in 0..point_counts[si] {
            let ctx = PointCtx {
                scale: config.scale,
                seed: scenario.point_seed(config.root_seed, index),
                index,
            };
            let scenario = **scenario;
            let points = point_counts[si];
            let remaining = &remaining;
            let announced = &announced;
            let root_seed = config.root_seed;
            let scale = config.scale;
            let progress = config.progress;
            tasks.push(Box::new(move || {
                // Announce the scenario when its first point actually starts
                // executing, not when it was queued.
                if progress && !announced[si].swap(true, Ordering::AcqRel) {
                    // Operator-facing progress, opt-in via `config.progress`
                    // and never part of results: lint:allow(println-in-lib)
                    eprintln!(
                        "[repro] run {} ({}) points={} seed={:#018x} scale={}",
                        scenario.id,
                        scenario.paper_ref,
                        points,
                        scenario.manifest_seed(root_seed),
                        scale.label(),
                    );
                }
                let started_ms = epoch.elapsed().as_secs_f64() * 1e3;
                let output = (scenario.run_point)(&ctx);
                let finished_ms = epoch.elapsed().as_secs_f64() * 1e3;
                if remaining[si].fetch_sub(1, Ordering::AcqRel) == 1 && progress {
                    // lint:allow(println-in-lib) opt-in progress line
                    eprintln!("[repro] done {}", scenario.id);
                }
                PointRun {
                    started_ms,
                    finished_ms,
                    output,
                }
            }));
        }
    }

    // One panic mechanism for the whole stack: the pool catches a panicking
    // point (`run_ordered_catch`), counts it in `PoolStats::tasks_panicked`,
    // keeps draining, and hands back the message as the slot's `Err` — here
    // it becomes the point's error. (A panicked point skips its progress
    // accounting above, so a scenario whose last point panics may not print
    // its "done" line; the manifest still records the error.)
    let mut results = run_ordered_catch(config.threads, tasks).into_iter();

    // Group the flat results back per scenario (submission order is grouped
    // by scenario, so each scenario owns a contiguous run) and assemble.
    let mut runs = Vec::with_capacity(scenarios.len());
    for (si, scenario) in scenarios.iter().enumerate() {
        let group: Vec<PointRun> = results
            .by_ref()
            .take(point_counts[si])
            .enumerate()
            .map(|(index, slot)| {
                slot.unwrap_or_else(|message| PointRun {
                    // Neutral elements of the min/max wall-time folds: a
                    // panicked point contributes no timing.
                    started_ms: f64::MAX,
                    finished_ms: 0.0,
                    output: Err(format!("point {index} panicked: {message}")),
                })
            })
            .collect();
        let started = group.iter().map(|p| p.started_ms).fold(f64::MAX, f64::min);
        let finished = group.iter().map(|p| p.finished_ms).fold(0.0, f64::max);
        let wall_ms = if group.is_empty() {
            0.0
        } else {
            // Clamp for the all-points-panicked case, where only the
            // neutral timing elements are left.
            (finished - started).max(0.0)
        };
        let error = group.iter().find_map(|p| p.output.as_ref().err()).cloned();
        let (tables, sim_cycles, sim_accesses, phase_cycles) = if error.is_some() {
            (Vec::new(), 0, 0, [0u64; PHASE_COUNT])
        } else {
            let outputs: Vec<PointOutput> = group
                .into_iter()
                .map(|p| p.output.expect("checked error above"))
                .collect();
            let sim_cycles = outputs.iter().map(|o| o.sim_cycles).sum();
            let sim_accesses = outputs.iter().map(|o| o.sim_accesses).sum();
            let mut phase_cycles = [0u64; PHASE_COUNT];
            for output in &outputs {
                for (slot, &cycles) in phase_cycles.iter_mut().zip(&output.phase_cycles) {
                    *slot += cycles;
                }
            }
            (
                (scenario.assemble)(config.scale, &outputs),
                sim_cycles,
                sim_accesses,
                phase_cycles,
            )
        };
        runs.push(ScenarioRun {
            id: scenario.id,
            paper_ref: scenario.paper_ref,
            scale: config.scale,
            seed: scenario.manifest_seed(config.root_seed),
            points: point_counts[si],
            wall_ms,
            tables,
            error,
            sim_cycles,
            sim_accesses,
            phase_cycles,
        });
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::table::Table;

    fn seed_echo_scenario() -> Scenario {
        fn points(scale: Scale) -> usize {
            match scale {
                Scale::Quick => 4,
                Scale::Full => 8,
            }
        }
        fn run(ctx: &PointCtx) -> Result<PointOutput, String> {
            Ok(PointOutput::row([
                ctx.index.to_string(),
                format!("{:#x}", ctx.seed),
            ]))
        }
        fn assemble(_: Scale, outputs: &[PointOutput]) -> Vec<(String, Table)> {
            let mut table = Table::new("echo", &["index", "seed"]);
            for output in outputs {
                for row in &output.rows {
                    table.push_row(row.clone());
                }
            }
            vec![("echo".to_owned(), table)]
        }
        Scenario {
            id: "echo",
            paper_ref: "Table 0",
            section: "Sec. 0",
            summary: "echoes point seeds",
            points,
            run_point: run,
            assemble,
        }
    }

    #[test]
    fn execute_is_thread_count_invariant() {
        let scenario = seed_echo_scenario();
        let scenarios = [&scenario];
        let run_at = |threads: usize| {
            let config = RunConfig {
                scale: Scale::Quick,
                threads,
                root_seed: 2022,
                progress: false,
            };
            execute(&scenarios, &config)
                .remove(0)
                .tables
                .remove(0)
                .1
                .to_json()
        };
        let single = run_at(1);
        assert_eq!(single, run_at(8));
        assert_eq!(single, run_at(3));
    }

    #[test]
    fn empty_selection_reports_zero_wall_time() {
        // A scenario with zero points (or an empty selection) must report
        // wall_ms == 0.0, not the degenerate f64::MAX - 0.0 the min/max
        // folds would produce without the empty-group guard.
        fn none(_: Scale) -> usize {
            0
        }
        fn run(_: &PointCtx) -> Result<PointOutput, String> {
            unreachable!("a zero-point scenario must never run a point")
        }
        fn assemble(_: Scale, outputs: &[PointOutput]) -> Vec<(String, Table)> {
            assert!(outputs.is_empty());
            vec![("empty".to_owned(), Table::new("empty", &["c"]))]
        }
        let empty = Scenario {
            id: "empty",
            paper_ref: "-",
            section: "-",
            summary: "zero points",
            points: none,
            run_point: run,
            assemble,
        };
        let config = RunConfig {
            scale: Scale::Quick,
            threads: 2,
            root_seed: 1,
            progress: false,
        };
        let runs = execute(&[&empty], &config);
        assert_eq!(runs[0].points, 0);
        assert_eq!(runs[0].wall_ms, 0.0);
        assert!(runs[0].error.is_none());
        assert_eq!(runs[0].tables.len(), 1);

        // A fully empty selection produces no runs at all.
        assert!(execute(&[], &config).is_empty());
    }

    #[test]
    fn a_panicking_point_surfaces_as_the_scenario_error() {
        // The panic is confined to its scenario: the run returns normally,
        // the panicking scenario carries the message as its error, and the
        // other scenario still produces its tables (the pool drained it).
        fn one(_: Scale) -> usize {
            1
        }
        fn explode(_: &PointCtx) -> Result<PointOutput, String> {
            panic!("deliberate test panic");
        }
        fn assemble(_: Scale, _: &[PointOutput]) -> Vec<(String, Table)> {
            unreachable!("assemble must not run for a panicked scenario")
        }
        let panicking = Scenario {
            id: "panicking",
            paper_ref: "-",
            section: "-",
            summary: "always panics",
            points: one,
            run_point: explode,
            assemble,
        };
        let good = seed_echo_scenario();
        for threads in [1, 4] {
            let config = RunConfig {
                scale: Scale::Quick,
                threads,
                root_seed: 1,
                progress: false,
            };
            let pool_before = crate::pool::stats();
            let runs = execute(&[&panicking, &good], &config);
            let error = runs[0].error.as_deref().expect("panic recorded");
            assert!(error.contains("panicked"), "{error}");
            assert!(error.contains("deliberate test panic"), "{error}");
            assert!(runs[0].tables.is_empty());
            assert!(runs[0].wall_ms >= 0.0, "threads={threads}");
            assert!(runs[1].error.is_none(), "threads={threads}");
            assert_eq!(runs[1].tables.len(), 1);
            // The panic went through the pool's guard, so it is visible in
            // the instrumentation (lower bound: other tests share the
            // process-wide counters).
            let delta = crate::pool::stats().since(&pool_before);
            assert!(delta.tasks_panicked >= 1, "{delta:?}");
        }
    }

    #[test]
    fn errors_are_captured_per_scenario() {
        fn one(_: Scale) -> usize {
            1
        }
        fn fail(_: &PointCtx) -> Result<PointOutput, String> {
            Err("boom".to_owned())
        }
        fn assemble(_: Scale, _: &[PointOutput]) -> Vec<(String, Table)> {
            unreachable!("assemble must not run for a failed scenario")
        }
        let bad = Scenario {
            id: "bad",
            paper_ref: "-",
            section: "-",
            summary: "always fails",
            points: one,
            run_point: fail,
            assemble,
        };
        let good = seed_echo_scenario();
        let config = RunConfig {
            scale: Scale::Quick,
            threads: 2,
            root_seed: 1,
            progress: false,
        };
        let runs = execute(&[&bad, &good], &config);
        assert_eq!(runs[0].error.as_deref(), Some("boom"));
        assert!(runs[0].tables.is_empty());
        assert!(runs[1].error.is_none());
        assert_eq!(runs[1].tables.len(), 1);
    }
}
