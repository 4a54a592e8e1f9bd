//! `repro check` — the static program-verification gate.
//!
//! For every selected registry scenario this module *compiles* the
//! covert-channel frame of every sweep point — the configs `repro run
//! --full` transmits with, read through the scenarios' own lookup under the
//! same point seeds — with the transmit engine's builder path
//! ([`wb_channel::session::compile_frame`]), then runs [`sim_core::verify`]'s
//! `TraceProgram::verify` over each compiled program. No machine is
//! constructed and not a single simulated cycle executes: the gate is
//! CI-fast regardless of scenario scale.
//!
//! Each point is compiled once, on the hierarchy it runs on. The programs
//! depend on the hierarchy only through the L1 geometry, which every
//! commercial preset shares with the default machine, so compiling a point
//! once per preset would re-verify identical programs (the core crate's
//! `builder_accepted_configs_compile_and_never_panic` property pins this).
//!
//! Scenarios that never open a channel session (static tables, calibration,
//! machine-level probes) are checked against one paper-default stand-in
//! configuration, so the shared transmit stack is verified for them too.

use crate::scenarios::{channel_configs, SEED};
use runner::scenario::{PointCtx, Scenario};
use runner::{Registry, Scale};
use sim_core::verify::ProgramStats;
use wb_channel::channel::ChannelConfig;
use wb_channel::session::compile_frame;

/// The deterministic check and trace payload: 32 bits, multiple of every
/// encoding's bits-per-symbol.
pub(crate) fn payload() -> Vec<bool> {
    (0..32).map(|i| i % 3 == 0).collect()
}

/// Per-scenario outcome of the check pass.
#[derive(Debug, Clone)]
pub struct ScenarioCheck {
    /// The scenario's registry id.
    pub id: &'static str,
    /// Channel configurations compiled: every point's (fig8's one point has
    /// two, its clean and noisy WB runs), or the one stand-in.
    pub configs: usize,
    /// Programs compiled and verified.
    pub programs: usize,
    /// Aggregate program-size profile (steps, ops, chases, anchors) over
    /// every compiled program — the `--verbose` regression-tracking numbers.
    pub stats: ProgramStats,
    /// Compiled steps carrying a telemetry phase annotation (the
    /// `--verbose` span-coverage numbers).
    pub attributed_steps: usize,
    /// All compiled steps.
    pub total_steps: usize,
    /// Rendered diagnostics, each prefixed with its config and program.
    pub findings: Vec<String>,
}

/// Outcome of one `repro check` invocation.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// One entry per selected scenario, in registry order.
    pub scenarios: Vec<ScenarioCheck>,
}

impl CheckReport {
    /// Total channel configurations compiled.
    pub fn configs(&self) -> usize {
        self.scenarios.iter().map(|s| s.configs).sum()
    }

    /// Total programs compiled and verified.
    pub fn programs(&self) -> usize {
        self.scenarios.iter().map(|s| s.programs).sum()
    }

    /// Every finding across all scenarios.
    pub fn findings(&self) -> impl Iterator<Item = &String> {
        self.scenarios.iter().flat_map(|s| s.findings.iter())
    }

    /// Whether the whole pass produced zero diagnostics of any severity.
    pub fn is_clean(&self) -> bool {
        self.scenarios.iter().all(|s| s.findings.is_empty())
    }
}

/// The labelled configs of points `0..points` of `scenario` as `repro run
/// --full` builds them from root seed [`SEED`], in point order; or the
/// paper-default channel alone for a scenario that never opens a channel
/// session. Shared with [`crate::trace`], which traces point 0.
pub(crate) fn point_configs(
    scenario: &Scenario,
    points: usize,
) -> Result<Vec<(String, ChannelConfig)>, String> {
    let mut configs = Vec::new();
    for index in 0..points {
        let ctx = PointCtx {
            scale: Scale::Full,
            seed: scenario.point_seed(SEED, index),
            index,
        };
        match channel_configs(scenario.id, &ctx) {
            Some(point) => configs.extend(
                point?
                    .into_iter()
                    .map(|(label, config)| (format!("#{index} {label}"), config)),
            ),
            None => {
                let stand_in = ChannelConfig::builder()
                    .seed(SEED)
                    .build()
                    .map_err(|e| e.to_string())?;
                let label = format!("stand-in {}@{}", stand_in.encoding, stand_in.period_cycles);
                return Ok(vec![(label, stand_in)]);
            }
        }
    }
    Ok(configs)
}

/// Checks one scenario: compile every point's configs once and verify each
/// compiled program.
fn check_scenario(scenario: &Scenario) -> Result<ScenarioCheck, String> {
    let id = scenario.id;
    let configs = point_configs(scenario, (scenario.points)(Scale::Full))?;
    let payload = payload();
    let mut check = ScenarioCheck {
        id,
        configs: configs.len(),
        programs: 0,
        stats: ProgramStats::default(),
        attributed_steps: 0,
        total_steps: 0,
        findings: Vec::new(),
    };
    for (label, config) in &configs {
        for program in &compile_frame(config, &payload).programs {
            check.programs += 1;
            check.stats.merge(&program.stats());
            // Span coverage: every compiled step should carry a telemetry
            // phase annotation, or `repro trace` would report its cycles as
            // unattributed `other` time.
            let (attributed, total) = program.phase_coverage();
            check.attributed_steps += attributed;
            check.total_steps += total;
            if attributed < total {
                check.findings.push(format!(
                    "{id} [{label}] {}: warn: {} of {} compiled steps lack a phase annotation",
                    program.name(),
                    total - attributed,
                    total,
                ));
            }
            for diagnostic in program.verify() {
                check
                    .findings
                    .push(format!("{id} [{label}] {}: {diagnostic}", program.name()));
            }
        }
    }
    Ok(check)
}

/// Runs the check pass over the scenarios selected by `patterns` (empty
/// selects the whole registry).
///
/// # Errors
///
/// Returns selection errors (unknown pattern) and config-construction
/// errors; verification *findings* are data in the report, not errors.
pub fn run_check(registry: &Registry, patterns: &[String]) -> Result<CheckReport, String> {
    let all = vec!["all".to_owned()];
    let selected = registry.select(if patterns.is_empty() { &all } else { patterns })?;
    let mut report = CheckReport::default();
    for scenario in selected {
        report.scenarios.push(check_scenario(scenario)?);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate: every registry scenario's programs verify clean
    /// without executing.
    #[test]
    fn whole_registry_checks_clean() {
        let registry = crate::registry();
        let report = run_check(&registry, &[]).unwrap();
        assert_eq!(report.scenarios.len(), registry.scenarios().len());
        let findings: Vec<&String> = report.findings().collect();
        assert!(findings.is_empty(), "diagnostics: {findings:?}");
        assert!(report.is_clean());
        // Every config compiled at least a sender and a receiver.
        for check in &report.scenarios {
            assert!(check.configs >= 1, "{}", check.id);
            assert!(check.programs >= 2 * check.configs, "{}", check.id);
            assert!(check.stats.ops > 0, "{}", check.id);
            assert!(check.stats.chases > 0, "{}", check.id);
            // Full span coverage: every compiled step of every protocol
            // program is attributable to a telemetry phase.
            assert!(check.total_steps > 0, "{}", check.id);
            assert_eq!(
                check.attributed_steps, check.total_steps,
                "{}: uninstrumented protocol steps",
                check.id
            );
        }
    }

    /// Each full-scale point is compiled exactly once; the scenarios that
    /// never open a channel session compile the one stand-in.
    #[test]
    fn every_point_compiles_exactly_once() {
        let registry = crate::registry();
        let report = run_check(&registry, &[]).unwrap();
        for (scenario, check) in registry.scenarios().iter().zip(&report.scenarios) {
            let points = (scenario.points)(Scale::Full);
            let expected = match scenario.id {
                "fig5-7" | "fig6" | "bandwidth" | "hierarchy-matrix" => points,
                // The WB channel's clean and noisy runs.
                "fig8" => 2 * points,
                _ => 1,
            };
            assert_eq!(check.configs, expected, "{}", scenario.id);
        }
        let compiles = |id: &str| {
            report
                .scenarios
                .iter()
                .find(|check| check.id == id)
                .map(|check| check.configs)
        };
        let counts = ["fig6", "hierarchy-matrix", "fig5-7", "bandwidth", "fig8"].map(compiles);
        assert_eq!(counts, [54, 40, 4, 3, 2].map(Some));
        assert_eq!(report.configs(), 54 + 40 + 4 + 3 + 2 + 9);
    }

    #[test]
    fn selection_follows_registry_globs() {
        let registry = crate::registry();
        let report = run_check(&registry, &["table*".to_owned()]).unwrap();
        let ids: Vec<&str> = report.scenarios.iter().map(|s| s.id).collect();
        assert_eq!(
            ids,
            vec!["table1", "table2", "table4", "table5", "table6", "table7"]
        );
        assert!(run_check(&registry, &["nope".to_owned()]).is_err());
    }

    #[test]
    fn scenario_specific_cells_are_covered() {
        let registry = crate::registry();
        let report = run_check(&registry, &["fig5-7".to_owned(), "fig8".to_owned()]).unwrap();
        let fig57 = &report.scenarios[0];
        assert_eq!(fig57.configs, 4, "binary d=1/4/8 + two-bit");
        let fig8 = &report.scenarios[1];
        // Sender + receiver on the clean run; the noise program joins them
        // on the noisy one.
        assert_eq!(fig8.configs, 2);
        assert_eq!(fig8.programs, 2 + 3);
    }
}
