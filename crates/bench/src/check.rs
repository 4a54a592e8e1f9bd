//! `repro check` — the static program-verification gate.
//!
//! For every selected registry scenario this module *compiles* a
//! representative set of the scenario's covert-channel frames — the same
//! builder paths ([`wb_channel::session::compile_frame`]) the transmit
//! engine uses, with the same seed derivation — across the default machine
//! and every commercial [`HierarchyPreset`], then runs
//! [`sim_core::verify`]'s `TraceProgram::verify` over each compiled program.
//! No machine is constructed and not a single simulated cycle executes: the
//! gate is CI-fast regardless of scenario scale.
//!
//! Scenarios that do not transmit through the channel (static tables,
//! machine-level probes) are checked against the paper-default channel
//! configuration, so the shared transmit stack is verified exactly once per
//! hierarchy variant either way.

use crate::scenarios::{BANDWIDTH_POINTS, MATRIX_POLICIES, SEED, STEALTH_PERIOD};
use runner::Registry;
use sim_cache::hierarchy::HierarchyPreset;
use sim_core::sched::InterruptConfig;
use sim_core::tsc::TscConfig;
use sim_core::verify::ProgramStats;
use wb_channel::capacity::PAPER_PERIODS;
use wb_channel::channel::{ChannelConfig, NoiseConfig};
use wb_channel::encoding::SymbolEncoding;
use wb_channel::session::compile_frame;

/// The deterministic check payload: 32 bits, multiple of every encoding's
/// bits-per-symbol.
fn payload() -> Vec<bool> {
    (0..32).map(|i| i % 3 == 0).collect()
}

/// Per-scenario outcome of the check pass.
#[derive(Debug, Clone)]
pub struct ScenarioCheck {
    /// The scenario's registry id.
    pub id: &'static str,
    /// Representative channel configurations checked.
    pub configs: usize,
    /// configs × hierarchy variants actually compiled.
    pub variants: usize,
    /// Programs compiled and verified across all variants.
    pub programs: usize,
    /// Aggregate program-size profile (steps, ops, chases, anchors) over
    /// the default-hierarchy compile of every config — the `--verbose`
    /// regression-tracking numbers, independent of the preset sweep.
    pub stats: ProgramStats,
    /// Compiled steps carrying a telemetry phase annotation, over the
    /// default-hierarchy compiles (the `--verbose` span-coverage numbers).
    pub attributed_steps: usize,
    /// All compiled steps over the default-hierarchy compiles.
    pub total_steps: usize,
    /// Rendered diagnostics, each prefixed with its variant and program.
    pub findings: Vec<String>,
}

/// Outcome of one `repro check` invocation.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// One entry per selected scenario, in registry order.
    pub scenarios: Vec<ScenarioCheck>,
}

impl CheckReport {
    /// Total programs compiled and verified.
    pub fn programs(&self) -> usize {
        self.scenarios.iter().map(|s| s.programs).sum()
    }

    /// Total compile variants (config × hierarchy) covered.
    pub fn variants(&self) -> usize {
        self.scenarios.iter().map(|s| s.variants).sum()
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

/// A labelled channel configuration representative of one scenario cell.
fn config(
    label: &str,
    encoding: SymbolEncoding,
    period: u64,
) -> Result<(String, ChannelConfig), String> {
    let built = ChannelConfig::builder()
        .encoding(encoding)
        .period_cycles(period)
        .seed(SEED)
        .build()
        .map_err(|e| e.to_string())?;
    Ok((label.to_owned(), built))
}

/// The representative configurations of one scenario: every encoding ×
/// period cell the scenario actually sweeps (or the paper-default channel
/// for scenarios that never transmit).  Shared with [`crate::trace`], which
/// runs the first cell with telemetry enabled.
pub(crate) fn scenario_configs(id: &str) -> Result<Vec<(String, ChannelConfig)>, String> {
    let binary = |d: usize| SymbolEncoding::binary(d).map_err(|e| e.to_string());
    match id {
        "fig5-7" => Ok(vec![
            config("binary-d1@5500", binary(1)?, 5_500)?,
            config("binary-d4@5500", binary(4)?, 5_500)?,
            config("binary-d8@5500", binary(8)?, 5_500)?,
            config("two-bit@4000", SymbolEncoding::paper_two_bit(), 4_000)?,
        ]),
        "fig6" => {
            let slowest = PAPER_PERIODS[PAPER_PERIODS.len() - 1];
            let fastest = PAPER_PERIODS[0];
            Ok(vec![
                config(&format!("binary-d1@{slowest}"), binary(1)?, slowest)?,
                config(&format!("binary-d1@{fastest}"), binary(1)?, fastest)?,
                config(
                    &format!("two-bit@{slowest}"),
                    SymbolEncoding::paper_two_bit(),
                    slowest,
                )?,
            ])
        }
        "table6" | "table7" => Ok(vec![config(
            &format!("stealth-binary-d1@{STEALTH_PERIOD}"),
            binary(1)?,
            STEALTH_PERIOD,
        )?]),
        "fig8" => {
            let (label, mut noisy) = config("binary-d1@5500+noise", binary(1)?, 5_500)?;
            // The Figure 8 operating point: one clean noisy line touched
            // every 2 500 cycles (see `baselines::comparison`).
            noisy.noise = Some(NoiseConfig::single_clean_line(2_500));
            Ok(vec![(label, noisy)])
        }
        "bandwidth" => BANDWIDTH_POINTS
            .iter()
            .map(|&(d, period)| {
                let encoding = if d == 0 {
                    SymbolEncoding::paper_two_bit()
                } else {
                    binary(d)?
                };
                config(&format!("d{d}@{period}"), encoding, period)
            })
            .collect(),
        "hierarchy-matrix" => MATRIX_POLICIES
            .iter()
            .map(|&policy| {
                // The matrix runs on the quiet machine; the policy axis does
                // not change the compiled programs but keeps the checked
                // configs honest about what the scenario sweeps.
                let mut quiet = ChannelConfig::builder()
                    .encoding(SymbolEncoding::binary(1).map_err(|e| e.to_string())?)
                    .period_cycles(5_500)
                    .interrupts(InterruptConfig::none())
                    .tsc(TscConfig::ideal())
                    .seed(SEED)
                    .build()
                    .map_err(|e| e.to_string())?;
                quiet.policy = policy;
                Ok((format!("quiet-{}@5500", policy.label()), quiet))
            })
            .collect(),
        // Static tables, calibration and machine-level probes: the
        // paper-default channel stands in for the shared transmit stack.
        _ => Ok(vec![config("binary-d1@5500", binary(1)?, 5_500)?]),
    }
}

/// The hierarchy variants a scenario's configs are compiled under: the
/// default Xeon machine plus every commercial preset (the matrix scenario
/// additionally sweeps the reduced-LLC shape of its second axis).
fn hierarchy_variants(id: &str) -> Vec<(String, Option<(HierarchyPreset, usize)>)> {
    let mut variants: Vec<(String, Option<(HierarchyPreset, usize)>)> =
        vec![("default".to_owned(), None)];
    let assocs: &[usize] = if id == "hierarchy-matrix" {
        &crate::scenarios::MATRIX_LLC_ASSOC
    } else {
        &[16]
    };
    for preset in HierarchyPreset::ALL {
        for &assoc in assocs {
            variants.push((
                format!("{}/llc{assoc}", preset.label()),
                Some((preset, assoc)),
            ));
        }
    }
    variants
}

/// Checks one scenario: compile every representative config under every
/// hierarchy variant and verify each compiled program.
fn check_scenario(id: &'static str) -> Result<ScenarioCheck, String> {
    let configs = scenario_configs(id)?;
    let variants = hierarchy_variants(id);
    let payload = payload();
    let mut check = ScenarioCheck {
        id,
        configs: configs.len(),
        variants: 0,
        programs: 0,
        stats: ProgramStats::default(),
        attributed_steps: 0,
        total_steps: 0,
        findings: Vec::new(),
    };
    for (config_label, base) in &configs {
        for (variant_label, preset) in &variants {
            let mut config = base.clone();
            if let Some((preset, assoc)) = preset {
                config.hierarchy = Some(
                    preset
                        .config(config.policy, *assoc, 0)
                        .map_err(|e| format!("{id} [{config_label}/{variant_label}]: {e}"))?,
                );
            }
            let compiled = compile_frame(&config, &payload);
            check.variants += 1;
            for program in &compiled.programs {
                check.programs += 1;
                if preset.is_none() {
                    check.stats.merge(&program.stats());
                    // Span coverage: every compiled step should carry a
                    // telemetry phase annotation, or `repro trace` would
                    // report its cycles as unattributed `other` time.
                    let (attributed, total) = program.phase_coverage();
                    check.attributed_steps += attributed;
                    check.total_steps += total;
                    if attributed < total {
                        check.findings.push(format!(
                            "{id} [{config_label} / {variant_label}] {}: warn: {} of {} \
                             compiled steps lack a phase annotation",
                            program.name(),
                            total - attributed,
                            total,
                        ));
                    }
                }
                for diagnostic in program.verify() {
                    check.findings.push(format!(
                        "{id} [{config_label} / {variant_label}] {}: {diagnostic}",
                        program.name()
                    ));
                }
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
        report.scenarios.push(check_scenario(scenario.id)?);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate: every registry scenario's programs verify clean
    /// across every hierarchy variant, without executing.
    #[test]
    fn whole_registry_checks_clean() {
        let registry = crate::registry();
        let report = run_check(&registry, &[]).unwrap();
        assert_eq!(report.scenarios.len(), registry.scenarios().len());
        let findings: Vec<&String> = report.findings().collect();
        assert!(findings.is_empty(), "diagnostics: {findings:?}");
        assert!(report.is_clean());
        // Every scenario compiled at least sender + receiver on ≥ 5
        // hierarchy variants.
        for check in &report.scenarios {
            assert!(
                check.variants >= 5,
                "{}: {} variants",
                check.id,
                check.variants
            );
            assert!(check.programs >= 2 * check.variants, "{}", check.id);
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
        // The noise program joins sender + receiver on every variant.
        assert_eq!(fig8.programs, 3 * fig8.variants);
    }
}
