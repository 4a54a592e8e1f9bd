//! Defense evaluation harness.
//!
//! For every [`Defense`] the harness re-runs the core WB-channel measurement
//! — "can the receiver distinguish a target set with `d` dirty lines from a
//! clean one by timing a replacement sweep?" — and reports the residual
//! distinguishability.  This mirrors how Section VIII argues about each
//! defense: not with full transmissions but with the latency separation the
//! receiver has left to work with.
//!
//! The parties are the channel's own: [`PartyLines`] with the defense's
//! replacement-set size, primed in the receiver's prime order, and every
//! measured sweep the next [`Sweeps`] order (drawn from `seed ^ 0xdef`).

use crate::defense::Defense;
use analysis::threshold::BinaryThreshold;
use sim_cache::cache::AccessContext;
use sim_cache::policy::PolicyKind;
use sim_cache::trace::TraceOp;
use sim_core::machine::{Machine, MachineConfig};
use sim_core::memlayout::{SetLines, Sweeps};
use sim_core::process::{AddressSpace, ProcessId};
use wb_channel::{Error, PartyLines, RECEIVER_DOMAIN, SENDER_DOMAIN, TARGET_SET};

/// Result of evaluating one defense.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseEvaluation {
    /// The defense evaluated.
    pub defense: Defense,
    /// Human-readable defense name.
    pub label: String,
    /// Mean replacement latency with a clean target set.
    pub mean_clean: f64,
    /// Mean replacement latency with [`DIRTY_LINES`] dirty lines.
    pub mean_dirty: f64,
    /// Accuracy of a calibrated binary classifier distinguishing the two
    /// cases on held-out samples (0.5 = chance, 1.0 = perfect).
    pub accuracy: f64,
    /// Whether the harness considers the defense to have mitigated the
    /// channel (accuracy below [`MITIGATION_ACCURACY`]).
    pub mitigated: bool,
    /// The paper's verdict, for the comparison tables.
    pub paper_expectation: String,
}

/// Classification accuracy below which a defense counts as mitigating.
pub const MITIGATION_ACCURACY: f64 = 0.75;

/// Dirty lines the sender encodes with: the paper's `d = 3` operating point
/// of Sec. VI-A.
pub const DIRTY_LINES: usize = 3;

/// Fewest samples per class [`evaluate_defense`] accepts: half calibrate
/// the threshold, half are scored.
pub const MIN_SAMPLES: usize = 16;

/// Configuration of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvaluationConfig {
    /// Samples per class (half used for calibration, half for scoring; at
    /// least [`MIN_SAMPLES`]).
    pub samples: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for EvaluationConfig {
    fn default() -> Self {
        EvaluationConfig {
            samples: 160,
            seed: 29,
        }
    }
}

/// Evaluates one defense.
///
/// # Errors
///
/// Propagates machine-configuration errors, and returns
/// [`Error::InvalidConfig`] for fewer than [`MIN_SAMPLES`] samples.
pub fn evaluate_defense(
    defense: Defense,
    config: &EvaluationConfig,
) -> Result<DefenseEvaluation, Error> {
    if config.samples < MIN_SAMPLES {
        return Err(Error::InvalidConfig {
            field: "samples",
            reason: format!(
                "at least {MIN_SAMPLES} samples per class are needed, got {}",
                config.samples
            ),
        });
    }
    let mut machine_config = MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, config.seed);
    // Keep the evaluation deterministic apart from the defense itself.
    machine_config.interrupts = sim_core::sched::InterruptConfig::none();
    defense.apply_to_machine_config(&mut machine_config);
    let mut machine = Machine::new(machine_config)?;
    defense.apply_to_machine(&mut machine)?;

    let geometry = machine.l1_geometry();
    // The attacker adapts the replacement-set size to the defense (the
    // paper's Sec. VI-A counter to pseudo-random replacement).
    let replacement_size = defense.attacker_replacement_size();
    let PartyLines {
        receiver,
        sender: sender_lines,
    } = PartyLines::build(geometry, replacement_size);
    // Guard lines used by Prefetch-guard (a separate "defense" domain).
    let guard_lines = SetLines::build(
        AddressSpace::new(ProcessId(7)),
        geometry,
        TARGET_SET,
        8,
        7_000,
    );
    let mut sweeps = Sweeps::new(config.seed ^ 0xdef);

    // Warm everything (two batched traces, one per domain).
    let receiver_warm: Vec<TraceOp> = receiver.prime_lines().map(TraceOp::read).collect();
    let sender_warm: Vec<TraceOp> = sender_lines
        .lines()
        .iter()
        .chain(guard_lines.lines())
        .map(|&addr| TraceOp::read(addr))
        .collect();
    machine.run_trace(RECEIVER_DOMAIN, &receiver_warm);
    machine.run_trace(SENDER_DOMAIN, &sender_warm);

    // The sender's stores, built once: a sample of `d` dirty lines runs the
    // first `d`.
    let sender_stores: Vec<TraceOp> = sender_lines
        .lines()
        .iter()
        .map(|&line| TraceOp::write(line))
        .collect();
    let mut locked_lines: Vec<sim_cache::addr::PhysAddr> = Vec::new();
    let mut observe = |machine: &mut Machine, d: usize| -> u64 {
        // Sender encodes d dirty lines (the protected process's stores).
        // Unless the defense interleaves per-store lock operations, the
        // burst runs as one batched trace.
        if defense.locks_protected_lines() {
            for i in 0..d {
                let line = sender_lines.line(i);
                machine.run_trace(SENDER_DOMAIN, &[TraceOp::write(line)]);
                machine.hierarchy_mut().l1_mut().lock_line(line);
                locked_lines.push(line);
            }
        } else {
            machine.run_trace(SENDER_DOMAIN, &sender_stores[..d]);
        }
        // Prefetch-guard injects guard lines into the suspicious set.
        for g in 0..defense.guard_prefetch_degree() {
            let line = guard_lines.line(g % guard_lines.len());
            machine
                .hierarchy_mut()
                .prefetch_into_l1(line, AccessContext::for_domain(7));
        }
        // Receiver decodes: a measured sweep with alternating replacement sets.
        let order = sweeps.next_order(&receiver);
        let (measured, _) = machine.measured_chase(RECEIVER_DOMAIN, order);
        // PLcache: the protected process unlocks (and cleans up) its lines at
        // the end of its critical section so the next iteration starts fresh.
        if defense.locks_protected_lines() {
            for line in locked_lines.drain(..) {
                machine.hierarchy_mut().l1_mut().unlock_line(line);
                machine.hierarchy_mut().flush(line);
            }
        }
        measured
    };

    // Collect samples, interleaving the two classes.
    let per_class = config.samples;
    let mut clean = Vec::with_capacity(per_class);
    let mut dirty = Vec::with_capacity(per_class);
    for _ in 0..per_class {
        clean.push(observe(&mut machine, 0) as f64);
        dirty.push(observe(&mut machine, DIRTY_LINES) as f64);
    }

    // Calibrate on the first half, score on the second half.
    let half = per_class / 2;
    let threshold = BinaryThreshold::calibrate(&clean[..half], &dirty[..half]);
    let correct = clean[half..]
        .iter()
        .filter(|&&value| !threshold.classify_directed(value))
        .count()
        + dirty[half..]
            .iter()
            .filter(|&&value| threshold.classify_directed(value))
            .count();
    let total = (per_class - half) * 2;
    let accuracy = correct as f64 / total as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;

    Ok(DefenseEvaluation {
        label: defense.label(),
        paper_expectation: defense.paper_expectation().to_owned(),
        mean_clean: mean(&clean),
        mean_dirty: mean(&dirty),
        accuracy,
        mitigated: accuracy < MITIGATION_ACCURACY,
        defense,
    })
}

/// Number of derived seeds a majority evaluation runs per defense.
pub const MAJORITY_SEEDS: usize = 5;

/// Evaluates one defense at [`MAJORITY_SEEDS`] seeds derived from
/// `config.seed` with SplitMix64 and returns the **median** run with the
/// **majority** mitigation verdict.
///
/// Single-seed verdicts sit right at the mitigation threshold for some
/// defenses by design (random replacement at `L = 10` has only a ~74%
/// per-line eviction rate, Table V), so any one RNG stream can land on
/// either side.  Running an odd number of derived seeds and majority-voting
/// makes the verdict a property of the defense, not of the stream — which is
/// what let the registry drop its pinned calibration seed.
///
/// Because a run is "mitigated" exactly when its accuracy is below
/// [`MITIGATION_ACCURACY`], the majority verdict always agrees with the
/// accuracy-median run, which is the one returned (so the reported means and
/// accuracy are a real, internally consistent observation, not a blend).
///
/// # Errors
///
/// Propagates errors from [`evaluate_defense`].
pub fn evaluate_defense_majority(
    defense: Defense,
    config: &EvaluationConfig,
) -> Result<DefenseEvaluation, Error> {
    let mut runs = Vec::with_capacity(MAJORITY_SEEDS);
    for index in 0..MAJORITY_SEEDS {
        let seed = sim_cache::seed::stream_seed(config.seed, 0x6465_6600 + index as u64);
        let run_config = EvaluationConfig { seed, ..*config };
        runs.push(evaluate_defense(defense, &run_config)?);
    }
    runs.sort_by(|a, b| a.accuracy.total_cmp(&b.accuracy));
    let median = runs.swap_remove(MAJORITY_SEEDS / 2);
    debug_assert_eq!(
        median.mitigated,
        runs.iter().filter(|r| r.mitigated).count() + usize::from(median.mitigated)
            > MAJORITY_SEEDS / 2,
        "median verdict must equal the majority vote"
    );
    Ok(median)
}

/// Evaluates every defense in [`Defense::ALL`] with the derived-seed
/// majority verdict of [`evaluate_defense_majority`] — single-seed verdicts
/// are borderline by design for some defenses, so the robust evaluation is
/// the default for whole-catalogue sweeps.
///
/// # Errors
///
/// Propagates errors from [`evaluate_defense`].
pub fn evaluate_all(config: &EvaluationConfig) -> Result<Vec<DefenseEvaluation>, Error> {
    Defense::ALL
        .iter()
        .map(|&d| evaluate_defense_majority(d, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_channel::REPLACEMENT_SIZE;

    fn config() -> EvaluationConfig {
        EvaluationConfig {
            samples: 80,
            ..EvaluationConfig::default()
        }
    }

    #[test]
    fn undefended_channel_is_fully_distinguishable() {
        let result = evaluate_defense(Defense::None, &config()).unwrap();
        assert!(result.accuracy > 0.95, "accuracy {}", result.accuracy);
        assert!(!result.mitigated);
        assert!(result.mean_dirty > result.mean_clean + 20.0);
    }

    #[test]
    fn invalid_configurations_are_errors_not_panics() {
        let bad = [
            EvaluationConfig {
                samples: 0,
                ..config()
            },
            EvaluationConfig {
                samples: MIN_SAMPLES - 1,
                ..config()
            },
        ];
        for bad in bad {
            assert!(
                matches!(
                    evaluate_defense(Defense::None, &bad),
                    Err(Error::InvalidConfig { .. })
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn fuzzy_time_with_an_unusable_jitter_is_an_error() {
        let defense = Defense::FuzzyTime {
            granularity: 1,
            jitter: u64::MAX,
        };
        match evaluate_defense(defense, &config()) {
            Err(Error::InvalidConfig { field, .. }) => assert_eq!(field, "tsc"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn write_through_l1_kills_the_channel() {
        let result = evaluate_defense(Defense::WriteThroughL1, &config()).unwrap();
        assert!(result.mitigated, "accuracy {}", result.accuracy);
    }

    #[test]
    fn random_replacement_does_not_stop_the_channel() {
        // Two robustness mechanisms combine here: the evaluation models the
        // paper's adaptive attacker (Sec. VI-A: enlarge the replacement set
        // to L = 12 against pseudo-random eviction), and the verdict is the
        // derived-seed majority instead of a single borderline stream.
        let result = evaluate_defense_majority(Defense::RandomReplacement, &config()).unwrap();
        assert!(
            !result.mitigated,
            "the paper shows random replacement is insufficient (accuracy {})",
            result.accuracy
        );
        assert!(result.accuracy > 0.75, "accuracy {}", result.accuracy);
        // Only the random-replacement defense triggers the adaptation.
        for defense in Defense::ALL {
            let expected = match defense {
                Defense::RandomReplacement => 12,
                _ => REPLACEMENT_SIZE,
            };
            assert_eq!(defense.attacker_replacement_size(), expected, "{defense:?}");
        }
    }

    #[test]
    fn prefetch_guard_does_not_stop_the_channel() {
        let result = evaluate_defense(Defense::PrefetchGuard { degree: 2 }, &config()).unwrap();
        assert!(
            !result.mitigated,
            "Prefetch-guard noise lines should not defeat WB (accuracy {})",
            result.accuracy
        );
    }

    #[test]
    fn partitioning_defenses_stop_the_channel() {
        for defense in [
            Defense::NoMoPartitioning,
            Defense::Dawg,
            Defense::PlCacheLocking,
        ] {
            let result = evaluate_defense(defense, &config()).unwrap();
            assert!(
                result.mitigated,
                "{} should mitigate, accuracy {}",
                result.label, result.accuracy
            );
        }
    }

    #[test]
    fn large_window_random_fill_mitigates() {
        let result =
            evaluate_defense_majority(Defense::RandomFill { window: 256 }, &config()).unwrap();
        assert!(result.mitigated, "accuracy {}", result.accuracy);
    }

    #[test]
    fn fuzzy_time_reduces_accuracy() {
        let baseline = evaluate_defense(Defense::None, &config()).unwrap();
        let fuzzy = evaluate_defense(
            Defense::FuzzyTime {
                granularity: 128,
                jitter: 64,
            },
            &config(),
        )
        .unwrap();
        assert!(fuzzy.accuracy < baseline.accuracy);
    }

    #[test]
    fn evaluate_all_covers_every_defense_and_matches_expectations() {
        let results = evaluate_all(&config()).unwrap();
        assert_eq!(results.len(), Defense::ALL.len());
        for result in &results {
            // Fuzzy time is allowed to land on either side (the paper calls
            // it a weakening, not a guarantee); everything else must match
            // the paper's verdict.
            if matches!(result.defense, Defense::FuzzyTime { .. }) {
                continue;
            }
            assert_eq!(
                result.mitigated,
                result.defense.expected_to_mitigate(),
                "{}: accuracy {} vs expectation {}",
                result.label,
                result.accuracy,
                result.paper_expectation
            );
        }
    }
}
