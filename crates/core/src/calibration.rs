//! Latency calibration experiments.
//!
//! This module contains the single-core measurement loops behind:
//!
//! * **Table IV** — the three access-latency classes (L1 hit, L2 hit with a
//!   clean L1 victim, L2 hit with a dirty L1 victim);
//! * **Figure 4** — the CDF of replacement-set access latencies when the
//!   target set holds `d = 0..=8` dirty lines;
//! * the **threshold calibration** the receiver performs before decoding a
//!   live transmission (the per-`d` latency classes double as training data).
//!
//! The parties' lines are [`PartyLines`], laid out as in every frame, and
//! each measured sweep is the next [`Sweeps`] order over the receiver's two
//! alternating replacement sets, drawn from `machine.seed ^ 0xca1b` anew at
//! every level.

use crate::encoding::SymbolEncoding;
use crate::error::Error;
use crate::protocol::Decoder;
use crate::{PartyLines, RECEIVER_DOMAIN, REPLACEMENT_SIZE, SENDER_DOMAIN, TARGET_SET};
use analysis::histogram::Cdf;
use analysis::stats::Summary;
use sim_cache::addr::CacheGeometry;
use sim_cache::policy::PolicyKind;
use sim_cache::trace::TraceOp;
use sim_core::machine::{Machine, MachineConfig};
use sim_core::memlayout::{ChannelLayout, SetLines, Sweeps};
use sim_core::process::{AddressSpace, ProcessId};

/// Configuration of the calibration runs, which measure L1 set
/// [`TARGET_SET`] with replacement sets of [`REPLACEMENT_SIZE`] lines.
///
/// The measurement-order randomisation is seeded from the machine's own
/// `seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// The machine to calibrate on.
    pub machine: MachineConfig,
    /// Number of measurements per dirty-line count, at least one (the paper
    /// uses 1000 for Figure 4).
    pub samples_per_level: usize,
}

impl CalibrationConfig {
    /// Calibration on the paper's machine with the given L1 policy and
    /// seed.
    pub fn new(policy: PolicyKind, seed: u64) -> CalibrationConfig {
        CalibrationConfig {
            machine: MachineConfig::xeon_e5_2650(policy, seed),
            samples_per_level: 200,
        }
    }
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig::new(PolicyKind::TreePlru, 7)
    }
}

/// Checks that a receiver on `geometry` can build its layout on set
/// [`TARGET_SET`] with two replacement sets of [`REPLACEMENT_SIZE`] lines,
/// and that a sender can dirty `d` lines of the set.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for an L1 (field `hierarchy`) without
/// set [`TARGET_SET`] or with more ways than [`REPLACEMENT_SIZE`], or for
/// more dirty lines than the set has ways (field `d`).
fn check_layout(geometry: CacheGeometry, d: usize) -> Result<(), Error> {
    check_target_set(geometry)?;
    let associativity = geometry.associativity;
    if REPLACEMENT_SIZE < associativity {
        return Err(Error::InvalidConfig {
            field: "hierarchy",
            reason: format!(
                "replacement sets of {REPLACEMENT_SIZE} lines cannot replace an L1 set of {associativity} ways"
            ),
        });
    }
    if d > associativity {
        return Err(Error::InvalidConfig {
            field: "d",
            reason: format!("cannot dirty {d} lines: the L1 set has {associativity} ways"),
        });
    }
    Ok(())
}

/// Rejects an L1 (field `hierarchy`) without set [`TARGET_SET`].
fn check_target_set(geometry: CacheGeometry) -> Result<(), Error> {
    if TARGET_SET >= geometry.num_sets {
        return Err(Error::InvalidConfig {
            field: "hierarchy",
            reason: format!(
                "set {TARGET_SET} out of range (L1 has {} sets)",
                geometry.num_sets
            ),
        });
    }
    Ok(())
}

/// Rejects a calibration without samples: a level would have no latency
/// class to measure.
fn check_samples(config: &CalibrationConfig) -> Result<(), Error> {
    if config.samples_per_level == 0 {
        return Err(Error::InvalidConfig {
            field: "samples_per_level",
            reason: "each level needs at least one sample".into(),
        });
    }
    Ok(())
}

/// The experimental setting shared by the calibration loops: the parties'
/// lines and traces of one configuration, built once and measured on a
/// borrowed machine level after level.
struct Bench<'a> {
    config: &'a CalibrationConfig,
    receiver: ChannelLayout,
    /// The warm-up loads of each party's lines (receiver lines first, in
    /// prime order).
    receiver_warm: Vec<TraceOp>,
    sender_warm: Vec<TraceOp>,
    /// A store to each sender line; a level's encoding burst for `d` dirty
    /// lines is its first `d` (Algorithm 1).
    sender_stores: Vec<TraceOp>,
    sweeps: Sweeps,
}

impl<'a> Bench<'a> {
    fn new(config: &'a CalibrationConfig) -> Result<Bench<'a>, Error> {
        check_samples(config)?;
        let geometry = config.machine.hierarchy.l1d.geometry;
        check_layout(geometry, 0)?;
        let PartyLines { receiver, sender } = PartyLines::build(geometry, REPLACEMENT_SIZE);
        // The two parties' address spaces are disjoint, so the warm-up is
        // two batched traces.
        Ok(Bench {
            config,
            receiver_warm: receiver.prime_lines().map(TraceOp::read).collect(),
            sender_warm: sender
                .lines()
                .iter()
                .map(|&addr| TraceOp::read(addr))
                .collect(),
            sender_stores: sender
                .lines()
                .iter()
                .map(|&addr| TraceOp::write(addr))
                .collect(),
            receiver,
            sweeps: Sweeps::new(config.machine.seed ^ 0xca1b),
        })
    }

    /// Measures `samples_per_level` replacement latencies with `d` dirty
    /// lines in the target set before every sweep, on `machine` as it is —
    /// fresh, or reset to the configured machine — and reports the machine's
    /// clock at the end: the simulated cycles the level took.
    fn level(&mut self, machine: &mut Machine, d: usize) -> Result<(Vec<u64>, u64), Error> {
        check_layout(self.config.machine.hierarchy.l1d.geometry, d)?;
        self.sweeps = Sweeps::new(self.config.machine.seed ^ 0xca1b);
        // Warm every line into the outer levels, then one throw-away sweep
        // initialises the target set with clean lines.
        machine.run_trace(RECEIVER_DOMAIN, &self.receiver_warm);
        machine.run_trace(SENDER_DOMAIN, &self.sender_warm);
        self.sweep(machine);
        let mut samples = Vec::with_capacity(self.config.samples_per_level);
        for _ in 0..self.config.samples_per_level {
            machine.run_trace(SENDER_DOMAIN, &self.sender_stores[..d]);
            samples.push(self.sweep(machine));
        }
        Ok((samples, machine.now()))
    }

    /// One measured replacement-set sweep (Algorithm 2's decoding phase),
    /// alternating the two replacement sets.
    fn sweep(&mut self, machine: &mut Machine) -> u64 {
        let order = self.sweeps.next_order(&self.receiver);
        machine.measured_chase(RECEIVER_DOMAIN, order).0
    }
}

/// The data behind the paper's Figure 4: one latency CDF per dirty-line
/// count, all measured on one machine reset between counts.
///
/// # Errors
///
/// Propagates configuration errors from the underlying measurement loops.
pub fn latency_cdfs(
    config: &CalibrationConfig,
    dirty_counts: &[usize],
) -> Result<Vec<(usize, Cdf)>, Error> {
    let mut machine = Machine::new(config.machine)?;
    let mut bench = Bench::new(config)?;
    dirty_counts
        .iter()
        .map(|&d| {
            machine.reset(config.machine)?;
            let (samples, _) = bench.level(&mut machine, d)?;
            let as_f64: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
            Ok((d, Cdf::from_samples(&as_f64)))
        })
        .collect()
}

/// Calibrates a decoder for `encoding` on `machine`, each latency class
/// measured after a [`Machine::reset`] to `config.machine`, so the result is
/// the same whatever state the machine was in.  Also reports the total
/// simulated cycles the calibration consumed across every latency class,
/// which [`crate::session::ChannelSession`] records as the session's
/// calibrate-phase span; a session calibrates on the machine it then keeps
/// for its frames.
///
/// # Errors
///
/// Returns configuration errors, and calibration errors if the latency
/// classes cannot be separated (which happens, by design, under some of the
/// defenses).
pub fn calibrate_decoder(
    machine: &mut Machine,
    config: &CalibrationConfig,
    encoding: &SymbolEncoding,
) -> Result<(Decoder, u64), Error> {
    let mut bench = Bench::new(config)?;
    let mut cycles = 0u64;
    let classes: Vec<Vec<f64>> = encoding
        .levels()
        .iter()
        .map(|&d| {
            machine.reset(config.machine)?;
            let (samples, machine_cycles) = bench.level(machine, d)?;
            cycles += machine_cycles;
            Ok(samples.into_iter().map(|s| s as f64).collect())
        })
        .collect::<Result<_, Error>>()?;
    let decoder = Decoder::from_calibration(encoding.clone(), &classes)?;
    Ok((decoder, cycles))
}

/// The three access-latency classes of the paper's Table IV, measured as true
/// core latencies (no `rdtscp` overhead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessLatencyClasses {
    /// Latency of an L1D hit.
    pub l1_hit: Summary,
    /// Latency of an L2 hit that replaces a clean L1 line.
    pub l2_hit_clean_victim: Summary,
    /// Latency of an L2 hit that replaces a dirty L1 line.
    pub l2_hit_dirty_victim: Summary,
}

/// Measures Table IV's three access classes, `samples_per_level` samples
/// each.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for zero `samples_per_level` or an L1
/// without set [`TARGET_SET`], and propagates machine configuration errors.
pub fn access_latency_classes(config: &CalibrationConfig) -> Result<AccessLatencyClasses, Error> {
    check_samples(config)?;
    let mut machine = Machine::new(config.machine)?;
    let geometry = machine.l1_geometry();
    check_target_set(geometry)?;
    let space = AddressSpace::new(ProcessId(RECEIVER_DOMAIN));
    // A sweep of `sweep_len` distinct lines is guaranteed to replace the
    // whole set on every supported policy (Table II: 10 lines suffice on the
    // least deterministic one), plus one clean-victim probe and one
    // dirty-victim probe.
    let sweep_len = REPLACEMENT_SIZE.max(geometry.associativity + 2);
    let lines = SetLines::build(space, geometry, TARGET_SET, sweep_len + 2, 0);
    let clean_probe = lines.line(sweep_len);
    let dirty_probe = lines.line(sweep_len + 1);

    // Warm everything into the outer levels once (one batched trace).
    let warm: Vec<TraceOp> = lines.lines().iter().map(|&l| TraceOp::read(l)).collect();
    machine.run_trace(RECEIVER_DOMAIN, &warm);

    // The bulk phases of each sample are fixed, so their traces are built
    // once and replayed through the batch engine every iteration.
    let clean_refill: Vec<TraceOp> = (0..sweep_len)
        .map(|i| TraceOp::read(lines.line(i)))
        .collect();
    let dirty_everything: Vec<TraceOp> = (0..sweep_len)
        .map(|i| TraceOp::write(lines.line(i)))
        .chain(std::iter::once(TraceOp::write(clean_probe)))
        .collect();

    // One timed load: its true latency, no `rdtscp` overhead.
    let load = |machine: &mut Machine, line| {
        machine
            .run_trace(RECEIVER_DOMAIN, &[TraceOp::read(line)])
            .cycles as f64
    };
    let mut l1_hits = Vec::new();
    let mut l2_clean = Vec::new();
    let mut l2_dirty = Vec::new();

    for _ in 0..config.samples_per_level {
        // Refill the set with clean sweep lines; this evicts both probes and
        // any dirty lines left over from the previous iteration.
        machine.run_trace(RECEIVER_DOMAIN, &clean_refill);

        // L1 hit: an immediate re-access of the line filled last.
        l1_hits.push(load(&mut machine, lines.line(sweep_len - 1)));

        // L2 hit replacing a clean victim: every resident line is clean, so
        // whichever victim the policy picks, no write-back is needed.
        l2_clean.push(load(&mut machine, clean_probe));

        // L2 hit replacing a dirty victim: dirty every line that could still
        // be resident, so the victim is necessarily dirty.
        machine.run_trace(RECEIVER_DOMAIN, &dirty_everything);
        l2_dirty.push(load(&mut machine, dirty_probe));
    }

    let summarise = |v: &[f64]| Summary::of(v).expect("sample sets are non-empty");
    Ok(AccessLatencyClasses {
        l1_hit: summarise(&l1_hits),
        l2_hit_clean_victim: summarise(&l2_clean),
        l2_hit_dirty_victim: summarise(&l2_dirty),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cache::config::{CacheConfig, CacheLevel};
    use sim_cache::hierarchy::HierarchyPreset;
    use sim_core::tsc::TscConfig;

    fn quiet_config() -> CalibrationConfig {
        let mut config = CalibrationConfig::new(PolicyKind::TreePlru, 3);
        config.machine = MachineConfig::ideal(PolicyKind::TreePlru, 3);
        config.samples_per_level = 60;
        config
    }

    fn fresh(config: &CalibrationConfig) -> Machine {
        Machine::new(config.machine).unwrap()
    }

    /// One level's replacement latencies with `d` dirty lines, measured on a
    /// fresh machine.
    fn level_samples(config: &CalibrationConfig, d: usize) -> Result<Vec<u64>, Error> {
        Ok(Bench::new(config)?.level(&mut fresh(config), d)?.0)
    }

    /// The reference for [`calibrate_decoder`]: every level measured on a
    /// freshly built machine, never a reset one.
    fn calibrate_on_fresh_machines(
        config: &CalibrationConfig,
        encoding: &SymbolEncoding,
    ) -> Result<(Decoder, u64), Error> {
        let mut bench = Bench::new(config)?;
        let mut cycles = 0u64;
        let mut classes = Vec::new();
        for d in encoding.levels() {
            let (samples, machine_cycles) = bench.level(&mut Machine::new(config.machine)?, d)?;
            cycles += machine_cycles;
            classes.push(samples.into_iter().map(|s| s as f64).collect::<Vec<f64>>());
        }
        Ok((
            Decoder::from_calibration(encoding.clone(), &classes)?,
            cycles,
        ))
    }

    /// One machine, reused from calibration to calibration and reset
    /// between levels, calibrates the same decoder in the same simulated
    /// cycles as a fresh machine per level: binary d = 1..8 and the paper's
    /// two-bit code, on the Intel-inclusive preset and on the AMD exclusive
    /// one with the Intel-like L1, whose reset redraws its trees.
    #[test]
    fn a_reused_machine_calibrates_like_fresh_ones() {
        let encodings: Vec<SymbolEncoding> = (1..=8)
            .map(|d| SymbolEncoding::binary(d).unwrap())
            .chain([SymbolEncoding::paper_two_bit()])
            .collect();
        let cases = [
            (HierarchyPreset::IntelInclusive, PolicyKind::TreePlru),
            (HierarchyPreset::AmdExclusive, PolicyKind::IntelLike),
        ];
        for (preset, policy) in cases {
            let mut config = CalibrationConfig::new(policy, 17);
            config.machine.hierarchy = preset.config(policy, 16, 17).unwrap();
            config.samples_per_level = 40;
            let mut machine = Machine::new(config.machine).unwrap();
            for encoding in &encodings {
                assert_eq!(
                    calibrate_decoder(&mut machine, &config, encoding).unwrap(),
                    calibrate_on_fresh_machines(&config, encoding).unwrap(),
                    "{} {policy} {encoding:?}",
                    preset.label()
                );
            }
        }
    }

    #[test]
    fn clean_and_dirty_sweeps_are_separable() {
        let config = quiet_config();
        let clean = level_samples(&config, 0).unwrap();
        let dirty = level_samples(&config, 8).unwrap();
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        let gap = mean(&dirty) - mean(&clean);
        // Eight dirty lines at ~11 cycles each.
        assert!(
            (60.0..=110.0).contains(&gap),
            "expected ~88-cycle gap, got {gap} (clean {}, dirty {})",
            mean(&clean),
            mean(&dirty)
        );
    }

    #[test]
    fn latency_grows_monotonically_with_dirty_count() {
        let config = quiet_config();
        let mut means = Vec::new();
        for d in [0usize, 2, 4, 6, 8] {
            let samples = level_samples(&config, d).unwrap();
            means.push(samples.iter().sum::<u64>() as f64 / samples.len() as f64);
        }
        for pair in means.windows(2) {
            assert!(
                pair[1] > pair[0],
                "mean latency must increase with d: {means:?}"
            );
        }
    }

    #[test]
    fn figure4_cdfs_shift_right_with_d() {
        let config = quiet_config();
        let cdfs = latency_cdfs(&config, &[0, 4, 8]).unwrap();
        assert_eq!(cdfs.len(), 3);
        let median = |cdf: &Cdf| cdf.quantile(0.5).unwrap();
        assert!(median(&cdfs[1].1) > median(&cdfs[0].1));
        assert!(median(&cdfs[2].1) > median(&cdfs[1].1));
    }

    #[test]
    fn calibrated_binary_decoder_separates_the_classes() {
        let config = quiet_config();
        let encoding = SymbolEncoding::binary(1).unwrap();
        let (decoder, _) = calibrate_decoder(&mut fresh(&config), &config, &encoding).unwrap();
        let clean = level_samples(&config, 0).unwrap();
        let dirty = level_samples(&config, 1).unwrap();
        let errors = clean.iter().filter(|&&l| decoder.classify(l) != 0).count()
            + dirty.iter().filter(|&&l| decoder.classify(l) != 1).count();
        let total = clean.len() + dirty.len();
        assert!(
            (errors as f64) / (total as f64) < 0.05,
            "calibrated decoder misclassified {errors}/{total}"
        );
    }

    #[test]
    fn table_iv_classes_match_the_paper_ranges() {
        let mut config = quiet_config();
        config.machine.tsc = TscConfig::ideal();
        let classes = access_latency_classes(&config).unwrap();
        assert!(
            (4.0..=5.0).contains(&classes.l1_hit.mean),
            "L1 hit {:.1}",
            classes.l1_hit.mean
        );
        assert!(
            (10.0..=12.0).contains(&classes.l2_hit_clean_victim.mean),
            "L2+clean {:.1}",
            classes.l2_hit_clean_victim.mean
        );
        assert!(
            (21.0..=24.0).contains(&classes.l2_hit_dirty_victim.mean),
            "L2+dirty {:.1}",
            classes.l2_hit_dirty_victim.mean
        );
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let rejects = |config: &CalibrationConfig, d: usize, field: &str| {
            let result = level_samples(config, d);
            assert!(
                matches!(result, Err(Error::InvalidConfig { field: f, .. }) if f == field),
                "d = {d}: {result:?}"
            );
        };
        let with_l1 = |size_bytes: usize, associativity: usize| {
            let mut config = quiet_config();
            config.machine.hierarchy.l1d = CacheConfig::builder(CacheLevel::L1D)
                .size_bytes(size_bytes)
                .associativity(associativity)
                .replacement(PolicyKind::TreePlru)
                .build()
                .unwrap();
            config
        };
        // An L1 of 16 sets has no set 21; one of 16 ways outgrows the
        // replacement sets.
        rejects(&with_l1(4 * 1024, 4), 0, "hierarchy");
        rejects(&with_l1(64 * 1024, 16), 0, "hierarchy");
        assert!(matches!(
            access_latency_classes(&with_l1(4 * 1024, 4)),
            Err(Error::InvalidConfig {
                field: "hierarchy",
                ..
            })
        ));
        rejects(&quiet_config(), 9, "d");
        // The message names the L1's real associativity.
        let config = with_l1(16 * 1024, 4);
        assert!(level_samples(&config, 4).is_ok());
        let error = level_samples(&config, 5).unwrap_err();
        assert!(
            error
                .to_string()
                .contains("cannot dirty 5 lines: the L1 set has 4 ways"),
            "{error}"
        );
        // Zero samples per level is an error in every measurement loop; any
        // positive count is honoured.
        let mut config = quiet_config();
        config.samples_per_level = 0;
        rejects(&config, 0, "samples_per_level");
        let no_samples = |result: Result<(), Error>| {
            assert!(
                matches!(
                    result,
                    Err(Error::InvalidConfig {
                        field: "samples_per_level",
                        ..
                    })
                ),
                "{result:?}"
            );
        };
        no_samples(latency_cdfs(&config, &[0]).map(drop));
        let encoding = SymbolEncoding::binary(1).unwrap();
        no_samples(calibrate_decoder(&mut fresh(&config), &config, &encoding).map(drop));
        no_samples(access_latency_classes(&config).map(drop));
        config.samples_per_level = 1;
        let samples = level_samples(&config, 0).unwrap();
        assert_eq!(samples.len(), 1);
        let classes = access_latency_classes(&config).unwrap();
        assert_eq!(classes.l1_hit.count, 1);
    }

    /// Runs `harness` on a machine with a TSC jitter, then one with an
    /// interrupt duration, that the models cannot compute with, and
    /// requires `InvalidConfig` naming the field.
    fn rejects_unusable_machines<T: std::fmt::Debug>(
        harness: impl Fn(&CalibrationConfig) -> Result<T, Error>,
    ) {
        let mut tsc = quiet_config();
        tsc.machine.tsc.jitter = u64::MAX;
        let mut interrupts = quiet_config();
        interrupts.machine.interrupts.duration = u64::MAX;
        interrupts.machine.interrupts.duration_jitter = 1;
        for (config, field) in [(tsc, "tsc"), (interrupts, "interrupts")] {
            match harness(&config) {
                Err(Error::InvalidConfig { field: named, .. }) => assert_eq!(named, field),
                other => panic!("{field}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn figure_4_rejects_an_unusable_tsc_or_interrupt_model() {
        rejects_unusable_machines(|config| latency_cdfs(config, &[0, 1]));
    }

    #[test]
    fn table_iv_rejects_an_unusable_tsc_or_interrupt_model() {
        // Table IV never reads the counter, yet gets the machine's rules.
        rejects_unusable_machines(access_latency_classes);
    }
}
