//! Channel configuration and transmission reports.
//!
//! [`ChannelConfig`] describes one covert channel — symbol encoding, period,
//! machine noise and an optional noisy neighbour — and
//! [`crate::session::ChannelSession`] runs it on the fixed layout: L1 set
//! [`crate::TARGET_SET`] and replacement sets of
//! [`crate::REPLACEMENT_SIZE`] lines.  Every transmission is
//! *compiled* onto the batched trace engine (sender, receiver and noise
//! programs interleaved by [`sim_core::machine::Machine::run_session`]), then
//! decoded with the calibrated thresholds and scored with the edit distance.
//! The session returns a [`TransmissionReport`] per frame and an
//! [`EvaluationReport`] per multi-frame point — the pipeline behind the
//! paper's Figures 5–7 and the bandwidth/error-rate numbers of Section V.

use crate::encoding::SymbolEncoding;
use crate::error::Error;
use analysis::edit_distance::ErrorBreakdown;
use sim_cache::hierarchy::HierarchyConfig;
use sim_cache::policy::PolicyKind;
use sim_core::machine::MachineConfig;
use sim_core::sched::InterruptConfig;
use sim_core::tsc::TscConfig;

/// Configuration of a noisy-neighbour process running alongside the channel
/// (Sec. VI / Figure 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Cycles between noise accesses to the target set (at least one).
    pub interval: u64,
    /// Number of distinct noisy lines cycled through (at least one).
    pub lines: usize,
    /// Fraction of noise accesses that are stores, in `[0, 1]`.
    pub store_fraction: f64,
}

impl NoiseConfig {
    /// A single clean noisy cache line touched every `interval` cycles — the
    /// scenario of Figure 8.
    pub fn single_clean_line(interval: u64) -> NoiseConfig {
        NoiseConfig {
            interval,
            lines: 1,
            store_fraction: 0.0,
        }
    }

    /// Rejects (field `noise`) a zero interval, zero lines or a store
    /// fraction outside `[0, 1]` (NaN included): the preconditions of
    /// [`sim_core::noise::NoisyNeighbor::new`].
    pub(crate) fn check(&self) -> Result<(), Error> {
        let reason = if self.interval == 0 {
            "the interval must be non-zero".to_owned()
        } else if self.lines == 0 {
            "at least one noisy line is needed".to_owned()
        } else if !(0.0..=1.0).contains(&self.store_fraction) {
            format!(
                "the store fraction must lie in [0, 1], got {}",
                self.store_fraction
            )
        } else {
            return Ok(());
        };
        Err(Error::InvalidConfig {
            field: "noise",
            reason,
        })
    }
}

/// Channel configuration, checked by [`ChannelConfig::check`]: the builder
/// runs it in `build`, and since the fields are public,
/// [`crate::session::ChannelSession::new`] checks a hand-built
/// configuration by the same rules.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelConfig {
    /// Symbol encoding.
    pub encoding: SymbolEncoding,
    /// Sending period `Ts` = sampling period `Tr`, in cycles.
    pub period_cycles: u64,
    /// L1 replacement policy of the simulated machine.
    pub policy: PolicyKind,
    /// OS interruption noise profile.
    pub interrupts: InterruptConfig,
    /// Measurement (rdtscp) noise profile.
    pub tsc: TscConfig,
    /// Optional noisy-neighbour process.
    pub noise: Option<NoiseConfig>,
    /// Optional hierarchy override (inclusion policy, write-back routing,
    /// latencies, LLC shape).  `None` runs the paper's default machine
    /// ([`sim_cache::hierarchy::HierarchyConfig::xeon_e5_2650`]); the
    /// hierarchy-matrix scenario injects commercial-processor presets here.
    /// The override's own `seed` field is ignored — per-frame seeds are
    /// stamped in, exactly as on the default path.
    pub hierarchy: Option<HierarchyConfig>,
    /// Calibration sample count per symbol level.
    pub calibration_samples: usize,
    /// Master seed.
    pub seed: u64,
}

/// The longest period [`ChannelConfig::check`] accepts, about 2 s per symbol
/// at [`sim_core::machine::CLOCK_GHZ`].  A frame's cycle budget is its
/// symbol count times the period plus a constant, and the parties anchor
/// every symbol at the rendezvous epoch plus a multiple of the period; with
/// at most `u32::MAX` cycles per symbol, both stay within `u64` for any
/// frame shorter than `u32::MAX` symbols.
const MAX_PERIOD_CYCLES: u64 = u32::MAX as u64;

impl ChannelConfig {
    /// Starts building a configuration with the paper's defaults.
    pub fn builder() -> ChannelConfigBuilder {
        ChannelConfigBuilder::new()
    }

    /// Checks every rule a session relies on; the builder and
    /// [`crate::session::ChannelSession::new`] both run it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidEncoding`] for an encoding that
    /// [`SymbolEncoding::validate`] rejects, and [`Error::InvalidConfig`],
    /// naming the field, for:
    /// - a noisy neighbour with a zero interval, no lines or a store
    ///   fraction outside `[0, 1]`;
    /// - a TSC or interrupt value [`MachineConfig::check`] rejects: a jitter
    ///   or overhead above `i64::MAX`, or a mean plus jitter that overflows
    ///   `u64` (fields `tsc` and `interrupts`);
    /// - a zero period, or one above `u32::MAX` cycles, which keeps a
    ///   frame's cycle budget and the parties' anchors within `u64`;
    /// - zero calibration samples;
    /// - a hierarchy override whose L1 is not the paper's 64-set, 8-way one,
    ///   or whose L1 replacement policy is not `policy`.
    pub fn check(&self) -> Result<(), Error> {
        self.encoding.validate()?;
        if let Some(noise) = self.noise {
            noise.check()?;
        }
        self.machine_config(self.seed).check()?;
        let invalid = |field, reason| Err(Error::InvalidConfig { field, reason });
        if !(1..=MAX_PERIOD_CYCLES).contains(&self.period_cycles) {
            return invalid(
                "period_cycles",
                format!(
                    "must lie in 1..={MAX_PERIOD_CYCLES}, got {}",
                    self.period_cycles
                ),
            );
        }
        if self.calibration_samples == 0 {
            return invalid(
                "calibration_samples",
                "each symbol level needs at least one calibration sample".into(),
            );
        }
        if let Some(hierarchy) = self.hierarchy {
            let l1 = hierarchy.l1d;
            if l1.geometry.num_sets != 64 || l1.geometry.associativity != 8 {
                return invalid(
                    "hierarchy",
                    format!(
                        "the channel needs the paper's 64-set, 8-way L1, got {} sets x {} ways",
                        l1.geometry.num_sets, l1.geometry.associativity
                    ),
                );
            }
            if l1.replacement != self.policy {
                return invalid(
                    "policy",
                    format!(
                        "the hierarchy override's L1 runs {}, not {}",
                        l1.replacement, self.policy
                    ),
                );
            }
        }
        Ok(())
    }

    pub(crate) fn machine_config(&self, seed: u64) -> MachineConfig {
        let mut machine = MachineConfig::xeon_e5_2650(self.policy, seed);
        if let Some(mut hierarchy) = self.hierarchy {
            hierarchy.seed = seed;
            machine.hierarchy = hierarchy;
        }
        machine.interrupts = self.interrupts;
        machine.tsc = self.tsc;
        machine
    }
}

impl Default for ChannelConfig {
    /// The paper's defaults: binary symbols with one dirty line,
    /// `Ts = Tr = 5500` cycles (400 kbps), Tree-PLRU, quiet pinned-core
    /// noise.  Every channel runs on L1 set [`crate::TARGET_SET`] with
    /// replacement sets of [`crate::REPLACEMENT_SIZE`] lines.
    fn default() -> Self {
        ChannelConfig {
            encoding: SymbolEncoding::Binary { dirty_lines: 1 },
            period_cycles: 5_500,
            policy: PolicyKind::TreePlru,
            interrupts: InterruptConfig::pinned_quiet(),
            tsc: TscConfig::xeon_e5_2650(),
            noise: None,
            hierarchy: None,
            calibration_samples: 120,
            seed: 1,
        }
    }
}

/// Builder for [`ChannelConfig`]: each setter writes into the configuration
/// it holds, and [`ChannelConfigBuilder::build`] checks it.
#[derive(Debug, Clone, Default)]
pub struct ChannelConfigBuilder {
    config: ChannelConfig,
}

impl ChannelConfigBuilder {
    /// Creates a builder holding [`ChannelConfig::default`], the paper's
    /// defaults.
    pub fn new() -> ChannelConfigBuilder {
        ChannelConfigBuilder::default()
    }

    /// Sets the symbol encoding.
    pub fn encoding(&mut self, encoding: SymbolEncoding) -> &mut Self {
        self.config.encoding = encoding;
        self
    }

    /// Sets `Ts = Tr` in cycles.
    pub fn period_cycles(&mut self, period: u64) -> &mut Self {
        self.config.period_cycles = period;
        self
    }

    /// Sets the L1 replacement policy.
    pub fn policy(&mut self, policy: PolicyKind) -> &mut Self {
        self.config.policy = policy;
        self
    }

    /// Sets the OS interruption profile.
    pub fn interrupts(&mut self, interrupts: InterruptConfig) -> &mut Self {
        self.config.interrupts = interrupts;
        self
    }

    /// Sets the measurement-noise profile.
    pub fn tsc(&mut self, tsc: TscConfig) -> &mut Self {
        self.config.tsc = tsc;
        self
    }

    /// Adds a noisy-neighbour process.
    pub fn noise(&mut self, noise: NoiseConfig) -> &mut Self {
        self.config.noise = Some(noise);
        self
    }

    /// Overrides the simulated machine's cache hierarchy (the sweep axis of
    /// the hierarchy-matrix scenario).  The override's L1 must keep the
    /// paper's 64-set, 8-way shape — set [`crate::TARGET_SET`] and
    /// replacement sets of [`crate::REPLACEMENT_SIZE`] lines are sized for
    /// it — and its L1 replacement policy becomes the channel's `policy`;
    /// a later [`ChannelConfigBuilder::policy`] must name the same one.
    pub fn hierarchy(&mut self, hierarchy: HierarchyConfig) -> &mut Self {
        self.config.hierarchy = Some(hierarchy);
        self.config.policy = hierarchy.l1d.replacement;
        self
    }

    /// Sets the number of calibration samples per symbol level (at least 1).
    pub fn calibration_samples(&mut self, samples: usize) -> &mut Self {
        self.config.calibration_samples = samples;
        self
    }

    /// Sets the master seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.config.seed = seed;
        self
    }

    /// Checks the configuration with [`ChannelConfig::check`] and returns a
    /// copy of it.
    ///
    /// # Errors
    ///
    /// Returns the first rule [`ChannelConfig::check`] finds broken.
    pub fn build(&self) -> Result<ChannelConfig, Error> {
        self.config.check()?;
        Ok(self.config.clone())
    }
}

/// Report of one frame transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct TransmissionReport {
    /// The bits that were transmitted (preamble included).
    pub sent_bits: Vec<bool>,
    /// The bits the receiver decoded (aligned to the frame start).
    pub received_bits: Vec<bool>,
    /// The raw latency samples observed by the receiver.
    pub latencies: Vec<u64>,
    /// Offset at which the preamble was found in the decoded stream.
    pub alignment_offset: usize,
    /// Edit distance between sent and received bits.
    pub edit_distance: usize,
    /// Per-error-type breakdown.
    pub breakdown: ErrorBreakdown,
    /// Bit error rate (edit distance / sent bits).
    pub(crate) bit_error_rate: f64,
    /// Achieved transmission rate in kbps.
    pub rate_kbps: f64,
}

impl TransmissionReport {
    /// The bit error rate of this transmission, in `[0, 1]`.
    pub fn bit_error_rate(&self) -> f64 {
        self.bit_error_rate
    }
}

/// Aggregate report of a multi-frame evaluation (one point of Figure 6).
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationReport {
    /// Number of frames transmitted.
    pub frames: usize,
    /// Bits per frame.
    pub bits_per_frame: usize,
    /// Mean bit error rate over all frames.
    pub mean_bit_error_rate: f64,
    /// Worst single-frame bit error rate.
    pub max_bit_error_rate: f64,
    /// Transmission rate in kbps.
    pub rate_kbps: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{compile_frame, ChannelSession};

    fn quiet_config(encoding: SymbolEncoding, period: u64) -> ChannelConfig {
        ChannelConfig::builder()
            .encoding(encoding)
            .period_cycles(period)
            .interrupts(InterruptConfig::none())
            .tsc(TscConfig::ideal())
            .calibration_samples(60)
            .seed(11)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_inputs() {
        assert!(matches!(
            ChannelConfig::builder().period_cycles(0).build(),
            Err(Error::InvalidConfig {
                field: "period_cycles",
                ..
            })
        ));
        let config = ChannelConfig::default();
        assert_eq!(config.period_cycles, 5_500);
    }

    #[test]
    fn builder_rejects_noise_the_neighbour_cannot_run() {
        let fig8 = NoiseConfig::single_clean_line(2_500);
        let bad = [
            NoiseConfig {
                interval: 0,
                ..fig8
            },
            NoiseConfig { lines: 0, ..fig8 },
            NoiseConfig {
                store_fraction: 1.5,
                ..fig8
            },
            NoiseConfig {
                store_fraction: -0.1,
                ..fig8
            },
            NoiseConfig {
                store_fraction: f64::NAN,
                ..fig8
            },
        ];
        for noise in bad {
            let built = ChannelConfig::builder().noise(noise).build();
            assert!(
                matches!(built, Err(Error::InvalidConfig { field: "noise", .. })),
                "{noise:?}: {built:?}"
            );
            // A struct-built configuration is rejected by the session.
            let config = ChannelConfig {
                noise: Some(noise),
                ..ChannelConfig::default()
            };
            assert!(
                matches!(
                    ChannelSession::new(config),
                    Err(Error::InvalidConfig { field: "noise", .. })
                ),
                "{noise:?}"
            );
        }
        // Figure 8's neighbour and the benchmark's noisy one still build.
        let noisy = NoiseConfig {
            interval: 1_500,
            lines: 2,
            store_fraction: 0.4,
        };
        for noise in [fig8, noisy] {
            assert!(ChannelConfig::builder().noise(noise).build().is_ok());
        }
    }

    #[test]
    fn builder_rejects_zero_calibration_samples() {
        // A level without samples has no latency class to calibrate; the
        // builder says so instead of the session failing in calibration.
        assert!(matches!(
            ChannelConfig::builder().calibration_samples(0).build(),
            Err(Error::InvalidConfig {
                field: "calibration_samples",
                ..
            })
        ));
        assert!(ChannelConfig::builder()
            .calibration_samples(1)
            .build()
            .is_ok());
    }

    /// `field`'s `InvalidConfig`, or a panic naming what was built.
    fn rejected_field(built: Result<ChannelConfig, Error>) -> &'static str {
        match built {
            Err(Error::InvalidConfig { field, .. }) => field,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn builder_rejects_tsc_jitter_above_i64_max() {
        let tsc = |jitter| TscConfig {
            jitter,
            ..TscConfig::xeon_e5_2650()
        };
        let over = i64::MAX as u64 + 1;
        assert_eq!(
            rejected_field(ChannelConfig::builder().tsc(tsc(over)).build()),
            "tsc"
        );
        assert_eq!(
            rejected_field(ChannelConfig::builder().tsc(tsc(u64::MAX)).build()),
            "tsc"
        );
        assert!(ChannelConfig::builder()
            .tsc(tsc(i64::MAX as u64))
            .build()
            .is_ok());
    }

    #[test]
    fn builder_rejects_tsc_overhead_above_i64_max() {
        let tsc = TscConfig {
            overhead: i64::MAX as u64 + 1,
            ..TscConfig::xeon_e5_2650()
        };
        assert_eq!(
            rejected_field(ChannelConfig::builder().tsc(tsc).build()),
            "tsc"
        );
    }

    #[test]
    fn builder_rejects_an_interrupt_period_that_overflows_with_its_jitter() {
        let interrupts = InterruptConfig {
            period: u64::MAX,
            period_jitter: 1,
            ..InterruptConfig::pinned_quiet()
        };
        assert_eq!(
            rejected_field(ChannelConfig::builder().interrupts(interrupts).build()),
            "interrupts"
        );
        let at_the_limit = InterruptConfig {
            period: u64::MAX - 1,
            ..interrupts
        };
        assert!(ChannelConfig::builder()
            .interrupts(at_the_limit)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_rejects_an_interrupt_duration_that_overflows_with_its_jitter() {
        let interrupts = InterruptConfig {
            duration: 3,
            duration_jitter: u64::MAX - 2,
            ..InterruptConfig::pinned_quiet()
        };
        assert_eq!(
            rejected_field(ChannelConfig::builder().interrupts(interrupts).build()),
            "interrupts"
        );
    }

    #[test]
    fn hand_built_invalid_encodings_are_rejected_not_panicked_on() {
        let invalid = [
            SymbolEncoding::MultiBit {
                levels: vec![0, 3, 5],
            },
            SymbolEncoding::Binary { dirty_lines: 0 },
            SymbolEncoding::MultiBit {
                levels: vec![0, 3, 5, 9],
            },
        ];
        for encoding in invalid {
            assert!(
                matches!(encoding.validate(), Err(Error::InvalidEncoding { .. })),
                "{encoding}"
            );
            let built = ChannelConfig::builder().encoding(encoding.clone()).build();
            assert!(
                matches!(built, Err(Error::InvalidEncoding { .. })),
                "{encoding}"
            );
            // The fields are public, so the session checks a struct-built
            // configuration too, before any frame is compiled.
            let config = ChannelConfig {
                encoding: encoding.clone(),
                ..ChannelConfig::default()
            };
            assert!(
                matches!(
                    ChannelSession::new(config),
                    Err(Error::InvalidEncoding { .. })
                ),
                "{encoding}"
            );
        }
    }

    #[test]
    fn builder_rejects_a_period_whose_frame_budget_overflows() {
        // A frame's budget is `(max_samples + 8) * period_cycles` plus a
        // constant; the bound keeps it within `u64`.
        let period = |cycles| ChannelConfig::builder().period_cycles(cycles).build();
        assert_eq!(rejected_field(period(u64::MAX)), "period_cycles");
        assert_eq!(
            rejected_field(period(u64::from(u32::MAX) + 1)),
            "period_cycles"
        );
        let at_the_limit = period(u64::from(u32::MAX)).unwrap();
        assert!(compile_frame(&at_the_limit, &[true; 8]).limit > u64::from(u32::MAX));
    }

    #[test]
    fn builder_rejects_a_policy_the_hierarchy_override_does_not_run() {
        use sim_cache::hierarchy::HierarchyPreset;
        // The override's L1 would run SRRIP while the config reported LRU.
        let arm = HierarchyPreset::ArmPoc
            .config(PolicyKind::Srrip, 8, 0)
            .unwrap();
        let built = ChannelConfig::builder()
            .hierarchy(arm)
            .policy(PolicyKind::TrueLru)
            .build();
        assert_eq!(rejected_field(built), "policy");
        assert!(ChannelConfig::builder()
            .hierarchy(arm)
            .policy(PolicyKind::Srrip)
            .build()
            .is_ok());
    }

    #[test]
    fn hierarchy_override_is_validated_and_syncs_the_policy() {
        use sim_cache::hierarchy::HierarchyPreset;
        // A non-paper L1 shape is rejected.
        let mut bad = HierarchyConfig::xeon_e5_2650(PolicyKind::TreePlru, 0);
        bad.l1d = sim_cache::config::CacheConfig::builder(sim_cache::config::CacheLevel::L1D)
            .size_bytes(16 * 1024)
            .associativity(4)
            .build()
            .unwrap();
        assert!(ChannelConfig::builder().hierarchy(bad).build().is_err());
        // A preset hierarchy is accepted, drives the machine, and its L1
        // policy becomes the channel policy.
        let preset = HierarchyPreset::ArmPoc
            .config(PolicyKind::Srrip, 8, 0)
            .unwrap();
        let config = ChannelConfig::builder().hierarchy(preset).build().unwrap();
        assert_eq!(config.policy, PolicyKind::Srrip);
        let machine = config.machine_config(42);
        assert_eq!(machine.hierarchy.latency, preset.latency);
        assert_eq!(machine.hierarchy.inclusion, preset.inclusion);
        assert_eq!(machine.hierarchy.seed, 42, "per-frame seeds are stamped");
    }

    #[test]
    fn quiet_transmission_is_error_free_on_every_hierarchy_preset() {
        use sim_cache::hierarchy::HierarchyPreset;
        // The paper's mechanism is an L1 dirty-eviction stall; it must
        // survive every commercial-processor hierarchy shape on the quiet
        // machine.
        for preset in HierarchyPreset::ALL {
            let hierarchy = preset.config(PolicyKind::TreePlru, 16, 0).unwrap();
            let config = ChannelConfig::builder()
                .encoding(SymbolEncoding::binary(1).unwrap())
                .interrupts(InterruptConfig::none())
                .tsc(TscConfig::ideal())
                .calibration_samples(60)
                .seed(11)
                .hierarchy(hierarchy)
                .build()
                .unwrap();
            let mut channel = ChannelSession::new(config).unwrap();
            let payload: Vec<bool> = (0..48).map(|i| i % 3 == 0).collect();
            let report = channel.transmit_bits(&payload).unwrap();
            assert_eq!(
                report.edit_distance,
                0,
                "preset {} must decode exactly: sent {:?} got {:?}",
                preset.label(),
                report.sent_bits,
                report.received_bits
            );
        }
    }

    #[test]
    fn noiseless_binary_transmission_is_error_free() {
        let config = quiet_config(SymbolEncoding::binary(1).unwrap(), 5_500);
        let mut channel = ChannelSession::new(config).unwrap();
        let payload: Vec<bool> = (0..48).map(|i| i % 3 == 0).collect();
        let report = channel.transmit_bits(&payload).unwrap();
        assert_eq!(
            report.edit_distance, 0,
            "noiseless channel must be exact: sent {:?} got {:?} (latencies {:?})",
            report.sent_bits, report.received_bits, report.latencies
        );
        assert_eq!(report.bit_error_rate(), 0.0);
        assert!((report.rate_kbps - 400.0).abs() < 1e-9);
    }

    #[test]
    fn noiseless_multibit_transmission_is_error_free() {
        let config = quiet_config(SymbolEncoding::paper_two_bit(), 4_000);
        let mut channel = ChannelSession::new(config).unwrap();
        let payload: Vec<bool> = (0..64).map(|i| (i * 7) % 5 < 2).collect();
        let report = channel.transmit_bits(&payload).unwrap();
        assert_eq!(report.edit_distance, 0, "latencies: {:?}", report.latencies);
        assert!((report.rate_kbps - 1_100.0).abs() < 1e-9);
    }

    #[test]
    fn larger_d_raises_received_latencies_for_ones() {
        let config_d1 = quiet_config(SymbolEncoding::binary(1).unwrap(), 5_500);
        let config_d8 = quiet_config(SymbolEncoding::binary(8).unwrap(), 5_500);
        let mut ch1 = ChannelSession::new(config_d1).unwrap();
        let mut ch8 = ChannelSession::new(config_d8).unwrap();
        let payload = vec![true; 32];
        let r1 = ch1.transmit_bits(&payload).unwrap();
        let r8 = ch8.transmit_bits(&payload).unwrap();
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        // Skip the preamble region (it contains zeros in both runs).
        assert!(
            mean(&r8.latencies[20..]) > mean(&r1.latencies[20..]) + 40.0,
            "d=8 should be ~77 cycles slower than d=1"
        );
    }

    #[test]
    fn realistic_noise_keeps_error_rate_low_at_400_kbps() {
        // The paper's Figure 6: at 400 kbps every d has a very low error rate.
        let config = ChannelConfig::builder()
            .encoding(SymbolEncoding::binary(4).unwrap())
            .period_cycles(5_500)
            .calibration_samples(80)
            .seed(5)
            .build()
            .unwrap();
        let mut channel = ChannelSession::new(config).unwrap();
        let report = channel.evaluate(6, 128).unwrap();
        assert!(
            report.mean_bit_error_rate < 0.08,
            "BER at 400 kbps should be small, got {}",
            report.mean_bit_error_rate
        );
        assert_eq!(report.frames, 6);
        assert!((report.rate_kbps - 400.0).abs() < 1e-9);
    }

    #[test]
    fn evaluation_report_scales_rate_with_period() {
        let config = quiet_config(SymbolEncoding::binary(2).unwrap(), 1_600);
        let mut channel = ChannelSession::new(config).unwrap();
        let report = channel.evaluate(2, 64).unwrap();
        assert!((report.rate_kbps - 1_375.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_neighbor_does_not_break_the_wb_channel() {
        // Figure 8(b): a clean noisy cache line does not disturb WB decoding.
        let mut builder = ChannelConfig::builder();
        builder
            .encoding(SymbolEncoding::binary(1).unwrap())
            .period_cycles(5_500)
            .interrupts(InterruptConfig::none())
            .tsc(TscConfig::ideal())
            .calibration_samples(60)
            .noise(NoiseConfig::single_clean_line(2_000))
            .seed(3);
        let config = builder.build().unwrap();
        let mut channel = ChannelSession::new(config).unwrap();
        let payload: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
        let report = channel.transmit_bits(&payload).unwrap();
        assert!(
            report.bit_error_rate() < 0.05,
            "clean noise lines must not disturb the WB channel, BER = {}",
            report.bit_error_rate()
        );
    }
}
