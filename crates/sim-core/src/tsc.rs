//! Time-stamp-counter model.
//!
//! The receiver measures replacement latencies with `rdtscp` pairs around a
//! pointer-chasing walk (the paper's Figure 3).  Real `rdtscp` measurements
//! carry three artefacts that the simulator reproduces so that decoded traces
//! look like the paper's Figures 5 and 7 rather than noiseless step
//! functions:
//!
//! * a fixed **serialisation overhead** — the two `rdtscp` instructions and
//!   the register moves cost a few tens of cycles that are included in every
//!   measurement;
//! * **granularity** — the counter may tick in increments larger than one
//!   cycle on some parts;
//! * **jitter** — pipeline and frontend effects perturb each measurement by a
//!   few cycles.

use rand::Rng;

/// Configuration of the measurement model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TscConfig {
    /// Fixed overhead added to every measured interval (cycles).
    pub overhead: u64,
    /// Counter granularity: measured values are rounded down to a multiple of
    /// this (1 = cycle-accurate).
    pub granularity: u64,
    /// Maximum absolute jitter added to each measurement (cycles); the jitter
    /// is drawn uniformly from `[-jitter, +jitter]`.
    pub jitter: u64,
}

impl TscConfig {
    /// Measurement behaviour matching the paper's Sandy Bridge target: a
    /// ~24-cycle `rdtscp` fence overhead, cycle granularity, ±3 cycles of
    /// jitter.
    pub fn xeon_e5_2650() -> TscConfig {
        TscConfig {
            overhead: 24,
            granularity: 1,
            jitter: 3,
        }
    }

    /// An idealised noiseless counter (useful in unit tests).
    pub fn ideal() -> TscConfig {
        TscConfig {
            overhead: 0,
            granularity: 1,
            jitter: 0,
        }
    }

    /// A deliberately degraded counter, modelling the "fuzzy time" defense of
    /// Sec. VIII (reduced resolution plus large jitter).
    pub fn fuzzy(granularity: u64, jitter: u64) -> TscConfig {
        TscConfig {
            overhead: 24,
            granularity: granularity.max(1),
            jitter,
        }
    }
}

impl Default for TscConfig {
    fn default() -> Self {
        TscConfig::xeon_e5_2650()
    }
}

/// The measurement model applied to true elapsed cycle counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TscModel {
    config: TscConfig,
}

impl TscModel {
    /// Creates the model from its configuration.
    pub fn new(config: TscConfig) -> TscModel {
        TscModel { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> TscConfig {
        self.config
    }

    /// Converts a true elapsed interval into the value the attacker's
    /// `rdtscp` pair would report.
    pub fn measure<R: Rng + ?Sized>(&self, true_cycles: u64, rng: &mut R) -> u64 {
        let jitter = if self.config.jitter == 0 {
            0i64
        } else {
            rng.gen_range(-(self.config.jitter as i64)..=(self.config.jitter as i64))
        };
        // Saturating, overhead and jitter first: the sum is exact wherever
        // it fits in an `i64`.
        let raw = (true_cycles as i64)
            .saturating_add((self.config.overhead as i64).saturating_add(jitter));
        let raw = raw.max(0) as u64;
        if self.config.granularity <= 1 {
            raw
        } else {
            raw - raw % self.config.granularity
        }
    }
}

impl Default for TscModel {
    fn default() -> Self {
        TscModel::new(TscConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_counter_is_exact() {
        let model = TscModel::new(TscConfig::ideal());
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(model.measure(117, &mut rng), 117);
        assert_eq!(model.measure(0, &mut rng), 0);
    }

    #[test]
    fn default_counter_adds_overhead_within_jitter_band() {
        let model = TscModel::default();
        let mut rng = StdRng::seed_from_u64(2);
        let config = model.config();
        for _ in 0..200 {
            let measured = model.measure(110, &mut rng);
            let lo = 110 + config.overhead - config.jitter;
            let hi = 110 + config.overhead + config.jitter;
            assert!(
                (lo..=hi).contains(&measured),
                "measured {measured} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn granularity_quantises_measurements() {
        let model = TscModel::new(TscConfig::fuzzy(64, 0));
        let mut rng = StdRng::seed_from_u64(3);
        for cycles in [10u64, 100, 130, 1000] {
            let measured = model.measure(cycles, &mut rng);
            assert_eq!(measured % 64, 0, "measurement must be a multiple of 64");
        }
    }

    #[test]
    fn fuzzy_time_reduces_distinguishability() {
        // With a 64-cycle granularity the ~11-cycle dirty-line signal
        // frequently disappears — the property the defense relies on.
        let fuzzy = TscModel::new(TscConfig::fuzzy(64, 0));
        let mut rng = StdRng::seed_from_u64(4);
        let clean = fuzzy.measure(110, &mut rng);
        let dirty = fuzzy.measure(121, &mut rng);
        assert_eq!(clean, dirty, "one dirty line hides below the granularity");
    }

    #[test]
    fn measurement_never_underflows() {
        let model = TscModel::new(TscConfig {
            overhead: 0,
            granularity: 1,
            jitter: 10,
        });
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            // true_cycles = 0 with negative jitter must clamp at zero.
            let _ = model.measure(0, &mut rng);
        }
    }

    #[test]
    fn an_overhead_of_i64_max_saturates_every_reading() {
        // `true_cycles + overhead + jitter` is past `i64::MAX` for any true
        // latency of at least the jitter, and clamps there.
        let model = TscModel::new(TscConfig {
            overhead: i64::MAX as u64,
            ..TscConfig::xeon_e5_2650()
        });
        let mut rng = StdRng::seed_from_u64(6);
        for cycles in [3u64, 110, 1 << 40] {
            for _ in 0..50 {
                assert_eq!(model.measure(cycles, &mut rng), i64::MAX as u64);
            }
        }
    }
}
