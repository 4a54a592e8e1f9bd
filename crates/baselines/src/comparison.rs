//! Cross-channel comparisons: Table I, Figure 8 and the Table VI load
//! comparison.

use crate::common::NoiseSpec;
use crate::lru_channel::LruChannel;
use crate::prime_probe::PrimeProbe;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_core::machine::CLOCK_GHZ;
use wb_channel::channel::{ChannelConfig, NoiseConfig};
use wb_channel::encoding::SymbolEncoding;
use wb_channel::session::ChannelSession;
use wb_channel::Error;

/// One row of the paper's Table I, extended with the requirements the paper
/// discusses in Section VI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassificationRow {
    /// Channel name.
    pub channel: String,
    /// Hit+Miss, Hit+Hit or Miss+Miss.
    pub class: String,
    /// Contention-based or reuse-based.
    pub basis: String,
    /// Whether sender and receiver must share memory.
    pub needs_shared_memory: bool,
    /// Whether the attack needs `clflush`.
    pub needs_clflush: bool,
}

/// The classification table (Table I) for the channels implemented in this
/// repository.
pub fn classification_table() -> Vec<ClassificationRow> {
    let row = |channel: &str, class: &str, basis: &str, mem: bool, flush: bool| ClassificationRow {
        channel: channel.to_owned(),
        class: class.to_owned(),
        basis: basis.to_owned(),
        needs_shared_memory: mem,
        needs_clflush: flush,
    };
    vec![
        row("Flush+Reload", "Hit+Miss", "reuse", true, true),
        row("Flush+Flush", "Hit+Miss", "reuse", true, true),
        row("Evict+Reload", "Hit+Miss", "reuse", true, false),
        row("Prime+Probe", "Hit+Miss", "contention", false, false),
        row("LRU channel", "Hit+Miss", "contention", false, false),
        row(
            "CacheBleed (bank contention)",
            "Hit+Hit",
            "contention",
            false,
            false,
        ),
        row(
            "WB channel (this paper)",
            "Miss+Miss",
            "contention",
            false,
            false,
        ),
    ]
}

/// Result of the Figure 8 noise-robustness comparison for one channel.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseRobustness {
    /// Channel name.
    pub channel: String,
    /// Bit error rate without interference.
    pub ber_clean: f64,
    /// Bit error rate with one noisy cache line per period.
    pub ber_noisy: f64,
}

impl NoiseRobustness {
    /// How much the noise degraded the channel.
    pub fn degradation(&self) -> f64 {
        self.ber_noisy - self.ber_clean
    }
}

/// Runs the Figure 8 experiment: transmits the same random payload over the
/// LRU channel, Prime+Probe and the WB channel, with and without a noisy
/// cache line, and reports the error rates.
///
/// # Errors
///
/// Propagates simulator configuration errors.
pub fn noise_robustness_comparison(bits: usize, seed: u64) -> Result<Vec<NoiseRobustness>, Error> {
    let mut rng = StdRng::seed_from_u64(seed);
    let payload: Vec<bool> = (0..bits).map(|_| rng.gen()).collect();
    let mut results = Vec::new();

    // Baselines.
    let noise = Some(NoiseSpec::every_period());
    let lru = LruChannel::new(seed);
    let pp = PrimeProbe::new(seed);
    results.push(NoiseRobustness {
        channel: lru.name().to_owned(),
        ber_clean: lru.transmit(&payload, None)?.bit_error_rate,
        ber_noisy: lru.transmit(&payload, noise)?.bit_error_rate,
    });
    results.push(NoiseRobustness {
        channel: pp.name().to_owned(),
        ber_clean: pp.transmit(&payload, None)?.bit_error_rate,
        ber_noisy: pp.transmit(&payload, noise)?.bit_error_rate,
    });

    // WB channel, clean and with a noisy neighbour touching the target set.
    let clean = ChannelSession::new(wb_comparison_config(false, seed)?)?
        .transmit_bits(&payload)?
        .bit_error_rate();
    let noisy = ChannelSession::new(wb_comparison_config(true, seed)?)?
        .transmit_bits(&payload)?
        .bit_error_rate();
    results.push(NoiseRobustness {
        channel: "WB channel".to_owned(),
        ber_clean: clean,
        ber_noisy: noisy,
    });

    Ok(results)
}

/// The WB channel's Figure 8 configuration: binary symbols with one dirty
/// line at `Ts = 5500`, clean or beside a noisy neighbour that touches one
/// clean line of the target set every 2500 cycles.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn wb_comparison_config(noisy: bool, seed: u64) -> Result<ChannelConfig, Error> {
    let mut builder = ChannelConfig::builder();
    builder
        .encoding(SymbolEncoding::binary(1)?)
        .period_cycles(5_500)
        .calibration_samples(80)
        .seed(seed);
    if noisy {
        builder.noise(NoiseConfig::single_clean_line(2_500));
    }
    builder.build()
}

/// Estimated sender cache loads per millisecond when one bit is sent every
/// `period_cycles` cycles and each bit costs `accesses_per_bit` memory
/// accesses (the Table VI metric for the baseline senders, whose period-based
/// pacing is not simulated cycle-by-cycle), at [`CLOCK_GHZ`].
pub fn loads_per_ms_estimate(accesses_per_bit: f64, period_cycles: u64) -> f64 {
    if period_cycles == 0 {
        return 0.0;
    }
    let bits_per_ms = CLOCK_GHZ * 1e6 / period_cycles as f64;
    accesses_per_bit * bits_per_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_all_three_classes() {
        let table = classification_table();
        assert!(table.iter().any(|r| r.class == "Hit+Miss"));
        assert!(table.iter().any(|r| r.class == "Hit+Hit"));
        assert!(table.iter().any(|r| r.class == "Miss+Miss"));
        // The WB channel needs neither shared memory nor clflush.
        let wb = table.iter().find(|r| r.channel.contains("WB")).unwrap();
        assert!(!wb.needs_shared_memory);
        assert!(!wb.needs_clflush);
    }

    #[test]
    fn wb_channel_is_the_most_noise_robust() {
        let results = noise_robustness_comparison(64, 3).unwrap();
        assert_eq!(results.len(), 3);
        let wb = results.iter().find(|r| r.channel == "WB channel").unwrap();
        let lru = results.iter().find(|r| r.channel == "LRU channel").unwrap();
        assert!(
            wb.degradation() < lru.degradation(),
            "WB degradation {} should be below LRU degradation {}",
            wb.degradation(),
            lru.degradation()
        );
        assert!(wb.ber_noisy < 0.15, "WB channel stays usable under noise");
        assert!(lru.ber_noisy > 0.2, "LRU channel breaks under noise");
    }

    #[test]
    fn load_estimate_scales_with_period_and_accesses() {
        let slow = loads_per_ms_estimate(1.0, 11_000);
        let fast = loads_per_ms_estimate(1.0, 5_500);
        assert!((fast / slow - 2.0).abs() < 1e-9);
        assert_eq!(loads_per_ms_estimate(1.0, 0), 0.0);
        // WB sender: ~0.5 accesses per bit vs LRU sender: 4 accesses per bit.
        assert!(loads_per_ms_estimate(0.5, 11_000) < loads_per_ms_estimate(4.0, 11_000));
    }
}
