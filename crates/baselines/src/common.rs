//! Shared infrastructure for the baseline cache covert channels.
//!
//! The baselines are implemented as synchronous period-by-period simulations
//! driven directly against a [`sim_core::machine::Machine`]: every period the
//! receiver prepares, the sender encodes one bit, an optional noise process
//! interferes, and the receiver decodes.  This is sufficient for the
//! comparisons the paper makes (noise robustness in Figure 8, requirement
//! matrix in Table I, load counts in Table VI) without duplicating the full
//! SMT pacing machinery of the WB channel.

use analysis::edit_distance::bit_error_rate;
use analysis::threshold::BinaryThreshold;
use wb_channel::Error;

/// How a noisy cache line interferes with a transmission (Figure 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseSpec {
    /// Probability that a noisy line is loaded into the target set between
    /// the sender's encoding step and the receiver's decoding step.
    pub probability: f64,
    /// Whether the noisy access is a store (dirtying the line) rather than a
    /// load.
    pub dirty: bool,
}

impl NoiseSpec {
    /// One clean noisy line per period — the scenario of Figure 8.
    pub fn every_period() -> NoiseSpec {
        NoiseSpec {
            probability: 1.0,
            dirty: false,
        }
    }
}

/// Outcome of one baseline transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineReport {
    /// Channel name ("Flush+Reload", "Prime+Probe", ...).
    pub channel: String,
    /// Bits given to the sender.
    pub sent: Vec<bool>,
    /// Bits recovered by the receiver.
    pub received: Vec<bool>,
    /// Receiver observables (latencies or miss counts), one per bit.
    pub observations: Vec<u64>,
    /// Bit error rate (edit distance over sent length).
    pub bit_error_rate: f64,
    /// Total memory accesses the *sender* needed for the whole transmission
    /// (the Table VI stealth metric).
    pub sender_accesses: u64,
}

impl BaselineReport {
    /// Assembles a report from raw transmission data.
    pub fn new(
        channel: &str,
        sent: &[bool],
        received: Vec<bool>,
        observations: Vec<u64>,
        sender_accesses: u64,
    ) -> BaselineReport {
        BaselineReport {
            channel: channel.to_owned(),
            bit_error_rate: bit_error_rate(sent, &received),
            sent: sent.to_vec(),
            received,
            observations,
            sender_accesses,
        }
    }
}

/// A covert channel evaluated against the WB channel.
pub trait BaselineChannel {
    /// Human-readable channel name.
    fn name(&self) -> &'static str;

    /// Whether the channel needs memory shared between sender and receiver
    /// (Table I's reuse-based attacks).
    fn requires_shared_memory(&self) -> bool;

    /// Whether the channel needs the `clflush` instruction.
    fn requires_clflush(&self) -> bool;

    /// Transmits `bits` and returns the report.
    ///
    /// # Errors
    ///
    /// Returns configuration errors from the underlying simulator.
    fn transmit(&mut self, bits: &[bool]) -> Result<BaselineReport, Error>;

    /// Transmits `bits` while a noisy cache line interferes.
    ///
    /// # Errors
    ///
    /// Returns configuration errors from the underlying simulator.
    fn transmit_with_noise(
        &mut self,
        bits: &[bool],
        noise: NoiseSpec,
    ) -> Result<BaselineReport, Error>;
}

/// Classifies an observable with a calibrated threshold, honouring the
/// direction of the channel: for some channels (Flush+Reload) a *lower*
/// observable means bit 1, for others (Prime+Probe, WB) a *higher* one does.
pub fn classify_bit(threshold: &BinaryThreshold, value: u64) -> bool {
    let ones_are_slower = threshold.mean_one >= threshold.mean_zero;
    if ones_are_slower {
        threshold.classify(value as f64)
    } else {
        !threshold.classify(value as f64)
    }
}

/// Calibrates a binary threshold from alternating known-bit observations.
///
/// `observe` is called `rounds` times with the training bit and must return
/// the receiver's observable for that bit.
pub fn calibrate_threshold<F: FnMut(bool) -> u64>(
    rounds: usize,
    mut observe: F,
) -> BinaryThreshold {
    let mut zeros = Vec::new();
    let mut ones = Vec::new();
    for i in 0..rounds.max(8) {
        let bit = i % 2 == 1;
        let value = observe(bit) as f64;
        if bit {
            ones.push(value);
        } else {
            zeros.push(value);
        }
    }
    BinaryThreshold::calibrate(&zeros, &ones)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_computes_edit_distance_based_error_rate() {
        let sent = vec![true, false, true, true];
        let received = vec![true, true, true, true];
        let report = BaselineReport::new("demo", &sent, received, vec![1, 2, 3, 4], 7);
        assert!((report.bit_error_rate - 0.25).abs() < 1e-12);
        assert_eq!(report.sender_accesses, 7);
        assert_eq!(report.channel, "demo");
    }

    #[test]
    fn threshold_calibration_places_boundary_between_classes() {
        let threshold = calibrate_threshold(20, |bit| if bit { 200 } else { 100 });
        assert!(threshold.value() > 100.0 && threshold.value() < 200.0);
        assert!(threshold.classify(180.0));
        assert!(!threshold.classify(120.0));
    }

    #[test]
    fn noise_spec_every_period_is_certain_and_clean() {
        let spec = NoiseSpec::every_period();
        assert_eq!(spec.probability, 1.0);
        assert!(!spec.dirty);
    }

    #[test]
    fn classify_bit_follows_the_channel_direction() {
        // Ones slower (WB / Prime+Probe direction).
        let slower = BinaryThreshold::calibrate(&[100.0], &[200.0]);
        assert!(classify_bit(&slower, 190));
        assert!(!classify_bit(&slower, 110));
        // Ones faster (Flush+Reload direction).
        let faster = BinaryThreshold::calibrate(&[200.0], &[100.0]);
        assert!(classify_bit(&faster, 110));
        assert!(!classify_bit(&faster, 190));
    }
}
