//! The one period loop both baseline channels run.
//!
//! The baselines are synchronous period-by-period simulations driven directly
//! against a [`sim_core::machine::Machine`]: every period the receiver
//! prepares, the sender encodes one bit, an optional noise process
//! interferes, and the receiver decodes.  `transmit_periods` runs that loop
//! for both, after the same known-bit threshold calibration.  This is
//! sufficient for the comparisons the paper makes (noise robustness in
//! Figure 8, load counts in Table VI) without duplicating the full SMT pacing
//! machinery of the WB channel.

use analysis::edit_distance::bit_error_rate;
use analysis::threshold::BinaryThreshold;
use rand::rngs::StdRng;
use rand::Rng;
use sim_cache::trace::TraceOp;
use sim_core::machine::Machine;
use sim_core::memlayout::SetLines;
use sim_core::process::{AddressSpace, ProcessId};
use wb_channel::{RECEIVER_DOMAIN, SENDER_DOMAIN};

/// The receiver's domain and process: the WB channel's receiver domain.
pub(crate) const RECEIVER: u16 = RECEIVER_DOMAIN;
/// The sender's domain and process: the WB channel's sender domain.
pub(crate) const SENDER: u16 = SENDER_DOMAIN;
/// The noise process's domain and process.
pub(crate) const NOISE: u16 = 3;

/// Known-bit periods the receiver observes to place its threshold.
const CALIBRATION_ROUNDS: usize = 32;

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
    /// Channel name ("Prime+Probe", "LRU channel").
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

/// What [`transmit_periods`] runs: one baseline's warmed machine, its RNG
/// and the sender's accesses.
#[derive(Debug)]
pub(crate) struct Periods {
    /// Channel name, for the report.
    pub name: &'static str,
    /// The machine, every line already warm.
    pub machine: Machine,
    /// The channel's RNG: the noise draws, and whatever the receiver's
    /// prepare and decode steps draw, in period order.
    pub rng: StdRng,
    /// The L1 set the channel runs on; the noise lines map to it too.
    pub target_set: usize,
    /// The sender's accesses for a `1`; a `0` is silence.
    pub encode: Vec<TraceOp>,
}

/// Transmits `bits` over a baseline channel: [`CALIBRATION_ROUNDS`]
/// alternating known bits place the threshold, then each bit takes one
/// period of `prepare` → the sender's `encode` → an optional noisy access
/// (`noise`) → `decode`, whose observable is classified in the calibrated
/// direction.
pub(crate) fn transmit_periods(
    periods: Periods,
    bits: &[bool],
    noise: Option<NoiseSpec>,
    mut prepare: impl FnMut(&mut Machine, &mut StdRng),
    mut decode: impl FnMut(&mut Machine, &mut StdRng) -> u64,
) -> BaselineReport {
    let Periods {
        name,
        mut machine,
        mut rng,
        target_set,
        encode,
    } = periods;
    let noise_lines = SetLines::build(
        AddressSpace::new(ProcessId(NOISE)),
        machine.l1_geometry(),
        target_set,
        2,
        9_000,
    );
    let mut period = |bit: bool, noise: Option<NoiseSpec>| -> u64 {
        prepare(&mut machine, &mut rng);
        if bit {
            machine.run_trace(SENDER, &encode);
        }
        if let Some(noise) = noise {
            if rng.gen_bool(noise.probability.clamp(0.0, 1.0)) {
                let line = noise_lines.line(rng.gen_range(0..noise_lines.len()));
                let op = if noise.dirty {
                    TraceOp::write(line)
                } else {
                    TraceOp::read(line)
                };
                machine.run_trace(NOISE, &[op]);
            }
        }
        decode(&mut machine, &mut rng)
    };
    let threshold = calibrate_threshold(|bit| period(bit, None));
    let observations: Vec<u64> = bits.iter().map(|&bit| period(bit, noise)).collect();
    let received = observations
        .iter()
        .map(|&observed| threshold.classify_directed(observed as f64))
        .collect();
    let ones = bits.iter().filter(|&&bit| bit).count();
    let sender_accesses = (ones * encode.len()) as u64;
    BaselineReport::new(name, bits, received, observations, sender_accesses)
}

/// Calibrates a binary threshold from alternating known-bit observations.
///
/// `observe` is called once per calibration round (`CALIBRATION_ROUNDS`)
/// with that round's training bit, alternating from 0, and must return the
/// receiver's observable for that bit.
pub fn calibrate_threshold<F: FnMut(bool) -> u64>(mut observe: F) -> BinaryThreshold {
    let mut zeros = Vec::new();
    let mut ones = Vec::new();
    for i in 0..CALIBRATION_ROUNDS {
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
        let mut bits = Vec::new();
        let threshold = calibrate_threshold(|bit| {
            bits.push(bit);
            if bit {
                200
            } else {
                100
            }
        });
        let alternating: Vec<bool> = (0..CALIBRATION_ROUNDS).map(|i| i % 2 == 1).collect();
        assert_eq!(bits, alternating, "every round, alternating from 0");
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
}
