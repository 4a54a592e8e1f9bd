//! Lane-parallel channel transmissions: independent sweep points batched
//! onto one [`LaneMachine`].
//!
//! A registry sweep evaluates many `(config, seed)` points whose frames all
//! compile to the *same program shape* (see
//! [`sim_core::verify::lane_compatibility`]) — only seeds, periods and
//! addresses differ.  [`LaneChannelSession`] exploits that: it owns one
//! calibrated decoder, payload RNG and frame counter per lane plus a single
//! [`LaneMachine`], compiles every lane's next frame up front, and executes
//! the whole batch through one
//! [`run_sessions`](LaneMachine::run_sessions) call, amortising the session
//! executor's dispatch across the batch.
//!
//! ## Equivalence contract
//!
//! Lane `i` of a `k`-lane session is bit-identical to a serial
//! [`ChannelSession`] built from the same [`ChannelConfig`] and fed the same
//! frames in the same order: calibration thresholds, per-frame seeds,
//! [`TransmissionReport`]s and [`SimUsage`] counters all match byte for
//! byte.  `tests/lane_channel_equivalence.rs` pins this; the determinism CI
//! job additionally checks lanes 1-vs-4 byte-identity of sweep manifests.
//!
//! Telemetry stays on the serial path: lanes never trace (a sweep point that
//! needs a timeline runs through [`ChannelSession::enable_tracing`]
//! instead), which keeps the batch loop free of per-frame sink stitching.

use crate::calibration::{calibrate_decoder_with_cycles, CalibrationConfig};
use crate::capacity::{rate_kbps, RatePoint};
use crate::channel::{ChannelConfig, EvaluationReport, TransmissionReport};
use crate::error::Error;
use crate::protocol::{align_and_score, Decoder, Frame};
use crate::session::{compile_lane_frame, ChannelSession, SimUsage};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_core::lanes::{LaneMachine, LaneSession};
use sim_core::session::TraceProgram;

/// Per-lane decoding and bookkeeping state — everything a serial
/// [`ChannelSession`] keeps outside its machine.
#[derive(Debug)]
struct Lane {
    config: ChannelConfig,
    decoder: Decoder,
    rng: StdRng,
    frames_sent: u64,
    sim: SimUsage,
    calibration_cycles: u64,
}

/// A bank of independent channel sessions transmitting in lockstep over one
/// [`LaneMachine`] — the lane-parallel counterpart of [`ChannelSession`].
#[derive(Debug)]
pub struct LaneChannelSession {
    lanes: Vec<Lane>,
    bank: LaneMachine,
}

impl LaneChannelSession {
    /// Builds one lane per configuration and calibrates every lane's decoder
    /// up front (the batched calibrate step), on a machine identical to the
    /// one the serial [`ChannelSession::new`] would calibrate on.
    ///
    /// # Errors
    ///
    /// Returns configuration or calibration errors.
    pub fn new(configs: &[ChannelConfig]) -> Result<LaneChannelSession, Error> {
        let mut lanes = Vec::with_capacity(configs.len());
        for config in configs {
            let calibration = CalibrationConfig {
                machine: config.machine_config(config.seed ^ 0xca11),
                target_set: config.target_set,
                replacement_size: config.replacement_size,
                samples_per_level: config.calibration_samples,
                seed: config.seed ^ 0xca11,
            };
            let (decoder, calibration_cycles) =
                calibrate_decoder_with_cycles(&calibration, &config.encoding)?;
            lanes.push(Lane {
                rng: StdRng::seed_from_u64(config.seed ^ 0xc0de),
                decoder,
                config: config.clone(),
                frames_sent: 0,
                sim: SimUsage::default(),
                calibration_cycles,
            });
        }
        // The bank is reset with per-frame configs before every batch, so
        // the construction-time seeds are irrelevant; use the session seeds.
        let machine_configs: Vec<_> = configs
            .iter()
            .map(|config| config.machine_config(config.seed))
            .collect();
        let bank = LaneMachine::new(&machine_configs)?;
        Ok(LaneChannelSession { lanes, bank })
    }

    /// Number of lanes in the session.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The configuration of `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lane_count()`.
    pub fn config(&self, lane: usize) -> &ChannelConfig {
        &self.lanes[lane].config
    }

    /// The calibrated decoder of `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lane_count()`.
    pub fn decoder(&self, lane: usize) -> &Decoder {
        &self.lanes[lane].decoder
    }

    /// Cumulative simulated-work counters of `lane`, matching the serial
    /// session's [`ChannelSession::sim_usage`].
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lane_count()`.
    pub fn sim_usage(&self, lane: usize) -> SimUsage {
        self.lanes[lane].sim
    }

    /// Simulated cycles `lane`'s decoder calibration consumed, matching the
    /// serial session's [`ChannelSession::calibration_cycles`].
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lane_count()`.
    pub fn calibration_cycles(&self, lane: usize) -> u64 {
        self.lanes[lane].calibration_cycles
    }

    /// Transmits one frame per lane as a single lockstep batch.
    ///
    /// Per lane this is bit-identical to
    /// [`ChannelSession::transmit_frame`]: the same per-frame seed is drawn
    /// from the lane's frame counter, the same programs are compiled, and
    /// the lane's machine is reset to the exact state the serial path would
    /// build.  Reports come back in lane order.
    ///
    /// # Panics
    ///
    /// Panics if `frames.len() != lane_count()`.
    ///
    /// # Errors
    ///
    /// Returns machine-construction errors.
    pub fn transmit_frames(&mut self, frames: &[Frame]) -> Result<Vec<TransmissionReport>, Error> {
        assert_eq!(frames.len(), self.lanes.len(), "one frame per lane");
        let mut machine_configs = Vec::with_capacity(self.lanes.len());
        let mut compiled: Vec<(Vec<TraceProgram>, u64)> = Vec::with_capacity(self.lanes.len());
        for (lane, frame) in self.lanes.iter_mut().zip(frames.iter()) {
            lane.frames_sent += 1;
            let seed = lane
                .config
                .seed
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add(lane.frames_sent);
            machine_configs.push(lane.config.machine_config(seed));
            compiled.push(compile_lane_frame(&lane.config, frame, seed));
        }
        self.bank.reset(&machine_configs)?;
        let batch: Vec<LaneSession<'_>> = compiled
            .iter()
            .map(|(programs, limit)| LaneSession {
                programs,
                limit: *limit,
            })
            .collect();
        let reports = self.bank.run_sessions(&batch);

        let mut out = Vec::with_capacity(reports.len());
        for ((lane, frame), report) in self.lanes.iter_mut().zip(frames.iter()).zip(reports) {
            let latencies = report.programs[1].latencies();
            lane.sim.frames += 1;
            lane.sim.summary.merge(&report.total_summary());
            lane.sim.phase_cycles.merge(&report.phase_cycles());
            let decoded = lane.decoder.bits(&latencies);
            let max_shift = 4 * lane.config.encoding.bits_per_symbol();
            let alignment = align_and_score(frame.bits(), &decoded, max_shift);
            out.push(TransmissionReport {
                sent_bits: frame.bits().to_vec(),
                received_bits: alignment.aligned_bits,
                latencies,
                alignment_offset: alignment.offset,
                edit_distance: alignment.edit_distance,
                breakdown: alignment.breakdown,
                bit_error_rate: alignment.bit_error_rate,
                rate_kbps: rate_kbps(
                    lane.config.encoding.bits_per_symbol(),
                    lane.config.period_cycles,
                    2.2,
                ),
            });
        }
        Ok(out)
    }

    /// Transmits `frames` random frames of `bits_per_frame` bits per lane
    /// and aggregates each lane's error statistics — the batched counterpart
    /// of [`ChannelSession::evaluate`], drawing each lane's payloads from
    /// the same per-lane stream the serial session would use.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `bits_per_frame` is shorter than
    /// the preamble, before any frame is sent, and machine-construction
    /// errors.
    pub fn evaluate(
        &mut self,
        frames: usize,
        bits_per_frame: usize,
    ) -> Result<Vec<EvaluationReport>, Error> {
        let widths = vec![bits_per_frame; self.lanes.len()];
        self.evaluate_lanes(frames, &widths)
    }

    /// [`LaneChannelSession::evaluate`] with a per-lane frame width — sweep
    /// batches routinely mix encodings whose points transmit different
    /// payload sizes at the same frame count.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_frame.len() != lane_count()`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when any lane's width is shorter than
    /// the preamble, before any frame is sent, and machine-construction
    /// errors.
    pub fn evaluate_lanes(
        &mut self,
        frames: usize,
        bits_per_frame: &[usize],
    ) -> Result<Vec<EvaluationReport>, Error> {
        assert_eq!(
            bits_per_frame.len(),
            self.lanes.len(),
            "one frame width per lane"
        );
        for &bits in bits_per_frame {
            Frame::check_length(bits)?;
        }
        let mut total_ber = vec![0.0f64; self.lanes.len()];
        let mut max_ber = vec![0.0f64; self.lanes.len()];
        for _ in 0..frames {
            let batch: Vec<Frame> = self
                .lanes
                .iter_mut()
                .zip(bits_per_frame.iter())
                .map(|(lane, &bits)| Frame::random(bits, &mut lane.rng))
                .collect();
            let reports = self.transmit_frames(&batch)?;
            for (lane, report) in reports.iter().enumerate() {
                total_ber[lane] += report.bit_error_rate();
                max_ber[lane] = max_ber[lane].max(report.bit_error_rate());
            }
        }
        Ok(self
            .lanes
            .iter()
            .enumerate()
            .map(|(lane, state)| {
                let mean = if frames == 0 {
                    0.0
                } else {
                    total_ber[lane] / frames as f64
                };
                let rate = rate_kbps(
                    state.config.encoding.bits_per_symbol(),
                    state.config.period_cycles,
                    2.2,
                );
                EvaluationReport {
                    frames,
                    bits_per_frame: bits_per_frame[lane],
                    mean_bit_error_rate: mean,
                    max_bit_error_rate: max_ber[lane],
                    rate_kbps: rate,
                    rate_point: RatePoint {
                        period_cycles: state.config.period_cycles,
                        rate_kbps: rate,
                        bit_error_rate: mean,
                    },
                }
            })
            .collect())
    }
}

/// Statically checks that `configs` compile to lane-compatible frames (the
/// `lane-shape` rule of [`sim_core::verify`]): the first frame of every
/// config's transmission is compiled without executing and the step shapes
/// are compared against the first config's.  Empty means the whole group can
/// share one [`LaneChannelSession`] batch.
pub fn lane_compatible(
    configs: &[ChannelConfig],
    payload: &[bool],
) -> Vec<sim_core::verify::ProgramDiagnostic> {
    let compiled: Vec<Vec<TraceProgram>> = configs
        .iter()
        .map(|config| crate::session::compile_frame(config, payload).programs)
        .collect();
    let refs: Vec<&[TraceProgram]> = compiled.iter().map(Vec::as_slice).collect();
    sim_core::verify::lane_compatibility(&refs)
}

/// Convenience used by the runner: a serial session built like lane `i`
/// would be — shared by tests asserting the equivalence contract.
///
/// # Errors
///
/// Returns configuration or calibration errors.
pub fn serial_session(config: &ChannelConfig) -> Result<ChannelSession, Error> {
    ChannelSession::new(config.clone())
}
