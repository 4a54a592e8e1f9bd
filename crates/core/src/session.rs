//! The channel session: frame transmissions compiled onto the batched trace
//! engine.
//!
//! [`ChannelSession`] runs a [`crate::channel::ChannelConfig`].  For every
//! frame it *compiles* the whole transmission — the sender's
//! per-symbol store bursts, the receiver's initialisation loads, measured
//! sweeps and period waits, and any noisy-neighbour schedule — into
//! [`sim_core::session::TraceProgram`]s and executes them through
//! [`sim_core::machine::Machine::run_session`], the interleaved batched
//! executor.  The session owns one program per party for its whole life and
//! compiles every frame into them in place (`compile_into`).  It also owns
//! one machine for its whole life: the calibration measures every symbol
//! level on it and every frame runs on it, each after a `Machine::reset`,
//! so a session builds one machine and a steady-state frame allocates
//! neither programs nor cache arenas.
//!
//! ```text
//!   compile                 execute                      decode
//!   ───────►  TraceProgram  ───────►  latency samples  ────────►  bits
//!   sender     (per domain)  Machine::run_session        Decoder    +
//!   receiver                 (sched/tsc/noise applied)   align    score
//!   noise
//! ```

use crate::calibration::{calibrate_decoder, CalibrationConfig};
use crate::capacity::rate_kbps;
use crate::channel::{ChannelConfig, EvaluationReport, TransmissionReport};
use crate::error::Error;
use crate::protocol::Decoder;
use crate::protocol::{align_and_score, Frame};
use crate::receiver::WbReceiver;
use crate::sender::WbSender;
use crate::{PartyLines, RECEIVER_DOMAIN, REPLACEMENT_SIZE, SENDER_DOMAIN, TARGET_SET};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_cache::addr::CacheGeometry;
use sim_cache::trace::TraceSummary;
use sim_core::machine::Machine;
use sim_core::noise::NoisyNeighbor;
use sim_core::process::{AddressSpace, ProcessId};
use sim_core::session::TraceProgram;
use sim_core::telemetry::{BitDecision, Phase, PhaseCycles, TraceEvent, TraceSink};

/// Domain of the optional noise process, beside the two parties'
/// [`RECEIVER_DOMAIN`] and [`SENDER_DOMAIN`].
pub(crate) const NOISE_DOMAIN: u16 = 3;

/// The three parties of one frame, built identically by
/// [`ChannelSession::transmit_frame`] and by [`compile_frame`], which never
/// executes.
struct FrameParties {
    sender: WbSender,
    receiver: WbReceiver,
    noise: Option<NoisyNeighbor>,
    /// The cycle budget `run_session` is given for this frame.
    limit: u64,
}

impl FrameParties {
    fn build(
        config: &ChannelConfig,
        geometry: CacheGeometry,
        frame: &Frame,
        seed: u64,
    ) -> FrameParties {
        let parties = PartyLines::build(geometry, REPLACEMENT_SIZE);
        let symbols = config.encoding.bits_to_symbols(frame.bits());
        let symbol_count = symbols.len();
        // Rendezvous time agreed by both parties: generously after the
        // receiver's initialisation phase (28 cold loads) has finished.
        let epoch = 50_000u64;
        let sender = WbSender::new(
            SENDER_DOMAIN,
            parties.sender,
            config.encoding.clone(),
            symbols,
            config.period_cycles,
        )
        .with_start_epoch(epoch);
        // A few extra samples so that losses at the end can still be seen.
        let max_samples = symbol_count + 4;
        let receiver = WbReceiver::new(
            RECEIVER_DOMAIN,
            parties.receiver,
            config.period_cycles,
            max_samples,
            seed,
        )
        .with_start_epoch(epoch);

        let limit = epoch + (max_samples as u64 + 8) * config.period_cycles + 200_000;
        let noise = config.noise.map(|n| {
            NoisyNeighbor::new(
                AddressSpace::new(ProcessId(NOISE_DOMAIN)),
                geometry,
                TARGET_SET,
                n.lines,
                n.interval,
                n.store_fraction,
                NOISE_DOMAIN,
                seed ^ 0x6e6f,
            )
        });

        FrameParties {
            sender,
            receiver,
            noise,
            limit,
        }
    }

    /// The parties' trace programs in execution order: sender, receiver,
    /// then the noisy neighbour.  The order fixes the hardware-thread
    /// indices, and with them the scheduler's tie-breaks and the order the
    /// machine's RNG stream is drawn in.
    fn compile(&self) -> Vec<TraceProgram> {
        let mut programs = vec![self.sender.compile(), self.receiver.compile()];
        if let Some(noise) = &self.noise {
            programs.push(noise.compile(self.limit));
        }
        programs
    }

    /// [`FrameParties::compile`] into `programs`, rebuilding each program
    /// in place so its arenas keep their capacity from frame to frame.  The
    /// programs are created afresh only when the party count changes.
    fn compile_into(&self, programs: &mut Vec<TraceProgram>) {
        let parties = 2 + usize::from(self.noise.is_some());
        if programs.len() != parties {
            *programs = self.compile();
            return;
        }
        self.sender.compile_into(&mut programs[0]);
        self.receiver.compile_into(&mut programs[1]);
        if let Some(noise) = &self.noise {
            noise.compile_into(self.limit, &mut programs[2]);
        }
    }
}

/// One frame's compiled trace programs and cycle budget — the output of
/// [`compile_frame`], produced without executing a single simulated cycle.
#[derive(Debug, Clone)]
pub struct CompiledFrame {
    /// Per-party programs in execution order: sender, receiver, then the
    /// noisy neighbour when the config has one.
    pub programs: Vec<TraceProgram>,
    /// The cycle budget `Machine::run_session` would be given.
    pub limit: u64,
}

/// Compiles the first frame of a `payload` transmission under `config`
/// exactly as [`ChannelSession::transmit_bits`] would — same per-frame seed
/// derivation, layouts, rendezvous epoch and cycle budget — but without
/// building a machine, calibrating, or executing anything.
///
/// This is the entry point of the `repro check` static gate: every program
/// can be handed to [`TraceProgram::verify`] before any simulation runs.
///
/// # Panics
///
/// Only on a config that [`ChannelConfig::check`] rejects.
pub fn compile_frame(config: &ChannelConfig, payload: &[bool]) -> CompiledFrame {
    let frame = Frame::from_payload(payload);
    // The first transmission of a session.
    let seed = frame_seed(config, 1);
    let geometry = config.machine_config(seed).hierarchy.l1d.geometry;
    let parties = FrameParties::build(config, geometry, &frame, seed);
    CompiledFrame {
        programs: parties.compile(),
        limit: parties.limit,
    }
}

/// The seed of a session's `frame`-th transmission (counted from 1): it
/// seeds the frame's machine, the receiver's shuffles and the noise process.
fn frame_seed(config: &ChannelConfig, frame: u64) -> u64 {
    config.seed.wrapping_mul(0x9e37_79b9).wrapping_add(frame)
}

/// Cumulative simulated-work counters of a session, sourced from the
/// executed programs' [`TraceSummary`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimUsage {
    /// Frames transmitted.
    pub frames: u64,
    /// Aggregate of every memory operation simulated across all frames
    /// (sender, receiver and noise domains combined).
    pub summary: TraceSummary,
    /// Per-protocol-phase attribution of the executed programs' step cycles
    /// (always maintained, independent of event tracing).
    pub phase_cycles: PhaseCycles,
}

impl SimUsage {
    /// Total simulated cycles attributed to memory operations.
    pub fn cycles(&self) -> u64 {
        self.summary.cycles
    }

    /// Total simulated demand accesses.
    pub fn accesses(&self) -> u64 {
        self.summary.accesses()
    }
}

/// The end-to-end WB covert-channel session: calibration, per-frame
/// compilation, execution and decoding.
#[derive(Debug)]
pub struct ChannelSession {
    config: ChannelConfig,
    decoder: Decoder,
    rng: StdRng,
    frames_sent: u64,
    sim: SimUsage,
    /// The session's one machine: calibrated on, then reset (not
    /// reallocated) for every frame.
    machine: Machine,
    /// The frame's compiled programs (sender, receiver, noise), rebuilt in
    /// place every frame so a steady-state compile allocates nothing.
    programs: Vec<TraceProgram>,
    /// Session-level telemetry sink; null (zero-overhead) unless
    /// [`ChannelSession::enable_tracing`] is called.
    sink: TraceSink,
    /// Simulated cycles the calibration consumed (the calibrate span).
    calibration_cycles: u64,
    /// The session timeline clock: cumulative simulated cycles of the
    /// calibration plus every transmitted frame, used to stitch per-frame
    /// machine timelines (each starting at cycle 0) into one monotone trace.
    clock: u64,
}

impl ChannelSession {
    /// Builds the session's machine and calibrates the receiver's decision
    /// thresholds on it, each symbol level after a reset to the calibration
    /// machine; the frames then run on the same machine.
    ///
    /// # Errors
    ///
    /// Returns the error [`ChannelConfig::check`] finds in a hand-built
    /// `config`, then calibration errors.
    pub fn new(config: ChannelConfig) -> Result<ChannelSession, Error> {
        config.check()?;
        let calibration = CalibrationConfig {
            machine: config.machine_config(config.seed ^ 0xca11),
            samples_per_level: config.calibration_samples,
        };
        let mut machine = Machine::new(calibration.machine)?;
        let (decoder, calibration_cycles) =
            calibrate_decoder(&mut machine, &calibration, &config.encoding)?;
        Ok(ChannelSession {
            rng: StdRng::seed_from_u64(config.seed ^ 0xc0de),
            decoder,
            config,
            frames_sent: 0,
            sim: SimUsage::default(),
            machine,
            programs: Vec::new(),
            sink: TraceSink::disabled(),
            calibration_cycles,
            clock: calibration_cycles,
        })
    }

    /// Turns on span/event telemetry for the rest of the session.
    ///
    /// The calibration that already ran is recorded retroactively as a
    /// `calibrate` span covering `[0, calibration_cycles)` of the session
    /// timeline; every subsequent frame appends a `frame` span containing the
    /// machine's per-phase spans (stitched onto the monotone session clock)
    /// and one [`BitDecision`] event per decoded latency sample.  Tracing
    /// never touches the machine's RNG, TSC or scheduler state, so a traced
    /// session produces bit-identical reports to an untraced one.
    pub fn enable_tracing(&mut self) {
        if self.sink.is_enabled() {
            return;
        }
        self.sink = TraceSink::active();
        self.sink.begin(0, "calibrate", Phase::Calibrate, 0);
        self.sink.end(0, "calibrate", self.calibration_cycles);
        self.machine.enable_tracing();
    }

    /// Whether session telemetry is recording.
    pub fn tracing_enabled(&self) -> bool {
        self.sink.is_enabled()
    }

    /// The events recorded so far (empty when tracing is disabled).
    pub fn trace_events(&self) -> &[TraceEvent] {
        self.sink.events()
    }

    /// Drains the recorded events, leaving the sink recording.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.sink.take()
    }

    /// Simulated cycles the decoder calibration consumed.
    pub fn calibration_cycles(&self) -> u64 {
        self.calibration_cycles
    }

    /// The session configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// The calibrated decoder.
    pub fn decoder(&self) -> &Decoder {
        &self.decoder
    }

    /// Cumulative simulated-work counters over every frame transmitted so
    /// far.
    pub fn sim_usage(&self) -> SimUsage {
        self.sim
    }

    /// Draws a random frame payload from the session's payload stream.
    pub(crate) fn random_frame(&mut self, bits: usize) -> Frame {
        Frame::random(bits, &mut self.rng)
    }

    /// Transmits an arbitrary payload (the 16-bit preamble is prepended).
    ///
    /// # Errors
    ///
    /// Returns machine-reset errors.
    pub fn transmit_bits(&mut self, payload: &[bool]) -> Result<TransmissionReport, Error> {
        let frame = Frame::from_payload(payload);
        self.transmit_frame(&frame)
    }

    /// Transmits `frames` random frames of `bits_per_frame` bits each and
    /// aggregates the error statistics (one point of the paper's Figure 6).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `bits_per_frame` is shorter than
    /// the preamble, before any frame is sent, and machine-reset
    /// errors.
    pub fn evaluate(
        &mut self,
        frames: usize,
        bits_per_frame: usize,
    ) -> Result<EvaluationReport, Error> {
        Frame::check_length(bits_per_frame)?;
        let mut total_ber = 0.0;
        let mut max_ber: f64 = 0.0;
        for _ in 0..frames {
            let frame = self.random_frame(bits_per_frame);
            let report = self.transmit_frame(&frame)?;
            total_ber += report.bit_error_rate();
            max_ber = max_ber.max(report.bit_error_rate());
        }
        let mean = if frames == 0 {
            0.0
        } else {
            total_ber / frames as f64
        };
        Ok(EvaluationReport {
            frames,
            bits_per_frame,
            mean_bit_error_rate: mean,
            max_bit_error_rate: max_ber,
            rate_kbps: rate_kbps(
                self.config.encoding.bits_per_symbol(),
                self.config.period_cycles,
            ),
        })
    }

    /// Transmits one frame: derives the frame seed, resets the machine,
    /// compiles the parties into the session's programs and runs them through
    /// [`Machine::run_session`], then decodes the receiver's latency
    /// samples, aligns them with the sent bits and records telemetry.
    ///
    /// # Errors
    ///
    /// Returns machine-reset errors.
    pub fn transmit_frame(&mut self, frame: &Frame) -> Result<TransmissionReport, Error> {
        self.frames_sent += 1;
        let seed = frame_seed(&self.config, self.frames_sent);
        // Each frame runs on the machine in the exact state `Machine::new`
        // would produce for the frame seed.
        let machine = &mut self.machine;
        machine.reset(self.config.machine_config(seed))?;
        let geometry = machine.l1_geometry();
        let parties = FrameParties::build(&self.config, geometry, frame, seed);
        parties.compile_into(&mut self.programs);
        let report = machine.run_session(&self.programs, &mut [], parties.limit);
        self.sim.frames += 1;
        self.sim.summary.merge(&report.total_summary());
        self.sim.phase_cycles.merge(&report.phase_cycles());
        let latencies = report.programs[1].latencies();

        let decoded = self.decoder.bits(&latencies);
        let max_shift = 4 * self.config.encoding.bits_per_symbol();
        let alignment = align_and_score(frame.bits(), &decoded, max_shift);

        if self.sink.is_enabled() {
            let offset = self.clock;
            let frame_cycles = self.machine.now();
            self.sink.begin(0, "frame", Phase::Other, offset);
            self.sink.absorb(self.machine.take_trace(), offset);
            let threshold = self.decoder.binary_threshold();
            let end = offset + frame_cycles;
            for (index, &measured) in latencies.iter().enumerate() {
                self.sink.bit(
                    0,
                    BitDecision {
                        frame: self.frames_sent,
                        index,
                        measured,
                        threshold,
                        margin: threshold.map(|t| measured as f64 - t),
                        decoded: self.decoder.classify(measured) != 0,
                    },
                    end,
                );
            }
            self.sink.end(0, "frame", end);
            self.clock += frame_cycles;
        }

        Ok(TransmissionReport {
            sent_bits: frame.bits().to_vec(),
            received_bits: alignment.aligned_bits,
            latencies,
            alignment_offset: alignment.offset,
            edit_distance: alignment.edit_distance,
            breakdown: alignment.breakdown,
            bit_error_rate: alignment.bit_error_rate,
            rate_kbps: rate_kbps(
                self.config.encoding.bits_per_symbol(),
                self.config.period_cycles,
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::NoiseConfig;
    use crate::encoding::SymbolEncoding;
    use crate::protocol::PREAMBLE_BITS;
    use sim_core::sched::InterruptConfig;
    use sim_core::tsc::TscConfig;

    fn config(seed: u64) -> ChannelConfig {
        ChannelConfig::builder()
            .encoding(SymbolEncoding::binary(2).unwrap())
            .period_cycles(5_500)
            .calibration_samples(40)
            .seed(seed)
            .build()
            .unwrap()
    }

    /// `compile_frame` must mirror the first transmission of a fresh session
    /// (same seed derivation and party construction) and verify clean.
    #[test]
    fn compile_frame_is_deterministic_verified_and_complete() {
        let payload: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();

        let base = config(5);
        let compiled = compile_frame(&base, &payload);
        assert_eq!(compiled.programs.len(), 2, "sender + receiver");
        assert_eq!(compiled.programs[0].name(), "wb-sender");
        assert_eq!(compiled.programs[1].name(), "wb-receiver");
        assert!(compiled.limit > 50_000);
        for program in &compiled.programs {
            assert_eq!(program.verify(), Vec::new(), "{}", program.name());
            assert!(program.action_count() > 1);
        }
        let again = compile_frame(&base, &payload);
        assert_eq!(again.programs, compiled.programs);
        assert_eq!(again.limit, compiled.limit);

        let mut noisy = config(5);
        noisy.noise = Some(NoiseConfig {
            interval: 1_500,
            lines: 2,
            store_fraction: 0.4,
        });
        let with_noise = compile_frame(&noisy, &payload);
        assert_eq!(with_noise.programs.len(), 3, "sender + receiver + noise");
        assert_eq!(with_noise.programs[2].verify(), Vec::new());
    }

    /// The programs a session compiles in place every frame must equal a
    /// fresh compile of the same frame and seed, on a clean and a noisy
    /// config and across frame-length changes; a shorter frame after a
    /// longer one reuses the arenas without reallocating them.
    #[test]
    fn in_place_compiles_match_fresh_compiles() {
        let mut noisy = config(9);
        noisy.noise = Some(NoiseConfig {
            interval: 1_500,
            lines: 2,
            store_fraction: 0.4,
        });
        for config in [config(7), noisy] {
            let mut session = ChannelSession::new(config.clone()).unwrap();
            let mut arenas = Vec::new();
            for (index, bits) in [32, 128, 32].into_iter().enumerate() {
                let payload: Vec<bool> = (0..bits).map(|i| i % 3 != 1).collect();
                let frame = Frame::from_payload(&payload);
                session.transmit_frame(&frame).unwrap();
                let seed = frame_seed(&config, index as u64 + 1);
                let geometry = config.machine_config(seed).hierarchy.l1d.geometry;
                let fresh = FrameParties::build(&config, geometry, &frame, seed).compile();
                // Program equality covers the name, domain, steps, phases
                // and both arenas.
                assert_eq!(session.programs, fresh, "frame {index}");
                arenas.push(
                    session
                        .programs
                        .iter()
                        .map(|p| (p.op_arena().as_ptr(), p.chase_arena().as_ptr()))
                        .collect::<Vec<_>>(),
                );
            }
            assert_eq!(
                arenas[1], arenas[2],
                "the 32-bit frame fits the 128-bit arenas"
            );
        }
    }

    /// A session's first frame runs on the machine its calibration used,
    /// reset to the frame's configuration; it must equal the frame run on a
    /// freshly built machine, on a clean config, a noisy one and an AMD
    /// exclusive hierarchy with the Intel-like L1.
    #[test]
    fn the_first_frame_matches_one_on_a_fresh_machine() {
        use sim_cache::hierarchy::HierarchyPreset;
        use sim_cache::policy::PolicyKind;

        let mut noisy = config(13);
        noisy.noise = Some(NoiseConfig {
            interval: 1_500,
            lines: 2,
            store_fraction: 0.4,
        });
        let amd = ChannelConfig::builder()
            .encoding(SymbolEncoding::paper_two_bit())
            .period_cycles(2_200)
            .hierarchy(
                HierarchyPreset::AmdExclusive
                    .config(PolicyKind::IntelLike, 16, 0)
                    .unwrap(),
            )
            .calibration_samples(40)
            .seed(21)
            .build()
            .unwrap();
        let payload: Vec<bool> = (0..64).map(|i| i % 5 < 2).collect();
        for config in [config(13), noisy, amd] {
            let mut session = ChannelSession::new(config.clone()).unwrap();
            let report = session.transmit_bits(&payload).unwrap();

            let frame = Frame::from_payload(&payload);
            let seed = frame_seed(&config, 1);
            let mut machine = Machine::new(config.machine_config(seed)).unwrap();
            let parties = FrameParties::build(&config, machine.l1_geometry(), &frame, seed);
            let fresh = machine.run_session(&parties.compile(), &mut [], parties.limit);
            assert_eq!(report.latencies, fresh.programs[1].latencies());
            assert_eq!(session.sim_usage().summary, fresh.total_summary());
            assert_eq!(session.sim_usage().phase_cycles, fresh.phase_cycles());
            assert_eq!(session.machine.now(), machine.now());
        }
    }

    /// Tentpole determinism gate: enabling telemetry must not change a single
    /// bit of any transmission, and the recorded timeline must be a valid
    /// (properly nested, per-domain monotone) session trace.
    #[test]
    fn tracing_is_inert_and_produces_a_valid_session_timeline() {
        use sim_core::telemetry::{export, EventKind};

        let config = config(11);
        let payload: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();
        let mut plain = ChannelSession::new(config.clone()).unwrap();
        let mut traced = ChannelSession::new(config).unwrap();
        traced.enable_tracing();
        assert!(traced.tracing_enabled() && !plain.tracing_enabled());
        for _ in 0..2 {
            let frame = Frame::from_payload(&payload);
            let a = plain.transmit_frame(&frame).unwrap();
            let b = traced.transmit_frame(&frame).unwrap();
            assert_eq!(a, b, "tracing must not perturb transmissions");
        }
        assert_eq!(plain.sim_usage(), traced.sim_usage());
        assert!(traced.sim_usage().phase_cycles.total() > 0);
        assert!(traced.calibration_cycles() > 0);
        assert!(plain.trace_events().is_empty());

        let events = traced.trace_events();
        export::validate(events).expect("session trace must nest and stay monotone");
        let session_spans: Vec<&str> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Begin { name, .. } if e.domain == 0 => Some(name.as_ref()),
                _ => None,
            })
            .collect();
        assert_eq!(session_spans, ["calibrate", "frame", "frame"]);
        let machine_spans: Vec<&str> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Begin { name, .. } if e.domain != 0 => Some(name.as_ref()),
                _ => None,
            })
            .collect();
        for expected in ["prime", "encode", "wait", "decode"] {
            assert!(
                machine_spans.contains(&expected),
                "missing {expected} span in {machine_spans:?}"
            );
        }
        let bits = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Bit(_)))
            .count();
        assert!(bits > 0, "per-frame bit-decision events must be recorded");

        // Draining leaves the sink recording.
        let event_count = events.len();
        let drained = traced.take_trace();
        assert_eq!(drained.len(), event_count);
        assert!(traced.trace_events().is_empty());
        assert!(traced.tracing_enabled());
    }

    /// Hand-built configs that skip the builder's checks with an L1 the
    /// fixed layout does not fit: too few sets for [`TARGET_SET`], or more
    /// ways than [`REPLACEMENT_SIZE`].  `ChannelSession::new` returns
    /// `InvalidConfig` for each, before any frame is compiled.
    #[test]
    fn hand_built_configs_with_a_bad_layout_are_rejected() {
        use sim_cache::config::{CacheConfig, CacheLevel};
        use sim_cache::hierarchy::HierarchyConfig;
        use sim_cache::policy::PolicyKind;

        // 16 sets of 4 ways, and 64 sets of 16 ways.
        for (size_bytes, associativity) in [(4 * 1024, 4), (64 * 1024, 16)] {
            let mut hierarchy = HierarchyConfig::xeon_e5_2650(PolicyKind::TreePlru, 0);
            hierarchy.l1d = CacheConfig::builder(CacheLevel::L1D)
                .size_bytes(size_bytes)
                .associativity(associativity)
                .build()
                .unwrap();
            let hand_built = ChannelConfig {
                hierarchy: Some(hierarchy),
                ..config(5)
            };
            let error = ChannelSession::new(hand_built).unwrap_err();
            assert!(
                matches!(
                    error,
                    Error::InvalidConfig {
                        field: "hierarchy",
                        ..
                    }
                ),
                "{size_bytes} B x {associativity} ways: {error}"
            );
        }
    }

    /// A hand-built config's `InvalidConfig` field from
    /// `ChannelSession::new`, or a panic naming what it returned.
    fn session_rejects(config: ChannelConfig) -> &'static str {
        match ChannelSession::new(config) {
            Err(Error::InvalidConfig { field, .. }) => field,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn a_hand_built_zero_period_is_rejected() {
        // The receiver would take every sample at the same instant.
        let config = ChannelConfig {
            period_cycles: 0,
            ..config(5)
        };
        assert_eq!(session_rejects(config), "period_cycles");
    }

    #[test]
    fn a_hand_built_tsc_jitter_above_i64_max_is_rejected() {
        // Cast to `i64`, such a jitter makes an empty range to draw from.
        let mut config = config(5);
        config.tsc.jitter = u64::MAX;
        assert_eq!(session_rejects(config), "tsc");
    }

    #[test]
    fn hand_built_zero_calibration_samples_are_rejected_under_their_own_name() {
        // Named by the config's field, not by calibration's
        // `samples_per_level`.
        let config = ChannelConfig {
            calibration_samples: 0,
            ..config(5)
        };
        assert_eq!(session_rejects(config), "calibration_samples");
    }

    #[test]
    fn a_tsc_overhead_of_i64_max_fails_calibration() {
        // Every reading `true_cycles + overhead + jitter` saturates at
        // `i64::MAX` (the TSC model's tests pin that), so every symbol
        // level calibrates to one mean and no boundary separates them.
        let config = ChannelConfig::builder()
            .tsc(TscConfig {
                overhead: i64::MAX as u64,
                ..TscConfig::xeon_e5_2650()
            })
            .calibration_samples(40)
            .build()
            .unwrap();
        let error = ChannelSession::new(config).unwrap_err();
        assert!(matches!(error, Error::CalibrationFailed { .. }), "{error}");
    }

    #[test]
    fn an_interrupt_that_never_ends_stalls_the_frame_without_a_panic() {
        // The first interrupt stalls each party for about `u64::MAX` cycles:
        // `now + stall + gap` saturates, and the frame ends at its cycle
        // budget before the rendezvous epoch.
        let config = ChannelConfig::builder()
            .interrupts(InterruptConfig {
                period: 10_000,
                period_jitter: 0,
                duration: u64::MAX - 1,
                duration_jitter: 1,
            })
            .calibration_samples(40)
            .build()
            .unwrap();
        let mut session = ChannelSession::new(config).unwrap();
        let report = session.transmit_bits(&[true; 8]).unwrap();
        assert!(report.latencies.is_empty());
        assert_eq!(report.bit_error_rate(), 1.0);
    }

    #[test]
    fn sim_usage_accumulates_over_frames() {
        let mut config = config(3);
        config.interrupts = InterruptConfig::none();
        config.tsc = TscConfig::ideal();
        let mut session = ChannelSession::new(config).unwrap();
        assert_eq!(session.sim_usage(), SimUsage::default());
        let payload: Vec<bool> = (0..32).map(|i| i % 2 == 0).collect();
        session.transmit_bits(&payload).unwrap();
        let first = session.sim_usage();
        assert_eq!(first.frames, 1);
        assert!(first.accesses() > 0);
        assert!(first.cycles() > 0);
        session.transmit_bits(&payload).unwrap();
        let second = session.sim_usage();
        assert_eq!(second.frames, 2);
        assert!(second.accesses() > first.accesses());
    }

    #[test]
    fn evaluate_rejects_frames_shorter_than_the_preamble() {
        let mut session = ChannelSession::new(config(5)).unwrap();
        let error = session.evaluate(3, PREAMBLE_BITS - 1).unwrap_err();
        assert!(
            matches!(
                error,
                Error::InvalidConfig {
                    field: "bits_per_frame",
                    ..
                }
            ),
            "{error}"
        );
        assert_eq!(session.sim_usage().frames, 0, "no frame was sent");
        assert!(session.evaluate(1, PREAMBLE_BITS).is_ok());
    }
}
