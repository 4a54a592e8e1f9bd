//! `repro trace` — cycle-domain tracing of one scenario operating point.
//!
//! For every selected scenario this module builds the channel configuration
//! of the scenario's point 0 as `repro run --full` does (the same lookup
//! [`crate::check`] verifies statically; the paper-default stand-in for
//! scenarios that never open a channel session), runs a short transmission with
//! the [`sim_core::telemetry`] sink enabled, and folds the recorded events
//! into the trace artifacts:
//!
//! * a **Chrome trace-event / Perfetto-compatible JSON** timeline
//!   (`TRACE_<id>_trace.json`) — calibrate span, per-frame spans, and the
//!   machine's per-phase spans per domain, all timestamped in **simulated
//!   cycles**;
//! * an **NDJSON event stream** (`TRACE_<id>_events.ndjson`) rendered
//!   through [`analysis::table::Table::to_ndjson`];
//! * a **per-phase cycle-attribution table** — where the simulated cycles
//!   went (calibrate / prime / encode / wait / decode / noise / other);
//! * a **per-frame BER timeline** — one row per transmitted frame;
//! * a **chase-latency histogram** over every measured sweep sample,
//!   reusing [`analysis::histogram::Histogram`].
//!
//! Tracing is asserted inert on every run: the recorded span tree must
//! validate (proper nesting, per-domain monotone cycles), and the decoded
//! bits are produced by exactly the same code path `repro run` uses with
//! the sink disabled.

use crate::check::{payload, point_configs};
use analysis::histogram::Histogram;
use analysis::table::{fixed, percent2, Table};
use runner::scenario::Scenario;
use runner::Registry;
use sim_core::telemetry::{export, EventKind, Phase, TraceEvent};
use wb_channel::protocol::Frame;
use wb_channel::session::ChannelSession;

/// Frames transmitted per traced scenario at quick scale.
pub const QUICK_FRAMES: usize = 2;
/// Frames transmitted per traced scenario at full scale.
pub const FULL_FRAMES: usize = 6;

/// Histogram shape for the chase-latency distribution.
const LATENCY_BINS: usize = 16;

/// The trace artifacts of one scenario operating point.
#[derive(Debug, Clone)]
pub struct TraceArtifact {
    /// The traced scenario's registry id.
    pub id: &'static str,
    /// Label of the point configuration that was traced.
    pub config_label: String,
    /// Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`).
    pub chrome_json: String,
    /// The raw recorded events, validated.
    pub events: Vec<TraceEvent>,
    /// The events rendered as a table (source of the NDJSON stream).
    pub event_stream: Table,
    /// Per-phase cycle attribution (calibration included).
    pub phases: Table,
    /// Per-frame BER timeline.
    pub timeline: Table,
    /// Chase-latency histogram over all measured sweep samples.
    pub latency: Table,
    /// Frames transmitted.
    pub frames: usize,
}

/// Renders one event as a row of the NDJSON stream table.
fn event_row(event: &TraceEvent) -> Vec<String> {
    let (kind, name, phase, detail) = match &event.kind {
        EventKind::Begin { name, phase } => (
            "begin",
            name.to_string(),
            phase.label().to_owned(),
            String::new(),
        ),
        EventKind::End { name } => ("end", name.to_string(), String::new(), String::new()),
        EventKind::Counter { name, value } => (
            "counter",
            name.to_string(),
            String::new(),
            value.to_string(),
        ),
        EventKind::Bit(bit) => (
            "bit",
            format!("frame{}[{}]", bit.frame, bit.index),
            String::new(),
            format!(
                "measured={} threshold={} margin={} decoded={}",
                bit.measured,
                bit.threshold.map_or("-".to_owned(), |t| fixed(t, 1)),
                bit.margin.map_or("-".to_owned(), |m| fixed(m, 1)),
                u8::from(bit.decoded),
            ),
        ),
    };
    vec![
        event.at.to_string(),
        event.domain.to_string(),
        kind.to_owned(),
        name,
        phase,
        detail,
    ]
}

/// Traces the first config of one scenario's point 0 for `frames` frames
/// and assembles the artifacts.
fn trace_scenario(scenario: &Scenario, frames: usize) -> Result<TraceArtifact, String> {
    let id = scenario.id;
    let (config_label, config) = point_configs(scenario, 1)?
        .into_iter()
        .next()
        .ok_or_else(|| format!("{id}: no channel configuration"))?;

    let mut session = ChannelSession::new(config).map_err(|e| format!("{id}: {e}"))?;
    session.enable_tracing();
    let payload = payload();

    let mut timeline = Table::new(
        format!("trace {id} [{config_label}]: per-frame BER timeline"),
        &["frame", "bits", "edit distance", "BER", "alignment offset"],
    );
    let mut samples: Vec<u64> = Vec::new();
    for frame_index in 0..frames {
        let frame = Frame::from_payload(&payload);
        let report = session
            .transmit_frame(&frame)
            .map_err(|e| format!("{id} frame {frame_index}: {e}"))?;
        timeline.push_row([
            frame_index.to_string(),
            report.sent_bits.len().to_string(),
            report.edit_distance.to_string(),
            percent2(report.bit_error_rate()),
            report.alignment_offset.to_string(),
        ]);
        samples.extend_from_slice(&report.latencies);
    }

    let events = session.take_trace();
    export::validate(&events).map_err(|e| format!("{id}: invalid trace: {e}"))?;
    let chrome_json = export::chrome_trace_json(&events);

    let mut event_stream = Table::new(
        format!("trace {id} [{config_label}]: event stream"),
        &["at", "domain", "event", "name", "phase", "detail"],
    );
    event_stream.extend_rows(events.iter().map(event_row));

    // Per-phase cycle attribution: the executed programs' step cycles plus
    // the calibration span (which runs before any program exists).
    let mut attributed = session.sim_usage().phase_cycles;
    attributed.add(Phase::Calibrate, session.calibration_cycles());
    let total = attributed.total().max(1);
    let mut phases = Table::new(
        format!("trace {id} [{config_label}]: cycle attribution by phase"),
        &["phase", "sim cycles", "share"],
    );
    for (phase, cycles) in attributed.iter() {
        phases.push_row([
            phase.label().to_owned(),
            cycles.to_string(),
            percent2(cycles as f64 / total as f64),
        ]);
    }

    // Chase-latency histogram over every measured sweep sample.
    let lo = samples.iter().copied().min().unwrap_or(0) as f64;
    let hi = samples.iter().copied().max().unwrap_or(0) as f64 + 1.0;
    let mut histogram = Histogram::new(lo, hi, LATENCY_BINS);
    for &sample in &samples {
        histogram.record(sample as f64);
    }
    let mut latency = Table::new(
        format!("trace {id} [{config_label}]: chase-latency histogram"),
        &["bin lo (cycles)", "bin hi (cycles)", "count"],
    );
    for (i, &count) in histogram.counts().iter().enumerate() {
        latency.push_row([
            fixed(histogram.bin_lo(i), 1),
            fixed(histogram.bin_lo(i + 1), 1),
            count.to_string(),
        ]);
    }

    Ok(TraceArtifact {
        id,
        config_label,
        chrome_json,
        events,
        event_stream,
        phases,
        timeline,
        latency,
        frames,
    })
}

/// Runs the trace pass over the scenarios selected by `patterns`.
///
/// # Errors
///
/// Returns selection errors, channel-construction errors, and trace
/// validation failures (a recorded timeline that does not nest is a bug,
/// never data).
pub fn run_trace(
    registry: &Registry,
    patterns: &[String],
    frames: usize,
) -> Result<Vec<TraceArtifact>, String> {
    let selected = registry.select(patterns)?;
    selected
        .iter()
        .map(|scenario| trace_scenario(scenario, frames))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracing_a_scenario_point_produces_validated_artifacts() {
        let registry = crate::registry();
        let artifacts = run_trace(&registry, &["fig5-7".to_owned()], QUICK_FRAMES).unwrap();
        assert_eq!(artifacts.len(), 1);
        let artifact = &artifacts[0];
        assert_eq!(artifact.id, "fig5-7");
        assert_eq!(artifact.frames, QUICK_FRAMES);
        assert!(!artifact.events.is_empty());
        // Chrome export parses structurally: balanced braces come from the
        // validator; here we check the envelope and the span categories.
        assert!(artifact.chrome_json.starts_with("{\"displayTimeUnit\""));
        assert!(artifact.chrome_json.contains("\"traceEvents\""));
        for span in ["calibrate", "frame", "encode", "decode"] {
            assert!(
                artifact
                    .chrome_json
                    .contains(&format!("\"name\":\"{span}\"")),
                "missing {span} span"
            );
        }
        // One timeline row per frame; every row carries a parsable BER.
        assert_eq!(artifact.timeline.len(), QUICK_FRAMES);
        // The phase table covers the whole taxonomy and attributes the bulk
        // of the cycles to real protocol phases, not `other`.
        assert_eq!(artifact.phases.len(), sim_core::telemetry::PHASE_COUNT);
        let cycles: Vec<u64> = artifact
            .phases
            .rows
            .iter()
            .map(|row| row[1].parse().unwrap())
            .collect();
        let total: u64 = cycles.iter().sum();
        let other = cycles[Phase::Other.index()];
        assert!(total > 0);
        assert!(
            other * 10 < total,
            "unattributed cycles dominate: {other}/{total}"
        );
        // The histogram counted every chase sample.
        let counted: u64 = artifact
            .latency
            .rows
            .iter()
            .map(|row| row[2].parse::<u64>().unwrap())
            .sum();
        assert!(counted > 0);
        // NDJSON stream: one header line plus one line per event.
        let ndjson = artifact.event_stream.to_ndjson("trace");
        assert_eq!(ndjson.lines().count(), 1 + artifact.events.len());
    }

    #[test]
    fn traced_decodes_match_untraced_runs_exactly() {
        // The determinism contract, end to end at the artifact level: the
        // BER timeline of a traced run equals the reports of an untraced one.
        let configs = point_configs(&crate::scenarios::FIG6, 1).unwrap();
        let (_, config) = configs.into_iter().next().unwrap();
        let payload = payload();
        let mut traced = ChannelSession::new(config.clone()).unwrap();
        traced.enable_tracing();
        let mut plain = ChannelSession::new(config).unwrap();
        for _ in 0..QUICK_FRAMES {
            let frame = Frame::from_payload(&payload);
            let a = traced.transmit_frame(&frame).unwrap();
            let b = plain.transmit_frame(&frame).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(traced.sim_usage(), plain.sim_usage());
    }
}
