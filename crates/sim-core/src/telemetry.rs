//! Cycle-domain tracing: span and counter telemetry keyed to simulated
//! cycles.
//!
//! The determinism contract (results are a pure function of seed, scale and
//! selection) forbids wall-clock timestamps anywhere near results, so the
//! telemetry layer speaks **simulated cycles only**: every event carries the
//! machine's cycle counter at the moment it was recorded, and an enabled
//! sink observes exactly the run a disabled sink would have produced — the
//! sink never touches the machine RNG, the TSC or the scheduler.
//!
//! ## Event model
//!
//! A [`TraceSink`] collects [`TraceEvent`]s: phase **span** begin/end pairs
//! (per domain, nested, monotone in cycles), **counter** samples, and
//! per-frame **bit-decision** records carrying the measured chase latency,
//! the calibration threshold and the decision margin. When the sink is
//! disabled (the default), every record call is a single branch on a bool —
//! zero allocation, zero work — which is what lets the instrumentation stay
//! compiled into the hot session loop.
//!
//! ## Span taxonomy
//!
//! [`Phase`] names the protocol phases of the paper's Algorithm 3:
//! `calibrate` (threshold training), `prime` (the receiver's dirty-state
//! priming accesses), `encode` (the sender's store bursts), `wait` (epoch
//! and period alignment), `decode` (the receiver's timed pointer chases)
//! and `noise` (co-runner interference). Steps not claimed by any phase
//! fall into `other`, which `repro check --verbose` reports as missing
//! instrumentation.
//!
//! The [`export`] submodule renders events as Chrome trace-event JSON
//! (loadable in Perfetto / `chrome://tracing`) and validates span nesting.

use std::borrow::Cow;
use std::fmt;

/// The protocol phase a trace span (or a compiled program step) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Decoder threshold training against the calibration machine.
    Calibrate,
    /// The receiver's priming accesses establishing the dirty state.
    Prime,
    /// The sender's per-symbol store bursts (and spin reads).
    Encode,
    /// Epoch/period alignment waits on either side.
    Wait,
    /// The receiver's timed pointer chases and bit decisions.
    Decode,
    /// Co-runner noise traffic.
    Noise,
    /// Steps not attributed to any phase (missing instrumentation).
    Other,
}

/// Number of [`Phase`] variants (the length of [`Phase::ALL`]).
pub const PHASE_COUNT: usize = 7;

impl Phase {
    /// Every phase, in reporting order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Calibrate,
        Phase::Prime,
        Phase::Encode,
        Phase::Wait,
        Phase::Decode,
        Phase::Noise,
        Phase::Other,
    ];

    /// The stable lowercase label used in trace files and table columns.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Calibrate => "calibrate",
            Phase::Prime => "prime",
            Phase::Encode => "encode",
            Phase::Wait => "wait",
            Phase::Decode => "decode",
            Phase::Noise => "noise",
            Phase::Other => "other",
        }
    }

    /// The phase's index into [`Phase::ALL`] / [`PhaseCycles`].
    pub fn index(self) -> usize {
        match self {
            Phase::Calibrate => 0,
            Phase::Prime => 1,
            Phase::Encode => 2,
            Phase::Wait => 3,
            Phase::Decode => 4,
            Phase::Noise => 5,
            Phase::Other => 6,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Simulated cycles attributed to each [`Phase`] — the per-phase
/// cycle-attribution profile a session accumulates whether or not a sink is
/// recording (the counters are sim-cycle arithmetic, so they are part of the
/// deterministic result, not telemetry overhead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCycles {
    cycles: [u64; PHASE_COUNT],
}

impl PhaseCycles {
    /// Adds `cycles` to `phase`'s bucket.
    pub fn add(&mut self, phase: Phase, cycles: u64) {
        self.cycles[phase.index()] += cycles;
    }

    /// Cycles attributed to `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.cycles[phase.index()]
    }

    /// Folds another profile into this one.
    pub fn merge(&mut self, other: &PhaseCycles) {
        for (mine, theirs) in self.cycles.iter_mut().zip(other.cycles.iter()) {
            *mine += theirs;
        }
    }

    /// Total cycles across all phases.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// `(phase, cycles)` pairs in [`Phase::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL.iter().map(move |&p| (p, self.cycles[p.index()]))
    }
}

/// One per-frame bit decision: the receiver's measured chase latency against
/// the calibrated threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitDecision {
    /// Zero-based frame number within the session.
    pub frame: u64,
    /// Zero-based sample index within the frame.
    pub index: usize,
    /// Measured pointer-chase latency (cycles).
    pub measured: u64,
    /// The calibrated decision threshold (cycles), if the decoder has one.
    pub threshold: Option<f64>,
    /// `measured - threshold` (positive: decided dirty/1), if thresholded.
    pub margin: Option<f64>,
    /// The decoded bit.
    pub decoded: bool,
}

/// What one [`TraceEvent`] records.
///
/// Span and counter names are `Cow<'static, str>` so the session executor's
/// hot loop — whose names are all `'static` phase labels and counter names —
/// records events without allocating; only dynamically named spans (e.g.
/// `"frame 3"`) pay for an owned string.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span opens (`ph: "B"` in Chrome trace terms).
    Begin {
        /// Span name (e.g. `"frame 3"`, `"encode"`).
        name: Cow<'static, str>,
        /// The protocol phase the span belongs to.
        phase: Phase,
    },
    /// The innermost open span of the domain closes (`ph: "E"`).
    End {
        /// Span name, matching the corresponding [`EventKind::Begin`].
        name: Cow<'static, str>,
    },
    /// A counter sample (`ph: "C"`).
    Counter {
        /// Counter name.
        name: Cow<'static, str>,
        /// Sampled value.
        value: u64,
    },
    /// A per-frame bit decision (`ph: "i"`, an instant event).
    Bit(BitDecision),
}

/// One telemetry event, stamped with the simulated cycle it happened at and
/// the trace domain (thread/program lane) it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated cycle the event was recorded at.
    pub at: u64,
    /// Trace domain (session = 0, receiver/sender/noise as registered).
    pub domain: u16,
    /// The event payload.
    pub kind: EventKind,
}

/// The event collector. Disabled by default: every record call then costs a
/// single predicted branch, so instrumentation can stay compiled into hot
/// loops without a measurable throughput cost.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl TraceSink {
    /// A recording sink.
    pub fn active() -> Self {
        TraceSink {
            enabled: true,
            events: Vec::new(),
        }
    }

    /// A disabled (null) sink — same as `Default`.
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// Whether the sink records events.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span on `domain` at cycle `at`.  A `&'static str` name (every
    /// phase label) records without allocating.
    pub fn begin(
        &mut self,
        domain: u16,
        name: impl Into<Cow<'static, str>>,
        phase: Phase,
        at: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            at,
            domain,
            kind: EventKind::Begin {
                name: name.into(),
                phase,
            },
        });
    }

    /// Closes the innermost open span on `domain` at cycle `at`.
    pub fn end(&mut self, domain: u16, name: impl Into<Cow<'static, str>>, at: u64) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            at,
            domain,
            kind: EventKind::End { name: name.into() },
        });
    }

    /// Records a counter sample.
    pub fn counter(
        &mut self,
        domain: u16,
        name: impl Into<Cow<'static, str>>,
        value: u64,
        at: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            at,
            domain,
            kind: EventKind::Counter {
                name: name.into(),
                value,
            },
        });
    }

    /// Switches `domain`'s open phase span in one batched append: closes
    /// `prev` (when present) and opens `next`, both stamped `at`.  This is
    /// the session executor's per-step emission path — one enabled check and
    /// one reservation for the whole step, with `'static` phase-label names,
    /// instead of separate allocating `end`/`begin` calls per event.
    pub fn phase_switch(&mut self, domain: u16, prev: Option<Phase>, next: Phase, at: u64) {
        if !self.enabled {
            return;
        }
        self.events.reserve(2);
        if let Some(prev) = prev {
            self.events.push(TraceEvent {
                at,
                domain,
                kind: EventKind::End {
                    name: Cow::Borrowed(prev.label()),
                },
            });
        }
        self.events.push(TraceEvent {
            at,
            domain,
            kind: EventKind::Begin {
                name: Cow::Borrowed(next.label()),
                phase: next,
            },
        });
    }

    /// Records one per-frame bit decision.
    pub fn bit(&mut self, domain: u16, decision: BitDecision, at: u64) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            at,
            domain,
            kind: EventKind::Bit(decision),
        });
    }

    /// Folds events recorded on another sink into this one, shifting their
    /// timestamps by `offset` cycles — how a session stitches the per-frame
    /// machine timelines (each starting at cycle 0) into one monotone
    /// session timeline.
    pub fn absorb(&mut self, events: Vec<TraceEvent>, offset: u64) {
        if !self.enabled {
            return;
        }
        self.events.extend(events.into_iter().map(|mut e| {
            e.at += offset;
            e
        }));
    }

    /// The recorded events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Takes the recorded events, leaving the sink empty (still enabled).
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

/// Chrome trace-event export and span validation.
pub mod export {
    use super::{EventKind, TraceEvent};

    fn escape(text: &str) -> String {
        let mut out = String::with_capacity(text.len());
        for c in text.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    fn float(value: f64) -> String {
        if value.fract() == 0.0 && value.abs() < 1e15 {
            format!("{value:.1}")
        } else {
            format!("{value}")
        }
    }

    /// Renders events as Chrome trace-event JSON (the `traceEvents` object
    /// form), loadable in Perfetto and `chrome://tracing`. Timestamps are
    /// **simulated cycles**, reported through the `ts` microsecond field —
    /// the absolute unit is wrong by design (there is no wall clock), the
    /// relative timeline is exact.
    pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
        let mut out = String::with_capacity(events.len() * 96 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, event) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let common = format!("\"ts\":{},\"pid\":1,\"tid\":{}", event.at, event.domain);
            match &event.kind {
                EventKind::Begin { name, phase } => out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"B\",{common}}}",
                    escape(name),
                    phase.label()
                )),
                EventKind::End { name } => out.push_str(&format!(
                    "{{\"name\":\"{}\",\"ph\":\"E\",{common}}}",
                    escape(name)
                )),
                EventKind::Counter { name, value } => out.push_str(&format!(
                    "{{\"name\":\"{}\",\"ph\":\"C\",{common},\"args\":{{\"value\":{value}}}}}",
                    escape(name)
                )),
                EventKind::Bit(bit) => {
                    let threshold = bit.threshold.map_or("null".to_owned(), float);
                    let margin = bit.margin.map_or("null".to_owned(), float);
                    out.push_str(&format!(
                        "{{\"name\":\"bit\",\"ph\":\"i\",\"s\":\"t\",{common},\"args\":{{\
                         \"frame\":{},\"index\":{},\"measured\":{},\"threshold\":{threshold},\
                         \"margin\":{margin},\"decoded\":{}}}}}",
                        bit.frame, bit.index, bit.measured, bit.decoded
                    ));
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// Validates the span discipline: per domain, `End` events close the
    /// innermost open `Begin` with the same name, timestamps never run
    /// backwards, and no span is left open at the end of the stream.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate(events: &[TraceEvent]) -> Result<(), String> {
        // Domains are a small dense set; a sorted vec of (domain, stack)
        // avoids the banned std HashMap.
        let mut stacks: Vec<(u16, Vec<(&str, u64)>)> = Vec::new();
        let mut last_at: Vec<(u16, u64)> = Vec::new();
        for (i, event) in events.iter().enumerate() {
            let at = match last_at.iter_mut().find(|(d, _)| *d == event.domain) {
                Some(entry) => &mut entry.1,
                None => {
                    last_at.push((event.domain, 0));
                    &mut last_at.last_mut().expect("just pushed").1
                }
            };
            if event.at < *at {
                return Err(format!(
                    "event {i}: timestamp {} runs backwards on domain {} (previous {})",
                    event.at, event.domain, *at
                ));
            }
            *at = event.at;
            let stack = match stacks.iter_mut().find(|(d, _)| *d == event.domain) {
                Some(entry) => &mut entry.1,
                None => {
                    stacks.push((event.domain, Vec::new()));
                    &mut stacks.last_mut().expect("just pushed").1
                }
            };
            match &event.kind {
                EventKind::Begin { name, .. } => stack.push((name, event.at)),
                EventKind::End { name } => match stack.pop() {
                    Some((open, begun)) if open == name && event.at >= begun => {}
                    Some((open, _)) => {
                        return Err(format!(
                            "event {i}: span end `{name}` does not match open span `{open}` \
                             on domain {}",
                            event.domain
                        ))
                    }
                    None => {
                        return Err(format!(
                            "event {i}: span end `{name}` with no open span on domain {}",
                            event.domain
                        ))
                    }
                },
                EventKind::Counter { .. } | EventKind::Bit(_) => {}
            }
        }
        for (domain, stack) in &stacks {
            if let Some((name, _)) = stack.last() {
                return Err(format!(
                    "span `{name}` left open on domain {domain} at end of trace"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        sink.begin(1, "frame", Phase::Encode, 10);
        sink.counter(1, "actions", 3, 20);
        sink.end(1, "frame", 30);
        sink.absorb(
            vec![TraceEvent {
                at: 5,
                domain: 2,
                kind: EventKind::End { name: "x".into() },
            }],
            100,
        );
        assert!(sink.events().is_empty());
    }

    #[test]
    fn active_sink_records_in_order_and_absorbs_with_offset() {
        let mut sink = TraceSink::active();
        sink.begin(0, "session", Phase::Other, 0);
        let mut inner = TraceSink::active();
        inner.begin(1, "decode", Phase::Decode, 3);
        inner.end(1, "decode", 9);
        sink.absorb(inner.take(), 100);
        sink.end(0, "session", 200);
        let events = sink.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[1].at, 103);
        assert_eq!(events[2].at, 109);
        assert!(export::validate(events).is_ok());
    }

    #[test]
    fn validation_catches_mismatched_and_unclosed_spans() {
        let mut sink = TraceSink::active();
        sink.begin(1, "a", Phase::Wait, 0);
        sink.end(1, "b", 5);
        let err = export::validate(sink.events()).unwrap_err();
        assert!(err.contains("does not match"), "{err}");

        let mut open = TraceSink::active();
        open.begin(1, "a", Phase::Wait, 0);
        let err = export::validate(open.events()).unwrap_err();
        assert!(err.contains("left open"), "{err}");

        let mut backwards = TraceSink::active();
        backwards.counter(1, "c", 1, 10);
        backwards.counter(1, "c", 2, 5);
        let err = export::validate(backwards.events()).unwrap_err();
        assert!(err.contains("backwards"), "{err}");

        // Different domains keep independent clocks and stacks.
        let mut split = TraceSink::active();
        split.begin(1, "a", Phase::Wait, 10);
        split.begin(2, "b", Phase::Wait, 0);
        split.end(2, "b", 4);
        split.end(1, "a", 12);
        assert!(export::validate(split.events()).is_ok());
    }

    #[test]
    fn chrome_export_is_wellformed_and_carries_bit_args() {
        let mut sink = TraceSink::active();
        sink.begin(1, "frame 0", Phase::Encode, 0);
        sink.bit(
            1,
            BitDecision {
                frame: 0,
                index: 2,
                measured: 210,
                threshold: Some(180.5),
                margin: Some(29.5),
                decoded: true,
            },
            40,
        );
        sink.counter(1, "actions", 7, 50);
        sink.end(1, "frame 0", 60);
        let json = export::chrome_trace_json(sink.events());
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"cat\":\"encode\""));
        assert!(json.contains("\"measured\":210"));
        assert!(json.contains("\"threshold\":180.5"));
        assert!(json.contains("\"decoded\":true"));
        assert!(json.ends_with("]}"));
        // Balanced braces/brackets — a cheap well-formedness proxy the
        // trace-smoke CI job re-checks with a real JSON parser.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn phase_cycles_accumulate_and_merge() {
        let mut a = PhaseCycles::default();
        a.add(Phase::Encode, 100);
        a.add(Phase::Wait, 50);
        let mut b = PhaseCycles::default();
        b.add(Phase::Encode, 10);
        b.add(Phase::Decode, 5);
        a.merge(&b);
        assert_eq!(a.get(Phase::Encode), 110);
        assert_eq!(a.get(Phase::Wait), 50);
        assert_eq!(a.get(Phase::Decode), 5);
        assert_eq!(a.total(), 165);
        assert_eq!(Phase::ALL.len(), PHASE_COUNT);
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i);
            assert_eq!(phase.to_string(), phase.label());
        }
    }
}
