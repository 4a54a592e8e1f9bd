//! The `repro bench-sim` perf-regression harness.
//!
//! Every scenario in the sweep engine ultimately bottoms out in
//! [`sim_cache::hierarchy::CacheHierarchy`]'s access path, executed millions
//! of times per sweep.  This module measures that path's raw throughput —
//! **accesses per second** — on three canonical traces and renders the
//! result as a table (written as `BENCH_sim.{md,csv,json}` by the `repro`
//! binary, uploaded by CI as an artifact):
//!
//! * **`pointer-chase`** — a shuffled pointer-chase across many sets, the
//!   access pattern of the receiver's measured sweep;
//! * **`wb-frame`** — one WB-channel frame period: the sender dirties `d`
//!   lines of the target set, the receiver replaces the set with a sweep
//!   of `wb_channel::REPLACEMENT_SIZE` lines (alternating sets A/B);
//! * **`wb-frame-noninclusive`** — the same frame period on the AMD-shaped
//!   non-inclusive preset, gating the inclusion-policy branches of the
//!   spill chain;
//! * **`prime-probe`** — a prime+probe pass over every L1 set, the baseline
//!   channel pattern of the Figure 8 comparison;
//! * **`wb-channel`** — **full covert-channel frame transmissions** through
//!   [`wb_channel::session::ChannelSession`]: per frame this compiles the
//!   sender/receiver schedules, builds a fresh machine, runs the interleaved
//!   session executor (interrupt and `rdtscp` noise included) and decodes
//!   the received bits — the end-to-end hot path of the paper's Figures 5–7.
//!   Telemetry is compiled in but **disabled** (the null sink), so this row
//!   doubles as the zero-overhead-when-disabled evidence;
//! * **`wb-channel-traced`** — the same transmissions with the telemetry
//!   sink **enabled** and drained per frame: the telemetry-overhead row,
//!   showing what span/event recording costs when it is actually on.
//!
//! The first three run through the batched
//! [`sim_cache::hierarchy::CacheHierarchy::run_trace`] API; `wb-channel`
//! exercises [`sim_core::machine::Machine::run_session`] on top of it.  The
//! committed `BENCH_baseline.json` pins the throughput at the time the
//! harness landed; CI fails when a trace regresses more than the configured
//! fraction below its baseline.

use analysis::table::{fixed, Table};
use sim_cache::prelude::*;
use std::time::Instant;
use wb_channel::{RECEIVER_DOMAIN, REPLACEMENT_SIZE, SENDER_DOMAIN, TARGET_SET};

/// One measured trace of the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceResult {
    /// Stable trace id (`pointer-chase`, `wb-frame`, `prime-probe`).
    pub id: &'static str,
    /// Operations per trace iteration.
    pub ops_per_iter: u64,
    /// Iterations executed.
    pub iters: u64,
    /// Total simulated cycles attributed across all iterations.
    pub cycles: u64,
    /// Wall-clock seconds spent executing the trace.
    pub wall_s: f64,
    /// The headline metric: hierarchy accesses per wall-clock second.
    pub accesses_per_sec: f64,
}

/// Minimum wall time per trace, seconds (`--quick` / default).
const QUICK_SECONDS: f64 = 0.25;
/// Minimum wall time per trace at `--full` scale.
const FULL_SECONDS: f64 = 1.5;

/// The JSON column holding the trace id, for baseline comparison.
pub const TRACE_COLUMN: usize = 0;
/// The JSON column holding accesses/sec, for baseline comparison.
pub const ACCESSES_PER_SEC_COLUMN: usize = 4;

/// Runs the canonical traces and returns their measurements.
///
/// `full` selects the longer measurement window.  The cache *contents* the
/// traces produce are deterministic; only the wall-clock columns vary between
/// runs.
pub fn run(full: bool) -> Vec<TraceResult> {
    let min_seconds = if full { FULL_SECONDS } else { QUICK_SECONDS };
    vec![
        pointer_chase(min_seconds),
        wb_frame(min_seconds),
        wb_frame_noninclusive(min_seconds),
        prime_probe(min_seconds),
        wb_channel(min_seconds, false),
        wb_channel(min_seconds, true),
    ]
}

/// The trace gated at [`NULL_SINK_MAX_REGRESS`]: with telemetry compiled in
/// but disabled, the frame hot path must not have slowed down.
pub const NULL_SINK_TRACE: &str = "wb-frame";
/// Maximum allowed throughput regression on [`NULL_SINK_TRACE`] (3%).
pub const NULL_SINK_MAX_REGRESS: f64 = 0.03;

/// Maximum sink-*on* overhead: `wb-channel-traced` must keep at least
/// `1 - TRACED_OVERHEAD_MAX` of the same run's `wb-channel` throughput.
///
/// Tightened from the ~21% the sink cost before event emission was batched
/// (static-str `Cow` labels, fused end+begin span switches); the batched
/// sink measures ~9–12% on the reference host.  Comparing rows of the same
/// run makes this gate robust to absolute host speed, unlike the baseline
/// floors.
pub const TRACED_OVERHEAD_MAX: f64 = 0.20;

/// The sink-on overhead gate: the traced channel row must stay within
/// [`TRACED_OVERHEAD_MAX`] of the null-sink channel row measured by the
/// same run.  Missing rows are reported rather than silently passed — the
/// gate is only meaningful when both rows ran.
pub fn traced_overhead_regressions(results: &[TraceResult]) -> Vec<String> {
    let throughput = |id: &str| {
        results
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.accesses_per_sec)
    };
    let (Some(plain), Some(traced)) = (throughput("wb-channel"), throughput("wb-channel-traced"))
    else {
        return vec!["traced-overhead gate needs both wb-channel and wb-channel-traced".to_owned()];
    };
    let floor = plain * (1.0 - TRACED_OVERHEAD_MAX);
    if traced < floor {
        vec![format!(
            "wb-channel-traced: {traced:.0} accesses/sec is more than {:.0}% below \
             this run's wb-channel ({plain:.0}) — telemetry emission got more expensive",
            TRACED_OVERHEAD_MAX * 100.0
        )]
    } else {
        Vec::new()
    }
}

/// The null-sink gate: [`regressions`] restricted to [`NULL_SINK_TRACE`] at
/// the much tighter [`NULL_SINK_MAX_REGRESS`] threshold.  Telemetry must be
/// free when disabled; a drop beyond measurement noise on the frame trace
/// means the sink leaked cost into the hot path.
pub fn null_sink_regressions(results: &[TraceResult], baseline: &Table) -> Vec<String> {
    let gated: Vec<TraceResult> = results
        .iter()
        .filter(|r| r.id == NULL_SINK_TRACE)
        .cloned()
        .collect();
    regressions(&gated, baseline, NULL_SINK_MAX_REGRESS)
}

/// Renders measurement results as the `BENCH_sim` table.
pub fn results_table(results: &[TraceResult]) -> Table {
    let mut table = Table::new(
        "bench-sim: cache-hierarchy throughput (accesses per second)",
        &["trace", "ops/iter", "iters", "cycles", "accesses/sec"],
    );
    for r in results {
        table.push_row([
            r.id.to_owned(),
            r.ops_per_iter.to_string(),
            r.iters.to_string(),
            r.cycles.to_string(),
            fixed(r.accesses_per_sec, 0),
        ]);
    }
    table
}

/// Compares fresh results against a baseline table (parsed from the
/// committed `BENCH_baseline.json`).  Returns one message per trace whose
/// throughput fell more than `max_regress` (a fraction, e.g. `0.30`) below
/// its baseline; an empty vector means the gate passes.  Traces missing from
/// the baseline are ignored so new traces can land before their baseline.
pub fn regressions(results: &[TraceResult], baseline: &Table, max_regress: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for r in results {
        let Some(row) = baseline
            .rows
            .iter()
            .find(|row| row.get(TRACE_COLUMN).map(String::as_str) == Some(r.id))
        else {
            continue;
        };
        let Some(base) = row
            .get(ACCESSES_PER_SEC_COLUMN)
            .and_then(|cell| cell.parse::<f64>().ok())
        else {
            failures.push(format!(
                "baseline row for {:?} has no parsable accesses/sec column",
                r.id
            ));
            continue;
        };
        let floor = base * (1.0 - max_regress);
        if r.accesses_per_sec < floor {
            failures.push(format!(
                "{}: {:.0} accesses/sec is more than {:.0}% below the baseline {:.0}",
                r.id,
                r.accesses_per_sec,
                max_regress * 100.0,
                base
            ));
        }
    }
    failures
}

/// Measurement windows per trace; the reported throughput is the **best**
/// window.  Host interference (a noisy neighbour, a scheduler hiccup) can
/// only ever slow a window down, so best-of-N is the low-noise estimator of
/// the simulator's real speed — exactly what the regression gate must judge.
const WINDOWS: u32 = 4;

/// Repeats `ops` through `run_trace` for `WINDOWS` wall-time windows of
/// `min_seconds / WINDOWS` each, then folds the measurement into a
/// [`TraceResult`] whose accesses/sec is the fastest window's.
fn measure(
    id: &'static str,
    hierarchy: &mut CacheHierarchy,
    ops: &[(AccessContext, Vec<TraceOp>)],
    min_seconds: f64,
) -> TraceResult {
    let ops_per_iter: u64 = ops.iter().map(|(_, v)| v.len() as u64).sum();
    // Warm-up iteration: cold misses and allocator effects stay out of the
    // steady-state number.
    for (ctx, trace) in ops {
        let _ = hierarchy.run_trace(trace, *ctx);
    }
    let window_seconds = min_seconds / f64::from(WINDOWS);
    let mut iters = 0u64;
    let mut summary = TraceSummary::default();
    let mut best_per_sec = 0.0f64;
    let started = Instant::now();
    for _ in 0..WINDOWS {
        let window_started = Instant::now();
        let mut window_ops = 0u64;
        loop {
            // Several trace repetitions per clock read: at ~100 M acc/s a
            // clock call per 28-op iteration is measurable harness overhead,
            // not simulator work.
            for _ in 0..8 {
                for (ctx, trace) in ops {
                    let s = hierarchy.run_trace(trace, *ctx);
                    window_ops += s.ops;
                    summary.merge(&s);
                }
                iters += 1;
            }
            if window_started.elapsed().as_secs_f64() >= window_seconds {
                break;
            }
        }
        let window_per_sec = window_ops as f64 / window_started.elapsed().as_secs_f64();
        best_per_sec = best_per_sec.max(window_per_sec);
    }
    TraceResult {
        id,
        ops_per_iter,
        iters,
        cycles: summary.cycles,
        wall_s: started.elapsed().as_secs_f64(),
        accesses_per_sec: best_per_sec,
    }
}

/// A shuffled pointer-chase over 256 lines spread across every set.
fn pointer_chase(min_seconds: f64) -> TraceResult {
    let mut h = CacheHierarchy::xeon_e5_2650(PolicyKind::TreePlru, 1);
    let g = h.l1_geometry();
    let ctx = AccessContext::for_domain(1);
    // A fixed LCG permutation gives a scattered but deterministic order.
    let lines = 256u64;
    let ops: Vec<TraceOp> = (0..lines)
        .map(|i| {
            let j = (i * 97 + 13) % lines;
            let set = (j % g.num_sets as u64) as usize;
            let tag = j / g.num_sets as u64;
            TraceOp::read(PhysAddr::from_set_and_tag(set, tag, g))
        })
        .collect();
    measure("pointer-chase", &mut h, &[(ctx, ops)], min_seconds)
}

/// One WB-channel frame period on set [`TARGET_SET`]: sender stores, then
/// the receiver's [`REPLACEMENT_SIZE`]-line replacement sweep, alternating
/// the two replacement sets.
fn frame_period(g: CacheGeometry) -> Vec<(AccessContext, Vec<TraceOp>)> {
    let sender = AccessContext::for_domain(SENDER_DOMAIN);
    let receiver = AccessContext::for_domain(RECEIVER_DOMAIN);
    let d = 4u64;
    let stores: Vec<TraceOp> = (0..d)
        .map(|t| TraceOp::write(PhysAddr::from_set_and_tag(TARGET_SET, t, g)))
        .collect();
    let sweep = |base: u64| -> Vec<TraceOp> {
        (0..REPLACEMENT_SIZE as u64)
            .map(|t| TraceOp::read(PhysAddr::from_set_and_tag(TARGET_SET, base + t, g)))
            .collect()
    };
    vec![
        (sender, stores.clone()),
        (receiver, sweep(1_000)),
        (sender, stores),
        (receiver, sweep(2_000)),
    ]
}

/// The [`frame_period`] on the paper's machine.
fn wb_frame(min_seconds: f64) -> TraceResult {
    let mut h = CacheHierarchy::xeon_e5_2650(PolicyKind::TreePlru, 2);
    let ops = frame_period(h.l1_geometry());
    measure("wb-frame", &mut h, &ops, min_seconds)
}

/// The same frame-period pattern on the AMD-shaped *non-inclusive* LLC —
/// the hierarchy-matrix hot path.  Gated separately from `wb-frame` so a
/// slowdown confined to the inclusion-policy branches of the spill chain
/// cannot hide behind the unchanged default-path number.
fn wb_frame_noninclusive(min_seconds: f64) -> TraceResult {
    let config = HierarchyPreset::AmdNonInclusive
        .config(PolicyKind::TreePlru, 16, 2)
        .expect("preset config is valid");
    let mut h = CacheHierarchy::new(config).expect("preset hierarchy builds");
    let ops = frame_period(h.l1_geometry());
    measure("wb-frame-noninclusive", &mut h, &ops, min_seconds)
}

/// A prime+probe pass over every L1 set.
fn prime_probe(min_seconds: f64) -> TraceResult {
    let mut h = CacheHierarchy::xeon_e5_2650(PolicyKind::TreePlru, 3);
    let g = h.l1_geometry();
    let ctx = AccessContext::for_domain(1);
    let mut ops = Vec::with_capacity(g.num_sets * g.associativity * 2);
    for set in 0..g.num_sets {
        for tag in 0..g.associativity as u64 {
            ops.push(TraceOp::read(PhysAddr::from_set_and_tag(set, 100 + tag, g)));
        }
    }
    // Probe pass re-reads the same lines (L1 hits in the steady state).
    let prime: Vec<TraceOp> = ops.clone();
    ops.extend(prime);
    measure("prime-probe", &mut h, &[(ctx, ops)], min_seconds)
}

/// Full WB-channel frame transmissions through the session layer: compile,
/// execute, decode — one frame per iteration, throughput in simulated
/// accesses per wall-clock second (machine construction and program
/// compilation are part of the per-frame cost, as in the real experiments).
///
/// With `traced` the telemetry sink records spans, counters and
/// bit-decision events for every frame and is drained per frame — the
/// overhead row the committed baseline tracks alongside the null-sink run.
fn wb_channel(min_seconds: f64, traced: bool) -> TraceResult {
    use wb_channel::channel::ChannelConfig;
    use wb_channel::encoding::SymbolEncoding;
    use wb_channel::protocol::Frame;
    use wb_channel::session::ChannelSession;

    let config = ChannelConfig::builder()
        .encoding(SymbolEncoding::binary(4).expect("d=4 is valid"))
        .period_cycles(5_500)
        .calibration_samples(40)
        .seed(2022)
        .build()
        .expect("static bench configuration is valid");
    let mut session = ChannelSession::new(config).expect("bench channel calibrates");
    if traced {
        session.enable_tracing();
    }
    let payload: Vec<bool> = (0..112).map(|i| (i * 7) % 3 == 0).collect();
    let frame = Frame::from_payload(&payload);

    // Warm-up frame (and the per-frame op count for the table).
    let before = session.sim_usage();
    session
        .transmit_frame(&frame)
        .expect("bench transmission succeeds");
    let ops_per_iter = session.sim_usage().summary.ops - before.summary.ops;

    let window_seconds = min_seconds / f64::from(WINDOWS);
    let mut best_per_sec = 0.0f64;
    let started = Instant::now();
    for _ in 0..WINDOWS {
        let window_started = Instant::now();
        let window_before = session.sim_usage();
        loop {
            session
                .transmit_frame(&frame)
                .expect("bench transmission succeeds");
            // Draining per frame keeps memory bounded, exactly as `repro
            // trace` and the service would consume the stream.
            let _ = session.take_trace();
            if window_started.elapsed().as_secs_f64() >= window_seconds {
                break;
            }
        }
        let window_accesses =
            session.sim_usage().summary.accesses() - window_before.summary.accesses();
        let per_sec = window_accesses as f64 / window_started.elapsed().as_secs_f64();
        best_per_sec = best_per_sec.max(per_sec);
    }
    let usage = session.sim_usage();
    TraceResult {
        id: if traced {
            "wb-channel-traced"
        } else {
            "wb-channel"
        },
        ops_per_iter,
        iters: usage.frames,
        cycles: usage.cycles(),
        wall_s: started.elapsed().as_secs_f64(),
        accesses_per_sec: best_per_sec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(id: &'static str, aps: f64) -> TraceResult {
        TraceResult {
            id,
            ops_per_iter: 10,
            iters: 1,
            cycles: 100,
            wall_s: 0.01,
            accesses_per_sec: aps,
        }
    }

    #[test]
    fn regression_gate_flags_only_large_drops() {
        let mut baseline = results_table(&[result("pointer-chase", 1_000_000.0)]);
        baseline.push_row([
            "wb-frame".to_owned(),
            "1".to_owned(),
            "1".to_owned(),
            "1".to_owned(),
            "2000000".to_owned(),
        ]);
        // 20% below baseline passes a 30% gate; 50% below fails it.
        let ok = regressions(&[result("pointer-chase", 800_000.0)], &baseline, 0.30);
        assert!(ok.is_empty(), "{ok:?}");
        let bad = regressions(&[result("wb-frame", 1_000_000.0)], &baseline, 0.30);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("wb-frame"));
        // Traces absent from the baseline are not gated.
        let unknown = regressions(&[result("brand-new", 1.0)], &baseline, 0.30);
        assert!(unknown.is_empty());
    }

    #[test]
    fn null_sink_gate_is_tight_and_scoped_to_the_frame_trace() {
        let baseline = results_table(&[
            result("wb-frame", 1_000_000.0),
            result("wb-channel-traced", 1_000_000.0),
        ]);
        // 2% below the baseline passes the 3% gate; 5% below fails it.
        let ok = null_sink_regressions(&[result("wb-frame", 980_000.0)], &baseline);
        assert!(ok.is_empty(), "{ok:?}");
        let bad = null_sink_regressions(&[result("wb-frame", 950_000.0)], &baseline);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("wb-frame"));
        // Only the null-sink trace is held to 3%: the traced row may be
        // slower without tripping this gate.
        let traced = null_sink_regressions(&[result("wb-channel-traced", 500_000.0)], &baseline);
        assert!(traced.is_empty(), "{traced:?}");
    }

    #[test]
    fn traced_overhead_gate_compares_rows_of_the_same_run() {
        // 15% overhead passes the 20% gate; 30% fails it.
        let ok = traced_overhead_regressions(&[
            result("wb-channel", 1_000_000.0),
            result("wb-channel-traced", 850_000.0),
        ]);
        assert!(ok.is_empty(), "{ok:?}");
        let bad = traced_overhead_regressions(&[
            result("wb-channel", 1_000_000.0),
            result("wb-channel-traced", 700_000.0),
        ]);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("wb-channel-traced"));
        // A run missing either row cannot silently pass the gate.
        let missing = traced_overhead_regressions(&[result("wb-channel", 1.0)]);
        assert_eq!(missing.len(), 1);
    }

    #[test]
    fn results_table_round_trips_through_json() {
        let table = results_table(&[result("pointer-chase", 123_456.0)]);
        let parsed = Table::from_json(&table.to_json()).expect("round trip");
        assert_eq!(parsed.rows[0][TRACE_COLUMN], "pointer-chase");
        assert_eq!(parsed.rows[0][ACCESSES_PER_SEC_COLUMN], "123456");
    }

    #[test]
    fn traces_execute_and_report_positive_throughput() {
        // A very short run still has to produce coherent numbers.
        for r in run(false) {
            assert!(r.ops_per_iter > 0);
            assert!(r.iters >= 1);
            assert!(r.cycles > 0);
            assert!(r.accesses_per_sec > 0.0, "{}: {r:?}", r.id);
        }
    }
}
