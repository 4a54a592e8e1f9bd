//! Per-endpoint request counters, job/queue gauges, fixed-bucket latency
//! histograms and the `/metrics` text rendering.
//!
//! Everything is a cheap relaxed atomic — recording a request is a handful
//! of uncontended `fetch_add`s (one per counter plus one bucket slot), so
//! instrumentation never shows up next to the actual experiment work. The
//! rendering is the conventional `name{label="value"} N` text format, one
//! line per counter, so CI can assert on it with `grep` and a Prometheus
//! scraper could ingest it as-is.
//!
//! Two histogram families ride on top of the plain counters:
//!
//! * `service_request_duration_us` — per-endpoint wall-clock request
//!   latency over the fixed [`LATENCY_BUCKETS_US`] bounds, with derived
//!   p50/p90/p99 quantile lines (each quantile reports the upper bound of
//!   the bucket the rank falls into — a conservative estimate that never
//!   under-reports).
//! * `service_scenario_sim_cycles` — per-scenario **simulated** cycles per
//!   executed run over [`SIM_CYCLE_BUCKETS`]; wall-clock never leaks into
//!   this family, matching the workspace's cycle-domain telemetry rule.

use runner::pool::PoolStats;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The service endpoints that get their own request counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /` — the endpoint index.
    Index,
    /// `GET /scenarios`.
    Scenarios,
    /// `POST /jobs`.
    JobsPost,
    /// `GET /jobs/<id>`.
    JobsGet,
    /// `GET /results/<key>`.
    Results,
    /// `GET /metrics`.
    Metrics,
    /// `POST /shutdown`.
    Shutdown,
    /// Anything else (unknown paths, unparsable requests).
    Other,
}

impl Endpoint {
    /// Every endpoint, in rendering order.
    pub const ALL: [Endpoint; 8] = [
        Endpoint::Index,
        Endpoint::Scenarios,
        Endpoint::JobsPost,
        Endpoint::JobsGet,
        Endpoint::Results,
        Endpoint::Metrics,
        Endpoint::Shutdown,
        Endpoint::Other,
    ];

    /// The stable label used in the `/metrics` rendering.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Index => "index",
            Endpoint::Scenarios => "scenarios",
            Endpoint::JobsPost => "jobs_post",
            Endpoint::JobsGet => "jobs_get",
            Endpoint::Results => "results",
            Endpoint::Metrics => "metrics",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        Endpoint::ALL
            .iter()
            .position(|e| *e == self)
            .expect("listed in ALL")
    }
}

/// Upper bounds, in microseconds, of the fixed request-duration buckets.
///
/// The implicit final `+Inf` bucket catches everything slower than the last
/// bound; cumulative rendering follows the Prometheus histogram convention.
pub const LATENCY_BUCKETS_US: [u64; 10] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 100_000, 1_000_000,
];

/// Upper bounds, in simulated cycles, of the per-scenario sim-work buckets.
pub const SIM_CYCLE_BUCKETS: [u64; 6] = [
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// The quantiles derived from each request-duration histogram.
const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

/// Bucket slots: one per finite bound plus the `+Inf` overflow slot.
const LATENCY_SLOTS: usize = LATENCY_BUCKETS_US.len() + 1;
const SIM_SLOTS: usize = SIM_CYCLE_BUCKETS.len() + 1;

/// Index of the bucket slot a sample falls into (last slot = `+Inf`).
fn bucket_index(bounds: &[u64], sample: u64) -> usize {
    bounds
        .iter()
        .position(|&bound| sample <= bound)
        .unwrap_or(bounds.len())
}

/// The upper bound of the bucket holding rank `ceil(q * total)` — a
/// conservative quantile estimate (the true value is ≤ the reported bound
/// unless the rank lands in the overflow slot, which reports the largest
/// finite bound). Returns 0 when the histogram is empty.
fn bucket_quantile(counts: &[u64], bounds: &[u64], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut cumulative = 0u64;
    for (slot, &count) in counts.iter().enumerate() {
        cumulative += count;
        if cumulative >= rank {
            return bounds
                .get(slot)
                .copied()
                .unwrap_or_else(|| *bounds.last().expect("non-empty bounds"));
        }
    }
    *bounds.last().expect("non-empty bounds")
}

/// Request/error/latency counters for one endpoint, plus the fixed-bucket
/// latency histogram slots.
#[derive(Debug, Default)]
struct EndpointCounters {
    requests: AtomicU64,
    errors: AtomicU64,
    latency_us: AtomicU64,
    latency_buckets: [AtomicU64; LATENCY_SLOTS],
}

/// Accumulated simulated work for one scenario: totals plus a fixed-bucket
/// histogram of cycles per executed run.
#[derive(Debug, Default, Clone)]
struct ScenarioSim {
    cycles: u64,
    accesses: u64,
    runs: u64,
    cycle_buckets: [u64; SIM_SLOTS],
}

/// All service counters; one instance lives for the server's lifetime.
#[derive(Debug, Default)]
pub struct Metrics {
    endpoints: [EndpointCounters; 8],
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_errored: AtomicU64,
    queue_depth: AtomicU64,
    queue_peak_depth: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Per-scenario simulated work (cycles, accesses), sourced from the
    /// trace engine's `TraceSummary`s and recorded when a job actually
    /// *runs* a scenario (cache hits simulate nothing).  A `BTreeMap` keeps
    /// the `/metrics` rendering in stable alphabetical order.
    scenario_sim: Mutex<BTreeMap<&'static str, ScenarioSim>>,
}

impl Metrics {
    /// Records one handled request: endpoint, response status and latency.
    pub fn record_request(&self, endpoint: Endpoint, status: u16, latency_us: u64) {
        let counters = &self.endpoints[endpoint.index()];
        counters.requests.fetch_add(1, Ordering::Relaxed);
        counters.latency_us.fetch_add(latency_us, Ordering::Relaxed);
        counters.latency_buckets[bucket_index(&LATENCY_BUCKETS_US, latency_us)]
            .fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            counters.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a job entering the queue (depth gauge + peak + submitted).
    pub fn record_job_enqueued(&self) {
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_peak_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records a job finishing (`errored` when ≥1 scenario failed).
    pub fn record_job_finished(&self, errored: bool) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        if errored {
            self.jobs_errored.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records result-cache lookups for one job.
    pub fn record_cache(&self, hits: u64, misses: u64) {
        self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Records the simulated work one freshly executed scenario performed
    /// (cycles and demand accesses from its aggregated `TraceSummary`s).
    pub fn record_scenario_sim(&self, scenario: &'static str, cycles: u64, accesses: u64) {
        let mut map = self.scenario_sim.lock().expect("sim metrics lock");
        let entry = map.entry(scenario).or_default();
        entry.cycles += cycles;
        entry.accesses += accesses;
        entry.runs += 1;
        entry.cycle_buckets[bucket_index(&SIM_CYCLE_BUCKETS, cycles)] += 1;
    }

    /// Current queue depth (queued + running jobs).
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Renders the `/metrics` snapshot. `cache_entries` and `pool` are
    /// sampled by the caller (they live outside this struct).
    pub fn render(&self, cache_entries: usize, pool: &PoolStats) -> String {
        let mut out = String::with_capacity(2048);
        for endpoint in Endpoint::ALL {
            let counters = &self.endpoints[endpoint.index()];
            let label = endpoint.label();
            out.push_str(&format!(
                "service_http_requests_total{{endpoint=\"{label}\"}} {}\n",
                counters.requests.load(Ordering::Relaxed)
            ));
            out.push_str(&format!(
                "service_http_errors_total{{endpoint=\"{label}\"}} {}\n",
                counters.errors.load(Ordering::Relaxed)
            ));
            out.push_str(&format!(
                "service_http_latency_us_total{{endpoint=\"{label}\"}} {}\n",
                counters.latency_us.load(Ordering::Relaxed)
            ));
            let buckets: Vec<u64> = counters
                .latency_buckets
                .iter()
                .map(|slot| slot.load(Ordering::Relaxed))
                .collect();
            let mut cumulative = 0u64;
            for (slot, &bound) in LATENCY_BUCKETS_US.iter().enumerate() {
                cumulative += buckets[slot];
                out.push_str(&format!(
                    "service_request_duration_us_bucket{{endpoint=\"{label}\",le=\"{bound}\"}} {cumulative}\n"
                ));
            }
            cumulative += buckets[LATENCY_SLOTS - 1];
            out.push_str(&format!(
                "service_request_duration_us_bucket{{endpoint=\"{label}\",le=\"+Inf\"}} {cumulative}\n"
            ));
            out.push_str(&format!(
                "service_request_duration_us_sum{{endpoint=\"{label}\"}} {}\n",
                counters.latency_us.load(Ordering::Relaxed)
            ));
            out.push_str(&format!(
                "service_request_duration_us_count{{endpoint=\"{label}\"}} {cumulative}\n"
            ));
            for (q, q_label) in QUANTILES {
                out.push_str(&format!(
                    "service_request_duration_us_quantile{{endpoint=\"{label}\",quantile=\"{q_label}\"}} {}\n",
                    bucket_quantile(&buckets, &LATENCY_BUCKETS_US, q)
                ));
            }
        }
        let gauge = |name: &str, value: u64| format!("{name} {value}\n");
        out.push_str(&gauge(
            "service_jobs_submitted_total",
            self.jobs_submitted.load(Ordering::Relaxed),
        ));
        out.push_str(&gauge(
            "service_jobs_completed_total",
            self.jobs_completed.load(Ordering::Relaxed),
        ));
        out.push_str(&gauge(
            "service_jobs_errored_total",
            self.jobs_errored.load(Ordering::Relaxed),
        ));
        out.push_str(&gauge("service_job_queue_depth", self.queue_depth()));
        out.push_str(&gauge(
            "service_job_queue_peak_depth",
            self.queue_peak_depth.load(Ordering::Relaxed),
        ));
        out.push_str(&gauge(
            "service_result_cache_hits_total",
            self.cache_hits.load(Ordering::Relaxed),
        ));
        out.push_str(&gauge(
            "service_result_cache_misses_total",
            self.cache_misses.load(Ordering::Relaxed),
        ));
        out.push_str(&gauge("service_result_cache_entries", cache_entries as u64));
        for (scenario, sim) in self.scenario_sim.lock().expect("sim metrics lock").iter() {
            out.push_str(&format!(
                "service_scenario_sim_cycles_total{{scenario=\"{scenario}\"}} {}\n",
                sim.cycles
            ));
            out.push_str(&format!(
                "service_scenario_sim_accesses_total{{scenario=\"{scenario}\"}} {}\n",
                sim.accesses
            ));
            let mut cumulative = 0u64;
            for (slot, &bound) in SIM_CYCLE_BUCKETS.iter().enumerate() {
                cumulative += sim.cycle_buckets[slot];
                out.push_str(&format!(
                    "service_scenario_sim_cycles_bucket{{scenario=\"{scenario}\",le=\"{bound}\"}} {cumulative}\n"
                ));
            }
            cumulative += sim.cycle_buckets[SIM_SLOTS - 1];
            out.push_str(&format!(
                "service_scenario_sim_cycles_bucket{{scenario=\"{scenario}\",le=\"+Inf\"}} {cumulative}\n"
            ));
            out.push_str(&format!(
                "service_scenario_sim_cycles_sum{{scenario=\"{scenario}\"}} {}\n",
                sim.cycles
            ));
            out.push_str(&format!(
                "service_scenario_sim_cycles_count{{scenario=\"{scenario}\"}} {}\n",
                sim.runs
            ));
        }
        out.push_str(&gauge("pool_tasks_queued_total", pool.tasks_queued));
        out.push_str(&gauge("pool_tasks_completed_total", pool.tasks_completed));
        out.push_str(&gauge("pool_tasks_panicked_total", pool.tasks_panicked));
        out.push_str(&gauge("pool_queue_peak_depth", pool.peak_queue_depth));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_counters_split_by_endpoint_and_status() {
        let metrics = Metrics::default();
        metrics.record_request(Endpoint::JobsPost, 202, 120);
        metrics.record_request(Endpoint::JobsPost, 400, 30);
        metrics.record_request(Endpoint::Metrics, 200, 10);
        let text = metrics.render(0, &PoolStats::default());
        assert!(text.contains("service_http_requests_total{endpoint=\"jobs_post\"} 2"));
        assert!(text.contains("service_http_errors_total{endpoint=\"jobs_post\"} 1"));
        assert!(text.contains("service_http_latency_us_total{endpoint=\"jobs_post\"} 150"));
        assert!(text.contains("service_http_requests_total{endpoint=\"metrics\"} 1"));
        assert!(text.contains("service_http_errors_total{endpoint=\"metrics\"} 0"));
    }

    #[test]
    fn request_durations_fill_cumulative_buckets_with_quantiles() {
        let metrics = Metrics::default();
        // 9 fast requests (≤100µs) and one slow outlier (>100ms).
        for _ in 0..9 {
            metrics.record_request(Endpoint::JobsGet, 200, 80);
        }
        metrics.record_request(Endpoint::JobsGet, 200, 200_000);
        let text = metrics.render(0, &PoolStats::default());
        assert!(
            text.contains("service_request_duration_us_bucket{endpoint=\"jobs_get\",le=\"100\"} 9"),
            "{text}"
        );
        // Cumulative: the 100ms bound already includes the fast nine.
        assert!(
            text.contains(
                "service_request_duration_us_bucket{endpoint=\"jobs_get\",le=\"100000\"} 9"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "service_request_duration_us_bucket{endpoint=\"jobs_get\",le=\"+Inf\"} 10"
            ),
            "{text}"
        );
        assert!(
            text.contains("service_request_duration_us_sum{endpoint=\"jobs_get\"} 200720"),
            "{text}"
        );
        assert!(
            text.contains("service_request_duration_us_count{endpoint=\"jobs_get\"} 10"),
            "{text}"
        );
        // p50 and p90 land in the first bucket; p99 reaches the outlier's.
        assert!(
            text.contains(
                "service_request_duration_us_quantile{endpoint=\"jobs_get\",quantile=\"0.5\"} 100"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "service_request_duration_us_quantile{endpoint=\"jobs_get\",quantile=\"0.9\"} 100"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "service_request_duration_us_quantile{endpoint=\"jobs_get\",quantile=\"0.99\"} 1000000"
            ),
            "{text}"
        );
        // Untouched endpoints still render a complete, empty histogram.
        assert!(
            text.contains("service_request_duration_us_bucket{endpoint=\"index\",le=\"+Inf\"} 0"),
            "{text}"
        );
        assert!(
            text.contains(
                "service_request_duration_us_quantile{endpoint=\"index\",quantile=\"0.99\"} 0"
            ),
            "{text}"
        );
    }

    #[test]
    fn scenario_sim_cycles_bucket_per_executed_run() {
        let metrics = Metrics::default();
        metrics.record_scenario_sim("fig6", 5_000, 100);
        metrics.record_scenario_sim("fig6", 50_000, 900);
        metrics.record_scenario_sim("fig6", 2_000_000_000, 10);
        let text = metrics.render(0, &PoolStats::default());
        assert!(
            text.contains("service_scenario_sim_cycles_total{scenario=\"fig6\"} 2000055000"),
            "{text}"
        );
        assert!(
            text.contains("service_scenario_sim_accesses_total{scenario=\"fig6\"} 1010"),
            "{text}"
        );
        assert!(
            text.contains("service_scenario_sim_cycles_bucket{scenario=\"fig6\",le=\"10000\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("service_scenario_sim_cycles_bucket{scenario=\"fig6\",le=\"100000\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("service_scenario_sim_cycles_bucket{scenario=\"fig6\",le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("service_scenario_sim_cycles_count{scenario=\"fig6\"} 3"),
            "{text}"
        );
    }

    #[test]
    fn bucket_quantile_is_a_conservative_upper_bound() {
        // All mass in one slot: every quantile reports that slot's bound.
        let mut counts = vec![0u64; LATENCY_BUCKETS_US.len() + 1];
        counts[3] = 7;
        for (q, _) in QUANTILES {
            assert_eq!(bucket_quantile(&counts, &LATENCY_BUCKETS_US, q), 1_000);
        }
        // Mass in the overflow slot clamps to the largest finite bound.
        let mut overflow = vec![0u64; LATENCY_BUCKETS_US.len() + 1];
        overflow[LATENCY_BUCKETS_US.len()] = 2;
        assert_eq!(
            bucket_quantile(&overflow, &LATENCY_BUCKETS_US, 0.5),
            1_000_000
        );
        // Empty histogram: quantiles are zero, not NaN or panic.
        assert_eq!(
            bucket_quantile(
                &vec![0u64; LATENCY_BUCKETS_US.len() + 1],
                &LATENCY_BUCKETS_US,
                0.99
            ),
            0
        );
    }

    #[test]
    fn job_and_cache_counters_track_lifecycle() {
        let metrics = Metrics::default();
        metrics.record_job_enqueued();
        metrics.record_job_enqueued();
        assert_eq!(metrics.queue_depth(), 2);
        metrics.record_job_finished(false);
        metrics.record_job_finished(true);
        metrics.record_cache(1, 3);
        let text = metrics.render(3, &PoolStats::default());
        assert!(text.contains("service_jobs_submitted_total 2"));
        assert!(text.contains("service_jobs_completed_total 2"));
        assert!(text.contains("service_jobs_errored_total 1"));
        assert!(text.contains("service_job_queue_depth 0"));
        assert!(text.contains("service_job_queue_peak_depth 2"));
        assert!(text.contains("service_result_cache_hits_total 1"));
        assert!(text.contains("service_result_cache_misses_total 3"));
        assert!(text.contains("service_result_cache_entries 3"));
    }

    #[test]
    fn pool_stats_appear_in_the_rendering() {
        let metrics = Metrics::default();
        let pool = PoolStats {
            tasks_queued: 10,
            tasks_completed: 9,
            tasks_panicked: 1,
            queue_depth: 0,
            peak_queue_depth: 8,
        };
        let text = metrics.render(0, &pool);
        assert!(text.contains("pool_tasks_queued_total 10"));
        assert!(text.contains("pool_tasks_panicked_total 1"));
        assert!(text.contains("pool_queue_peak_depth 8"));
    }
}
