//! End-to-end tests of the experiment service over real sockets.
//!
//! Each test binds its own server on an ephemeral port with a synthetic
//! scenario registry (an instant `echo` sweep, an always-failing `boom`,
//! and a gate-controlled `slow` whose release the test holds), drives it
//! through the `service::client` module, and shuts it down.

use runner::scenario::{PointCtx, PointOutput, Scenario};
use runner::{Registry, Scale};
use service::{client, Server, ServerConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn three(_: Scale) -> usize {
    3
}

fn one(_: Scale) -> usize {
    1
}

fn echo_point(ctx: &PointCtx) -> Result<PointOutput, String> {
    Ok(PointOutput::row([
        ctx.index.to_string(),
        format!("{:#018x}", ctx.seed),
    ]))
}

fn echo_assemble(_: Scale, outputs: &[PointOutput]) -> Vec<(String, analysis::table::Table)> {
    let mut table = analysis::table::Table::new("echo", &["index", "seed"]);
    for output in outputs {
        table.extend_rows(output.rows.iter().cloned());
    }
    vec![("echo".to_owned(), table)]
}

fn boom_point(_: &PointCtx) -> Result<PointOutput, String> {
    Err("deliberate failure".to_owned())
}

fn empty_assemble(_: Scale, _: &[PointOutput]) -> Vec<(String, analysis::table::Table)> {
    Vec::new()
}

fn panicking_assemble(_: Scale, _: &[PointOutput]) -> Vec<(String, analysis::table::Table)> {
    panic!("assemble blew up");
}

static SLOW_STARTED: AtomicBool = AtomicBool::new(false);
static SLOW_RELEASE: AtomicBool = AtomicBool::new(false);
static SLOW_DONE: AtomicBool = AtomicBool::new(false);

fn slow_point(_: &PointCtx) -> Result<PointOutput, String> {
    SLOW_STARTED.store(true, Ordering::SeqCst);
    let start = Instant::now();
    while !SLOW_RELEASE.load(Ordering::SeqCst) {
        if start.elapsed() > Duration::from_secs(30) {
            return Err("test gate never released".to_owned());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    SLOW_DONE.store(true, Ordering::SeqCst);
    Ok(PointOutput::row(["finished"]))
}

fn slow_assemble(_: Scale, outputs: &[PointOutput]) -> Vec<(String, analysis::table::Table)> {
    let mut table = analysis::table::Table::new("slow", &["state"]);
    for output in outputs {
        table.extend_rows(output.rows.iter().cloned());
    }
    vec![("slow".to_owned(), table)]
}

fn scenario(
    id: &'static str,
    points: fn(Scale) -> usize,
    run_point: runner::scenario::PointFn,
    assemble: runner::scenario::AssembleFn,
) -> Scenario {
    Scenario {
        id,
        paper_ref: "Test",
        section: "Test",
        summary: "synthetic test scenario",
        points,
        run_point,
        assemble,
    }
}

fn test_registry() -> Registry {
    let mut registry = Registry::new();
    registry.register(scenario("echo", three, echo_point, echo_assemble));
    registry.register(scenario("boom", one, boom_point, empty_assemble));
    registry.register(scenario("slow", one, slow_point, slow_assemble));
    registry.register(scenario("asm-boom", one, echo_point, panicking_assemble));
    registry
}

/// Binds a server on an ephemeral port and serves it on a thread.
fn start(cache_dir: Option<PathBuf>) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    start_with(|config| config.cache_dir = cache_dir)
}

/// [`start`] with full control over the configuration.
fn start_with(
    tweak: impl FnOnce(&mut ServerConfig),
) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        job_workers: 2,
        max_job_threads: 2,
        cache_dir: None,
        default_seed: 7,
        ..ServerConfig::default()
    };
    tweak(&mut config);
    let server = Server::bind(test_registry(), config).expect("bind");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.serve());
    (addr, handle)
}

/// The `"j<n>"` id out of a `POST /jobs` acknowledgement.
fn job_id(ack: &str) -> String {
    client::job_id(ack).expect("ack carries an id")
}

/// Polls `GET /jobs/<id>` until the status line says `done`.
fn poll_done(addr: SocketAddr, id: &str) -> String {
    client::poll_job_done(addr, id, Duration::from_secs(30)).expect("job completes")
}

/// Everything after the job-specific status line: the result payload that
/// must be byte-identical across identical submissions.
fn result_payload(body: &str) -> &str {
    body.split_once('\n').expect("status line then payload").1
}

#[test]
fn identical_jobs_hit_the_cache_and_return_identical_bytes() {
    let (addr, server) = start(None);

    // The registry is visible.
    let scenarios = client::get(addr, "/scenarios").unwrap();
    assert_eq!(scenarios.status, 200);
    assert!(
        scenarios.body.contains("\"id\":\"echo\""),
        "{}",
        scenarios.body
    );

    // First submission: a miss that runs the sweep.
    let spec = "{\"scenarios\":\"echo\",\"scale\":\"quick\",\"seed\":7,\"threads\":2}";
    let first_ack = client::post(addr, "/jobs", spec).unwrap();
    assert_eq!(first_ack.status, 202, "{}", first_ack.body);
    let first = poll_done(addr, &job_id(&first_ack.body));
    let first_status = first.lines().next().unwrap();
    assert!(first_status.contains("\"cache_hits\":0"), "{first_status}");
    assert!(
        first_status.contains("\"cache_misses\":1"),
        "{first_status}"
    );
    assert!(first.contains("\"type\":\"row\""));

    // Second, identical submission: served from the cache…
    let second_ack = client::post(addr, "/jobs", spec).unwrap();
    let second = poll_done(addr, &job_id(&second_ack.body));
    let second_status = second.lines().next().unwrap();
    assert!(
        second_status.contains("\"cache_hits\":1"),
        "{second_status}"
    );
    assert!(
        second_status.contains("\"cache_misses\":0"),
        "{second_status}"
    );

    // …and byte-identical to the first, past the job-specific status line.
    assert_eq!(result_payload(&first), result_payload(&second));
    assert!(!result_payload(&first).is_empty());

    // The content-addressed body is directly fetchable, twice the same.
    let key = "echo-quick-0x0000000000000007";
    let direct_one = client::get(addr, &format!("/results/{key}")).unwrap();
    let direct_two = client::get(addr, &format!("/results/{key}")).unwrap();
    assert_eq!(direct_one.status, 200);
    assert_eq!(direct_one.body, direct_two.body);
    assert_eq!(direct_one.body, result_payload(&first));

    // The cache hit is visible in the metrics.
    let metrics = client::get(addr, "/metrics").unwrap().body;
    assert!(
        metrics.contains("service_result_cache_hits_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("service_result_cache_misses_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("service_result_cache_entries 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("service_jobs_completed_total 2"),
        "{metrics}"
    );
    assert!(
        metrics.contains("service_http_requests_total{endpoint=\"jobs_post\"} 2"),
        "{metrics}"
    );
    assert!(metrics.contains("pool_tasks_queued_total"), "{metrics}");

    // Request latencies render as cumulative fixed-bucket histograms with
    // derived quantiles: both POSTs are accounted for under +Inf, and the
    // percentile lines are present for every endpoint.
    assert!(
        metrics
            .contains("service_request_duration_us_bucket{endpoint=\"jobs_post\",le=\"+Inf\"} 2"),
        "{metrics}"
    );
    assert!(
        metrics.contains("service_request_duration_us_count{endpoint=\"jobs_post\"} 2"),
        "{metrics}"
    );
    for quantile in ["0.5", "0.9", "0.99"] {
        assert!(
            metrics.contains(&format!(
                "service_request_duration_us_quantile{{endpoint=\"jobs_post\",quantile=\"{quantile}\"}}"
            )),
            "{metrics}"
        );
    }
    // The executed (non-cached) run contributes one sample to the echo
    // scenario's sim-cycle histogram.
    assert!(
        metrics.contains("service_scenario_sim_cycles_bucket{scenario=\"echo\",le=\"+Inf\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("service_scenario_sim_cycles_count{scenario=\"echo\"} 1"),
        "{metrics}"
    );

    client::post(addr, "/shutdown", "").unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn scenario_errors_are_reported_per_result_and_not_cached() {
    let (addr, server) = start(None);
    let ack = client::post(
        addr,
        "/jobs",
        "{\"scenarios\":[\"echo\",\"boom\"],\"seed\":9}",
    )
    .unwrap();
    assert_eq!(ack.status, 202, "{}", ack.body);
    let body = poll_done(addr, &job_id(&ack.body));
    let status_line = body.lines().next().unwrap();
    assert!(status_line.contains("\"errors\":1"), "{status_line}");
    assert!(body.contains("\"scenario\":\"boom\""));
    assert!(body.contains("\"status\":\"error\""));
    assert!(body.contains("deliberate failure"));
    // The failed scenario is not cached; the successful one is.
    let missing = client::get(addr, "/results/boom-quick-0x0000000000000009").unwrap();
    assert_eq!(missing.status, 404);
    let cached = client::get(addr, "/results/echo-quick-0x0000000000000009").unwrap();
    assert_eq!(cached.status, 200);
    let metrics = client::get(addr, "/metrics").unwrap().body;
    assert!(
        metrics.contains("service_jobs_errored_total 1"),
        "{metrics}"
    );
    client::post(addr, "/shutdown", "").unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn malformed_requests_get_4xx_answers() {
    let (addr, server) = start(None);
    assert_eq!(client::get(addr, "/nope").unwrap().status, 404);
    assert_eq!(client::get(addr, "/jobs/j999").unwrap().status, 404);
    assert_eq!(client::get(addr, "/jobs/zzz").unwrap().status, 400);
    assert_eq!(
        client::get(addr, "/results/unknown-key").unwrap().status,
        404
    );
    // Traversal-shaped keys are rejected before touching any filesystem.
    assert_eq!(
        client::get(addr, "/results/../../etc/passwd")
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        client::request(addr, "DELETE", "/jobs", None)
            .unwrap()
            .status,
        405
    );
    let bad_json = client::post(addr, "/jobs", "{not json").unwrap();
    assert_eq!(bad_json.status, 400);
    let no_scenarios = client::post(addr, "/jobs", "{}").unwrap();
    assert_eq!(no_scenarios.status, 400);
    assert!(no_scenarios.body.contains("scenarios"));
    let unknown = client::post(addr, "/jobs", "{\"scenarios\":\"zzz*\"}").unwrap();
    assert_eq!(unknown.status, 400);
    assert!(unknown.body.contains("no scenario matches"));
    let index = client::get(addr, "/").unwrap();
    assert!(index.body.contains("POST /jobs"));
    // The error traffic is counted.
    let metrics = client::get(addr, "/metrics").unwrap().body;
    assert!(
        metrics.contains("service_http_errors_total{endpoint=\"jobs_post\"} 3"),
        "{metrics}"
    );
    client::post(addr, "/shutdown", "").unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn an_assemble_panic_fails_the_job_but_not_the_worker_or_shutdown() {
    let (addr, server) = start(None);
    // The executor catches run_point panics, but `assemble` runs raw on the
    // job-worker thread: this job's panic must become a job error…
    let ack = client::post(addr, "/jobs", "{\"scenarios\":\"asm-boom\"}").unwrap();
    assert_eq!(ack.status, 202, "{}", ack.body);
    let body = poll_done(addr, &job_id(&ack.body));
    assert!(
        body.lines().next().unwrap().contains("\"errors\":1"),
        "{body}"
    );
    // …while the worker survives to run the next job…
    let ack = client::post(addr, "/jobs", "{\"scenarios\":\"echo\"}").unwrap();
    let body = poll_done(addr, &job_id(&ack.body));
    assert!(body.contains("\"type\":\"row\""), "{body}");
    // A mixed job where only one scenario's assemble panics still serves
    // the already-cached scenario's body and blames only the missing one.
    let ack = client::post(addr, "/jobs", "{\"scenarios\":[\"echo\",\"asm-boom\"]}").unwrap();
    let body = poll_done(addr, &job_id(&ack.body));
    assert!(
        body.lines().next().unwrap().contains("\"errors\":1"),
        "{body}"
    );
    assert!(body.contains("\"type\":\"row\""), "{body}");
    let metrics = client::get(addr, "/metrics").unwrap().body;
    assert!(
        metrics.contains("service_jobs_completed_total 3"),
        "{metrics}"
    );
    // …and shutdown still drains to a clean exit (nothing leaked `running`).
    client::post(addr, "/shutdown", "").unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn finished_jobs_are_evicted_beyond_the_history_bound() {
    let (addr, server) = start_with(|config| config.job_history = 1);
    let spec = "{\"scenarios\":\"echo\",\"seed\":21}";
    let first = job_id(&client::post(addr, "/jobs", spec).unwrap().body);
    poll_done(addr, &first);
    let second = job_id(&client::post(addr, "/jobs", spec).unwrap().body);
    poll_done(addr, &second);
    // The oldest finished record is gone, the newest remains, and the
    // *result* outlives both in the content-addressed cache.
    assert_eq!(
        client::get(addr, &format!("/jobs/{first}")).unwrap().status,
        404
    );
    assert_eq!(
        client::get(addr, &format!("/jobs/{second}"))
            .unwrap()
            .status,
        200
    );
    let cached = client::get(addr, "/results/echo-quick-0x0000000000000015").unwrap();
    assert_eq!(cached.status, 200);
    client::post(addr, "/shutdown", "").unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn a_silent_connection_does_not_stall_other_clients() {
    let (addr, server) = start(None);
    // A client that connects and never sends a byte holds its handler
    // thread until the read timeout — other requests must not queue
    // behind it.
    let _silent = std::net::TcpStream::connect(addr).unwrap();
    let started = Instant::now();
    let index = client::get(addr, "/").unwrap();
    assert_eq!(index.status, 200);
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "request queued behind a silent connection ({:?})",
        started.elapsed()
    );
    client::post(addr, "/shutdown", "").unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn graceful_shutdown_completes_the_in_flight_job_before_exit() {
    let cache_dir =
        std::env::temp_dir().join(format!("service-e2e-shutdown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let (addr, server) = start(Some(cache_dir.clone()));

    // Occupy a worker with the gated job and wait until it is truly
    // in flight (not just queued).
    let ack = client::post(addr, "/jobs", "{\"scenarios\":\"slow\"}").unwrap();
    assert_eq!(ack.status, 202, "{}", ack.body);
    let id = job_id(&ack.body);
    let deadline = Instant::now() + Duration::from_secs(30);
    while !SLOW_STARTED.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "slow job never started");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Shutdown: acknowledged immediately, new jobs refused, reads still
    // served while the queue drains.
    let shutdown = client::post(addr, "/shutdown", "").unwrap();
    assert_eq!(shutdown.status, 200);
    assert!(shutdown.body.contains("\"state\":\"draining\""));
    let refused = client::post(addr, "/jobs", "{\"scenarios\":\"echo\"}").unwrap();
    assert_eq!(refused.status, 503, "{}", refused.body);
    let status = client::get(addr, &format!("/jobs/{id}")).unwrap();
    assert!(
        status
            .body
            .lines()
            .next()
            .unwrap()
            .contains("\"state\":\"running\""),
        "{}",
        status.body
    );
    assert!(!SLOW_DONE.load(Ordering::SeqCst));

    // Release the gate: the server must finish the job, persist its
    // result, and only then let `serve` return.
    SLOW_RELEASE.store(true, Ordering::SeqCst);
    server.join().unwrap().unwrap();
    assert!(
        SLOW_DONE.load(Ordering::SeqCst),
        "job was dropped on shutdown"
    );
    assert!(
        cache_dir
            .join("slow-quick-0x0000000000000007.ndjson")
            .exists(),
        "drained job's result was not persisted"
    );
    std::fs::remove_dir_all(&cache_dir).unwrap();
}
