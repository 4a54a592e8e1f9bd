//! The resident experiment server: accept loop, routing, job workers and
//! graceful shutdown.
//!
//! Concurrency model, kept deliberately boring:
//!
//! * **HTTP handling is thread-per-connection, bounded.** The accept loop
//!   hands each connection to a short-lived handler thread (capped at
//!   [`MAX_CONNECTIONS`]; beyond that, connections are shed), so a slow or
//!   silent client can stall only its own thread — never `/metrics`, job
//!   polling or `/shutdown`. Every endpoint is a lock-snapshot plus string
//!   formatting — microseconds — while all heavy work happens on job
//!   workers.
//! * **Job execution is pooled.** `job_workers` threads pull from a bounded
//!   queue (submissions beyond `queue_capacity` get `503`) and run each
//!   job's uncached scenarios through `runner::execute`, which fans sweep
//!   points across the job's (clamped) thread count.
//! * **Shutdown drains.** `POST /shutdown` stops *new* job submissions
//!   immediately but keeps answering reads while the queue drains; once the
//!   last job finishes, the accept loop exits and [`Server::serve`] returns.

use crate::cache::{result_key, ResultCache};
use crate::http::{read_request, write_response, Request, Response};
use crate::job::{scenario_body, Job, JobSpec, JobState};
use crate::metrics::{Endpoint, Metrics};
use analysis::json::Json;
use analysis::table::json_string;
use runner::pool;
use runner::{execute, Registry, RunConfig, Scenario};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Upper bound on concurrent connection-handler threads; connections beyond
/// it are shed (dropped) instead of queued behind potentially stuck ones.
pub const MAX_CONNECTIONS: usize = 64;

/// How a [`Server`] is configured; see the field docs for defaults.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port `0` picks an ephemeral port).
    pub addr: String,
    /// Job-worker threads: how many jobs execute concurrently.
    pub job_workers: usize,
    /// Upper bound (and default) for a job's `threads` field.
    pub max_job_threads: usize,
    /// Result-cache directory; `None` keeps the cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Maximum queued-but-not-running jobs before `POST /jobs` answers 503.
    pub queue_capacity: usize,
    /// Finished jobs retained for `GET /jobs/<id>` before the oldest is
    /// evicted. Bounds the service's memory over an unbounded lifetime;
    /// *results* outlive the job record in the content-addressed cache.
    pub job_history: usize,
    /// Default root seed for specs that omit `seed`.
    pub default_seed: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7878".to_owned(),
            job_workers: 2,
            max_job_threads: pool::default_threads(),
            cache_dir: None,
            queue_capacity: 64,
            job_history: 256,
            default_seed: 2022,
        }
    }
}

/// Queue state behind the one service mutex.
#[derive(Debug, Default)]
struct QueueState {
    jobs: HashMap<u64, Job>,
    pending: VecDeque<u64>,
    /// Finished job ids, oldest first, for history eviction.
    finished: VecDeque<u64>,
    running: usize,
    next_id: u64,
}

impl QueueState {
    /// Records `id` as finished and evicts the oldest finished job records
    /// beyond `history` (queued/running jobs are never evicted).
    fn retire(&mut self, id: u64, history: usize) {
        self.finished.push_back(id);
        while self.finished.len() > history {
            let Some(evicted) = self.finished.pop_front() else {
                break;
            };
            self.jobs.remove(&evicted);
        }
    }
}

/// Everything the accept loop and the job workers share.
#[derive(Debug)]
struct Shared {
    registry: Registry,
    cache: ResultCache,
    metrics: Metrics,
    queue: Mutex<QueueState>,
    wake: Condvar,
    shutdown: AtomicBool,
    connections: AtomicUsize,
    max_job_threads: usize,
    queue_capacity: usize,
    job_history: usize,
    default_seed: u64,
}

impl Shared {
    /// Locks the queue, recovering from poisoning. The state is a plain
    /// collection of job records and stays structurally valid even if a
    /// holder panicked mid-update (the workers additionally catch job
    /// panics and retire the job as errored), so a request must never be
    /// answered with a panic just because another thread once unwound here.
    fn lock_queue(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// True once the queue holds no pending or running job.
    fn idle(&self) -> bool {
        let queue = self.lock_queue();
        queue.pending.is_empty() && queue.running == 0
    }
}

/// The bound-but-not-yet-serving experiment server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    job_workers: usize,
}

impl Server {
    /// Binds the listener and opens the result cache.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from binding `config.addr` or opening the
    /// cache directory.
    pub fn bind(registry: Registry, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let cache = ResultCache::open(config.cache_dir.clone())?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                registry,
                cache,
                metrics: Metrics::default(),
                queue: Mutex::new(QueueState::default()),
                wake: Condvar::new(),
                shutdown: AtomicBool::new(false),
                connections: AtomicUsize::new(0),
                max_job_threads: config.max_job_threads.max(1),
                queue_capacity: config.queue_capacity.max(1),
                job_history: config.job_history.max(1),
                default_seed: config.default_seed,
            }),
            job_workers: config.job_workers.max(1),
        })
    }

    /// The address actually bound (resolves port `0` to the real port).
    ///
    /// # Errors
    ///
    /// Returns the OS error if the socket has no local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `POST /shutdown` has been received *and* every queued
    /// job has finished. Spawns `job_workers` worker threads for the
    /// lifetime of the call.
    ///
    /// # Errors
    ///
    /// Returns a fatal listener error (per-connection errors are counted in
    /// the metrics and do not stop the server).
    pub fn serve(self) -> io::Result<()> {
        let Server {
            listener,
            shared,
            job_workers,
        } = self;
        let workers: Vec<_> = (0..job_workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        // Non-blocking accept so the loop can notice drained shutdown even
        // when no client ever connects again.
        listener.set_nonblocking(true)?;
        let result = loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    // One short-lived thread per connection: a client that
                    // connects and sends nothing stalls only itself (its
                    // 5 s read timeout), not the whole service. The counter
                    // bounds handler threads; beyond it, shed the
                    // connection rather than queue behind stuck ones.
                    if shared.connections.fetch_add(1, Ordering::AcqRel) >= MAX_CONNECTIONS {
                        shared.connections.fetch_sub(1, Ordering::AcqRel);
                        drop(stream);
                        continue;
                    }
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        handle_connection(&shared, stream);
                        shared.connections.fetch_sub(1, Ordering::AcqRel);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if shared.shutdown.load(Ordering::Acquire) && shared.idle() {
                        break Ok(());
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };

        // Stop the workers even on a fatal listener error, then join them
        // so no job is abandoned mid-flight.
        shared.shutdown.store(true, Ordering::Release);
        shared.wake.notify_all();
        for worker in workers {
            let _ = worker.join();
        }
        // Let in-flight connection handlers finish writing — the
        // `/shutdown` acknowledgement itself is one of them, and returning
        // (and letting the process exit) mid-write would reset it. Bounded
        // by a little over the handlers' own 5 s socket timeouts.
        let drain_deadline = Instant::now() + Duration::from_secs(15);
        while shared.connections.load(Ordering::Acquire) > 0 && Instant::now() < drain_deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        result
    }
}

/// One job worker: pull, run, repeat; exit when shut down and drained.
fn worker_loop(shared: &Shared) {
    loop {
        let job_id = {
            let mut queue = shared.lock_queue();
            loop {
                if let Some(id) = queue.pending.pop_front() {
                    queue.running += 1;
                    if let Some(job) = queue.jobs.get_mut(&id) {
                        job.state = JobState::Running;
                    }
                    break id;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .wake
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // A panic escaping `run_job` (e.g. from a scenario's `assemble`
        // fold, which the executor runs uncaught on this thread) must not
        // kill the worker or leak `running` — that would wedge graceful
        // shutdown forever. Catch it and retire the job as errored.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(shared, job_id);
        }))
        .is_err();
        {
            let mut queue = shared.lock_queue();
            queue.running -= 1;
            if panicked {
                let history = shared.job_history;
                if let Some(job) = queue.jobs.get_mut(&job_id) {
                    job.state = JobState::Done;
                    // `run_job` unwound before recording anything: resolve
                    // the keys so scenarios that *did* land in the cache
                    // (earlier hits, or runs completed before the panic)
                    // still serve their bodies; only the keys with no body
                    // count as errors.
                    job.keys = job
                        .scenario_ids
                        .iter()
                        .map(|id| result_key(id, job.spec.scale, job.spec.seed))
                        .collect();
                    job.errors = job
                        .keys
                        .iter()
                        .filter(|key| shared.cache.get(key).is_none())
                        .count()
                        .max(1);
                    queue.retire(job_id, history);
                }
            }
        }
        if panicked {
            shared.metrics.record_job_finished(true);
        }
        // Wake sibling workers (more jobs may be pending) — the accept loop
        // polls, so nothing else needs a nudge.
        shared.wake.notify_all();
    }
}

/// Executes one job: serve scenarios from the cache where possible, run the
/// rest, record everything back on the job.
fn run_job(shared: &Shared, job_id: u64) {
    let Some((spec, scenario_ids)) = ({
        let queue = shared.lock_queue();
        queue
            .jobs
            .get(&job_id)
            .map(|job| (job.spec.clone(), job.scenario_ids.clone()))
    }) else {
        return;
    };

    let keys: Vec<String> = scenario_ids
        .iter()
        .map(|id| result_key(id, spec.scale, spec.seed))
        .collect();
    let uncached: Vec<&'static str> = scenario_ids
        .iter()
        .zip(&keys)
        .filter(|(_, key)| shared.cache.get(key).is_none())
        .map(|(id, _)| *id)
        .collect();
    let hits = scenario_ids.len() - uncached.len();
    shared
        .metrics
        .record_cache(hits as u64, uncached.len() as u64);

    let mut errors = 0usize;
    let mut error_bodies: Vec<(String, Arc<str>)> = Vec::new();
    if !uncached.is_empty() {
        // Ids were resolved against the registry at submission; filter_map
        // keeps an impossible miss from panicking the worker.
        let selected: Vec<&Scenario> = uncached
            .iter()
            .filter_map(|id| shared.registry.get(id))
            .collect();
        let config = RunConfig {
            scale: spec.scale,
            threads: spec.threads,
            root_seed: spec.seed,
            progress: false,
        };
        let runs = execute(&selected, &config);
        for run in &runs {
            // Freshly simulated work feeds the per-scenario /metrics
            // counters (cache hits never reach this loop's scenarios).
            shared
                .metrics
                .record_scenario_sim(run.id, run.sim_cycles, run.sim_accesses);
            let key = result_key(run.id, spec.scale, spec.seed);
            let body = scenario_body(run, &key);
            if run.error.is_none() {
                // Persist best-effort: a failed disk write downgrades to a
                // memory-only entry, it must not fail the job.
                let _ = shared.cache.insert(&key, body);
            } else {
                errors += 1;
                error_bodies.push((key, Arc::from(body.as_str())));
            }
        }
    }

    let mut queue = shared.lock_queue();
    if let Some(job) = queue.jobs.get_mut(&job_id) {
        job.state = JobState::Done;
        job.keys = keys;
        job.cache_hits = hits;
        job.cache_misses = uncached.len();
        job.errors = errors;
        job.error_bodies = error_bodies;
        queue.retire(job_id, shared.job_history);
    }
    drop(queue);
    shared.metrics.record_job_finished(errors > 0);
}

/// Reads, routes and answers one connection, recording request metrics.
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    // The listener is non-blocking; make sure the accepted socket is not
    // (platforms differ on inheritance), then bound slow clients.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let start = Instant::now();
    let (endpoint, response) = match read_request(&mut stream) {
        Ok(request) => route(shared, &request),
        Err(error_response) => (Endpoint::Other, error_response),
    };
    // Record before writing: once a client has read its response, the
    // request is guaranteed visible in `/metrics` (handlers run on their
    // own threads, so the other order would race observers).
    let latency_us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    shared
        .metrics
        .record_request(endpoint, response.status, latency_us);
    let _ = write_response(&mut stream, &response);
}

/// Dispatches one parsed request to its endpoint handler.
fn route(shared: &Shared, request: &Request) -> (Endpoint, Response) {
    let method = request.method.as_str();
    let path = request.path.as_str();
    match (method, path) {
        ("GET", "/") => (Endpoint::Index, index()),
        ("GET", "/scenarios") => (Endpoint::Scenarios, scenarios(shared)),
        ("POST", "/jobs") => (Endpoint::JobsPost, submit_job(shared, &request.body)),
        ("GET", "/metrics") => (
            Endpoint::Metrics,
            Response::text(shared.metrics.render(shared.cache.len(), &pool::stats())),
        ),
        ("POST", "/shutdown") => (Endpoint::Shutdown, shutdown(shared)),
        ("GET", _) if path.starts_with("/jobs/") => (
            Endpoint::JobsGet,
            job_status(shared, &path["/jobs/".len()..]),
        ),
        ("GET", _) if path.starts_with("/results/") => (
            Endpoint::Results,
            result(shared, &path["/results/".len()..]),
        ),
        (_, "/" | "/scenarios" | "/jobs" | "/metrics" | "/shutdown") => (
            Endpoint::Other,
            Response::error(405, &format!("method {method} not allowed on {path}")),
        ),
        _ => (
            Endpoint::Other,
            Response::error(404, &format!("no such endpoint {path} (see GET /)")),
        ),
    }
}

/// `GET /` — one NDJSON line naming every endpoint.
fn index() -> Response {
    Response::ndjson(
        "{\"type\":\"service\",\"name\":\"repro\",\"endpoints\":[\
         \"GET /scenarios\",\"POST /jobs\",\"GET /jobs/<id>\",\
         \"GET /results/<key>\",\"GET /metrics\",\"POST /shutdown\"]}\n"
            .to_owned(),
    )
}

/// `GET /scenarios` — one NDJSON line per registered scenario.
fn scenarios(shared: &Shared) -> Response {
    let mut body = String::new();
    for scenario in shared.registry.scenarios() {
        body.push_str(&format!(
            "{{\"type\":\"scenario\",\"id\":{},\"paper_ref\":{},\"section\":{},\
             \"points_quick\":{},\"points_full\":{},\"summary\":{}}}\n",
            json_string(scenario.id),
            json_string(scenario.paper_ref),
            json_string(scenario.section),
            (scenario.points)(runner::Scale::Quick),
            (scenario.points)(runner::Scale::Full),
            json_string(scenario.summary),
        ));
    }
    Response::ndjson(body)
}

/// `POST /jobs` — validate, resolve, enqueue; `202` with the status line.
fn submit_job(shared: &Shared, body: &str) -> Response {
    let json = match Json::parse(body) {
        Ok(json) => json,
        Err(message) => return Response::error(400, &format!("invalid JSON body: {message}")),
    };
    let spec = match JobSpec::from_json(&json, shared.default_seed, shared.max_job_threads) {
        Ok(spec) => spec,
        Err(message) => return Response::error(400, &message),
    };
    let scenario_ids: Vec<&'static str> = match shared.registry.select(&spec.patterns) {
        Ok(selected) => selected.iter().map(|s| s.id).collect(),
        Err(message) => return Response::error(400, &message),
    };
    let mut queue = shared.lock_queue();
    // Checked under the queue lock: a job enqueued after the workers
    // observed (shutdown && pending empty) and exited would strand in the
    // queue and wedge the accept loop's idle check forever. Under the lock,
    // either this check sees the flag, or the workers see the new job.
    if shared.shutdown.load(Ordering::Acquire) {
        return Response::error(503, "shutting down; no new jobs accepted");
    }
    if queue.pending.len() >= shared.queue_capacity {
        return Response::error(
            503,
            &format!("job queue full ({} pending)", queue.pending.len()),
        );
    }
    queue.next_id += 1;
    let id = queue.next_id;
    let job = Job::new(id, spec, scenario_ids);
    let status = job.status_line();
    queue.jobs.insert(id, job);
    // Gauge up *before* the job becomes poppable (still under the lock):
    // an already-awake worker could otherwise finish a fully-cached job —
    // and decrement the gauge — before this thread increments it,
    // underflowing queue depth to u64::MAX for concurrent /metrics readers.
    shared.metrics.record_job_enqueued();
    queue.pending.push_back(id);
    drop(queue);
    shared.wake.notify_all();
    Response::ndjson_status(202, status)
}

/// `GET /jobs/<id>` — the status line, plus every result body once done.
fn job_status(shared: &Shared, name: &str) -> Response {
    let Some(id) = name.strip_prefix('j').and_then(|n| n.parse::<u64>().ok()) else {
        return Response::error(400, &format!("malformed job id {name:?} (expected j<n>)"));
    };
    let snapshot = {
        let queue = shared.lock_queue();
        queue.jobs.get(&id).cloned()
    };
    let Some(job) = snapshot else {
        return Response::error(404, &format!("no such job \"j{id}\""));
    };
    let mut body = job.status_line();
    if job.state == JobState::Done {
        for key in &job.keys {
            if let Some(cached) = shared.cache.get(key) {
                body.push_str(&cached);
            } else if let Some((_, error_body)) = job.error_bodies.iter().find(|(k, _)| k == key) {
                body.push_str(error_body);
            }
        }
    }
    Response::ndjson(body)
}

/// `GET /results/<key>` — one cached scenario body, straight from the store.
fn result(shared: &Shared, key: &str) -> Response {
    match shared.cache.get(key) {
        Some(body) => Response::ndjson(body.to_string()),
        None => Response::error(404, &format!("no cached result for key {key:?}")),
    }
}

/// `POST /shutdown` — stop accepting jobs, drain, then exit `serve`.
fn shutdown(shared: &Shared) -> Response {
    shared.shutdown.store(true, Ordering::Release);
    shared.wake.notify_all();
    let pending = shared.metrics.queue_depth();
    Response::ndjson(format!(
        "{{\"type\":\"shutdown\",\"state\":\"draining\",\"jobs_in_flight\":{pending}}}\n"
    ))
}
