//! A hand-rolled thread pool over `std::thread`: one queue, scoped workers.
//!
//! The build environment is offline (no rayon/crossbeam), so the executor
//! brings its own pool. Every task is submitted up front and no task spawns
//! another, so there is nothing for per-worker deques or work stealing to
//! balance that one shared queue does not: each idle worker takes the next
//! task in submission order — progress lines follow the paper's narrative —
//! and a worker that finds the queue empty retires.
//!
//! Determinism: results are returned **in submission order** no matter which
//! worker ran what, and seeds are derived before submission — scheduling can
//! affect only wall time, never values.
//!
//! Robustness: [`run_ordered_catch`] confines a panicking job to its own
//! result (`Err(panic message)`) — the worker that ran it keeps pulling
//! tasks, the queue lock is never poisoned (jobs run outside it) and the rest
//! of the queue drains normally. It is the pool's one entry point; callers
//! decide what a panicked result means (the executor turns it into a
//! per-scenario error).
//!
//! Instrumentation: the pool keeps cheap process-wide atomic counters (tasks
//! queued/completed/panicked, queue depth and its peak). [`stats`]
//! snapshots them as a [`PoolStats`]; the experiment service's `/metrics`
//! endpoint and `repro run --verbose` both read from here.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;

/// The number of worker threads to default to: `available_parallelism`,
/// or 1 if the platform cannot tell.
pub fn default_threads() -> usize {
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

// Process-wide pool counters. Cumulative across every `run_ordered_catch` call in
// the process (the service runs many executor invocations over one pool
// module); readers take deltas when they want per-run numbers. Relaxed
// ordering is enough: these are statistics, not synchronization.
static TASKS_QUEUED: AtomicU64 = AtomicU64::new(0);
static TASKS_COMPLETED: AtomicU64 = AtomicU64::new(0);
static TASKS_PANICKED: AtomicU64 = AtomicU64::new(0);
static QUEUE_DEPTH: AtomicU64 = AtomicU64::new(0);
static PEAK_QUEUE_DEPTH: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide pool counters.
///
/// All fields except `queue_depth` are cumulative monotone counters; use
/// [`PoolStats::since`] to get the delta over a baseline snapshot (what
/// `repro run --verbose` prints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Tasks handed to the pool.
    pub tasks_queued: u64,
    /// Tasks that ran to completion (including ones that returned an error
    /// value — the pool only counts panics separately).
    pub tasks_completed: u64,
    /// Tasks that panicked (caught and reported in their own result).
    pub tasks_panicked: u64,
    /// Tasks currently queued or running (a gauge, not a counter).
    pub queue_depth: u64,
    /// The highest `queue_depth` ever observed.
    pub peak_queue_depth: u64,
}

impl PoolStats {
    /// The delta of the monotone counters relative to `baseline` (gauges are
    /// carried over unchanged). Saturating, so a stale baseline cannot wrap.
    pub fn since(&self, baseline: &PoolStats) -> PoolStats {
        PoolStats {
            tasks_queued: self.tasks_queued.saturating_sub(baseline.tasks_queued),
            tasks_completed: self
                .tasks_completed
                .saturating_sub(baseline.tasks_completed),
            tasks_panicked: self.tasks_panicked.saturating_sub(baseline.tasks_panicked),
            queue_depth: self.queue_depth,
            peak_queue_depth: self.peak_queue_depth,
        }
    }
}

/// Snapshots the process-wide pool counters.
pub fn stats() -> PoolStats {
    PoolStats {
        tasks_queued: TASKS_QUEUED.load(Ordering::Relaxed),
        tasks_completed: TASKS_COMPLETED.load(Ordering::Relaxed),
        tasks_panicked: TASKS_PANICKED.load(Ordering::Relaxed),
        queue_depth: QUEUE_DEPTH.load(Ordering::Relaxed),
        peak_queue_depth: PEAK_QUEUE_DEPTH.load(Ordering::Relaxed),
    }
}

/// Extracts a human-readable message from a caught panic payload.
///
/// `panic!` with a literal carries `&str`, with a format string `String`;
/// anything else (a custom payload) gets a fixed placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Records the counter updates around one task execution and runs it with a
/// panic guard. Must be called outside the queue lock so a panic can never
/// poison it.
fn run_one<T>(job: impl FnOnce() -> T) -> Result<T, String> {
    let result = catch_unwind(AssertUnwindSafe(job));
    QUEUE_DEPTH.fetch_sub(1, Ordering::Relaxed);
    match result {
        Ok(value) => {
            TASKS_COMPLETED.fetch_add(1, Ordering::Relaxed);
            Ok(value)
        }
        Err(payload) => {
            TASKS_PANICKED.fetch_add(1, Ordering::Relaxed);
            Err(panic_message(payload.as_ref()))
        }
    }
}

/// Registers `count` freshly queued tasks with the process-wide counters.
fn record_queued(count: usize) {
    let count = count as u64;
    TASKS_QUEUED.fetch_add(count, Ordering::Relaxed);
    let depth = QUEUE_DEPTH.fetch_add(count, Ordering::Relaxed) + count;
    PEAK_QUEUE_DEPTH.fetch_max(depth, Ordering::Relaxed);
}

/// Runs `jobs` on `threads` workers and returns their results in submission
/// order, confining panics to the job that raised them.
///
/// A result is `Err(message)` when its job panicked; every other job still
/// runs (the catching worker keeps draining the queue, and jobs execute
/// outside the queue lock so it is never poisoned).
///
/// With `threads <= 1` (or at most one job) everything runs inline on the
/// calling thread — handy both as the baseline in determinism tests and to
/// keep single-point runs allocation-free. Otherwise `threads.min(jobs)`
/// scoped workers take jobs from one queue in submission order; each keeps
/// its own `(index, result)` list, and the lists are put back in submission
/// order once the workers join. Every job is queued before any runs and no
/// job queues another, so one queue keeps every worker busy until it is
/// empty: there is nothing for work stealing to rebalance.
pub fn run_ordered_catch<T, F>(threads: usize, jobs: Vec<F>) -> Vec<Result<T, String>>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let job_count = jobs.len();
    record_queued(job_count);
    if threads <= 1 || job_count <= 1 {
        return jobs.into_iter().map(run_one).collect();
    }
    let workers = threads.min(job_count);

    // One queue in submission order. `next` drops the guard before it
    // returns, so a worker holds the lock only to take a job, never while
    // running it (a `while let` on the lock itself would keep the guard
    // alive for the whole loop body).
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let next = || queue.lock().expect("queue poisoned").next();
    let mut done: Vec<(usize, Result<T, String>)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut ran = Vec::new();
                    while let Some((index, job)) = next() {
                        ran.push((index, run_one(job)));
                    }
                    ran
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("pool worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Runs jobs that must not panic and unwraps every result.
    fn run_all<T: Send>(threads: usize, jobs: Vec<impl FnOnce() -> T + Send>) -> Vec<T> {
        run_ordered_catch(threads, jobs)
            .into_iter()
            .map(|result| result.unwrap())
            .collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        for threads in [1, 2, 4, 8, 33] {
            let jobs: Vec<_> = (0..100).map(|i| move || i * i).collect();
            let results = run_all(threads, jobs);
            let expected: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(results, expected, "threads={threads}");
        }
    }

    #[test]
    fn all_jobs_run_exactly_once() {
        let counter = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..257)
            .map(|_| {
                let counter = &counter;
                move || counter.fetch_add(1, Ordering::SeqCst)
            })
            .collect();
        run_all(8, jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 257);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        assert_eq!(run_all(64, vec![|| 1, || 2]), vec![1, 2]);
        assert_eq!(run_all(4, Vec::<fn() -> u8>::new()), Vec::<u8>::new());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn a_panicking_job_is_an_error_and_the_queue_still_drains() {
        // One poisoned pill among 64 jobs: its result carries the panic
        // message, all 63 other jobs still run exactly once, and the call
        // returns (no hung worker, no poisoned lock).
        for threads in [1, 2, 8] {
            let ran = AtomicUsize::new(0);
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..64)
                .map(|i| {
                    let ran = &ran;
                    let job: Box<dyn FnOnce() -> usize + Send> = if i == 13 {
                        Box::new(|| panic!("pill {}", 13))
                    } else {
                        Box::new(move || {
                            ran.fetch_add(1, Ordering::SeqCst);
                            i
                        })
                    };
                    job
                })
                .collect();
            let results = run_ordered_catch(threads, jobs);
            assert_eq!(results.len(), 64, "threads={threads}");
            assert_eq!(ran.load(Ordering::SeqCst), 63, "threads={threads}");
            for (i, result) in results.iter().enumerate() {
                if i == 13 {
                    assert_eq!(result.as_ref().unwrap_err(), "pill 13");
                } else {
                    assert_eq!(*result.as_ref().unwrap(), i);
                }
            }
        }
    }

    #[test]
    fn stats_counters_advance_and_peak_tracks_depth() {
        let before = stats();
        let jobs: Vec<_> = (0..40).map(|i| move || i).collect();
        run_all(4, jobs);
        let delta = stats().since(&before);
        // Other tests may run pool jobs concurrently, so assert lower
        // bounds on the deltas, not exact equality.
        assert!(delta.tasks_queued >= 40, "{delta:?}");
        assert!(delta.tasks_completed >= 40, "{delta:?}");
        assert!(stats().peak_queue_depth >= 40);
    }

    #[test]
    fn panicked_tasks_are_counted() {
        let before = stats();
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = vec![Box::new(|| panic!("counted"))];
        let results = run_ordered_catch(1, jobs);
        assert!(results[0].is_err());
        let delta = stats().since(&before);
        assert!(delta.tasks_panicked >= 1, "{delta:?}");
    }

    #[test]
    fn panic_message_handles_all_payload_shapes() {
        let s: Box<dyn std::any::Any + Send> = Box::new("literal");
        assert_eq!(panic_message(s.as_ref()), "literal");
        let owned: Box<dyn std::any::Any + Send> = Box::new("formatted 7".to_owned());
        assert_eq!(panic_message(owned.as_ref()), "formatted 7");
        let other: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(other.as_ref()), "non-string panic payload");
    }
}
