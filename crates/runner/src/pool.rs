//! A hand-rolled work-stealing thread pool over `std::thread`.
//!
//! The build environment is offline (no rayon/crossbeam), so the executor
//! brings its own pool: each worker owns a deque seeded round-robin with
//! tasks; a worker pops from the *front* of its own deque and steals from
//! the *back* of a victim's. (Classic Blumofe–Leiserson pools pop LIFO for
//! cache locality between parent and spawned child tasks; here every task
//! is submitted up front and tasks never spawn tasks, so FIFO own-pop keeps
//! execution in rough submission order — progress lines follow the paper's
//! narrative — at no cost.) A worker that finds every deque empty can simply
//! retire.
//!
//! Determinism: results are returned **in submission order** no matter which
//! worker ran what, and seeds are derived before submission — scheduling can
//! affect only wall time, never values.
//!
//! Robustness: [`run_ordered_catch`] confines a panicking job to its own
//! result slot (`Err(panic message)`) — the worker that ran it keeps pulling
//! tasks, no lock is poisoned (jobs run outside every lock) and the rest of
//! the queue drains normally. It is the pool's one entry point; callers
//! decide what a panicked slot means (the executor turns it into a
//! per-scenario error).
//!
//! Instrumentation: the pool keeps cheap process-wide atomic counters (tasks
//! queued/completed/panicked, steals, queue depth and its peak). [`stats`]
//! snapshots them as a [`PoolStats`]; the experiment service's `/metrics`
//! endpoint and `repro run --verbose` both read from here.

use std::collections::VecDeque;
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
static STEALS: AtomicU64 = AtomicU64::new(0);
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
    /// Tasks that panicked (caught and reported per-slot).
    pub tasks_panicked: u64,
    /// Successful steals of a task from another worker's deque.
    pub steals: u64,
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
            steals: self.steals.saturating_sub(baseline.steals),
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
        steals: STEALS.load(Ordering::Relaxed),
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
/// panic guard. Must be called outside every pool lock so a panic can never
/// poison a deque or slot mutex.
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
/// A slot holds `Err(message)` when its job panicked; every other job still
/// runs (the catching worker keeps draining the queue, and jobs execute
/// outside all pool locks so no mutex is ever poisoned).
///
/// With `threads <= 1` (or at most one job) everything runs inline on the
/// calling thread — handy both as the baseline in determinism tests and to
/// keep single-point runs allocation-free.
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

    // Per-worker deques, seeded round-robin so the initial split is even.
    let deques: Vec<Mutex<VecDeque<(usize, F)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (index, job) in jobs.into_iter().enumerate() {
        deques[index % workers]
            .lock()
            .expect("deque poisoned")
            .push_back((index, job));
    }

    // One slot per job; each job writes exactly its own slot, so the only
    // contention is the brief per-slot lock.
    let slots: Vec<Mutex<Option<Result<T, String>>>> =
        (0..job_count).map(|_| Mutex::new(None)).collect();

    thread::scope(|scope| {
        for me in 0..workers {
            let deques = &deques;
            let slots = &slots;
            scope.spawn(move || loop {
                let mut task = deques[me].lock().expect("deque poisoned").pop_front();
                if task.is_none() {
                    for offset in 1..workers {
                        let victim = (me + offset) % workers;
                        task = deques[victim].lock().expect("deque poisoned").pop_back();
                        if task.is_some() {
                            STEALS.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                match task {
                    Some((index, job)) => {
                        let value = run_one(job);
                        *slots[index].lock().expect("slot poisoned") = Some(value);
                    }
                    // Every deque is empty and no task spawns tasks: retire.
                    None => break,
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every submitted job ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Runs jobs that must not panic and unwraps every slot.
    fn run_all<T: Send>(threads: usize, jobs: Vec<impl FnOnce() -> T + Send>) -> Vec<T> {
        run_ordered_catch(threads, jobs)
            .into_iter()
            .map(|slot| slot.unwrap())
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
        // One poisoned pill among 64 jobs: its slot carries the panic
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
