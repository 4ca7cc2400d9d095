//! `afrt` — the AnalogFold runtime: a small, deterministic parallel
//! execution subsystem used by relaxation restarts, dataset generation,
//! and the benchmark drivers.
//!
//! # Design
//!
//! The central primitive is [`Runtime::par_map`]: map a function over a
//! slice of items on a scoped worker pool and collect the results **by
//! index**. Because
//!
//! 1. results land in a pre-sized output vector at their item's index, and
//! 2. any per-task randomness is derived only from `(root_seed, index)`
//!    via [`split_seed`] rather than from a shared sequential stream,
//!
//! the output is bit-identical regardless of worker count or scheduling
//! order. `threads = 1` and `threads = 64` produce the same bytes.
//!
//! Workers are plain `std::thread::scope` threads pulling task indices from
//! a shared queue, so closures may borrow non-`'static` data (graphs,
//! tensors, model weights) without `Arc`-wrapping the world. Each task runs
//! under `catch_unwind`: one panicking task never tears down the pool, and
//! the panic payload is reported in [`JobError::Panicked`].
//!
//! Thread-count resolution order: explicit [`Runtime::with_threads`] value,
//! then the `AFRT_THREADS` environment variable, then
//! `std::thread::available_parallelism`.

pub mod queue;

pub use queue::{BoundedQueue, PushError};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "AFRT_THREADS";

/// Splits a root seed into a stream-independent per-task seed.
///
/// Uses the SplitMix64 finalizer over `root_seed + (index + 1) * GOLDEN`,
/// the standard construction for deriving statistically independent seeds
/// from a single root. Crucially the result depends only on
/// `(root_seed, index)`, never on which worker thread evaluates the task or
/// in what order — this is what makes parallel jobs bit-reproducible.
#[inline]
#[must_use]
pub fn split_seed(root_seed: u64, index: u64) -> u64 {
    // Weyl increment (2^64 / phi), as in SplitMix64's gamma.
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut z = root_seed.wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Why a job failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum JobError {
    /// At least one task panicked; holds the first panic's message and the
    /// index of the task that raised it.
    Panicked { index: usize, message: String },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked { index, message } => {
                write!(f, "task {index} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// Index queue shared by the workers of one job.
///
/// A `Mutex<VecDeque>`-style channel is overkill here because tasks are
/// identified by dense indices; a single atomic cursor gives the same
/// work-stealing behavior with less contention.
struct TaskQueue {
    next: AtomicUsize,
    total: usize,
}

impl TaskQueue {
    fn pop(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.total).then_some(i)
    }
}

fn threads_from_env() -> Option<usize> {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A configured worker pool. Cheap to construct; threads are scoped to each
/// job rather than kept alive between calls, which lets task closures
/// borrow stack data.
#[derive(Debug, Clone)]
pub struct Runtime {
    threads: usize,
}

impl Default for Runtime {
    fn default() -> Self {
        Self::with_threads(0)
    }
}

impl Runtime {
    /// Runtime with an explicit worker count (`0` = auto: `AFRT_THREADS`,
    /// then hardware parallelism).
    #[must_use]
    pub fn with_threads(n: usize) -> Self {
        let threads = Some(n)
            .filter(|&n| n > 0)
            .or_else(threads_from_env)
            .unwrap_or_else(hardware_threads);
        Self { threads }
    }

    /// Resolved worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` on the pool; results are ordered by item index.
    /// Per-task randomness should come from [`split_seed`]`(root, i)`, which
    /// keeps the result bit-identical for every thread count.
    ///
    /// # Errors
    /// [`JobError::Panicked`] if any task panicked (first panic by index
    /// wins). On error, completed results are dropped.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>, JobError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let total = items.len();
        if total == 0 {
            return Ok(Vec::new());
        }
        let queue = TaskQueue {
            next: AtomicUsize::new(0),
            total,
        };
        // One slot per item; workers fill disjoint slots so a Mutex per job
        // (not per slot) would serialize. Instead each completed result is
        // pushed with its index and sorted once at the end.
        let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(total));
        let first_panic: Mutex<Option<(usize, String)>> = Mutex::new(None);
        let workers = self.threads.min(total);
        // Observability: workers inherit the submitting thread's span path,
        // and (only while recording is on) each task's queue-wait and
        // execute time land in the shared histograms. Wall clocks never
        // feed back into task results, so determinism is unaffected.
        let obs_on = af_obs::enabled();
        let parent = if obs_on {
            af_obs::current_path()
        } else {
            String::new()
        };
        let job_start = std::time::Instant::now();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while let Some(i) = queue.pop() {
                        let exec_start = if obs_on {
                            let now = std::time::Instant::now();
                            af_obs::hist(
                                "afrt.queue_wait_us",
                                (now - job_start).as_secs_f64() * 1e6,
                            );
                            Some(now)
                        } else {
                            None
                        };
                        let outcome = af_obs::with_parent(&parent, || {
                            catch_unwind(AssertUnwindSafe(|| f(i, &items[i])))
                        });
                        if let Some(start) = exec_start {
                            af_obs::hist("afrt.task_exec_us", start.elapsed().as_secs_f64() * 1e6);
                        }
                        match outcome {
                            Ok(r) => results.lock().unwrap().push((i, r)),
                            Err(payload) => {
                                let msg = panic_message(payload.as_ref());
                                let mut slot = first_panic.lock().unwrap();
                                match slot.as_ref() {
                                    Some((j, _)) if *j <= i => {}
                                    _ => *slot = Some((i, msg)),
                                }
                            }
                        }
                    }
                });
            }
        });

        if let Some((index, message)) = first_panic.into_inner().unwrap() {
            return Err(JobError::Panicked { index, message });
        }
        let mut collected = results.into_inner().unwrap();
        collected.sort_unstable_by_key(|(i, _)| *i);
        Ok(collected.into_iter().map(|(_, r)| r).collect())
    }

    /// Runs independent closures concurrently, returning results in call
    /// order. Convenience wrapper for heterogeneous fan-out (e.g. bench
    /// drivers running one closure per design).
    ///
    /// # Errors
    /// [`JobError::Panicked`] if any closure panicked.
    pub fn par_run<R, F>(&self, jobs: Vec<F>) -> Result<Vec<R>, JobError>
    where
        R: Send,
        F: FnOnce() -> R + Send,
    {
        let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
        self.par_map(&slots, |_, slot| {
            let f = slot.lock().unwrap().take().expect("job taken twice");
            f()
        })
    }
}

/// Best-effort extraction of a panic payload's message (the `&str` and
/// `String` payloads `panic!` produces). Shared with `af-fault`'s
/// supervisor so restart logs carry the original panic text.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Measures wall-clock seconds of `f`, returning `(result, seconds)`.
/// Used by bench drivers to report parallel-vs-sequential speedup.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Serializes tests that install the process-global `af_obs` state.
#[cfg(test)]
pub(crate) static OBS_TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_seed_is_stable() {
        // Pinned values: changing the splitter silently breaks every
        // recorded dataset/relaxation reproduction, so lock them down.
        assert_eq!(split_seed(0, 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(split_seed(7, 0), split_seed(7, 0));
        assert_ne!(split_seed(7, 0), split_seed(7, 1));
        assert_ne!(split_seed(7, 0), split_seed(8, 0));
    }

    #[test]
    fn split_seed_has_no_short_cycles() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(split_seed(42, i)), "collision at index {i}");
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let rt = Runtime::with_threads(8);
        let items: Vec<u64> = (0..100).collect();
        let out = rt.par_map(&items, |_, &x| x * 2).unwrap();
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn split_seeded_par_map_is_thread_count_invariant() {
        let items: Vec<u32> = (0..64).collect();
        let run = |threads| {
            Runtime::with_threads(threads)
                .par_map(&items, |i, &item| {
                    (i as u64) ^ u64::from(item) ^ split_seed(0xDEAD_BEEF, i as u64)
                })
                .unwrap()
        };
        let one = run(1);
        for threads in [2, 4, 8, 16] {
            assert_eq!(run(threads), one, "mismatch at {threads} threads");
        }
    }

    #[test]
    fn panic_in_one_task_is_isolated_and_reported() {
        let rt = Runtime::with_threads(4);
        let items: Vec<usize> = (0..32).collect();
        let JobError::Panicked { index, message } = rt
            .par_map(&items, |_, &x| {
                assert!(x != 13, "unlucky task");
                x
            })
            .unwrap_err();
        assert_eq!(index, 13);
        assert!(message.contains("unlucky task"), "message: {message}");
    }

    #[test]
    fn earliest_panic_index_wins() {
        let rt = Runtime::with_threads(8);
        let items: Vec<usize> = (0..64).collect();
        let JobError::Panicked { index, .. } = rt
            .par_map(&items, |_, &x| {
                assert!(x % 10 != 3, "boom at {x}");
                x
            })
            .unwrap_err();
        assert_eq!(index, 3);
    }

    #[test]
    fn par_run_returns_in_call_order() {
        let rt = Runtime::with_threads(4);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = rt.par_run(jobs).unwrap();
        assert_eq!(out, (0..16usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_job_is_ok() {
        let rt = Runtime::with_threads(4);
        let items: Vec<u8> = Vec::new();
        assert!(rt.par_map(&items, |_, &x| x).unwrap().is_empty());
    }

    #[test]
    fn pool_tasks_inherit_span_context_and_record_timings() {
        let _l = crate::OBS_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let sink = std::sync::Arc::new(af_obs::MemorySink::new());
        let guard = af_obs::install(sink.clone());
        {
            let _job = af_obs::span!("job");
            let rt = Runtime::with_threads(4);
            let items: Vec<u32> = (0..16).collect();
            rt.par_map(&items, |i, _| {
                let _t = af_obs::span!("task", i);
                af_obs::counter("afrt.test_tasks", 1);
            })
            .unwrap();
        }
        drop(guard);
        let events = sink.events();
        let task_spans = events
            .iter()
            .filter(|e| e.name().starts_with("job/task#"))
            .count();
        assert_eq!(task_spans, 16, "workers inherited the submitter's span");
        assert!(events.iter().any(
            |e| matches!(e, af_obs::Event::Counter { name, value: 16, .. } if name == "afrt.test_tasks")
        ));
        assert!(
            events
                .iter()
                .any(|e| matches!(e, af_obs::Event::Histogram { name, .. } if name == "afrt.queue_wait_us")),
            "queue wait histogram flushed"
        );
        assert!(events.iter().any(
            |e| matches!(e, af_obs::Event::Histogram { name, .. } if name == "afrt.task_exec_us")
        ));
    }

    #[test]
    fn builder_zero_means_auto() {
        // Can't assert the exact count (env/hardware dependent) but it must
        // be at least one.
        assert!(Runtime::with_threads(0).threads() >= 1);
        assert_eq!(Runtime::with_threads(5).threads(), 5);
    }
}
