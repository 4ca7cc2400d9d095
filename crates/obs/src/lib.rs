#![warn(missing_docs)]
//! `af-obs`: the workspace-wide observability layer.
//!
//! A zero-dependency, thread-safe facility for hierarchical timed spans,
//! typed counters/gauges/histograms, and two sinks (a human-readable tree
//! report and a machine-readable JSONL event log). It sits below every
//! other workspace crate — including the `afrt` runtime — so any of them
//! can record without dependency cycles.
//!
//! Recording is **disabled by default** and costs one relaxed atomic load
//! per call site while disabled. [`install`] turns it on for the lifetime
//! of the returned [`ObsGuard`]; dropping the guard flushes aggregated
//! metrics to the sink as one event per counter/gauge/histogram, then
//! disables recording again.
//!
//! Span paths are `/`-separated (`flow/relaxation/restart`); per-instance
//! spans append `#idx` to the emitted event path but aggregate under the
//! base path. Wall times are measured with the monotonic clock and *never*
//! feed back into seeded computation, so enabling observability cannot
//! perturb determinism.
//!
//! ```
//! let sink = std::sync::Arc::new(af_obs::MemorySink::new());
//! let guard = af_obs::install(sink.clone());
//! {
//!     let _outer = af_obs::span!("flow");
//!     let _inner = af_obs::span!("dataset");
//!     af_obs::counter("dataset.samples", 12);
//! }
//! drop(guard);
//! assert!(sink.events().iter().any(|e| e.name() == "flow/dataset"));
//! ```

pub mod event;
pub mod fmt;
pub mod json;
pub mod prometheus;
pub mod registry;
pub mod report;
pub mod sink;

pub use event::Event;
pub use registry::{HistStat, Registry, SpanStat};
pub use sink::{JsonlSink, MemorySink, Sink, TeeSink};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Fast-path switch: every recording call site checks this first.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed registry + sink. Guarded by `ENABLED` so the read lock is
/// only ever taken while recording is on.
static STATE: RwLock<Option<Arc<Inner>>> = RwLock::new(None);

struct Inner {
    registry: Registry,
    sink: Arc<dyn Sink>,
    seq: AtomicU64,
}

impl Inner {
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }
}

thread_local! {
    /// Stack of full span paths open on this thread; the top is the parent
    /// of the next span. Entries are full paths, not segments.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Whether recording is currently enabled.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn with_state<R>(f: impl FnOnce(&Inner) -> R) -> Option<R> {
    let guard = STATE
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    guard.as_ref().map(|inner| f(inner))
}

/// Installs `sink` and enables recording until the returned guard drops.
///
/// Replaces any previously installed sink: from here on every event goes
/// to this one. On drop the guard flushes every counter, gauge, and
/// histogram recorded into its own registry as one event each (name-sorted,
/// so flush order is deterministic) to its own sink, flushes that sink, and
/// disables recording, unless a later `install` has replaced it, in which
/// case the later guard's recording carries on.
#[must_use]
pub fn install(sink: Arc<dyn Sink>) -> ObsGuard {
    let inner = Arc::new(Inner {
        registry: Registry::default(),
        sink,
        seq: AtomicU64::new(0),
    });
    let mut state = STATE
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *state = Some(Arc::clone(&inner));
    ENABLED.store(true, Ordering::SeqCst);
    ObsGuard {
        state: inner,
        flushed: std::cell::Cell::new(false),
    }
}

/// Keeps recording enabled while alive; see [`install`].
pub struct ObsGuard {
    /// The registry and sink this guard installed.
    state: Arc<Inner>,
    flushed: std::cell::Cell<bool>,
}

impl ObsGuard {
    /// Flushes aggregated metrics to the sink now (normally done on drop).
    /// Subsequent drops will not re-flush.
    pub fn flush(&self) {
        if self.flushed.replace(true) {
            return;
        }
        let i = &self.state;
        for e in i.registry.metric_events(|| i.next_seq()) {
            i.sink.emit(&e);
        }
        i.sink.flush();
    }

    /// The human-readable tree report of everything recorded so far.
    #[must_use]
    pub fn report_text(&self) -> String {
        report::render(&self.state.registry)
    }
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        self.flush();
        let mut state = STATE
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if state
            .as_ref()
            .is_some_and(|installed| Arc::ptr_eq(installed, &self.state))
        {
            ENABLED.store(false, Ordering::SeqCst);
            *state = None;
        }
    }
}

/// The full path of the innermost span open on this thread (`""` if none).
#[must_use]
pub fn current_path() -> String {
    if !enabled() {
        return String::new();
    }
    SPAN_STACK.with(|s| s.borrow().last().cloned().unwrap_or_default())
}

/// Runs `f` with `parent` installed as this thread's span context.
///
/// This is how pool workers (`afrt`) inherit the submitting thread's span
/// path: the submitter captures [`current_path`], the worker wraps each
/// task in `with_parent`. The context is restored even if `f` panics, so
/// panic-isolated tasks cannot corrupt another task's span stack.
pub fn with_parent<R>(parent: &str, f: impl FnOnce() -> R) -> R {
    if !enabled() || parent.is_empty() {
        return f();
    }
    struct PopOnDrop;
    impl Drop for PopOnDrop {
        fn drop(&mut self) {
            SPAN_STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(parent.to_string()));
    let _pop = PopOnDrop;
    f()
}

/// A timed span, open until dropped. Created by [`span()`] / [`span_idx`] /
/// the [`span!`] macro.
///
/// While open, the span is the parent of any span opened later on the same
/// thread (or on a pool worker via [`with_parent`]). On close it records
/// its wall time under its base path in the registry and emits one
/// [`Event::Span`] (with the `#idx` instance suffix, if any) to the sink.
pub struct SpanGuard {
    /// Base aggregation path; `None` when recording was disabled at open.
    path: Option<String>,
    /// Event path (base plus optional `#idx`).
    event_path: String,
    start: Instant,
    /// When set, recorded instead of the measured elapsed time so a caller
    /// can keep span totals bit-identical to its own measurement.
    override_s: std::cell::Cell<Option<f64>>,
}

impl SpanGuard {
    fn open(name: &str, idx: Option<usize>) -> SpanGuard {
        let start = Instant::now();
        if !enabled() {
            return SpanGuard {
                path: None,
                event_path: String::new(),
                start,
                override_s: std::cell::Cell::new(None),
            };
        }
        let parent = SPAN_STACK.with(|s| s.borrow().last().cloned());
        let path = match parent {
            Some(p) if !p.is_empty() => format!("{p}/{name}"),
            _ => name.to_string(),
        };
        SPAN_STACK.with(|s| s.borrow_mut().push(path.clone()));
        let event_path = match idx {
            Some(i) => format!("{path}#{i}"),
            None => path.clone(),
        };
        SpanGuard {
            path: Some(path),
            event_path,
            start,
            override_s: std::cell::Cell::new(None),
        }
    }

    /// The span's base path (empty if recording was disabled at open).
    #[must_use]
    pub fn path(&self) -> &str {
        self.path.as_deref().unwrap_or("")
    }

    /// Closes the span recording exactly `seconds` instead of the measured
    /// elapsed time. Used where an existing breakdown measures the same
    /// interval, so both report the identical number.
    pub fn close_with(self, seconds: f64) {
        self.override_s.set(Some(seconds));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(path) = self.path.take() else {
            return;
        };
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let seconds = self
            .override_s
            .get()
            .unwrap_or_else(|| self.start.elapsed().as_secs_f64());
        with_state(|i| {
            i.registry.record_span(&path, seconds);
            i.sink.emit(&Event::Span {
                path: std::mem::take(&mut self.event_path),
                wall_us: (seconds * 1e6).max(0.0) as u64,
                seq: i.next_seq(),
            });
        });
    }
}

/// Opens a span named `name` under the current thread's span context.
#[must_use]
pub fn span(name: &str) -> SpanGuard {
    SpanGuard::open(name, None)
}

/// Opens the `idx`-th instance of a repeated span: aggregates under the
/// base path, emits `path#idx` events.
#[must_use]
pub fn span_idx(name: &str, idx: usize) -> SpanGuard {
    SpanGuard::open(name, Some(idx))
}

/// Opens a span, runs `f`, and returns `(result, elapsed_seconds)`.
///
/// The elapsed time is measured whether or not recording is enabled, and
/// the span (when enabled) records *that same measurement*, so e.g. the
/// `flow/*` stage totals in the obs report are bit-identical to
/// `RuntimeBreakdown`.
pub fn timed_span<R>(name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let g = span(name);
    let start = Instant::now();
    let r = f();
    let seconds = start.elapsed().as_secs_f64();
    g.close_with(seconds);
    (r, seconds)
}

/// Records a span close of `seconds` under `name` (resolved against the
/// current span context) without timing anything — for intervals measured
/// elsewhere.
pub fn record_span(name: &str, seconds: f64) {
    if !enabled() {
        return;
    }
    let g = span(name);
    g.close_with(seconds);
}

/// Adds `delta` to the counter `name`.
#[inline]
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    with_state(|i| i.registry.add_counter(name, delta));
}

/// Sets the gauge `name` to `value`.
#[inline]
pub fn gauge(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    with_state(|i| i.registry.set_gauge(name, value));
}

/// Records `value` into the histogram `name`.
#[inline]
pub fn hist(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    with_state(|i| i.registry.record_hist(name, value));
}

/// Emits a warning event to the sink immediately (warnings are not
/// aggregated — each one is a distinct occurrence worth surfacing).
#[inline]
pub fn warn(message: &str) {
    if !enabled() {
        return;
    }
    with_state(|i| {
        i.sink.emit(&Event::Log {
            level: "warn".to_string(),
            message: message.to_string(),
            seq: i.next_seq(),
        });
    });
}

/// Runs `f` against the live registry, returning `None` when recording is
/// disabled. This is how exporters (e.g. `af-serve`'s `/metrics` endpoint)
/// snapshot metrics mid-run without waiting for the flush-on-drop.
pub fn with_registry<R>(f: impl FnOnce(&Registry) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    with_state(|i| f(&i.registry))
}

/// Opens a span: `span!("name")` or `span!("name", idx)` for repeated
/// instances. Bind the result (`let _s = span!(...)`) — the span closes
/// when the guard drops.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $idx:expr) => {
        $crate::span_idx($name, $idx)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that install the global state.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_recording_is_inert() {
        let _l = locked();
        assert!(!enabled());
        let g = span!("nothing");
        assert_eq!(g.path(), "");
        counter("c", 1);
        hist("h", 1.0);
        assert_eq!(current_path(), "");
    }

    #[test]
    fn nested_spans_build_hierarchical_paths() {
        let _l = locked();
        let sink = Arc::new(MemorySink::new());
        let guard = install(sink.clone());
        {
            let outer = span!("flow");
            assert_eq!(outer.path(), "flow");
            assert_eq!(current_path(), "flow");
            {
                let inner = span!("relaxation");
                assert_eq!(inner.path(), "flow/relaxation");
                let r = span!("restart", 3);
                assert_eq!(r.path(), "flow/relaxation/restart");
            }
            assert_eq!(current_path(), "flow");
        }
        drop(guard);
        let names: Vec<String> = sink.events().iter().map(|e| e.name().to_string()).collect();
        // Children close before parents; the #idx instance is on the event.
        assert_eq!(
            names,
            vec!["flow/relaxation/restart#3", "flow/relaxation", "flow"]
        );
    }

    #[test]
    fn cross_thread_aggregation_via_with_parent() {
        let _l = locked();
        let sink = Arc::new(MemorySink::new());
        let guard = install(sink.clone());
        {
            let _outer = span!("flow");
            let parent = current_path();
            std::thread::scope(|scope| {
                for i in 0..4 {
                    let parent = parent.clone();
                    scope.spawn(move || {
                        with_parent(&parent, || {
                            let _s = span!("task", i);
                            counter("tasks", 1);
                        });
                    });
                }
            });
        }
        let report = guard.report_text();
        drop(guard);
        let events = sink.events();
        let task_spans: Vec<&Event> = events
            .iter()
            .filter(|e| e.name().starts_with("flow/task#"))
            .collect();
        assert_eq!(task_spans.len(), 4);
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Counter { name, value: 4, .. } if name == "tasks")));
        assert!(report.contains("task"), "aggregated under base path");
    }

    #[test]
    fn histograms_flush_with_percentiles() {
        let _l = locked();
        let sink = Arc::new(MemorySink::new());
        let guard = install(sink.clone());
        for v in 1..=10 {
            hist("relax.potential_final", f64::from(v));
        }
        drop(guard);
        let events = sink.events();
        let h = events
            .iter()
            .find(|e| matches!(e, Event::Histogram { .. }))
            .expect("histogram event");
        if let Event::Histogram {
            count, p50, p90, ..
        } = h
        {
            assert_eq!(*count, 10);
            assert!((p50 - 5.0).abs() < 1e-12);
            assert!((p90 - 9.0).abs() < 1e-12);
        }
    }

    #[test]
    fn timed_span_records_its_own_measurement() {
        let _l = locked();
        let sink = Arc::new(MemorySink::new());
        let guard = install(sink.clone());
        let (value, secs) = timed_span("stage", || 42);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
        record_span("other_stage", 1.5);
        drop(guard);
        let events = sink.events();
        let stage = events.iter().find(|e| e.name() == "stage").unwrap();
        if let Event::Span { wall_us, .. } = stage {
            assert_eq!(*wall_us, (secs * 1e6) as u64, "same measurement");
        }
        let other = events.iter().find(|e| e.name() == "other_stage").unwrap();
        if let Event::Span { wall_us, .. } = other {
            assert_eq!(*wall_us, 1_500_000);
        }
    }

    #[test]
    fn guard_drop_disables_and_flush_is_once() {
        let _l = locked();
        let sink = Arc::new(MemorySink::new());
        let guard = install(sink.clone());
        counter("c", 2);
        guard.flush();
        let n = sink.events().len();
        drop(guard);
        assert_eq!(sink.events().len(), n, "drop after flush adds nothing");
        assert!(!enabled());
    }

    #[test]
    fn dropping_a_replaced_guard_leaves_the_later_install_recording() {
        let _l = locked();
        let names = |sink: &MemorySink| -> Vec<String> {
            sink.events().iter().map(|e| e.name().to_string()).collect()
        };
        let sink_a = Arc::new(MemorySink::new());
        let guard_a = install(sink_a.clone());
        counter("a.own", 1);
        let sink_b = Arc::new(MemorySink::new());
        let guard_b = install(sink_b.clone());
        drop(guard_a);
        assert!(enabled(), "B's recording outlives A's guard");
        assert_eq!(names(&sink_a), vec!["a.own"], "A flushes only its own");
        counter("b.after_a_dropped", 1);
        drop(guard_b);
        assert!(!enabled());
        assert_eq!(names(&sink_b), vec!["b.after_a_dropped"]);
    }

    #[test]
    fn span_survives_task_panic() {
        let _l = locked();
        let sink = Arc::new(MemorySink::new());
        let guard = install(sink.clone());
        {
            let _outer = span!("flow");
            let parent = current_path();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_parent(&parent, || {
                    counter("before_panic", 1);
                    panic!("task died");
                })
            }));
            assert!(result.is_err());
            // The panicking task's context was unwound; ours is intact.
            assert_eq!(current_path(), "flow");
            counter("after_panic", 1);
        }
        drop(guard);
        let events = sink.events();
        assert!(events.iter().any(|e| e.name() == "before_panic"));
        assert!(events.iter().any(|e| e.name() == "after_panic"));
        assert!(events.iter().any(|e| e.name() == "flow"));
    }
}
