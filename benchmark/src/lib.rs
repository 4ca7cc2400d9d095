//! The AnalogFold benchmark: one harness that times the paper's flow, the
//! detailed router and the served request from outside, through each
//! layer's public functions, and checks every output it times.
//!
//! A run executes one [`Workload`] for a time budget and yields a
//! [`Report`]: the end-to-end metrics of [`END_TO_END`] (untraced), or the
//! per-layer metrics of [`PER_LAYER`] (traced, see [`trace`]). Inputs are
//! a pure function of the seed, and every workload hashes a fixed prefix
//! of its outputs into an `output_digest`, so two commits (or a traced and
//! an untraced run) can be compared for bit-identity.

mod flow;
mod route;
mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Every workload, in `run all` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload::FlowQuick,
    Workload::RouteSweep,
    Workload::ServePredict,
    Workload::ServeMixed,
];

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `AnalogFoldFlow::run` in rotation over three designs: the paper's
    /// unit.
    FlowQuick,
    /// Unguided and guided route + extract + simulate over the Table-2
    /// rows.
    RouteSweep,
    /// Distinct `/v1/predict` requests through a fleet front.
    ServePredict,
    /// Cached predicts competing with `/v1/guide` and `/v1/route` work.
    ServeMixed,
}

impl Workload {
    /// The workload's name in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlowQuick => "flow-quick",
            Workload::RouteSweep => "route-sweep",
            Workload::ServePredict => "serve-predict",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one run does at minimum, whatever its time budget.
/// [`Size::RUN`] is the benchmark's configuration; tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Designs flow-quick rotates over (a prefix of its design list).
    pub flow_designs: usize,
    /// Table-2 rows route-sweep rotates over (a prefix).
    pub route_rows: usize,
    /// Dataset samples per flow and per served model.
    pub samples: usize,
    /// GNN training epochs.
    pub epochs: usize,
    /// Relaxation restarts per flow.
    pub restarts: usize,
    /// Guidance candidates routed per flow.
    pub n_derive: usize,
    /// Predict requests each connection sends at minimum.
    pub min_predicts: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
}

impl Size {
    /// The benchmark's configuration: the quick-scale flow (10 epochs, 6
    /// restarts, 3 candidates) on a 4-sample dataset instead of 12. A
    /// 12-sample flow takes ~3 s, so only six fit in a run, and on a shared
    /// 2-core machine a run's median then moved by up to ±19% between
    /// seeds; 4-sample flows take ~1.6 s and a run holds 10 to 16.
    pub const RUN: Size = Size {
        flow_designs: flow::DESIGNS.len(),
        route_rows: route::ROWS.len(),
        samples: 4,
        epochs: 10,
        restarts: 6,
        n_derive: 3,
        min_predicts: serve::CHECKED,
        setups: 3,
    };

    /// The smallest size that still runs every code path: one design, two
    /// samples, 40 predicts, two guides and two route jobs.
    pub const TINY: Size = Size {
        flow_designs: 1,
        route_rows: 1,
        samples: 2,
        epochs: 2,
        restarts: 2,
        n_derive: 1,
        min_predicts: 20,
        setups: 1,
    };
}

/// Name and unit of one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// `[A-Za-z0-9_.-]+`; per-layer names are `<module>.<metric>`.
    pub name: &'static str,
    /// Unit as written in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, reported by every workload of an untraced run.
/// What "operation" means per workload is in the README.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("op_p50_ms", "ms"),
    def("op_p90_ms", "ms"),
    def("ops_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload of a traced run. Times
/// are reported only for layers every workload exercises; the others
/// report work counts, rates and shares of the traced wall time, which
/// are honestly zero where a workload does not use the layer.
pub const PER_LAYER: &[MetricDef] = &[
    def("place.busy_ms", "ms"),
    def("hetero.calls", "count"),
    def("route.calls", "count"),
    def("route.busy_s", "s"),
    def("route.ms_p50", "ms"),
    def("route.share", "ratio"),
    def("route.rounds_per_call", "ratio"),
    def("route.expansions_per_net", "count"),
    def("route.ripup_ratio", "ratio"),
    def("route.nets_per_s", "1/s"),
    def("dataset.samples", "count"),
    def("dataset.samples_per_s", "1/s"),
    def("dataset.failed", "count"),
    def("dataset.share", "ratio"),
    def("afrt.parallelism", "ratio"),
    def("afrt.wait_ratio", "ratio"),
    def("extract.calls", "count"),
    def("extract.share", "ratio"),
    def("sim.calls", "count"),
    def("sim.share", "ratio"),
    def("gnn.epochs_per_s", "1/s"),
    def("gnn.fom_grad_evals", "count"),
    def("gnn.fom_grads_per_s", "1/s"),
    def("gnn.share", "ratio"),
    def("potential.restarts", "count"),
    def("potential.lbfgs_iters", "count"),
    def("potential.memo_hit_ratio", "ratio"),
    def("potential.share", "ratio"),
    def("flow.offset_ratio", "ratio"),
    def("flow.fallbacks", "count"),
    def("serve.requests", "count"),
    def("serve.batch_size_mean", "count"),
    def("serve.sojourn_ratio", "ratio"),
    def("serve.cache_hit_ratio", "ratio"),
    def("serve.status_5xx", "count"),
    def("serve.jobs_done", "count"),
    def("serve.guides_per_s", "1/s"),
    def("serve.route_jobs_per_s", "1/s"),
    def("fleet.hop_ratio", "ratio"),
    def("guard.hedge.issued", "count"),
    def("guard.breaker.opened", "count"),
    def("guard.admission.shed", "count"),
    def("mem.peak_rss_mb", "MiB"),
    def("trace.overhead", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value, unrounded.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload that ran.
    pub workload: Workload,
    /// Operations attempted (set-up work included).
    pub attempted: u64,
    /// Operations that failed (see the README for what counts).
    pub failed: u64,
    /// Failed correctness checks; empty when every output checked out.
    pub problems: Vec<String>,
    /// Content hash of a fixed prefix of the run's outputs.
    pub digest: String,
    /// flow-quick's routing quality: AnalogFold over MagicalRoute offset,
    /// geometric mean over the first pass. Deterministic for a seed, so a
    /// change to it between two commits says which way quality moved.
    pub offset_ratio: Option<f64>,
    /// Metrics in definition order: [`END_TO_END`] untraced,
    /// [`PER_LAYER`] traced.
    pub metrics: Vec<Metric>,
    /// Human-readable lines (sample counts, quality, the layer table).
    pub notes: Vec<String>,
}

impl Report {
    /// Whether every correctness check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Marks the process start, from which the first set-up is timed. Call it
/// first thing in `main`; without it the first set-up is timed from the
/// start of [`run`].
pub fn mark_process_start() {
    PROCESS_START.get_or_init(Instant::now);
}

/// Draws dataset sample `index`'s guidance exactly as
/// `analogfold::generate_dataset` does: `len` values, log-uniform in
/// `[c_low, c_high]`, from a ChaCha8 stream seeded with
/// `afrt::split_seed(dataset_seed, index)`.
///
/// The dataset generator keeps its sampler private, so this is a copy; the
/// parity test fails when the two drift apart.
#[must_use]
pub fn draw_guidance(
    dataset_seed: u64,
    index: u64,
    len: usize,
    c_low: f64,
    c_high: f64,
) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(afrt::split_seed(dataset_seed, index));
    let (lo, hi) = (c_low.ln(), c_high.ln());
    (0..len).map(|_| rng.gen_range(lo..=hi).exp()).collect()
}

/// What a workload measures into: timed operations, the failure tally, the
/// output digest and values the per-layer report needs.
pub(crate) struct Recorder {
    /// `(class, milliseconds)` per timed operation, as reported.
    ops: Vec<(usize, f64)>,
    /// Wall milliseconds per timed operation, before normalization.
    wall_ms: Vec<f64>,
    /// Whether `ops` are CPU-bound operations, run back to back and
    /// normalized to the reference speed, rather than request latencies.
    normalized: bool,
    cal: stats::Calibrator,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    digest: Vec<serde::Value>,
    /// Harness-side inputs of per-layer metrics, keyed by metric name.
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Recorder {
    fn new(probe_threads: usize) -> Self {
        Self {
            ops: Vec::new(),
            wall_ms: Vec::new(),
            normalized: false,
            cal: stats::Calibrator::new(probe_threads),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            digest: Vec::new(),
            values: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Starts a CPU-bound operation (after probing the machine's speed).
    fn start(&mut self) -> Instant {
        self.cal.start()
    }

    /// Records the CPU-bound operation of `class` begun by
    /// [`start`](Self::start), normalized to the reference speed.
    fn op(&mut self, class: usize, started: Instant) {
        let (wall, normalized) = self.cal.finish(started);
        self.wall_ms.push(wall * 1e3);
        self.ops.push((class, normalized * 1e3));
        self.normalized = true;
    }

    /// Records one request latency of `class` as measured: request
    /// latencies are bound by timers, queues and thread wake-ups as much
    /// as by CPU speed.
    fn request(&mut self, class: usize, ms: f64) {
        self.wall_ms.push(ms);
        self.ops.push((class, ms));
    }

    /// Counts one attempted operation, failed unless `ok`.
    fn outcome(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problem(what());
        }
    }

    /// Records a failed correctness check. Only the first few are kept.
    fn problem(&mut self, what: String) {
        if self.problems.len() < 16 {
            self.problems.push(what);
        }
    }

    /// Adds an output to the digest.
    fn digest<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.digest.push(value.to_value());
    }
}

/// One workload: how to set it up and how to drive it for a time budget.
/// Dropping the state tears the set-up down.
pub(crate) trait Workbench {
    type State;

    /// Threads the timed operations run on, and so the machine-speed probe.
    const PROBE_THREADS: usize = 1;

    /// Builds everything the timed operations need. Outputs it adds to
    /// the digest must not depend on timing.
    fn setup(&self, rec: &mut Recorder) -> Self::State;

    /// Runs timed operations for about `seconds`, never fewer than one
    /// pass over its designs or the size's minimum of requests; digests a
    /// prefix of fixed length.
    fn measure(&self, state: &mut Self::State, seconds: f64, rec: &mut Recorder);
}

/// Runs `op(i)` for `i = 0, 1, ..`: `min` times, then again while one
/// more, as long as the last, still fits in `seconds`.
pub(crate) fn repeat(seconds: f64, min: usize, mut op: impl FnMut(usize)) {
    let start = Instant::now();
    for i in 0.. {
        let t = Instant::now();
        op(i);
        let last = t.elapsed().as_secs_f64();
        if i + 1 >= min && start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
}

/// Runs `workload` for `seconds` with inputs drawn from `seed`.
///
/// Untraced, the run sets up `size.setups` times, then measures; the
/// report carries [`END_TO_END`]. Traced, it measures half the budget
/// untraced and half traced (each after its own set-up, the traced one
/// recorded too) and reports [`PER_LAYER`], writing the span log to
/// `target/bench/<workload>.trace.jsonl`.
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, size: &Size) -> Report {
    macro_rules! drive {
        ($bench:expr) => {
            drive(&$bench, workload, seconds, trace, size)
        };
    }
    match workload {
        Workload::FlowQuick => drive!(flow::FlowQuick::new(seed, size)),
        Workload::RouteSweep => drive!(route::RouteSweep::new(seed, size)),
        Workload::ServePredict => drive!(serve::ServeBench::new(seed, size, false)),
        Workload::ServeMixed => drive!(serve::ServeBench::new(seed, size, true)),
    }
}

fn p50(sorted: &[f64]) -> f64 {
    stats::percentile(sorted, 0.5)
}

fn drive<W: Workbench>(
    bench: &W,
    workload: Workload,
    seconds: f64,
    traced: bool,
    size: &Size,
) -> Report {
    let mut rec = Recorder::new(W::PROBE_THREADS);
    let mut values = BTreeMap::new();
    if traced {
        let mut state = bench.setup(&mut rec);
        bench.measure(&mut state, seconds / 2.0, &mut rec);
        drop(state);
        let untraced_p50 = stats::balanced(&rec.ops, p50);
        for note in &mut rec.notes {
            *note = format!("untraced half: {note}");
        }

        rec.ops.clear();
        rec.wall_ms.clear();
        rec.digest.clear();
        let session = trace::Session::start();
        let mut state = bench.setup(&mut rec);
        bench.measure(&mut state, seconds / 2.0, &mut rec);
        drop(state);
        let traced_p50 = stats::balanced(&rec.ops, p50);
        rec.values.insert("op_p50_ms", traced_p50);
        rec.values
            .insert("trace.overhead", traced_p50 / untraced_p50.max(1e-9) - 1.0);
        let (layers, table) = session.finish(workload, &rec.values);
        rec.notes.extend(table);
        values.extend(layers);
        values.insert("mem.peak_rss_mb", stats::peak_rss_mb());
    } else {
        let first = *PROCESS_START.get_or_init(Instant::now);
        let mut setup_s = Vec::with_capacity(size.setups);
        let mut state = None;
        for i in 0..size.setups.max(1) {
            drop(state.take());
            rec.digest.clear();
            let t0 = if i == 0 { first } else { Instant::now() };
            state = Some(bench.setup(&mut rec));
            let elapsed = t0.elapsed().as_secs_f64();
            setup_s.push(rec.cal.normalize(elapsed));
        }
        let mut state = state.expect("at least one set-up");
        let t0 = Instant::now();
        bench.measure(&mut state, seconds, &mut rec);
        let wall = t0.elapsed().as_secs_f64();
        drop(state);

        values.insert("setup_s", stats::percentile(&stats::sorted(setup_s), 0.5));
        values.insert("op_p50_ms", stats::balanced(&rec.ops, p50));
        values.insert(
            "op_p90_ms",
            stats::balanced(&rec.ops, |s| stats::percentile(s, 0.9)),
        );
        // Normalized operations ran back to back, one per mean operation
        // time; requests ran on concurrent connections.
        let ops_per_s = if rec.normalized {
            1e3 / stats::balanced(&rec.ops, stats::mean).max(1e-9)
        } else {
            rec.ops.len() as f64 / wall.max(1e-9)
        };
        values.insert("ops_per_s", ops_per_s);
        let raw = stats::sorted(rec.wall_ms.iter().copied());
        rec.notes.push(format!(
            "{} operations in {wall:.2} s; wall p50 {:.3} ms, p90 {:.3} ms{}",
            rec.ops.len(),
            stats::percentile(&raw, 0.5),
            stats::percentile(&raw, 0.9),
            if rec.normalized {
                " (metrics below at the reference speed)"
            } else {
                ""
            }
        ));
    }

    let defs = if traced { PER_LAYER } else { END_TO_END };
    let metrics: Vec<Metric> = defs
        .iter()
        .map(|d| Metric {
            name: d.name,
            value: *values
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was not computed", d.name)),
            unit: d.unit,
        })
        .collect();
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        rec.problem(format!("metric {} is not finite", m.name));
    }
    Report {
        workload,
        attempted: rec.attempted,
        failed: rec.failed,
        digest: analogfold::content_hash_of(&rec.digest).to_hex(),
        offset_ratio: rec.values.get("flow.offset_ratio").copied(),
        problems: rec.problems,
        metrics,
        notes: rec.notes,
    }
}

/// Where runs write their files: `target/bench` under the working
/// directory, created on demand.
#[must_use]
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("target").join("bench");
    let _ = std::fs::create_dir_all(&dir);
    dir
}
