//! The traced run: records every span and counter the program emits (plus
//! the benchmark's own spans around layers that have none) in memory,
//! writes them as JSONL when the run ends, and folds them into the
//! per-layer metrics of [`crate::PER_LAYER`].

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use af_obs::fmt::{Cell, Table};
use af_obs::{Event, HistStat, MemorySink, ObsGuard, SpanStat};

use crate::flow::THREADS;
use crate::{stats, Workload};

/// The flow's top-level stage spans, which must add up to its root span.
const FLOW_STAGES: [&str; 5] = [
    "placement",
    "construct_db",
    "training",
    "guide_gen",
    "guided_route",
];

/// The layer a span belongs to, by the last segment of its path; spans
/// named otherwise belong to their parent's layer.
fn layer_of(segment: &str) -> Option<&'static str> {
    Some(match segment {
        "place" => "place",
        "hetero" | "construct_db" => "hetero",
        "generate_dataset" | "generate_shard" | "sample" => "dataset",
        "gnn_train" | "epoch" => "gnn",
        "relax" | "restart" => "potential",
        "route" => "route",
        "extract" => "extract",
        "sim" => "sim",
        "flow" | "placement" | "training" | "guide_gen" | "guided_route" | "candidate" => "flow",
        _ => return None,
    })
}

/// Recording for the lifetime of a traced run.
pub struct Session {
    sink: Arc<MemorySink>,
    guard: ObsGuard,
    start: Instant,
}

/// What the registry held when the run ended.
struct Snapshot {
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistStat>,
    events: Vec<Event>,
    wall_s: f64,
}

impl Snapshot {
    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn hist(&self, name: &str) -> Option<&HistStat> {
        self.hists.get(name)
    }

    /// Spans whose last path segment is `name`: (closes, total seconds).
    fn named(&self, name: &str) -> (f64, f64) {
        self.spans
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(name))
            .fold((0.0, 0.0), |(n, s), (_, st)| {
                (n + st.count as f64, s + st.total_s)
            })
    }

    /// Per-layer (closes, busy seconds, self seconds). Busy time counts a
    /// layer's outermost spans; self time subtracts the time of child
    /// spans of other layers, clamped at zero where children ran in
    /// parallel and their sum exceeds the parent.
    fn layers(&self) -> BTreeMap<&'static str, (f64, f64, f64)> {
        let layer = |path: &str| -> &'static str {
            let mut segments: Vec<&str> = path.split('/').collect();
            while let Some(last) = segments.pop() {
                if let Some(l) = layer_of(last) {
                    return l;
                }
            }
            "other"
        };
        let mut out: BTreeMap<&'static str, (f64, f64, f64)> = BTreeMap::new();
        for (path, st) in &self.spans {
            let own = layer(path);
            let parent = path.rsplit_once('/').map_or("", |(p, _)| p);
            let children: f64 = self
                .spans
                .iter()
                .filter(|(c, _)| c.rsplit_once('/').is_some_and(|(p, _)| p == path))
                .map(|(_, s)| s.total_s)
                .sum();
            let entry = out.entry(own).or_default();
            if parent.is_empty() || layer(parent) != own {
                entry.0 += st.count as f64;
                entry.1 += st.total_s;
            }
            entry.2 += (st.total_s - children).max(0.0);
        }
        out
    }

    /// Median duration, in ms, of the span events whose last segment
    /// (instance suffix stripped) is `name`.
    fn event_p50_ms(&self, name: &str) -> f64 {
        let ms = self.events.iter().filter_map(|e| match e {
            Event::Span { path, wall_us, .. } => {
                let base = path.split('#').next().unwrap_or(path);
                (base.rsplit('/').next() == Some(name)).then_some(*wall_us as f64 / 1e3)
            }
            _ => None,
        });
        stats::percentile(&stats::sorted(ms), 0.5)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Session {
    /// Installs an in-memory sink; recording is on until [`finish`].
    ///
    /// [`finish`]: Session::finish
    #[must_use]
    pub fn start() -> Session {
        let sink = Arc::new(MemorySink::new());
        let guard = af_obs::install(sink.clone());
        Session {
            sink,
            guard,
            start: Instant::now(),
        }
    }

    /// Stops recording, writes `target/bench/<workload>.trace.jsonl` and
    /// computes the per-layer metrics. `harness` holds the values measured
    /// by the benchmark itself (quality, client-side rates, the fleet hop,
    /// the tracing overhead). Also returns the printed layer table.
    pub(crate) fn finish(
        self,
        workload: Workload,
        harness: &BTreeMap<&'static str, f64>,
    ) -> (BTreeMap<&'static str, f64>, Vec<String>) {
        let wall_s = self.start.elapsed().as_secs_f64();
        let (spans, counters, hists) =
            af_obs::with_registry(|r| (r.span_snapshot(), r.counter_snapshot(), r.hist_snapshot()))
                .expect("recording is on until the guard drops");
        // Dropping the guard flushes counters and histograms as events.
        drop(self.guard);
        let snap = Snapshot {
            spans: spans.into_iter().collect(),
            counters: counters.into_iter().collect(),
            hists: hists.into_iter().collect(),
            events: self.sink.events(),
            wall_s,
        };
        let path = crate::out_dir().join(format!("{}.trace.jsonl", workload.name()));
        let written = std::fs::File::create(&path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            for e in &snap.events {
                writeln!(w, "{}", e.to_json())?;
            }
            w.flush()
        });
        let mut notes = vec![match written {
            Ok(()) => format!("trace: {} events in {}", snap.events.len(), path.display()),
            Err(e) => format!("trace: cannot write {}: {e}", path.display()),
        }];

        let layers = snap.layers();
        let busy = |l: &str| layers.get(l).map_or(0.0, |v| v.1);
        let calls = |l: &str| layers.get(l).map_or(0.0, |v| v.0);
        let share = |l: &str| ratio(busy(l), snap.wall_s);
        let harness = |name: &str| harness.get(name).copied().unwrap_or(0.0);
        let hist_sum = |name: &str| snap.hist(name).map_or(0.0, |h| h.sum);
        let cache_ratio = |name: &str| {
            let hits = snap.counter(&format!("cache.{name}.hits"));
            ratio(hits, hits + snap.counter(&format!("cache.{name}.misses")))
        };
        let samples = snap.counter("dataset.samples_generated");
        let nets = snap.counter("route.nets_routed");
        let (epochs, epoch_s) = snap.named("epoch");
        let fom_evals = snap.counter("gnn.fom_grad_evals");
        let sojourn_p50 = snap
            .hist("serve.predict.sojourn_ms")
            .map_or(0.0, |h| h.percentile(50.0));
        let status_5xx = snap
            .counters
            .iter()
            .filter(|(n, _)| {
                n.strip_prefix("serve.status.")
                    .is_some_and(|s| s.starts_with('5'))
            })
            .fold(0.0, |sum, (_, &v)| sum + v as f64);

        let values: BTreeMap<&'static str, f64> = [
            ("place.busy_ms", busy("place") * 1e3),
            ("hetero.calls", calls("hetero")),
            ("route.calls", calls("route")),
            ("route.busy_s", busy("route")),
            ("route.ms_p50", snap.event_p50_ms("route")),
            ("route.share", share("route")),
            (
                "route.rounds_per_call",
                ratio(snap.counter("route.rounds"), calls("route")),
            ),
            (
                "route.expansions_per_net",
                ratio(snap.counter("route.astar_expansions"), nets),
            ),
            (
                "route.ripup_ratio",
                ratio(
                    snap.counter("route.victims_ripped"),
                    snap.counter("route.tasks"),
                ),
            ),
            ("route.nets_per_s", ratio(nets, busy("route"))),
            ("dataset.samples", samples),
            ("dataset.samples_per_s", ratio(samples, busy("dataset"))),
            ("dataset.failed", snap.counter("dataset.samples_failed")),
            ("dataset.share", share("dataset")),
            (
                "afrt.parallelism",
                ratio(snap.named("sample").1, THREADS as f64 * busy("dataset")),
            ),
            (
                "afrt.wait_ratio",
                ratio(
                    hist_sum("afrt.queue_wait_us"),
                    hist_sum("afrt.task_exec_us"),
                ),
            ),
            ("extract.calls", calls("extract")),
            ("extract.share", share("extract")),
            ("sim.calls", calls("sim")),
            ("sim.share", share("sim")),
            ("gnn.epochs_per_s", ratio(epochs, epoch_s)),
            ("gnn.fom_grad_evals", fom_evals),
            (
                "gnn.fom_grads_per_s",
                ratio(fom_evals, hist_sum("gnn.fom_grad_us") / 1e6),
            ),
            ("gnn.share", share("gnn")),
            ("potential.restarts", snap.named("restart").0),
            ("potential.lbfgs_iters", snap.counter("relax.lbfgs_iters")),
            ("potential.memo_hit_ratio", cache_ratio("fom")),
            ("potential.share", share("potential")),
            ("flow.offset_ratio", harness("flow.offset_ratio")),
            ("flow.fallbacks", snap.counter("flow.fallback_unguided")),
            ("serve.requests", snap.counter("serve.requests")),
            (
                "serve.batch_size_mean",
                snap.hist("serve.batch.size").map_or(0.0, HistStat::mean),
            ),
            (
                "serve.sojourn_ratio",
                ratio(sojourn_p50, harness("op_p50_ms")),
            ),
            ("serve.cache_hit_ratio", cache_ratio("serve")),
            ("serve.status_5xx", status_5xx),
            ("serve.jobs_done", harness("serve.jobs_done")),
            ("serve.guides_per_s", harness("serve.guides_per_s")),
            ("serve.route_jobs_per_s", harness("serve.route_jobs_per_s")),
            ("fleet.hop_ratio", harness("fleet.hop_ratio")),
            ("guard.hedge.issued", snap.counter("guard.hedge.issued")),
            ("guard.breaker.opened", snap.counter("guard.breaker.opened")),
            ("guard.admission.shed", snap.counter("guard.admission.shed")),
            ("trace.overhead", harness("trace.overhead")),
        ]
        .into_iter()
        .collect();

        let table = Table::new(10).cols(10, 3).indent(2);
        notes.push(table.header("layer", &["calls", "busy_s", "self_s"]));
        for (name, (n, busy_s, self_s)) in &layers {
            notes.push(table.row(
                name,
                &[
                    Cell::Int(*n as i64),
                    Cell::Float(*busy_s, 3),
                    Cell::Float(*self_s, 3),
                ],
            ));
        }
        let (flows, flow_s) = snap.named("flow");
        if flows > 0.0 {
            let stages: f64 = FLOW_STAGES.iter().map(|s| snap.named(s).1).sum();
            notes.push(format!(
                "flow stages sum to {:.2}% of the flow root over {flows} flows",
                100.0 * ratio(stages, flow_s)
            ));
        }
        notes.push(format!(
            "trace_overhead {:+.4} (traced / untraced operation p50 - 1)",
            harness("trace.overhead")
        ));
        (values, notes)
    }
}
