//! The end-to-end AnalogFold flow (paper Fig. 1(c) and Fig. 2) with the
//! runtime breakdown of Fig. 5.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use af_extract::{extract, Parasitics};
use af_netlist::Circuit;
use af_place::Placement;
use af_route::{RouteError, RoutedLayout, Router, RouterConfig, RoutingGuidance};
use af_sim::{simulate, Performance, SimConfig, SimError};
use af_tech::Technology;

use crate::dataset::{
    generate_routed, guidance_field, Dataset, DatasetConfig, DatasetError, Routed, Sample,
    TargetStats,
};
use crate::error::Error;
use crate::gnn::{GnnConfig, ThreeDGnn, TrainReport};
use crate::hetero::HeteroGraph;
use crate::potential::{relax_seeded, Potential, RelaxConfig, FOM_WEIGHTS};

/// A shareable observability sink carried inside [`FlowConfig`].
///
/// Wraps an [`af_obs::Sink`] so the config stays `Clone` + `Debug`. When
/// set, [`AnalogFoldFlow::run`] installs the sink for the duration of the
/// run (see [`af_obs::install`]) and every stage, restart, and router
/// iteration records into it.
#[derive(Clone)]
pub struct ObsSinkHandle(pub Arc<dyn af_obs::Sink>);

impl std::fmt::Debug for ObsSinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ObsSinkHandle(..)")
    }
}

/// Configuration of the full flow.
///
/// Prefer [`FlowConfig::builder`], which validates at `build()` time; the
/// struct itself stays public (and fully field-constructible) for
/// backwards compatibility.
///
/// When `router` equals `dataset.router` in every field but `threads`, and
/// `sim` equals `dataset.sim`, a guidance candidate that is bit for bit a
/// dataset sample takes that sample's layout, parasitics and metrics
/// instead of being routed and simulated again (layouts do not depend on
/// the router's thread count). With any other difference every candidate
/// is routed.
#[derive(Debug, Clone, Default)]
pub struct FlowConfig {
    /// Technology (defaults to the 40 nm-class stack).
    pub tech: Technology,
    /// Cross-net kNN edges per access point in the heterogeneous graph.
    pub graph_knn: usize,
    /// Dataset generation settings.
    pub dataset: DatasetConfig,
    /// 3DGNN settings.
    pub gnn: GnnConfig,
    /// Potential-relaxation settings.
    pub relax: RelaxConfig,
    /// Router settings for the final guided routing. Dataset samples are
    /// reused only when this equals `dataset.router` but for `threads`.
    pub router: RouterConfig,
    /// Simulator settings for the final evaluation. Dataset samples are
    /// reused only when this equals `dataset.sim`.
    pub sim: SimConfig,
    /// Wall-clock seconds spent on placement (reported in the Fig. 5
    /// breakdown; the flow itself takes the placement as input).
    pub placement_s: f64,
    /// Observability sink; when set, [`AnalogFoldFlow::run`] records spans
    /// and metrics into it. `None` (the default) keeps recording disabled.
    pub obs: Option<ObsSinkHandle>,
}

impl FlowConfig {
    /// Fluent builder with `build()`-time validation.
    #[must_use]
    pub fn builder() -> FlowConfigBuilder {
        FlowConfigBuilder::default()
    }

    /// Sets the worker-thread count on every parallel stage of the flow
    /// (dataset generation, relaxation restarts, candidate evaluation).
    /// `0` means auto (`AFRT_THREADS`, then hardware parallelism).
    #[must_use]
    pub fn with_threads(mut self, n: usize) -> Self {
        self.dataset.threads = n;
        self.relax.threads = n;
        self
    }
}

/// Fluent builder for [`FlowConfig`]; created by [`FlowConfig::builder`].
///
/// ```
/// use analogfold::FlowConfig;
/// let cfg = FlowConfig::builder()
///     .samples(40)
///     .epochs(20)
///     .threads(8)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.dataset.samples, 40);
/// assert_eq!(cfg.relax.threads, 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowConfigBuilder {
    cfg: FlowConfig,
}

impl FlowConfigBuilder {
    /// Technology stack (defaults to the 40 nm-class stack).
    #[must_use]
    pub fn tech(mut self, tech: Technology) -> Self {
        self.cfg.tech = tech;
        self
    }

    /// Cross-net kNN edges per access point (`0` resolves to the default 3).
    #[must_use]
    pub fn graph_knn(mut self, k: usize) -> Self {
        self.cfg.graph_knn = k;
        self
    }

    /// Number of training samples to generate.
    #[must_use]
    pub fn samples(mut self, n: usize) -> Self {
        self.cfg.dataset.samples = n;
        self
    }

    /// GNN training epochs.
    #[must_use]
    pub fn epochs(mut self, n: usize) -> Self {
        self.cfg.gnn.epochs = n;
        self
    }

    /// Relaxation restarts.
    #[must_use]
    pub fn restarts(mut self, n: usize) -> Self {
        self.cfg.relax.restarts = n;
        self
    }

    /// Guidance candidates derived from the relaxation pool.
    #[must_use]
    pub fn n_derive(mut self, n: usize) -> Self {
        self.cfg.relax.n_derive = n;
        self
    }

    /// Root seed, split across the dataset / GNN / relaxation stages with
    /// the same per-stage XOR tweaks the bench harness uses.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.dataset.seed = seed;
        self.cfg.gnn.seed = seed ^ 0x6e6e;
        self.cfg.relax.seed = seed ^ 0x7e1a;
        self
    }

    /// Worker threads for every parallel stage (`0` = auto).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.cfg = self.cfg.with_threads(n);
        self
    }

    /// Placement wall-clock seconds for the Fig. 5 breakdown.
    #[must_use]
    pub fn placement_s(mut self, s: f64) -> Self {
        self.cfg.placement_s = s;
        self
    }

    /// Replaces the whole dataset section.
    #[must_use]
    pub fn dataset(mut self, dataset: DatasetConfig) -> Self {
        self.cfg.dataset = dataset;
        self
    }

    /// Replaces the whole GNN section.
    #[must_use]
    pub fn gnn(mut self, gnn: GnnConfig) -> Self {
        self.cfg.gnn = gnn;
        self
    }

    /// Replaces the whole relaxation section.
    #[must_use]
    pub fn relax(mut self, relax: RelaxConfig) -> Self {
        self.cfg.relax = relax;
        self
    }

    /// Replaces the router section.
    #[must_use]
    pub fn router(mut self, router: RouterConfig) -> Self {
        self.cfg.router = router;
        self
    }

    /// Sets the router worker-thread count without replacing the rest of
    /// the router section (`0` = auto: `AFRT_THREADS`, then hardware).
    #[must_use]
    pub fn route_threads(mut self, threads: usize) -> Self {
        self.cfg.router.threads = threads;
        self
    }

    /// Replaces the simulator section.
    #[must_use]
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.cfg.sim = sim;
        self
    }

    /// Observability sink installed for the duration of each run.
    #[must_use]
    pub fn obs(mut self, sink: Arc<dyn af_obs::Sink>) -> Self {
        self.cfg.obs = Some(ObsSinkHandle(sink));
        self
    }

    /// Validates and finalizes the configuration.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when a section is inconsistent (zero samples,
    /// zero epochs/restarts, `n_derive` exceeding `restarts`, or an
    /// invalid router configuration).
    pub fn build(self) -> Result<FlowConfig, Error> {
        let cfg = self.cfg;
        if cfg.dataset.samples == 0 {
            return Err(Error::config("dataset.samples must be >= 1"));
        }
        if cfg.gnn.epochs == 0 {
            return Err(Error::config("gnn.epochs must be >= 1"));
        }
        if cfg.relax.restarts == 0 {
            return Err(Error::config("relax.restarts must be >= 1"));
        }
        if cfg.relax.n_derive == 0 {
            return Err(Error::config("relax.n_derive must be >= 1"));
        }
        if cfg.relax.n_derive > cfg.relax.restarts {
            return Err(Error::config(format!(
                "relax.n_derive ({}) cannot exceed relax.restarts ({})",
                cfg.relax.n_derive, cfg.relax.restarts
            )));
        }
        cfg.router
            .validate()
            .map_err(|e| Error::config(e.to_string()))?;
        cfg.dataset
            .router
            .validate()
            .map_err(|e| Error::config(format!("dataset.router: {e}")))?;
        Ok(cfg)
    }
}

/// Wall-clock runtime breakdown (Fig. 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RuntimeBreakdown {
    /// Placement time (seconds) — supplied by the caller.
    pub placement_s: f64,
    /// Heterogeneous-graph / feature construction.
    pub construct_db_s: f64,
    /// Dataset generation + model training.
    pub training_s: f64,
    /// Inference: guidance generation (relaxation included).
    pub guide_gen_s: f64,
    /// Inference: guided detailed routing (+ final evaluation).
    pub guided_route_s: f64,
}

impl RuntimeBreakdown {
    /// Total seconds.
    pub fn total(&self) -> f64 {
        self.placement_s
            + self.construct_db_s
            + self.training_s
            + self.guide_gen_s
            + self.guided_route_s
    }

    /// Percentages in Fig. 5 order: construct DB, training, guide
    /// generation, guided routing, placement.
    pub fn percentages(&self) -> [f64; 5] {
        let t = self.total().max(1e-12);
        [
            100.0 * self.construct_db_s / t,
            100.0 * self.training_s / t,
            100.0 * self.guide_gen_s / t,
            100.0 * self.guided_route_s / t,
            100.0 * self.placement_s / t,
        ]
    }
}

/// Errors of the flow.
///
/// Non-exhaustive, like every error enum in the workspace: match with a
/// wildcard arm. Prefer the unified [`enum@crate::Error`] (which
/// [`AnalogFoldFlow::run`] returns) for new code.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlowError {
    /// Data generation failed.
    Dataset(String),
    /// Routing failed.
    Route(RouteError),
    /// Simulation failed.
    Sim(SimError),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Dataset(e) => write!(f, "dataset generation failed: {e}"),
            FlowError::Route(e) => write!(f, "routing failed: {e}"),
            FlowError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<DatasetError> for FlowError {
    fn from(e: DatasetError) -> Self {
        FlowError::Dataset(e.to_string())
    }
}

/// Result of one AnalogFold run.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// The derived guidance (flattened, 3 per guided AP). Empty when every
    /// guidance candidate failed to route/simulate and the flow degraded to
    /// the unguided [`magical_route`] fallback (counter
    /// `flow.fallback_unguided`).
    pub guidance: Vec<f64>,
    /// The guided routing solution. When the answer is a dataset sample
    /// (counter `flow.best_is_sample`), this is the layout the dataset stage
    /// routed, and its `runtime_s` is that routing's time.
    pub layout: RoutedLayout,
    /// Extracted parasitics of the final layout.
    pub parasitics: Parasitics,
    /// Simulated post-layout performance.
    pub performance: Performance,
    /// Training statistics.
    pub train_report: TrainReport,
    /// Wall-clock breakdown.
    pub breakdown: RuntimeBreakdown,
}

/// The AnalogFold flow driver.
#[derive(Debug, Clone)]
pub struct AnalogFoldFlow {
    cfg: FlowConfig,
}

impl AnalogFoldFlow {
    /// Creates a flow with the given configuration.
    pub fn new(cfg: FlowConfig) -> Self {
        let cfg = FlowConfig {
            graph_knn: if cfg.graph_knn == 0 { 3 } else { cfg.graph_knn },
            ..cfg
        };
        Self { cfg }
    }

    /// Configuration access.
    pub fn config(&self) -> &FlowConfig {
        &self.cfg
    }

    /// Runs the complete flow on one placed circuit:
    ///
    /// 1. build the heterogeneous graph (construct DB),
    /// 2. generate the training set with the automated engine and train the
    ///    3DGNN (model training),
    /// 3. relax the potential to derive guidance candidates (guide
    ///    generation),
    /// 4. route each candidate, extract, simulate, and keep the best by the
    ///    FoM on normalized metrics (guided routing). A candidate that is bit
    ///    for bit a dataset sample takes the layout, parasitics and metrics
    ///    of step 2 instead (see [`FlowConfig`] for when).
    ///
    /// # Errors
    ///
    /// Any routing or simulation failure is propagated as the unified
    /// [`enum@Error`], carrying the observability span path where it
    /// occurred when recording is enabled.
    pub fn run(&self, circuit: &Circuit, placement: &Placement) -> Result<FlowOutcome, Error> {
        let cfg = &self.cfg;
        // When the config carries a sink, recording is enabled for exactly
        // this run; the guard flushes aggregated metrics on drop.
        let _obs = cfg.obs.as_ref().map(|h| af_obs::install(Arc::clone(&h.0)));
        let _flow = af_obs::span!("flow");
        af_obs::record_span("placement", cfg.placement_s);

        // 1. Construct database (graph + features).
        let (graph, construct_db_s) = af_obs::timed_span("construct_db", || {
            HeteroGraph::build(circuit, placement, &cfg.tech, cfg.graph_knn)
        });

        // 2. Dataset + training.
        let (trained, training_s) =
            af_obs::timed_span("training", || self.train(circuit, placement, &graph));
        let (gnn, train_report, seeds, reusable) = trained?;

        self.infer(
            circuit,
            placement,
            graph,
            gnn,
            train_report,
            construct_db_s,
            training_s,
            seeds,
            &reusable,
        )
    }

    /// Step 2 of [`AnalogFoldFlow::run`]: generates the dataset and trains
    /// the 3DGNN on it. Also returns the warm-start seeds, the best
    /// simulated guidance assignments of the dataset (the relaxation pool
    /// admits arbitrary initializers), and the samples guided routing may
    /// reuse ([`AnalogFoldFlow::reusable_samples`]).
    #[allow(clippy::type_complexity)]
    fn train(
        &self,
        circuit: &Circuit,
        placement: &Placement,
        graph: &HeteroGraph,
    ) -> Result<(ThreeDGnn, TrainReport, Vec<Vec<f64>>, Vec<RoutedSample>), Error> {
        let cfg = &self.cfg;
        let (dataset, routed) =
            generate_routed(circuit, placement, &cfg.tech, graph, &cfg.dataset, None)?;
        let mut gnn = ThreeDGnn::new(&cfg.gnn);
        let train_report = gnn.train(graph, &dataset, &cfg.gnn);
        let seeds = best_dataset_seeds(&gnn, &dataset, 3);
        let reusable = self.reusable_samples(dataset, routed, &seeds);
        Ok((gnn, train_report, seeds, reusable))
    }

    /// The dataset samples whose guidance is bit for bit a warm-start seed,
    /// with the layouts and parasitics the dataset stage made for them; the
    /// other samples' layouts are dropped here. Empty unless the guided
    /// routing stage routes and simulates as the dataset stage did.
    fn reusable_samples(
        &self,
        dataset: Dataset,
        routed: Vec<Option<Routed>>,
        seeds: &[Vec<f64>],
    ) -> Vec<RoutedSample> {
        let cfg = &self.cfg;
        // Layouts do not depend on the router's thread count.
        let mut router = cfg.router.clone();
        router.threads = cfg.dataset.router.threads;
        if router != cfg.dataset.router || cfg.sim != cfg.dataset.sim {
            return Vec::new();
        }
        dataset
            .samples
            .into_iter()
            .zip(routed)
            .filter(|(sample, _)| seeds.iter().any(|seed| same_bits(seed, &sample.guidance)))
            .filter_map(|(sample, routed)| Some((sample, routed?)))
            .collect()
    }

    /// Runs inference only, reusing an already-trained model — the
    /// train-once / guide-many workflow (pair with [`crate::ThreeDGnn::save`]
    /// / [`crate::ThreeDGnn::load`]).
    ///
    /// # Errors
    ///
    /// Any routing or simulation failure is propagated as the unified
    /// [`enum@Error`].
    pub fn run_with_model(
        &self,
        circuit: &Circuit,
        placement: &Placement,
        gnn: &ThreeDGnn,
    ) -> Result<FlowOutcome, Error> {
        let cfg = &self.cfg;
        let _obs = cfg.obs.as_ref().map(|h| af_obs::install(Arc::clone(&h.0)));
        let _flow = af_obs::span!("flow");
        af_obs::record_span("placement", cfg.placement_s);
        let (graph, construct_db_s) = af_obs::timed_span("construct_db", || {
            HeteroGraph::build(circuit, placement, &cfg.tech, cfg.graph_knn)
        });
        let empty_report = TrainReport {
            epoch_losses: Vec::new(),
            final_loss: f64::NAN,
        };
        self.infer(
            circuit,
            placement,
            graph,
            gnn.clone(),
            empty_report,
            construct_db_s,
            0.0,
            Vec::new(),
            &[],
        )
    }

    /// Shared inference tail: relax the potential, route the candidates,
    /// keep the best by simulated FoM. A candidate whose guidance is bit for
    /// bit one of the `reusable` samples takes that sample's layout,
    /// parasitics and metrics instead of being routed and simulated.
    #[allow(clippy::too_many_arguments)]
    fn infer(
        &self,
        circuit: &Circuit,
        placement: &Placement,
        graph: HeteroGraph,
        gnn: ThreeDGnn,
        train_report: TrainReport,
        construct_db_s: f64,
        training_s: f64,
        seeds: Vec<Vec<f64>>,
        reusable: &[RoutedSample],
    ) -> Result<FlowOutcome, Error> {
        let cfg = &self.cfg;

        // Guidance generation by potential relaxation.
        let (candidates, guide_gen_s) = af_obs::timed_span("guide_gen", || {
            relax_seeded(&Potential::new(&gnn, &graph), &cfg.relax, &seeds)
        });

        // Guided routing: evaluate the derived candidates concurrently,
        // keep the best (ties break toward the lower-potential candidate,
        // i.e. the lower index, matching the old sequential scan).
        let stats = gnn.stats();
        let runtime = afrt::Runtime::with_threads(cfg.relax.threads);
        let router =
            Router::new(cfg.router.clone()).map_err(|e| Error::from(RouteError::from(e)))?;
        let (evaluated, guided_route_s) = af_obs::timed_span("guided_route", || {
            runtime
                .par_map(&candidates, |i, cand| {
                    let _s = af_obs::span!("candidate", i);
                    af_fault::fail!(
                        "flow.candidate",
                        key = i as u64,
                        Error::config(af_fault::injected("flow.candidate"))
                    );
                    // Routing, extracting and simulating a dataset sample
                    // again would reproduce the dataset stage's results.
                    let sample = reusable
                        .iter()
                        .find(|(sample, _)| same_bits(&sample.guidance, &cand.guidance));
                    let (is_sample, layout, parasitics, perf) = match sample {
                        Some((sample, (layout, parasitics))) => {
                            (true, layout.clone(), parasitics.clone(), sample.performance)
                        }
                        None => {
                            let field =
                                RoutingGuidance::NonUniform(guidance_field(&graph, &cand.guidance));
                            let layout = router
                                .route(circuit, placement, &cfg.tech, &field)
                                .map_err(Error::from)?;
                            let parasitics = extract(circuit, &cfg.tech, &layout);
                            let perf = simulate(circuit, Some(&parasitics), &cfg.sim)
                                .map_err(Error::from)?;
                            (false, layout, parasitics, perf)
                        }
                    };
                    let score = simulated_fom(stats, &perf.as_array());
                    Ok::<_, Error>((
                        score,
                        is_sample,
                        cand.guidance.clone(),
                        layout,
                        parasitics,
                        perf,
                    ))
                })
                .unwrap_or_else(|e| panic!("candidate evaluation failed: {e}"))
        });
        // Graceful degradation: a candidate that fails to route or simulate
        // is logged and skipped — the remaining candidates still compete.
        // Only when *every* candidate fails does the flow fall back to the
        // unguided baseline, which still yields a complete (if unguided)
        // layout instead of aborting a run that may have hours of training
        // behind it.
        let mut best: Option<(f64, Vec<f64>, RoutedLayout, Parasitics, Performance)> = None;
        let (mut reused, mut best_is_sample) = (0, false);
        for (i, result) in evaluated.into_iter().enumerate() {
            match result {
                Ok((score, is_sample, guidance, layout, parasitics, perf)) => {
                    reused += u64::from(is_sample);
                    let better = best.as_ref().map(|(s, ..)| score < *s).unwrap_or(true);
                    if better {
                        best = Some((score, guidance, layout, parasitics, perf));
                        best_is_sample = is_sample;
                    }
                }
                Err(e) => {
                    af_obs::counter("flow.candidate_failed", 1);
                    af_obs::warn(&format!("guidance candidate {i} failed ({e}); skipping"));
                }
            }
        }
        af_obs::counter("flow.candidates_reused", reused);
        af_obs::counter("flow.best_is_sample", u64::from(best_is_sample));
        let (_, guidance, layout, parasitics, performance) = match best {
            Some(found) => found,
            None => {
                af_obs::counter("flow.fallback_unguided", 1);
                af_obs::warn("all guidance candidates failed; falling back to unguided routing");
                let (layout, parasitics, performance) =
                    magical_route(circuit, placement, &cfg.tech, &cfg.router, &cfg.sim)
                        .map_err(Error::from)?;
                (f64::NAN, Vec::new(), layout, parasitics, performance)
            }
        };

        Ok(FlowOutcome {
            guidance,
            layout,
            parasitics,
            performance,
            train_report,
            breakdown: RuntimeBreakdown {
                placement_s: cfg.placement_s,
                construct_db_s,
                training_s,
                guide_gen_s,
                guided_route_s,
            },
        })
    }
}

/// A dataset sample with the layout and parasitics the dataset stage
/// routed and extracted for it.
type RoutedSample = (Sample, Routed);

/// Whether two guidance vectors are equal bit for bit.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The FoM relaxation minimizes, applied to simulated metrics: the
/// [`FOM_WEIGHTS`]-weighted sum of the normalized metrics (lower is better).
fn simulated_fom(stats: &TargetStats, metrics: &[f64; 5]) -> f64 {
    stats
        .normalize(metrics)
        .iter()
        .zip(FOM_WEIGHTS.iter())
        .map(|(y, w)| y * w)
        .sum()
}

/// The `k` dataset guidance vectors with the best simulated weighted FoM
/// (clamped into the relaxation's feasible region).
fn best_dataset_seeds(gnn: &ThreeDGnn, dataset: &Dataset, k: usize) -> Vec<Vec<f64>> {
    let stats = gnn.stats();
    let (lo, hi) = gnn.guidance_bounds();
    let eps = (hi - lo) * 1e-3;
    let mut scored: Vec<(f64, &Sample)> = dataset
        .samples
        .iter()
        .map(|s| (simulated_fom(stats, &s.metrics()), s))
        .collect();
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    scored
        .into_iter()
        .take(k)
        .map(|(_, s)| {
            s.guidance
                .iter()
                .map(|&c| c.clamp(lo + eps, hi - eps))
                .collect()
        })
        .collect()
}

/// The MagicalRoute baseline: unguided constraint-aware iterative routing,
/// extracted and simulated with the same settings.
///
/// # Errors
///
/// Propagates routing/simulation failures.
pub fn magical_route(
    circuit: &Circuit,
    placement: &Placement,
    tech: &Technology,
    router: &RouterConfig,
    sim: &SimConfig,
) -> Result<(RoutedLayout, Parasitics, Performance), FlowError> {
    let layout = Router::new(router.clone())
        .map_err(|e| FlowError::Route(RouteError::from(e)))?
        .route(circuit, placement, tech, &RoutingGuidance::None)
        .map_err(FlowError::Route)?;
    let parasitics = extract(circuit, tech, &layout);
    let performance = simulate(circuit, Some(&parasitics), sim).map_err(FlowError::Sim)?;
    Ok((layout, parasitics, performance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_netlist::benchmarks;
    use af_obs::{Event, MemorySink};
    use af_place::{place, PlacementVariant};

    /// A seeded OTA1-A flow in which some guidance candidates are dataset
    /// samples: a raw warm-start seed makes the top `n_derive`.
    fn reusing_flow() -> FlowConfig {
        FlowConfig::builder()
            .samples(4)
            .gnn(GnnConfig {
                epochs: 3,
                hidden: 8,
                layers: 1,
                ..GnnConfig::default()
            })
            .restarts(4)
            .n_derive(3)
            .seed(1)
            .threads(1)
            .build()
            .unwrap()
    }

    /// The flushed value of counter `name`, if it was emitted.
    fn counter(sink: &MemorySink, name: &str) -> Option<u64> {
        sink.events().iter().find_map(|e| match e {
            Event::Counter { name: n, value, .. } if n == name => Some(*value),
            _ => None,
        })
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn reused_candidates_match_routing_them_again() {
        let _obs = crate::OBS_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        let flow = AnalogFoldFlow::new(reusing_flow());
        let cfg = flow.config();
        let graph = HeteroGraph::build(&c, &p, &cfg.tech, cfg.graph_knn);
        let (gnn, report, seeds, reusable) = flow.train(&c, &p, &graph).unwrap();
        assert!(!reusable.is_empty(), "a seed is a dataset sample");

        // What the dataset stage kept is what guided routing would make.
        let router = Router::new(cfg.router.clone()).unwrap();
        for (sample, (layout, parasitics)) in &reusable {
            let field = RoutingGuidance::NonUniform(guidance_field(&graph, &sample.guidance));
            let fresh = router.route(&c, &p, &cfg.tech, &field).unwrap();
            assert_eq!(fresh.nets, layout.nets);
            let fresh_parasitics = extract(&c, &cfg.tech, &fresh);
            assert_eq!(&fresh_parasitics, parasitics);
            let perf = simulate(&c, Some(&fresh_parasitics), &cfg.sim).unwrap();
            assert_eq!(bits(&perf.as_array()), bits(&sample.performance.as_array()));
        }

        let infer = |reusable: &[RoutedSample]| {
            let (graph, gnn, report) = (graph.clone(), gnn.clone(), report.clone());
            flow.infer(
                &c,
                &p,
                graph,
                gnn,
                report,
                0.0,
                0.0,
                seeds.clone(),
                reusable,
            )
            .unwrap()
        };
        let sink = Arc::new(MemorySink::new());
        let guard = af_obs::install(sink.clone());
        let reused = infer(&reusable);
        drop(guard);
        assert!(
            counter(&sink, "flow.candidates_reused").is_some_and(|n| n >= 1),
            "at least one candidate is a dataset sample"
        );
        assert!(counter(&sink, "flow.best_is_sample").is_some());

        let routed = infer(&[]);
        assert_eq!(bits(&reused.guidance), bits(&routed.guidance));
        assert_eq!(reused.layout.nets, routed.layout.nets);
        assert_eq!(reused.parasitics, routed.parasitics);
        assert_eq!(
            bits(&reused.performance.as_array()),
            bits(&routed.performance.as_array())
        );
    }

    #[test]
    fn a_different_dataset_simulator_reuses_nothing() {
        let _obs = crate::OBS_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        let sink = Arc::new(MemorySink::new());
        let mut cfg = reusing_flow();
        cfg.dataset.sim.points_per_decade += 1;
        cfg.obs = Some(ObsSinkHandle(sink.clone()));
        let outcome = AnalogFoldFlow::new(cfg).run(&c, &p).unwrap();
        assert!(!outcome.guidance.is_empty());
        assert_eq!(counter(&sink, "flow.candidates_reused"), Some(0));
        assert_eq!(counter(&sink, "flow.best_is_sample"), Some(0));
    }

    #[test]
    fn breakdown_percentages_sum_to_100() {
        let b = RuntimeBreakdown {
            placement_s: 1.0,
            construct_db_s: 0.5,
            training_s: 6.0,
            guide_gen_s: 0.3,
            guided_route_s: 0.2,
        };
        let p = b.percentages();
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!((b.total() - 8.0).abs() < 1e-12);
        // training dominates, as in Fig. 5
        assert!(p[1] > p[0] && p[1] > p[2] && p[1] > p[3] && p[1] > p[4]);
    }

    #[test]
    fn magical_route_baseline_runs() {
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        let t = Technology::nm40();
        let (layout, px, perf) =
            magical_route(&c, &p, &t, &RouterConfig::default(), &SimConfig::default()).unwrap();
        assert!(layout.total_wirelength() > 0);
        assert!(!px.couplings().is_empty());
        assert!(perf.dc_gain_db.is_finite());
    }

    #[test]
    fn run_with_model_reuses_training() {
        use crate::dataset::generate_dataset;
        use af_tech::Technology;

        let _obs = crate::OBS_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        let tech = Technology::nm40();
        let graph = HeteroGraph::build(&c, &p, &tech, 3);
        let gnn_cfg = GnnConfig {
            epochs: 3,
            hidden: 8,
            layers: 1,
            ..GnnConfig::default()
        };
        let dataset = generate_dataset(
            &c,
            &p,
            &tech,
            &graph,
            &DatasetConfig {
                samples: 4,
                ..DatasetConfig::default()
            },
        )
        .unwrap();
        let mut gnn = ThreeDGnn::new(&gnn_cfg);
        gnn.train(&graph, &dataset, &gnn_cfg);

        let flow = AnalogFoldFlow::new(FlowConfig {
            relax: RelaxConfig {
                restarts: 2,
                n_derive: 1,
                lbfgs_iters: 5,
                ..RelaxConfig::default()
            },
            ..FlowConfig::default()
        });
        let outcome = flow.run_with_model(&c, &p, &gnn).unwrap();
        assert!(outcome.breakdown.training_s == 0.0, "no training time");
        assert!(outcome.train_report.epoch_losses.is_empty());
        assert!(outcome.performance.dc_gain_db.is_finite());
    }

    #[test]
    fn tiny_flow_end_to_end() {
        let _obs = crate::OBS_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        let cfg = FlowConfig {
            dataset: DatasetConfig {
                samples: 6,
                ..DatasetConfig::default()
            },
            gnn: GnnConfig {
                epochs: 4,
                hidden: 8,
                layers: 1,
                ..GnnConfig::default()
            },
            relax: RelaxConfig {
                restarts: 3,
                n_derive: 1,
                lbfgs_iters: 8,
                ..RelaxConfig::default()
            },
            ..FlowConfig::default()
        };
        let outcome = AnalogFoldFlow::new(cfg).run(&c, &p).unwrap();
        assert!(!outcome.guidance.is_empty());
        assert!(outcome.layout.total_wirelength() > 0);
        assert!(outcome.performance.dc_gain_db.is_finite());
        assert!(outcome.breakdown.training_s > 0.0);
        assert!(outcome.breakdown.guide_gen_s > 0.0);
    }
}
