//! Training-data generation from the automated routing engine.
//!
//! The paper's key departure from GeniusRoute: labels come not from human
//! layouts but from the automatic flow itself — sample a guidance set,
//! route with it, extract parasitics, simulate, record the metrics
//! ("We use 2000 samples on target design with different placements and
//! routing solutions to train AnalogFold", §5.1).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use af_extract::{extract, Parasitics};
use af_geom::CostTriple;
use af_netlist::Circuit;
use af_place::Placement;
use af_route::{
    NonUniformGuidance, RouteError, RoutedLayout, Router, RouterConfig, RoutingGuidance,
};
use af_sim::{simulate, Performance, SimConfig, SimError};
use af_tech::Technology;

use crate::hetero::HeteroGraph;
use crate::persist::ShardStore;

/// One labeled sample: a guidance assignment and its simulated metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sample {
    /// Flattened guidance for the graph's guided APs (row-major, 3 per AP).
    pub guidance: Vec<f64>,
    /// Simulated post-layout performance.
    pub performance: Performance,
}

impl Sample {
    /// Metrics as the canonical 5-vector
    /// `[offset_uv, cmrr_db, bandwidth_mhz, dc_gain_db, noise_uvrms]`.
    pub fn metrics(&self) -> [f64; 5] {
        self.performance.as_array()
    }
}

/// One checkpointed sample slot: the guidance that was attempted and either
/// its simulated metrics or the error that persisted after retries.
///
/// This is the on-disk shard entry. It is backward compatible with the
/// pre-fault-tolerance format (a bare [`Sample`]): a legacy shard entry has
/// `performance` present and no `error` field, which deserializes to
/// `performance: Some(..), error: None`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SampleRecord {
    /// Flattened guidance for the graph's guided APs (row-major, 3 per AP).
    pub guidance: Vec<f64>,
    /// Simulated post-layout performance, when evaluation succeeded.
    pub performance: Option<Performance>,
    /// The permanent failure recorded for this sample, when it did not.
    pub error: Option<String>,
}

impl SampleRecord {
    /// The successful sample, if evaluation succeeded.
    #[must_use]
    pub fn into_sample(self) -> Option<Sample> {
        let performance = self.performance?;
        Some(Sample {
            guidance: self.guidance,
            performance,
        })
    }
}

/// A labeled dataset for one (circuit, placement).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    /// Samples in generation order.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Per-metric normalization statistics (z-score, with offset and noise
/// handled in log space because they span orders of magnitude).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetStats {
    /// Per-metric mean (of the possibly log-transformed values).
    pub mean: [f64; 5],
    /// Per-metric standard deviation (≥ 1e-9).
    pub std: [f64; 5],
}

/// Metrics normalized in log space: offset (0) and noise (4) span orders of
/// magnitude; CMRR/BW/gain are already logarithmic or narrow.
const LOG_SPACE: [bool; 5] = [true, false, false, false, true];

/// Floor applied before taking logs (µV / µVrms scale).
const LOG_FLOOR: f64 = 1e-6;

fn transform(y: &[f64; 5]) -> [f64; 5] {
    let mut out = *y;
    for i in 0..5 {
        if LOG_SPACE[i] {
            out[i] = out[i].max(LOG_FLOOR).ln();
        }
    }
    out
}

fn untransform(y: &[f64; 5]) -> [f64; 5] {
    let mut out = *y;
    for i in 0..5 {
        if LOG_SPACE[i] {
            // clamp so untrained models cannot overflow to infinity
            out[i] = out[i].clamp(-60.0, 60.0).exp();
        }
    }
    out
}

impl TargetStats {
    /// Identity statistics (no scaling; the log transform still applies).
    pub fn identity() -> Self {
        Self {
            mean: [0.0; 5],
            std: [1.0; 5],
        }
    }

    /// Fits mean/std over a dataset (in transformed space).
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    pub fn fit(dataset: &Dataset) -> Self {
        assert!(!dataset.is_empty(), "cannot fit stats on empty dataset");
        let n = dataset.len() as f64;
        let mut mean = [0.0; 5];
        for s in &dataset.samples {
            for (m, v) in mean.iter_mut().zip(transform(&s.metrics())) {
                *m += v / n;
            }
        }
        let mut var = [0.0; 5];
        for s in &dataset.samples {
            for ((v, m), x) in var.iter_mut().zip(mean).zip(transform(&s.metrics())) {
                *v += (x - m) * (x - m) / n;
            }
        }
        let std = var.map(|v| v.sqrt().max(1e-9));
        Self { mean, std }
    }

    /// Normalizes a metric vector (log transform + z-score).
    pub fn normalize(&self, y: &[f64; 5]) -> [f64; 5] {
        let t = transform(y);
        let mut out = [0.0; 5];
        for i in 0..5 {
            out[i] = (t[i] - self.mean[i]) / self.std[i];
        }
        out
    }

    /// Inverse of [`TargetStats::normalize`].
    pub fn denormalize(&self, y: &[f64; 5]) -> [f64; 5] {
        let mut t = [0.0; 5];
        for i in 0..5 {
            t[i] = y[i] * self.std[i] + self.mean[i];
        }
        untransform(&t)
    }
}

/// Dataset-generation settings.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Number of samples to generate.
    pub samples: usize,
    /// Sampling seed.
    pub seed: u64,
    /// Guidance sampling bounds (log-uniform).
    pub c_low: f64,
    /// Upper sampling bound.
    pub c_high: f64,
    /// Router settings used for every sample.
    pub router: RouterConfig,
    /// Simulator settings used for every sample.
    pub sim: SimConfig,
    /// Worker threads for the per-sample fan-out; `0` resolves through
    /// `AFRT_THREADS`, then hardware parallelism. Any value yields
    /// bit-identical datasets because each sample's guidance comes from
    /// `afrt::split_seed(seed, sample_index)`, not a shared stream.
    pub threads: usize,
    /// Samples per checkpoint shard when a checkpoint directory is given.
    pub shard_size: usize,
    /// Retry policy for transiently-failing sample evaluations (injected
    /// faults, worker panics). Retries recompute from the sample's own
    /// seed, so a retried sample is bit-identical to an untroubled one.
    pub retry: af_fault::RetryPolicy,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self {
            samples: 120,
            seed: 2024,
            c_low: 0.4,
            c_high: 2.2,
            router: RouterConfig::default(),
            sim: SimConfig::default(),
            threads: 0,
            shard_size: 32,
            retry: af_fault::RetryPolicy {
                max_attempts: 3,
                base_delay_ms: 2,
                max_delay_ms: 50,
                ..af_fault::RetryPolicy::default()
            },
        }
    }
}

/// Error during dataset generation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DatasetError {
    /// The router failed on a sample.
    Route(RouteError),
    /// The simulator failed on a sample.
    Sim(SimError),
    /// A checkpoint shard could not be written.
    Checkpoint(String),
    /// Sample evaluation panicked (caught at the sample boundary so one bad
    /// sample cannot sink the whole generation run).
    Panicked(String),
    /// An armed failpoint injected this failure (chaos testing).
    Injected(String),
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::Route(e) => write!(f, "routing failed: {e}"),
            DatasetError::Sim(e) => write!(f, "simulation failed: {e}"),
            DatasetError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
            DatasetError::Panicked(msg) => write!(f, "sample evaluation panicked: {msg}"),
            DatasetError::Injected(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl DatasetError {
    /// Whether retrying the failed sample could plausibly succeed (see
    /// [`crate::Error::is_transient`] for the full classification).
    /// Routing and simulation failures are deterministic functions of the
    /// sample's guidance — retrying recomputes the same failure — while
    /// injected faults, panics (which injected faults cause under chaos
    /// testing), and checkpoint I/O failures are worth retrying. A
    /// *genuinely* deterministic panic simply exhausts its retries and is
    /// then recorded as the sample's permanent failure.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            DatasetError::Route(_) | DatasetError::Sim(_) => false,
            DatasetError::Panicked(_) | DatasetError::Injected(_) => true,
            // `Checkpoint` stringifies a `PersistError`: its `Io` rendering
            // is transient, serialization failures are not.
            DatasetError::Checkpoint(msg) => msg.contains("io error") || af_fault::is_injected(msg),
        }
    }
}

/// Builds the router guidance field for a flattened guidance vector.
pub fn guidance_field(graph: &HeteroGraph, guidance: &[f64]) -> NonUniformGuidance {
    let guided = graph.guided_ap_indices();
    assert_eq!(guidance.len(), guided.len() * 3, "guidance length mismatch");
    let mut field = NonUniformGuidance::new();
    for (row, &ap_idx) in guided.iter().enumerate() {
        let ap = &graph.aps[ap_idx];
        let triple = CostTriple([
            guidance[row * 3],
            guidance[row * 3 + 1],
            guidance[row * 3 + 2],
        ]);
        field.set(ap.net, ap.pos, triple);
    }
    field
}

/// Convenience wrapper: rebuilds the heterogeneous graph for a placement and
/// returns the router guidance field for a flattened guidance vector.
pub fn guidance_field_for(
    circuit: &Circuit,
    placement: &Placement,
    tech: &Technology,
    guidance: &[f64],
) -> NonUniformGuidance {
    let graph = HeteroGraph::build(circuit, placement, tech, 3);
    guidance_field(&graph, guidance)
}

/// The layout a sample was routed to and the parasitics extracted from it.
pub(crate) type Routed = (RoutedLayout, Parasitics);

/// Routes + extracts + simulates one guidance assignment.
fn evaluate_guidance(
    circuit: &Circuit,
    placement: &Placement,
    tech: &Technology,
    graph: &HeteroGraph,
    guidance: &[f64],
    router: &RouterConfig,
    sim: &SimConfig,
) -> Result<(Routed, Performance), DatasetError> {
    let field = RoutingGuidance::NonUniform(guidance_field(graph, guidance));
    let layout = Router::new(router.clone())
        .map_err(|e| DatasetError::Route(RouteError::from(e)))?
        .route(circuit, placement, tech, &field)
        .map_err(DatasetError::Route)?;
    let parasitics = extract(circuit, tech, &layout);
    let performance = simulate(circuit, Some(&parasitics), sim).map_err(DatasetError::Sim)?;
    Ok(((layout, parasitics), performance))
}

/// Number of checkpoint shards `cfg` produces: `ceil(samples / shard_size)`.
/// Shard geometry is a pure function of the config, so every fleet worker
/// and the coordinator agree on it without coordination.
#[must_use]
pub fn shard_count(cfg: &DatasetConfig) -> usize {
    cfg.samples.div_ceil(cfg.shard_size.max(1))
}

/// The sample-index range `[start, end)` covered by `shard_index`. Empty
/// when the index is past the end.
#[must_use]
pub fn shard_range(cfg: &DatasetConfig, shard_index: usize) -> std::ops::Range<usize> {
    let shard = cfg.shard_size.max(1);
    let start = (shard_index * shard).min(cfg.samples);
    let end = (start + shard).min(cfg.samples);
    start..end
}

/// Evaluates samples `range`, fanning out across an [`afrt`] worker pool.
/// Each record depends only on `(cfg.seed, sample_index)`, never on which
/// process, worker, or thread computed it: the single-process generator and
/// the fleet's distributed workers both come here, so they run the
/// byte-for-byte same code path (the bit-identity contract depends on it).
/// Beside each record comes the sample's layout and parasitics, or the
/// error that persisted after retries; neither is ever serialized.
fn eval_range(
    circuit: &Circuit,
    placement: &Placement,
    tech: &Technology,
    graph: &HeteroGraph,
    cfg: &DatasetConfig,
    range: std::ops::Range<usize>,
) -> Vec<(SampleRecord, Result<Routed, DatasetError>)> {
    let n_guided = graph.guided_ap_indices().len();
    let (lo, hi) = (cfg.c_low.ln(), cfg.c_high.ln());
    let indices: Vec<usize> = range.collect();
    afrt::Runtime::with_threads(cfg.threads)
        .par_map(&indices, |_, &i| {
            let _s = af_obs::span!("sample", i);
            let mut rng = ChaCha8Rng::seed_from_u64(afrt::split_seed(cfg.seed, i as u64));
            let guidance: Vec<f64> = (0..n_guided * 3)
                .map(|_| rng.gen_range(lo..=hi).exp())
                .collect();
            // Retry transient failures. The `sim.eval` failpoint is
            // keyed by (sample, attempt), so the injected schedule —
            // and with it the retry timeline and the final dataset —
            // is identical at every thread count, and each retry gets
            // a fresh draw (a transient fault stops firing).
            let result = cfg.retry.run(
                "dataset.sample",
                DatasetError::is_transient,
                |attempt| -> Result<(Routed, Performance), DatasetError> {
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                        || -> Result<(Routed, Performance), DatasetError> {
                            af_fault::fail!(
                                "sim.eval",
                                key = af_fault::mix(i as u64, u64::from(attempt)),
                                DatasetError::Injected(af_fault::injected("sim.eval"))
                            );
                            evaluate_guidance(
                                circuit,
                                placement,
                                tech,
                                graph,
                                &guidance,
                                &cfg.router,
                                &cfg.sim,
                            )
                        },
                    ));
                    outcome.unwrap_or_else(|payload| {
                        Err(DatasetError::Panicked(afrt::panic_message(
                            payload.as_ref(),
                        )))
                    })
                },
            );
            match result {
                Ok((routed, performance)) => (
                    SampleRecord {
                        guidance,
                        performance: Some(performance),
                        error: None,
                    },
                    Ok(routed),
                ),
                Err(e) => {
                    af_obs::counter("dataset.samples_failed", 1);
                    af_obs::warn(&format!("sample {i} permanently failed after retries: {e}"));
                    (
                        SampleRecord {
                            guidance,
                            performance: None,
                            error: Some(e.to_string()),
                        },
                        Err(e),
                    )
                }
            }
        })
        .unwrap_or_else(|e| panic!("dataset generation failed: {e}"))
}

/// Whether a loaded shard is complete and fully successful for `cfg` —
/// the reuse check shared by resume-from-checkpoint and the fleet's
/// lease-recovery path (anything short, corrupt, or carrying recorded
/// failures regenerates).
#[must_use]
pub fn shard_is_complete(
    cfg: &DatasetConfig,
    graph: &HeteroGraph,
    shard_index: usize,
    shard: &[SampleRecord],
) -> bool {
    let n_guided = graph.guided_ap_indices().len();
    shard.len() == shard_range(cfg, shard_index).len()
        && !shard.is_empty()
        && shard
            .iter()
            .all(|r| r.performance.is_some() && r.guidance.len() == n_guided * 3)
}

/// Computes the records of one checkpoint shard — the unit of work a fleet
/// worker leases. The result depends only on `(cfg, shard_index)`: any
/// worker, any thread count, any retry timeline produces bit-identical
/// records, which is what lets a coordinator re-lease a dead worker's shard
/// and still assemble the same dataset. The shard is *not* saved — callers
/// own persistence.
#[must_use]
pub fn generate_shard(
    circuit: &Circuit,
    placement: &Placement,
    tech: &Technology,
    graph: &HeteroGraph,
    cfg: &DatasetConfig,
    shard_index: usize,
) -> Vec<SampleRecord> {
    let _g = af_obs::span!("generate_shard", shard_index);
    let range = shard_range(cfg, shard_index);
    let evaluated = eval_range(circuit, placement, tech, graph, cfg, range);
    af_obs::counter(
        "dataset.samples_generated",
        evaluated
            .iter()
            .filter(|(r, _)| r.performance.is_some())
            .count() as u64,
    );
    evaluated.into_iter().map(|(r, _)| r).collect()
}

/// Reassembles the final dataset from a checkpoint directory once every
/// shard of `cfg` is present and fully successful. Returns `Ok(None)` while
/// any shard is still missing or incomplete — the fleet coordinator polls
/// this after each completion. Successful records concatenate in shard
/// order, so the result is bit-identical to a single-process
/// [`generate_dataset_checkpointed`] run of the same config.
///
/// # Errors
///
/// When a shard fails to load for I/O reasons other than absence.
pub fn assemble_dataset(
    store: &ShardStore,
    cfg: &DatasetConfig,
    graph: &HeteroGraph,
) -> Result<Option<Dataset>, DatasetError> {
    let mut samples = Vec::with_capacity(cfg.samples);
    for shard_index in 0..shard_count(cfg) {
        let shard = store
            .load_shard::<Vec<SampleRecord>>(shard_index)
            .map_err(|e| DatasetError::Checkpoint(e.to_string()))?;
        match shard {
            Some(shard) if shard_is_complete(cfg, graph, shard_index, &shard) => {
                samples.extend(shard.into_iter().filter_map(SampleRecord::into_sample));
            }
            _ => return Ok(None),
        }
    }
    Ok(Some(Dataset { samples }))
}

/// Generates a labeled dataset by sampling guidance log-uniformly in
/// `[c_low, c_high]` per component.
///
/// Sample evaluation (route → extract → simulate) fans out across the
/// [`afrt`] worker pool. Sample `i`'s guidance is drawn from its own RNG
/// seeded with `afrt::split_seed(cfg.seed, i)`, so the dataset is
/// bit-identical for every thread count.
///
/// # Errors
///
/// Propagates the lowest-index routing or simulation failure.
pub fn generate_dataset(
    circuit: &Circuit,
    placement: &Placement,
    tech: &Technology,
    graph: &HeteroGraph,
    cfg: &DatasetConfig,
) -> Result<Dataset, DatasetError> {
    generate_dataset_checkpointed(circuit, placement, tech, graph, cfg, None)
}

/// [`generate_dataset`] with sharded, resumable checkpointing: every
/// completed shard of `cfg.shard_size` samples is written into `checkpoint`
/// as it finishes, and shards already present (from an earlier, interrupted
/// run with the same config) are loaded instead of recomputed. Because each
/// sample depends only on `(cfg.seed, sample_index)`, resumed and fresh runs
/// produce identical datasets.
///
/// # Fault tolerance
///
/// Each sample is evaluated under `cfg.retry`: transient failures (injected
/// faults, caught worker panics) recompute from the sample's own seed, so a
/// retried sample is bit-identical to an untroubled one. A failure that
/// survives all retries is handled two ways:
///
/// - **With a checkpoint**: the sample is recorded in its shard as a
///   [`SampleRecord`] carrying the error (counter `dataset.samples_failed`)
///   and generation continues — a long run never aborts over a few bad
///   samples, and the checkpoint documents exactly which ones failed. On
///   resume, a shard containing failures is regenerated (only fully
///   successful shards are reused verbatim), so a later run under better
///   conditions heals the gaps.
/// - **Without a checkpoint**: the lowest-index error propagates, as
///   before.
///
/// # Errors
///
/// A shard write failure that survives retrying; without a checkpoint,
/// also the lowest-index permanent routing or simulation failure.
pub fn generate_dataset_checkpointed(
    circuit: &Circuit,
    placement: &Placement,
    tech: &Technology,
    graph: &HeteroGraph,
    cfg: &DatasetConfig,
    checkpoint: Option<&ShardStore>,
) -> Result<Dataset, DatasetError> {
    generate_routed(circuit, placement, tech, graph, cfg, checkpoint).map(|(dataset, _)| dataset)
}

/// [`generate_dataset_checkpointed`], also returning each sample's layout
/// and parasitics in sample order: `None` for a sample resumed from a
/// checkpoint shard, which was not routed in this run.
pub(crate) fn generate_routed(
    circuit: &Circuit,
    placement: &Placement,
    tech: &Technology,
    graph: &HeteroGraph,
    cfg: &DatasetConfig,
    checkpoint: Option<&ShardStore>,
) -> Result<(Dataset, Vec<Option<Routed>>), DatasetError> {
    let _gen = af_obs::span!("generate_dataset");
    let mut samples = Vec::with_capacity(cfg.samples);
    let mut routed = Vec::with_capacity(cfg.samples);

    for shard_index in 0..shard_count(cfg) {
        let range = shard_range(cfg, shard_index);

        // Resume: a shard from a previous run of the same config is reused
        // verbatim only when it is complete *and* fully successful;
        // anything missing, short, corrupt, or containing recorded
        // failures regenerates (giving permanently-failed samples another
        // chance under better conditions).
        if let Some(store) = checkpoint {
            if let Ok(Some(shard)) = store.load_shard::<Vec<SampleRecord>>(shard_index) {
                if shard_is_complete(cfg, graph, shard_index, &shard) {
                    af_obs::counter("dataset.shards_resumed", 1);
                    af_obs::counter("dataset.samples_resumed", shard.len() as u64);
                    samples.extend(shard.into_iter().filter_map(SampleRecord::into_sample));
                    routed.resize_with(samples.len(), || None);
                    continue;
                }
            }
        }

        let evaluated = eval_range(circuit, placement, tech, graph, cfg, range);

        // Without a checkpoint the historical contract holds: the
        // lowest-index permanent failure aborts generation. With one, the
        // failure is recorded in the shard instead and the run continues.
        if checkpoint.is_none() {
            if let Some(e) = evaluated.iter().find_map(|(_, r)| r.as_ref().err()) {
                return Err(e.clone());
            }
        }
        let (shard, results): (Vec<SampleRecord>, Vec<_>) = evaluated.into_iter().unzip();
        af_obs::counter(
            "dataset.samples_generated",
            shard.iter().filter(|r| r.performance.is_some()).count() as u64,
        );

        if let Some(store) = checkpoint {
            store
                .save_shard(shard_index, &shard)
                .map_err(|e| DatasetError::Checkpoint(e.to_string()))?;
            af_obs::counter("dataset.shards_written", 1);
        }
        // A record carries a performance exactly when its result is `Ok`.
        for (record, result) in shard.into_iter().zip(results) {
            samples.extend(record.into_sample());
            routed.extend(result.ok().map(Some));
        }
    }
    Ok((Dataset { samples }, routed))
}

/// Generates a dataset spanning several placements of the same circuit —
/// the paper trains on "2000 samples on target design with different
/// placements and routing solutions". Each placement contributes
/// `cfg.samples / placements.len()` samples (at least one), labeled against
/// its own heterogeneous graph; the guidance vectors are only meaningful for
/// graphs with the same guided-AP layout, which holds across placements of
/// one circuit because AP enumeration follows the netlist pin order.
///
/// # Errors
///
/// Propagates the first routing or simulation failure.
///
/// # Panics
///
/// Panics if `placements` is empty or the guided-AP counts differ between
/// placements.
pub fn generate_dataset_multi(
    circuit: &Circuit,
    placements: &[&Placement],
    tech: &Technology,
    cfg: &DatasetConfig,
) -> Result<Dataset, DatasetError> {
    assert!(!placements.is_empty(), "need at least one placement");
    let per = (cfg.samples / placements.len()).max(1);
    let mut all = Dataset::default();
    let mut expected_len: Option<usize> = None;
    for (i, placement) in placements.iter().enumerate() {
        let graph = HeteroGraph::build(circuit, placement, tech, 3);
        let n = graph.guided_ap_indices().len() * 3;
        match expected_len {
            None => expected_len = Some(n),
            Some(e) => assert_eq!(e, n, "guided-AP layout differs between placements"),
        }
        let sub = generate_dataset(
            circuit,
            placement,
            tech,
            &graph,
            &DatasetConfig {
                samples: per,
                seed: cfg.seed.wrapping_add(i as u64),
                ..cfg.clone()
            },
        )?;
        all.samples.extend(sub.samples);
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_netlist::benchmarks;
    use af_place::{place, PlacementVariant};

    #[test]
    fn stats_roundtrip() {
        let mk = |o: f64| Sample {
            guidance: vec![1.0; 3],
            performance: Performance {
                offset_uv: o,
                cmrr_db: 80.0 + o,
                bandwidth_mhz: 50.0,
                dc_gain_db: 40.0,
                noise_uvrms: 300.0 - o,
            },
        };
        let ds = Dataset {
            samples: vec![mk(10.0), mk(20.0), mk(30.0)],
        };
        let stats = TargetStats::fit(&ds);
        let y = ds.samples[1].metrics();
        let n = stats.normalize(&y);
        let back = stats.denormalize(&n);
        for (a, b) in y.iter().zip(back) {
            assert!((a - b).abs() < 1e-9);
        }
        // constant metric gets epsilon std, no NaN
        assert!(stats.std.iter().all(|s| s.is_finite() && *s > 0.0));
    }

    #[test]
    fn guidance_field_maps_aps() {
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        let t = Technology::nm40();
        let graph = HeteroGraph::build(&c, &p, &t, 2);
        let n = graph.guided_ap_indices().len();
        let guidance: Vec<f64> = (0..n * 3).map(|i| 0.5 + i as f64 * 0.01).collect();
        let field = guidance_field(&graph, &guidance);
        assert_eq!(field.len(), n);
        // every guided net appears
        for idx in graph.guided_ap_indices() {
            let net = graph.aps[idx].net;
            assert!(field.nets().any(|x| x == net));
        }
    }

    #[test]
    fn small_dataset_generation() {
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        let t = Technology::nm40();
        let graph = HeteroGraph::build(&c, &p, &t, 2);
        let cfg = DatasetConfig {
            samples: 3,
            ..DatasetConfig::default()
        };
        let ds = generate_dataset(&c, &p, &t, &graph, &cfg).unwrap();
        assert_eq!(ds.len(), 3);
        for s in &ds.samples {
            assert!(s.performance.dc_gain_db.is_finite());
            assert!(s.guidance.iter().all(|&g| (0.3..=2.3).contains(&g)));
        }
        // different guidance should usually lead to different metrics
        let o0 = ds.samples[0].performance.offset_uv;
        let distinct = ds
            .samples
            .iter()
            .any(|s| (s.performance.offset_uv - o0).abs() > 1e-9);
        assert!(distinct, "samples should differ");
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn stats_reject_empty() {
        let _ = TargetStats::fit(&Dataset::default());
    }

    #[test]
    fn checkpointed_generation_resumes_identically() {
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        let t = Technology::nm40();
        let graph = HeteroGraph::build(&c, &p, &t, 2);
        let cfg = DatasetConfig {
            samples: 5,
            shard_size: 2,
            ..DatasetConfig::default()
        };
        let plain = generate_dataset(&c, &p, &t, &graph, &cfg).unwrap();

        let dir = std::env::temp_dir().join(format!("afrt-ckpt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = ShardStore::new(&dir);
        let first = generate_dataset_checkpointed(&c, &p, &t, &graph, &cfg, Some(&store)).unwrap();
        // Simulate an interrupted run: drop the final (partial-width) shard,
        // then resume — shards 0 and 1 load, shard 2 regenerates.
        std::fs::remove_file(store.shard_path(2)).unwrap();
        let (resumed, routed) = generate_routed(&c, &p, &t, &graph, &cfg, Some(&store)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        // Only the regenerated sample was routed in this run.
        let was_routed: Vec<bool> = routed.iter().map(Option::is_some).collect();
        assert_eq!(was_routed, [false, false, false, false, true]);

        assert_eq!(plain.len(), 5);
        for (a, b) in plain.samples.iter().zip(&first.samples) {
            assert_eq!(
                a.guidance, b.guidance,
                "checkpointing must not change results"
            );
        }
        for (a, b) in first.samples.iter().zip(&resumed.samples) {
            assert_eq!(a.guidance, b.guidance, "resume must reproduce the run");
            assert_eq!(a.performance.as_array(), b.performance.as_array());
        }
    }

    #[test]
    fn shard_geometry_covers_samples_exactly() {
        let cfg = DatasetConfig {
            samples: 7,
            shard_size: 3,
            ..DatasetConfig::default()
        };
        assert_eq!(shard_count(&cfg), 3);
        assert_eq!(shard_range(&cfg, 0), 0..3);
        assert_eq!(shard_range(&cfg, 1), 3..6);
        assert_eq!(shard_range(&cfg, 2), 6..7, "final shard is partial");
        assert!(shard_range(&cfg, 3).is_empty(), "past-the-end is empty");
        let zero = DatasetConfig {
            samples: 4,
            shard_size: 0,
            ..DatasetConfig::default()
        };
        assert_eq!(shard_count(&zero), 4, "shard_size 0 clamps to 1");
    }

    #[test]
    fn shard_generation_matches_single_process_bit_for_bit() {
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        let t = Technology::nm40();
        let graph = HeteroGraph::build(&c, &p, &t, 2);
        let cfg = DatasetConfig {
            samples: 5,
            shard_size: 2,
            ..DatasetConfig::default()
        };
        let plain = generate_dataset(&c, &p, &t, &graph, &cfg).unwrap();

        // Compute shards out of order (as different fleet workers would),
        // persist them, and assemble — must equal the one-process run.
        let dir = std::env::temp_dir().join(format!("afrt-shardgen-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = ShardStore::new(&dir);
        for shard_index in [2usize, 0, 1] {
            let shard = generate_shard(&c, &p, &t, &graph, &cfg, shard_index);
            assert!(shard_is_complete(&cfg, &graph, shard_index, &shard));
            store.save_shard(shard_index, &shard).unwrap();
        }
        let assembled = assemble_dataset(&store, &cfg, &graph).unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(assembled.len(), plain.len());
        for (a, b) in plain.samples.iter().zip(&assembled.samples) {
            assert_eq!(
                a.guidance, b.guidance,
                "distributed run must be bit-identical"
            );
            assert_eq!(a.performance.as_array(), b.performance.as_array());
        }
    }

    #[test]
    fn assemble_reports_incomplete_checkpoints() {
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        let t = Technology::nm40();
        let graph = HeteroGraph::build(&c, &p, &t, 2);
        let cfg = DatasetConfig {
            samples: 4,
            shard_size: 2,
            ..DatasetConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("afrt-assemble-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = ShardStore::new(&dir);
        assert!(assemble_dataset(&store, &cfg, &graph).unwrap().is_none());
        let shard = generate_shard(&c, &p, &t, &graph, &cfg, 0);
        store.save_shard(0, &shard).unwrap();
        assert!(
            assemble_dataset(&store, &cfg, &graph).unwrap().is_none(),
            "one of two shards present"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_placement_dataset() {
        let c = benchmarks::ota1();
        let t = Technology::nm40();
        let pa = place(&c, PlacementVariant::A);
        let pb = place(&c, PlacementVariant::B);
        let ds = generate_dataset_multi(
            &c,
            &[&pa, &pb],
            &t,
            &DatasetConfig {
                samples: 4,
                ..DatasetConfig::default()
            },
        )
        .unwrap();
        assert_eq!(ds.len(), 4, "2 samples per placement");
        let len0 = ds.samples[0].guidance.len();
        assert!(ds.samples.iter().all(|s| s.guidance.len() == len0));
    }
}
