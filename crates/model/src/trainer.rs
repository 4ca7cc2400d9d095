//! The continuous train→serve loop: fold routed traffic into a growing
//! dataset, fine-tune from the incumbent, register the candidate.
//!
//! The trainer closes the loop the paper's automated data engine leaves
//! open. Every completed `/v1/route` job already carries exactly what a
//! training sample needs — the guidance the router followed and the
//! simulated post-layout performance — so the trainer tails the serve job
//! store, appends one dataset shard per new job through the existing
//! [`ShardStore`] checkpoint path, and periodically fine-tunes starting
//! from the incumbent's weights.
//!
//! # Determinism contract
//!
//! A training run is a pure function of `(incumbent weights, shard set,
//! seed, epochs)`: jobs are ingested in ascending id order, the shard set
//! orders the dataset, and [`ThreeDGnn::train`] is deterministic given its
//! seed. Two trainers pointed at the same inputs register the same content
//! hash — which is also why a crash between registration and state update
//! is harmless: the retry re-registers idempotently.
//!
//! The trainer deliberately does **not** depend on `af-serve`. It reads job
//! shards through minimal mirror structs (the vendored serde derive ignores
//! unknown fields), so the two processes share only the on-disk format.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use af_fault::{RetryPolicy, Supervisor};
use af_netlist::benchmarks;
use af_place::{place, PlacementVariant};
use af_sim::Performance;
use af_tech::Technology;
use analogfold::{
    content_hash_of, holdout_mse, write_durable, Dataset, GnnConfig, HeteroGraph, PersistError,
    Sample, SampleRecord, ShardStore, ThreeDGnn,
};
use serde::{Deserialize, Serialize};

use crate::registry::{Lineage, ModelRegistry, RegistryError};

/// Trainer failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum TrainerError {
    /// Invalid configuration (unknown benchmark or variant).
    Config(String),
    /// Filesystem failure.
    Io(std::io::Error),
    /// Dataset/state (de)serialization failure.
    Persist(PersistError),
    /// Registry failure.
    Registry(RegistryError),
}

impl std::fmt::Display for TrainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainerError::Config(msg) => write!(f, "trainer config: {msg}"),
            TrainerError::Io(e) => write!(f, "io error: {e}"),
            TrainerError::Persist(e) => write!(f, "persist error: {e}"),
            TrainerError::Registry(e) => write!(f, "registry error: {e}"),
        }
    }
}

impl std::error::Error for TrainerError {}

impl From<std::io::Error> for TrainerError {
    fn from(e: std::io::Error) -> Self {
        TrainerError::Io(e)
    }
}

impl From<PersistError> for TrainerError {
    fn from(e: PersistError) -> Self {
        TrainerError::Persist(e)
    }
}

impl From<RegistryError> for TrainerError {
    fn from(e: RegistryError) -> Self {
        TrainerError::Registry(e)
    }
}

/// Background-trainer configuration.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Model registry directory.
    pub registry: PathBuf,
    /// Serve job-store directory to tail for completed routes.
    pub jobs: PathBuf,
    /// Growing-dataset directory (shards + ingest state).
    pub dataset: PathBuf,
    /// Benchmark circuit name (must match what the server routes).
    pub bench: String,
    /// Placement variant label.
    pub variant: String,
    /// Sleep between training passes, in milliseconds.
    pub interval_ms: u64,
    /// Minimum samples ingested since the last registered candidate before
    /// fine-tuning again (avoids re-training on every single job).
    pub min_new_samples: usize,
    /// Fine-tune epochs per pass.
    pub epochs: usize,
    /// Training seed (part of the determinism contract).
    pub seed: u64,
    /// Supervisor restart backoff, in milliseconds.
    pub backoff_ms: u64,
    /// Supervisor recovery grace window, in milliseconds.
    pub grace_ms: u64,
}

impl TrainerConfig {
    /// Defaults for everything but the paths and circuit identity.
    #[must_use]
    pub fn new(
        registry: impl Into<PathBuf>,
        jobs: impl Into<PathBuf>,
        dataset: impl Into<PathBuf>,
        bench: &str,
        variant: &str,
    ) -> Self {
        Self {
            registry: registry.into(),
            jobs: jobs.into(),
            dataset: dataset.into(),
            bench: bench.to_string(),
            variant: variant.to_string(),
            interval_ms: 5_000,
            min_new_samples: 1,
            epochs: 10,
            seed: 7,
            backoff_ms: 50,
            grace_ms: 500,
        }
    }
}

/// What one training pass did.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainOutcome {
    /// A candidate was fine-tuned and registered.
    Registered {
        /// The candidate's content hash (its registry id).
        hash: String,
        /// Training-set size.
        samples: usize,
        /// Normalized MSE of the candidate over the training set.
        eval_mse: f64,
    },
    /// The dataset is unchanged since the last registered candidate.
    Unchanged,
    /// Not enough new samples yet (`have` of `need` since last train).
    Insufficient {
        /// New samples since the last training pass.
        have: usize,
        /// Configured [`TrainerConfig::min_new_samples`].
        need: usize,
    },
}

/// Durable ingest state: which job ids are already in the dataset, the next
/// free dataset shard index, and the dataset hash of the last training run.
/// Lives in the dataset directory so dataset and state travel together.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct IngestState {
    ingested: Vec<u64>,
    next_shard: u64,
    last_trained_hash: Option<String>,
    samples_at_last_train: Option<u64>,
}

const STATE_FILE: &str = "ingested.json";

fn load_state(dataset_dir: &std::path::Path) -> Result<IngestState, TrainerError> {
    match std::fs::read_to_string(dataset_dir.join(STATE_FILE)) {
        Ok(text) => Ok(serde_json::from_str(&text).map_err(PersistError::from)?),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(IngestState::default()),
        Err(e) => Err(e.into()),
    }
}

fn save_state(dataset_dir: &std::path::Path, state: &IngestState) -> Result<(), TrainerError> {
    let bytes = serde_json::to_string(state).map_err(PersistError::from)?;
    write_durable(
        dataset_dir,
        &dataset_dir.join(".ingested.tmp"),
        &dataset_dir.join(STATE_FILE),
        bytes.as_bytes(),
    )?;
    Ok(())
}

/// Minimal mirror of a serve `JobRecord` shard: the trainer needs only the
/// status and the routed outcome. Extra fields in the shard (id, error,
/// model hash, …) are ignored by the vendored derive.
#[derive(Debug, Deserialize)]
struct JobShard {
    status: String,
    result: Option<JobOutcome>,
}

/// Minimal mirror of a serve `RouteResult`.
#[derive(Debug, Deserialize)]
struct JobOutcome {
    guidance: Vec<f64>,
    performance: Performance,
}

/// Scans the job store for completed jobs not yet ingested and appends each
/// as one dataset shard, in ascending job-id order. Returns how many
/// samples were added.
fn ingest_new_jobs(cfg: &TrainerConfig, state: &mut IngestState) -> Result<usize, TrainerError> {
    let jobs = ShardStore::new(&cfg.jobs);
    let dataset = ShardStore::new(&cfg.dataset);
    let mut added = 0usize;
    for idx in jobs.existing_shards() {
        let id = idx as u64;
        if state.ingested.contains(&id) {
            continue;
        }
        // Corrupt or missing shards are already counted and warned about by
        // the shard layer; skip without marking so a later repair can land.
        let Ok(Some(job)) = jobs.load_shard::<JobShard>(idx) else {
            continue;
        };
        if job.status != "done" {
            // Terminal failures will never become samples; remember them so
            // the scan stays O(new), not O(all jobs ever).
            if job.status == "failed" {
                state.ingested.push(id);
            }
            continue;
        }
        let Some(outcome) = job.result else {
            state.ingested.push(id);
            continue;
        };
        let record = vec![SampleRecord {
            guidance: outcome.guidance,
            performance: Some(outcome.performance),
            error: None,
        }];
        dataset.save_shard(state.next_shard as usize, &record)?;
        state.next_shard += 1;
        state.ingested.push(id);
        added += 1;
    }
    if added > 0 {
        save_state(&cfg.dataset, state)?;
        af_obs::counter("model.trainer.ingested", added as u64);
    }
    Ok(added)
}

/// Loads every dataset shard back into one [`Dataset`], in shard order.
fn assemble(cfg: &TrainerConfig) -> Result<Dataset, TrainerError> {
    let store = ShardStore::new(&cfg.dataset);
    let mut samples: Vec<Sample> = Vec::new();
    for idx in store.existing_shards() {
        let Ok(Some(records)) = store.load_shard::<Vec<SampleRecord>>(idx) else {
            continue;
        };
        samples.extend(records.into_iter().filter_map(SampleRecord::into_sample));
    }
    Ok(Dataset { samples })
}

/// One training pass: ingest → (maybe) fine-tune → register.
///
/// Safe to call concurrently with a serving process — all coordination is
/// through the append-only job shards, the durable ingest state, and the
/// registry's atomic publication.
///
/// # Errors
///
/// Configuration, filesystem, or registry failures. A failed pass leaves
/// the dataset and registry consistent (see module docs).
pub fn train_once(cfg: &TrainerConfig) -> Result<TrainOutcome, TrainerError> {
    let circuit = benchmarks::by_name(&cfg.bench)
        .ok_or_else(|| TrainerError::Config(format!("unknown benchmark `{}`", cfg.bench)))?;
    let variant = PlacementVariant::from_label(&cfg.variant).ok_or_else(|| {
        TrainerError::Config(format!("unknown placement variant `{}`", cfg.variant))
    })?;
    let tech = Technology::nm40();
    let placement = place(&circuit, variant);
    let graph = HeteroGraph::build(&circuit, &placement, &tech, 3);

    let mut state = load_state(&cfg.dataset)?;
    ingest_new_jobs(cfg, &mut state)?;
    let dataset = assemble(cfg)?;
    if dataset.samples.is_empty() {
        return Ok(TrainOutcome::Insufficient {
            have: 0,
            need: cfg.min_new_samples.max(1),
        });
    }
    let dataset_hash = content_hash_of(&dataset).to_hex();
    if state.last_trained_hash.as_deref() == Some(dataset_hash.as_str()) {
        return Ok(TrainOutcome::Unchanged);
    }
    let new_samples = dataset.samples.len() as u64
        - state
            .samples_at_last_train
            .unwrap_or(0)
            .min(dataset.samples.len() as u64);
    if state.last_trained_hash.is_some() && (new_samples as usize) < cfg.min_new_samples {
        return Ok(TrainOutcome::Insufficient {
            have: new_samples as usize,
            need: cfg.min_new_samples,
        });
    }

    let mut registry = ModelRegistry::open(&cfg.registry)?;
    // Start from the incumbent's weights when there is one (fine-tune);
    // otherwise train from a fresh seed-derived initialization.
    let (mut gnn, parent) = match registry.current() {
        Some(hash) => {
            let hash = hash.to_string();
            (registry.load(&hash)?, Some(hash))
        }
        None => (
            ThreeDGnn::new(&GnnConfig {
                seed: cfg.seed,
                ..GnnConfig::default()
            }),
            None,
        ),
    };

    // The window chaos tests target: kill here and the registry must not
    // expose a half-written candidate.
    af_fault::fail!("model.train");

    let train_cfg = GnnConfig {
        epochs: cfg.epochs,
        seed: cfg.seed,
        ..GnnConfig::default()
    };
    let _report = gnn.train(&graph, &dataset, &train_cfg);
    let eval_mse = holdout_mse(&gnn, &graph, &dataset.samples);

    let entry = registry.register(
        &gnn,
        Lineage {
            parent,
            dataset_hash: Some(dataset_hash.clone()),
            train_seed: Some(cfg.seed),
            train_epochs: Some(cfg.epochs as u64),
            samples: Some(dataset.samples.len() as u64),
            eval_mse: Some(eval_mse),
            note: Some("trainer".to_string()),
        },
    )?;
    // State update is last: a crash before this line re-trains the same
    // inputs next pass and re-registers the same hash (idempotent).
    state.last_trained_hash = Some(dataset_hash);
    state.samples_at_last_train = Some(dataset.samples.len() as u64);
    save_state(&cfg.dataset, &state)?;
    af_obs::counter("model.trainer.registered", 1);
    Ok(TrainOutcome::Registered {
        hash: entry.hash,
        samples: dataset.samples.len(),
        eval_mse,
    })
}

/// The supervised background trainer. Runs [`train_once`] every
/// `interval_ms` under an [`af_fault::Supervisor`], so a panic mid-pass
/// (including injected ones) restarts the loop after backoff instead of
/// silently ending the train→serve loop.
pub struct Trainer {
    stop: Arc<AtomicBool>,
    supervisor: Option<Supervisor>,
}

impl Trainer {
    /// Spawns the background loop.
    ///
    /// # Errors
    ///
    /// Thread-spawn failure.
    pub fn start(cfg: TrainerConfig) -> std::io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_body = Arc::clone(&stop);
        let backoff = RetryPolicy {
            max_attempts: u32::MAX,
            base_delay_ms: cfg.backoff_ms.max(1),
            max_delay_ms: (cfg.backoff_ms.max(1)) * 20,
            ..RetryPolicy::default()
        };
        let grace = Duration::from_millis(cfg.grace_ms);
        let supervisor = Supervisor::spawn("model-trainer", backoff, grace, move || {
            while !stop_body.load(Ordering::SeqCst) {
                af_obs::counter("model.trainer.runs", 1);
                match train_once(&cfg) {
                    Ok(TrainOutcome::Registered { hash, samples, .. }) => {
                        af_obs::warn(&format!(
                            "trainer registered candidate {hash} ({samples} samples)"
                        ));
                    }
                    Ok(_) => {}
                    Err(e) => {
                        af_obs::counter("model.trainer.errors", 1);
                        af_obs::warn(&format!("trainer pass failed: {e}"));
                    }
                }
                // Interruptible sleep so shutdown is prompt.
                let mut remaining = cfg.interval_ms;
                while remaining > 0 && !stop_body.load(Ordering::SeqCst) {
                    let step = remaining.min(50);
                    std::thread::sleep(Duration::from_millis(step));
                    remaining -= step;
                }
            }
        })?;
        Ok(Self {
            stop,
            supervisor: Some(supervisor),
        })
    }

    /// Whether the loop is currently restarting after a panic.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.supervisor
            .as_ref()
            .is_some_and(Supervisor::is_degraded)
    }

    /// Panics recovered so far.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.supervisor.as_ref().map_or(0, Supervisor::restarts)
    }

    /// Signals the loop to stop and joins it.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(mut s) = self.supervisor.take() {
            s.join();
        }
    }
}

impl Drop for Trainer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("af-trainer-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Writes a fake completed job shard in the serve job-store format.
    fn write_job(dir: &std::path::Path, id: u64, status: &str, guidance_len: usize, scale: f64) {
        std::fs::create_dir_all(dir).unwrap();
        let result = if status == "done" {
            format!(
                "{{\"wirelength_um\":1.0,\"vias\":2,\"conflicts\":0,\"performance\":{{\"offset_uv\":{},\"cmrr_db\":80.0,\"bandwidth_mhz\":45.0,\"dc_gain_db\":60.0,\"noise_uvrms\":30.0}},\"guidance\":[{}]}}",
                120.0 * scale,
                vec!["0.5"; guidance_len].join(",")
            )
        } else {
            "null".to_string()
        };
        std::fs::write(
            dir.join(format!("shard-{id:04}.json")),
            format!("{{\"id\":{id},\"status\":\"{status}\",\"error\":null,\"result\":{result}}}"),
        )
        .unwrap();
    }

    fn cfg(root: &std::path::Path) -> TrainerConfig {
        TrainerConfig {
            epochs: 2,
            ..TrainerConfig::new(
                root.join("registry"),
                root.join("jobs"),
                root.join("dataset"),
                "OTA1",
                "A",
            )
        }
    }

    fn guidance_len() -> usize {
        let circuit = benchmarks::by_name("OTA1").unwrap();
        let variant = PlacementVariant::from_label("A").unwrap();
        let tech = Technology::nm40();
        let placement = place(&circuit, variant);
        let graph = HeteroGraph::build(&circuit, &placement, &tech, 3);
        ThreeDGnn::new(&GnnConfig::default())
            .session(&graph)
            .guidance_len()
    }

    #[test]
    fn trains_from_done_jobs_and_is_deterministic() {
        let root = tmp_dir("deterministic");
        let glen = guidance_len();
        let cfg = cfg(&root);
        write_job(&cfg.jobs, 0, "done", glen, 1.0);
        write_job(&cfg.jobs, 1, "failed", glen, 1.0);
        write_job(&cfg.jobs, 2, "done", glen, 1.1);

        let out = train_once(&cfg).unwrap();
        let TrainOutcome::Registered {
            hash,
            samples,
            eval_mse,
        } = out
        else {
            panic!("expected Registered, got {out:?}");
        };
        assert_eq!(samples, 2, "failed jobs are not samples");
        assert!(eval_mse.is_finite());

        // Same pass again: dataset unchanged → no new candidate.
        assert_eq!(train_once(&cfg).unwrap(), TrainOutcome::Unchanged);

        // A second trainer over the same inputs registers the same hash.
        let root2 = tmp_dir("deterministic2");
        let cfg2 = cfg_at(&root2, &cfg);
        write_job(&cfg2.jobs, 0, "done", glen, 1.0);
        write_job(&cfg2.jobs, 1, "failed", glen, 1.0);
        write_job(&cfg2.jobs, 2, "done", glen, 1.1);
        let TrainOutcome::Registered { hash: hash2, .. } = train_once(&cfg2).unwrap() else {
            panic!("expected Registered");
        };
        assert_eq!(hash, hash2, "training is deterministic over (shards, seed)");
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&root2);
    }

    fn cfg_at(root: &std::path::Path, base: &TrainerConfig) -> TrainerConfig {
        TrainerConfig {
            registry: root.join("registry"),
            jobs: root.join("jobs"),
            dataset: root.join("dataset"),
            ..base.clone()
        }
    }

    #[test]
    fn empty_job_store_is_insufficient_not_an_error() {
        let root = tmp_dir("empty");
        let cfg = cfg(&root);
        assert!(matches!(
            train_once(&cfg).unwrap(),
            TrainOutcome::Insufficient { have: 0, .. }
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn min_new_samples_gates_retraining() {
        let root = tmp_dir("minnew");
        let glen = guidance_len();
        let mut cfg = cfg(&root);
        cfg.min_new_samples = 2;
        write_job(&cfg.jobs, 0, "done", glen, 1.0);
        write_job(&cfg.jobs, 1, "done", glen, 1.2);
        assert!(matches!(
            train_once(&cfg).unwrap(),
            TrainOutcome::Registered { .. }
        ));
        // One more job is below the threshold…
        write_job(&cfg.jobs, 2, "done", glen, 1.3);
        assert_eq!(
            train_once(&cfg).unwrap(),
            TrainOutcome::Insufficient { have: 1, need: 2 }
        );
        // …two are enough, and the new candidate fine-tunes from the
        // incumbent once one is promoted.
        let mut registry = ModelRegistry::open(&cfg.registry).unwrap();
        let first = registry.list()[0].hash.clone();
        registry.promote(&first, false).unwrap();
        write_job(&cfg.jobs, 3, "done", glen, 1.4);
        let TrainOutcome::Registered { hash, .. } = train_once(&cfg).unwrap() else {
            panic!("expected Registered");
        };
        let registry = ModelRegistry::open(&cfg.registry).unwrap();
        let entry = registry.entry(&hash).unwrap();
        assert_eq!(entry.lineage.parent.as_deref(), Some(first.as_str()));
        assert_eq!(entry.lineage.note.as_deref(), Some("trainer"));
        let _ = std::fs::remove_dir_all(&root);
    }
}
