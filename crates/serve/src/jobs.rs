//! Asynchronous routing jobs and their persistent store.
//!
//! `POST /v1/route` enqueues a job and returns immediately; workers run
//! the guided-routing flow (`run_with_model`) and write each state
//! transition to a [`ShardStore`] shard named by the job id, so results
//! survive a server restart. On startup the store replays the directory:
//! jobs that were `queued` or `running` when the process died are marked
//! `failed` (their threads are gone), finished jobs remain queryable.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use af_fault::Supervisor;
use af_sim::Performance;
use afrt::{BoundedQueue, PushError};
use analogfold::{AnalogFoldFlow, FlowConfig, RelaxConfig, ShardStore};
use serde::{Deserialize, Serialize};

use crate::api::RouteRequest;
use crate::config::ServeConfig;
use crate::state::{CanaryCtl, ModelBundle, ModelSlot};

/// Final product of a routing job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouteResult {
    /// Total routed wirelength in micrometers.
    pub wirelength_um: f64,
    /// Total via count.
    pub vias: u64,
    /// Unresolved routing conflicts (0 for a clean layout).
    pub conflicts: u64,
    /// Simulated post-layout performance.
    pub performance: Performance,
    /// The guidance assignment the router followed.
    pub guidance: Vec<f64>,
}

/// One job's persisted state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job id (also the shard index).
    pub id: u64,
    /// `"queued"`, `"running"`, `"done"`, or `"failed"`.
    pub status: String,
    /// Failure description when `status == "failed"`.
    pub error: Option<String>,
    /// Result when `status == "done"`.
    pub result: Option<RouteResult>,
    /// Content hash of the model that ran (or is running) this job. `None`
    /// only for records written before this field existed.
    pub model_hash: Option<String>,
    /// Set on recovered `done` records whose `model_hash` differs from the
    /// resident model: the result is still served, but marked as produced
    /// by a superseded model version rather than silently passed off as
    /// current.
    pub stale_model: Option<bool>,
}

/// Resolved routing-job parameters (defaults applied, invariants clamped).
#[derive(Debug, Clone, Copy)]
pub struct JobParams {
    /// Relaxation restarts.
    pub restarts: usize,
    /// L-BFGS iterations per restart.
    pub lbfgs_iters: usize,
    /// Guidance candidates routed and evaluated.
    pub n_derive: usize,
    /// Root RNG seed.
    pub seed: u64,
    /// Router worker threads (`0` = auto).
    pub route_threads: usize,
}

impl JobParams {
    /// Applies defaults to an API request. `n_derive` is clamped to
    /// `restarts` (the flow rejects the inverse ordering).
    #[must_use]
    pub fn from_request(req: &RouteRequest) -> Self {
        let restarts = req.restarts.unwrap_or(6).max(1) as usize;
        Self {
            restarts,
            lbfgs_iters: req.lbfgs_iters.unwrap_or(30).max(1) as usize,
            n_derive: (req.n_derive.unwrap_or(1).max(1) as usize).min(restarts),
            seed: req.seed.unwrap_or(99),
            route_threads: req.route_threads.unwrap_or(1) as usize,
        }
    }
}

/// Persistent job store: one shard per job, guarded by a write lock so a
/// worker transition and a concurrent create cannot interleave shard
/// writes with id allocation.
pub struct JobStore {
    shards: ShardStore,
    write: Mutex<()>,
    next_id: AtomicU64,
}

impl JobStore {
    /// Opens (or creates) the store at `dir`, recovering existing records.
    /// Jobs left `queued`/`running` by a dead process are marked `failed`.
    ///
    /// # Errors
    ///
    /// Filesystem failures other than a missing directory.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> Result<Self, crate::ServeError> {
        let shards = ShardStore::new(dir);
        let mut next_id = 0u64;
        match std::fs::read_dir(shards.dir()) {
            Ok(entries) => {
                for entry in entries.flatten() {
                    let name = entry.file_name();
                    let Some(idx) = name
                        .to_str()
                        .and_then(|n| n.strip_prefix("shard-"))
                        .and_then(|n| n.strip_suffix(".json"))
                        .and_then(|n| n.parse::<u64>().ok())
                    else {
                        continue;
                    };
                    next_id = next_id.max(idx + 1);
                    if let Ok(Some(mut record)) = shards.load_shard::<JobRecord>(idx as usize) {
                        if record.status == "queued" || record.status == "running" {
                            record.status = "failed".to_string();
                            record.error = Some("interrupted by server restart".to_string());
                            shards
                                .save_shard(idx as usize, &record)
                                .map_err(analogfold::Error::from)?;
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        Ok(Self {
            shards,
            write: Mutex::new(()),
            next_id: AtomicU64::new(next_id),
        })
    }

    /// Creates a new `queued` record and persists it.
    ///
    /// # Errors
    ///
    /// Filesystem or serialization failures.
    pub fn create(&self) -> Result<JobRecord, crate::ServeError> {
        let _guard = self
            .write
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let record = JobRecord {
            id,
            status: "queued".to_string(),
            error: None,
            result: None,
            model_hash: None,
            stale_model: None,
        };
        self.shards
            .save_shard(id as usize, &record)
            .map_err(analogfold::Error::from)?;
        Ok(record)
    }

    /// Persists a state transition.
    ///
    /// # Errors
    ///
    /// Filesystem or serialization failures.
    pub fn update(&self, record: &JobRecord) -> Result<(), crate::ServeError> {
        let _guard = self
            .write
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.shards
            .save_shard(record.id as usize, record)
            .map_err(analogfold::Error::from)?;
        Ok(())
    }

    /// Reads a job by id (`None` if it never existed or its shard is
    /// corrupt — corruption is already counted by the shard layer).
    #[must_use]
    pub fn get(&self, id: u64) -> Option<JobRecord> {
        self.shards.load_shard(id as usize).ok().flatten()
    }

    /// Marks recovered `done` records produced by a model other than
    /// `current_hash` as stale (and clears a stale mark if the producing
    /// model is resident again, e.g. after a rollback). Run once at server
    /// startup, after [`open`](Self::open).
    ///
    /// # Errors
    ///
    /// Filesystem or serialization failures.
    pub fn reconcile_model(&self, current_hash: &str) -> Result<(), crate::ServeError> {
        let _guard = self
            .write
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut marked = 0u64;
        for idx in self.shards.existing_shards() {
            let Ok(Some(mut record)) = self.shards.load_shard::<JobRecord>(idx) else {
                continue;
            };
            if record.status != "done" {
                continue;
            }
            let stale = record
                .model_hash
                .as_deref()
                .is_some_and(|h| h != current_hash);
            let mark = stale.then_some(true);
            if record.stale_model != mark {
                record.stale_model = mark;
                self.shards
                    .save_shard(idx, &record)
                    .map_err(analogfold::Error::from)?;
            }
            marked += u64::from(stale);
        }
        af_obs::counter("serve.jobs.stale_model", marked);
        Ok(())
    }
}

/// The worker pool draining the route-job queue. Each worker runs under a
/// [`Supervisor`]: a panic escaping a job (jobs are individually fenced by
/// `catch_unwind` in `run_job`, so this is belt-and-suspenders) restarts
/// the worker after backoff instead of silently shrinking the pool.
pub struct JobRunner {
    queue: Arc<BoundedQueue<(u64, JobParams, Instant)>>,
    workers: Vec<Supervisor>,
    store: Arc<JobStore>,
}

impl JobRunner {
    /// Spawns `cfg.job_workers` supervised worker threads over `store`.
    #[must_use]
    pub fn start(
        slot: &Arc<ModelSlot>,
        store: &Arc<JobStore>,
        canary: &Arc<CanaryCtl>,
        cfg: &ServeConfig,
    ) -> Self {
        let queue: Arc<BoundedQueue<(u64, JobParams, Instant)>> =
            Arc::new(BoundedQueue::new("serve.jobs", cfg.job_queue));
        let canary_fraction = cfg.canary_fraction;
        let workers = (0..cfg.job_workers.max(1))
            .map(|i| {
                let q = Arc::clone(&queue);
                let slot = Arc::clone(slot);
                let store = Arc::clone(store);
                let canary = Arc::clone(canary);
                Supervisor::spawn(
                    &format!("serve-job-{i}"),
                    cfg.supervisor_backoff(),
                    cfg.supervisor_grace(),
                    move || {
                        while let Some((id, params, enqueued)) = q.pop() {
                            af_obs::hist(
                                "serve.jobs.sojourn_ms",
                                enqueued.elapsed().as_secs_f64() * 1e3,
                            );
                            // Snapshot the resident model once per job: the
                            // whole route runs on one model version even if
                            // a promotion lands mid-route.
                            let bundle = slot.get();
                            run_job(&bundle, &store, id, params);
                            score_canary(&bundle, &store, &canary, id, canary_fraction);
                        }
                    },
                )
                .expect("spawn serve-job thread")
            })
            .collect();
        Self {
            queue,
            workers,
            store: Arc::clone(store),
        }
    }

    /// Whether any worker is restarting after a panic (or inside its
    /// recovery grace window); surfaced by `/healthz` as `degraded`.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.workers.iter().any(Supervisor::is_degraded)
    }

    /// Worker panics recovered so far, summed across the pool.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.workers.iter().map(Supervisor::restarts).sum()
    }

    /// Creates and enqueues a job. `Err(PushError::Full)` means the queue
    /// is saturated and the caller should shed; the job record is only
    /// created after a successful enqueue reservation, so a shed leaves no
    /// orphan.
    pub fn submit(
        &self,
        params: JobParams,
    ) -> Result<Result<JobRecord, crate::ServeError>, PushError> {
        // Reserve capacity first with a sentinel check: BoundedQueue has no
        // reservation API, so create the record and roll it back on Full.
        let record = match self.store.create() {
            Ok(r) => r,
            Err(e) => return Ok(Err(e)),
        };
        match self.queue.try_push((record.id, params, Instant::now())) {
            Ok(()) => Ok(Ok(record)),
            Err(e) => {
                let mut failed = record;
                failed.status = "failed".to_string();
                failed.error = Some("shed: job queue full".to_string());
                let _ = self.store.update(&failed);
                Err(e)
            }
        }
    }

    /// Number of jobs waiting in the queue (excluding running ones).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Closes the queue, lets workers drain every queued job, and joins
    /// them. This is the graceful-shutdown guarantee: accepted jobs finish.
    pub fn shutdown(&mut self) {
        self.queue.close();
        for mut worker in self.workers.drain(..) {
            worker.join();
        }
    }
}

impl Drop for JobRunner {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run_job(bundle: &ModelBundle, store: &JobStore, id: u64, params: JobParams) {
    let Some(mut record) = store.get(id) else {
        return;
    };
    record.status = "running".to_string();
    record.model_hash = Some(bundle.model_hash.clone());
    let _ = store.update(&record);

    // Fence the flow behind `catch_unwind`: a panic (real, or injected via
    // the `serve.job` failpoint) marks THIS job `failed` instead of leaving
    // it stuck `running` while the supervisor restarts the worker.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        af_fault::fail!("serve.job", key = id);
        route_once(bundle, params)
    }))
    .unwrap_or_else(|payload| {
        af_obs::counter("serve.job_panics", 1);
        Err(format!(
            "job panicked: {}",
            afrt::panic_message(payload.as_ref())
        ))
    });
    match outcome {
        Ok(result) => {
            record.status = "done".to_string();
            record.result = Some(result);
        }
        Err(e) => {
            record.status = "failed".to_string();
            record.error = Some(e);
        }
    }
    let _ = store.update(&record);
}

fn route_once(bundle: &ModelBundle, params: JobParams) -> Result<RouteResult, String> {
    // `obs` stays unset: `run_with_model` installs the config's sink for
    // the duration of the run, which would displace the server's global
    // observability install.
    let cfg: FlowConfig = FlowConfig::builder()
        .tech(bundle.tech.clone())
        .relax(RelaxConfig {
            restarts: params.restarts,
            lbfgs_iters: params.lbfgs_iters,
            n_derive: params.n_derive,
            ..RelaxConfig::default()
        })
        .seed(params.seed)
        .route_threads(params.route_threads)
        .build()
        .map_err(|e| e.to_string())?;
    let flow = AnalogFoldFlow::new(cfg);
    let outcome = flow
        .run_with_model(&bundle.circuit, &bundle.placement, &bundle.gnn)
        .map_err(|e| e.to_string())?;
    Ok(RouteResult {
        wirelength_um: outcome.layout.total_wirelength() as f64 / 1e3,
        vias: u64::from(outcome.layout.total_vias()),
        conflicts: u64::from(outcome.layout.conflicts),
        performance: outcome.performance,
        guidance: outcome.guidance,
    })
}

/// Shadow-evaluates a completed route on the canary candidate: both models
/// predict the FoM for the guidance the router actually followed, and each
/// prediction is scored against the simulated ground truth the job already
/// produced. Pure bookkeeping — the served result is untouched.
fn score_canary(
    incumbent: &ModelBundle,
    store: &JobStore,
    canary: &CanaryCtl,
    id: u64,
    fraction: f64,
) {
    if !af_model::canary_sampled(id, fraction) {
        return;
    }
    let Some(candidate) = canary.candidate() else {
        return;
    };
    if candidate.model_hash == incumbent.model_hash {
        return;
    }
    let Some(record) = store.get(id) else { return };
    let Some(result) = record.result.filter(|_| record.status == "done") else {
        return;
    };
    let to_perf = |m: [f64; 5]| Performance {
        offset_uv: m[0],
        cmrr_db: m[1],
        bandwidth_mhz: m[2],
        dc_gain_db: m[3],
        noise_uvrms: m[4],
    };
    let incumbent_pred = to_perf(incumbent.session().predict(&result.guidance));
    let candidate_pred = to_perf(candidate.session().predict(&result.guidance));
    canary.observe(
        &candidate.model_hash,
        af_model::fom_error(&incumbent_pred, &result.performance),
        af_model::fom_error(&candidate_pred, &result.performance),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("af-serve-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_update_get_round_trip() {
        let store = JobStore::open(tmp_dir("roundtrip")).unwrap();
        let a = store.create().unwrap();
        let b = store.create().unwrap();
        assert_eq!((a.id, b.id), (0, 1));
        let mut done = a.clone();
        done.status = "done".to_string();
        store.update(&done).unwrap();
        assert_eq!(store.get(0).unwrap().status, "done");
        assert_eq!(store.get(1).unwrap().status, "queued");
        assert!(store.get(99).is_none());
    }

    #[test]
    fn reopen_marks_interrupted_jobs_failed_and_resumes_ids() {
        let dir = tmp_dir("reopen");
        {
            let store = JobStore::open(&dir).unwrap();
            let queued = store.create().unwrap();
            let mut running = store.create().unwrap();
            running.status = "running".to_string();
            store.update(&running).unwrap();
            let mut done = store.create().unwrap();
            done.status = "done".to_string();
            store.update(&done).unwrap();
            assert_eq!(queued.id, 0);
        }
        let store = JobStore::open(&dir).unwrap();
        assert_eq!(store.get(0).unwrap().status, "failed");
        assert_eq!(store.get(1).unwrap().status, "failed");
        assert!(store.get(1).unwrap().error.unwrap().contains("restart"));
        assert_eq!(store.get(2).unwrap().status, "done");
        assert_eq!(store.create().unwrap().id, 3);
    }

    #[test]
    fn reconcile_marks_done_jobs_from_other_models_stale() {
        let dir = tmp_dir("stale");
        let store = JobStore::open(&dir).unwrap();
        let mut old = store.create().unwrap();
        old.status = "done".to_string();
        old.model_hash = Some("aaaa".to_string());
        store.update(&old).unwrap();
        let mut same = store.create().unwrap();
        same.status = "done".to_string();
        same.model_hash = Some("bbbb".to_string());
        store.update(&same).unwrap();
        let mut legacy = store.create().unwrap();
        legacy.status = "done".to_string();
        store.update(&legacy).unwrap();

        store.reconcile_model("bbbb").unwrap();
        assert_eq!(store.get(0).unwrap().stale_model, Some(true));
        assert_eq!(store.get(1).unwrap().stale_model, None);
        // Pre-model_hash records cannot be proven stale; left unmarked.
        assert_eq!(store.get(2).unwrap().stale_model, None);

        // Rolling back to the old model clears the stale mark.
        store.reconcile_model("aaaa").unwrap();
        assert_eq!(store.get(0).unwrap().stale_model, None);
        assert_eq!(store.get(1).unwrap().stale_model, Some(true));
    }

    #[test]
    fn params_apply_defaults_and_clamp() {
        let p = JobParams::from_request(&RouteRequest {
            restarts: None,
            lbfgs_iters: None,
            n_derive: None,
            seed: None,
            route_threads: None,
        });
        assert_eq!(
            (
                p.restarts,
                p.lbfgs_iters,
                p.n_derive,
                p.seed,
                p.route_threads
            ),
            (6, 30, 1, 99, 1)
        );
        let p = JobParams::from_request(&RouteRequest {
            restarts: Some(2),
            lbfgs_iters: Some(5),
            n_derive: Some(10),
            seed: Some(7),
            route_threads: Some(0),
        });
        assert_eq!(p.n_derive, 2, "n_derive clamps to restarts");
        assert_eq!(p.route_threads, 0, "explicit auto passes through");
    }
}
