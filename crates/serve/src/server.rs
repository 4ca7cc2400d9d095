//! The serve worker: its bounded connection queue, handler workers,
//! request routing, and graceful shutdown, on the shared
//! [`crate::http`] listener and keep-alive loop.
//!
//! Thread layout:
//!
//! ```text
//! accept thread ──try_push──▶ conn queue ──pop──▶ N handler workers
//!                    │ (full: 429 + Retry-After, connection dropped)
//! handler ──predict──▶ batch queue ──▶ collector thread (micro-batches)
//! handler ──route────▶ job queue ────▶ M job workers (persist to store)
//! ```
//!
//! Shutdown: trigger the listener's [`Shutdown`], join the accept thread,
//! close the connection queue (workers drain it, then exit), then close
//! and drain the predict and job queues — every accepted job completes
//! before [`ServerHandle::join`] returns.

use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use af_cache::{Cache, CacheBuilder, ContentHash, ContentHasher, FnWeigher};
use af_guard::{Deadline, DEADLINE_HEADER};
use af_model::ModelRegistry;
use af_sim::Performance;
use afrt::{BoundedQueue, PushError};

use crate::api::{
    parse_body, CanaryInfo, GuideRequest, GuideResponse, HealthResponse, ModelInfo, ModelsResponse,
    PredictRequest, PredictResponse, PromoteRequest, PromoteResponse, RouteAccepted, RouteRequest,
};
use crate::batch::{Batcher, SubmitError};
use crate::config::ServeConfig;
use crate::http::{json_or_500, Listener, Request, Response, Shutdown};
use crate::jobs::{JobParams, JobRunner, JobStore};
use crate::metrics::render_metrics;
use crate::state::{CanaryCtl, ModelBundle, ModelSlot};
use crate::ServeError;

struct Shared {
    slot: Arc<ModelSlot>,
    canary: Arc<CanaryCtl>,
    batcher: Batcher,
    runner: Mutex<JobRunner>,
    store: Arc<JobStore>,
    cfg: ServeConfig,
    shutdown: Shutdown,
    /// Bind time; `/healthz` reports the monotonic distance from it.
    started: Instant,
    /// Response cache for `/v1/predict` and `/v1/guide`: whole 200-status
    /// JSON bodies keyed by request content hash *and* the resident model
    /// hash, so a hit can never replay a previous model's answer. `None`
    /// when disabled.
    response_cache: Option<Cache<ContentHash, String>>,
    /// Serializes registry mutations between the promote endpoint and the
    /// watcher thread (cross-process coordination is the registry's own
    /// append-only/atomic-rename discipline).
    registry_lock: Mutex<()>,
}

/// Server constructor; see [`Server::bind`].
pub struct Server;

/// A running server. Dropping the handle without calling
/// [`join`](ServerHandle::join) aborts ungracefully (threads detach).
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
    conns: Arc<BoundedQueue<TcpStream>>,
    workers: Vec<thread::JoinHandle<()>>,
    watcher: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr`, spawns the accept/handler/batcher/job threads,
    /// and returns the handle.
    ///
    /// # Errors
    ///
    /// Bind failures and job-store recovery failures.
    pub fn bind(bundle: ModelBundle, cfg: ServeConfig) -> Result<ServerHandle, ServeError> {
        let listener = Listener::bind(&cfg.addr)?;
        let model_hash = bundle.model_hash.clone();
        let slot = Arc::new(ModelSlot::new(bundle));
        let canary = Arc::new(CanaryCtl::default());
        let store = Arc::new(JobStore::open(cfg.resolved_job_dir())?);
        // Recovered results produced by a superseded model are marked, not
        // silently re-served as current.
        store.reconcile_model(&model_hash)?;
        let batcher = Batcher::start(&slot, &cfg);
        let runner = JobRunner::start(&slot, &store, &canary, &cfg);
        let shared = Arc::new(Shared {
            slot,
            canary,
            batcher,
            runner: Mutex::new(runner),
            store,
            cfg: cfg.clone(),
            shutdown: listener.shutdown(),
            started: Instant::now(),
            response_cache: (cfg.cache_mb > 0).then(|| {
                CacheBuilder::new("serve")
                    .capacity_mb(cfg.cache_mb)
                    .build_weighed(FnWeigher(|_k: &ContentHash, v: &String| {
                        32 + v.len() as u64
                    }))
            }),
            registry_lock: Mutex::new(()),
        });

        let watcher = cfg.registry.is_some().then(|| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("serve-registry-watch".to_string())
                .spawn(move || watcher_loop(&shared))
                .expect("spawn serve registry watcher")
        });

        let conns: Arc<BoundedQueue<TcpStream>> =
            Arc::new(BoundedQueue::new("serve.conns", cfg.conn_queue));
        let keep_alive = listener.keep_alive("serve", Duration::from_millis(cfg.keepalive_idle_ms));
        let workers = (0..cfg.resolved_workers())
            .map(|i| {
                let (q, shared, keep_alive) =
                    (Arc::clone(&conns), Arc::clone(&shared), keep_alive.clone());
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        while let Some(stream) = q.pop() {
                            keep_alive.serve(stream, |req| dispatch(&shared, req));
                        }
                    })
                    .expect("spawn serve worker")
            })
            .collect();

        let addr = listener.addr();
        let q = Arc::clone(&conns);
        let retry_after = cfg.retry_after_s.to_string();
        let accept = listener.spawn("serve-accept", move |mut stream| {
            // Shed *before* pushing: try_push consumes the stream on
            // failure, so a full queue is detected up front while we can
            // still answer 429. The check/push race can drop a connection
            // silently under an exactly-simultaneous burst; the common
            // saturation path stays deterministic.
            if q.len() >= q.capacity() {
                af_obs::counter("serve.conns.shed", 1);
                let _ = Response::error(429, "server overloaded, retry later")
                    .with_header("retry-after", retry_after.clone())
                    .with_close()
                    .write_to(&mut stream);
            } else if q.try_push(stream).is_err() {
                af_obs::counter("serve.conns.shed", 1);
            }
        });

        Ok(ServerHandle {
            shared,
            addr,
            accept: Some(accept),
            conns,
            workers,
            watcher,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hot-swappable model slot (the load generator drives promotions
    /// through it when measuring swap latency in-process).
    #[must_use]
    pub fn slot(&self) -> Arc<ModelSlot> {
        Arc::clone(&self.shared.slot)
    }

    /// Initiates graceful shutdown without waiting for it to finish.
    pub fn shutdown(&self) {
        self.shared.shutdown.trigger();
    }

    /// Blocks until the server has fully shut down: the accept loop has
    /// exited, every queued connection has been served, and every queued
    /// prediction and routing job has completed.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Nothing is accepted any more: workers drain the queue, then exit.
        self.conns.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(watcher) = self.watcher.take() {
            let _ = watcher.join();
        }
        // Connections are done; now drain the work queues behind them. The
        // collector thread itself is joined when the last `Shared` reference
        // drops (via the batcher's `Drop`).
        self.shared.batcher.close_queue();
        self.shared
            .runner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .shutdown();
    }
}

/// Polls the registry for (a) an external promotion — a CLI, a fleet
/// coordinator, or another replica moved `CURRENT`, so swap to converge —
/// and (b) a fresh candidate to put under canary. Exits with the server.
fn watcher_loop(shared: &Shared) {
    let poll = Duration::from_millis(shared.cfg.registry_poll_ms.max(50));
    while !shared.shutdown.is_triggered() {
        // Interruptible sleep so shutdown is prompt.
        let mut remaining = poll;
        while !remaining.is_zero() && !shared.shutdown.is_triggered() {
            let step = remaining.min(Duration::from_millis(50));
            thread::sleep(step);
            remaining = remaining.saturating_sub(step);
        }
        if shared.shutdown.is_triggered() {
            break;
        }
        let _guard = shared
            .registry_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(dir) = &shared.cfg.registry else {
            break;
        };
        let Ok(registry) = ModelRegistry::open(dir) else {
            continue;
        };
        let resident = shared.slot.get().model_hash.clone();
        if let Some(current) = registry.current() {
            if current != resident {
                match load_bundle(shared, &registry, current) {
                    Ok(bundle) => {
                        swap_resident(shared, bundle);
                    }
                    Err(e) => af_obs::warn(&format!(
                        "registry watcher: cannot load promoted model {current}: {e}"
                    )),
                }
            }
        }
        if shared.cfg.canary_fraction > 0.0 {
            let resident = shared.slot.get().model_hash.clone();
            match registry.latest_candidate() {
                Some(entry) if entry.hash != resident => {
                    let already = shared
                        .canary
                        .candidate()
                        .is_some_and(|c| c.model_hash == entry.hash);
                    if !already {
                        match load_bundle(shared, &registry, &entry.hash) {
                            Ok(bundle) => shared.canary.set_candidate(Arc::new(bundle)),
                            Err(e) => af_obs::warn(&format!(
                                "registry watcher: cannot load candidate {}: {e}",
                                entry.hash
                            )),
                        }
                    }
                }
                _ => shared.canary.clear(),
            }
        }
    }
}

/// Loads a registered model into a bundle shaped like the resident one
/// (same circuit, placement variant, tech, graph — only the weights
/// change).
fn load_bundle(
    shared: &Shared,
    registry: &ModelRegistry,
    hash: &str,
) -> Result<ModelBundle, String> {
    let gnn = registry.load(hash).map_err(|e| e.to_string())?;
    let resident = shared.slot.get();
    ModelBundle::with_model(resident.circuit.name(), resident.variant.label(), gnn)
        .map_err(|e| e.to_string())
}

/// Installs a new resident model and reconciles the dependent state: the
/// canary arm (a promoted candidate stops being a candidate) and the job
/// store's stale-model marks.
fn swap_resident(shared: &Shared, bundle: ModelBundle) -> Arc<ModelBundle> {
    let new_hash = bundle.model_hash.clone();
    let old = shared.slot.swap(bundle);
    if shared
        .canary
        .candidate()
        .is_some_and(|c| c.model_hash == new_hash)
    {
        shared.canary.clear();
    }
    let _ = shared.store.reconcile_model(&new_hash);
    old
}

fn dispatch(shared: &Shared, req: &Request) -> Response {
    // Deadline gate for every route: a malformed budget is a client error,
    // an expired one is shed here — before the response cache, the batch
    // queue, or the job store see the request.
    let deadline = match req.header(DEADLINE_HEADER) {
        Some(raw) => match Deadline::parse(raw, shared.cfg.deadline_max_ms) {
            Ok(d) => Some(d),
            Err(e) => return Response::error(400, &e.to_string()),
        },
        None => None,
    };
    if deadline.is_some_and(|d| d.expired()) {
        af_guard::shed("conn");
        return Response::error(408, "request deadline already expired");
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => health(shared),
        ("GET", "/metrics") => Response::text(200, &render_metrics()),
        ("POST", "/v1/predict") => {
            with_response_cache(shared, req, || predict(shared, req, deadline))
        }
        ("POST", "/v1/guide") => with_response_cache(shared, req, || guide(shared, req)),
        ("POST", "/v1/route") => route_job(shared, req, deadline),
        ("GET", path) if path.starts_with("/v1/jobs/") => job_status(shared, path),
        ("GET", "/v1/models") => models_list(shared),
        ("POST", "/v1/models/promote") => models_promote(shared, req),
        ("POST", "/v1/shutdown") => {
            shared.shutdown.trigger();
            Response::json(200, "{\"ok\":true}".to_string()).with_close()
        }
        (
            _,
            "/healthz" | "/metrics" | "/v1/predict" | "/v1/guide" | "/v1/route" | "/v1/shutdown"
            | "/v1/models" | "/v1/models/promote",
        ) => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such route"),
    }
}

/// Tier B: serves `/v1/predict` and `/v1/guide` through the response cache.
/// The key covers the request path and the exact body bytes, so a hit can
/// only replay a response computed for an identical request. Only
/// 200-status bodies are cached; an `x-no-cache` request header bypasses
/// the cache entirely. The `x-cache: hit|miss` response header makes the
/// outcome observable to clients and the smoke/load tests.
fn with_response_cache(
    shared: &Shared,
    req: &Request,
    compute: impl FnOnce() -> Response,
) -> Response {
    let Some(cache) = &shared.response_cache else {
        return compute();
    };
    if req.header("x-no-cache").is_some() {
        af_obs::counter("serve.cache_bypass", 1);
        return compute();
    }
    let mut h = ContentHasher::new();
    h.write_str(&req.path);
    h.write(&req.body);
    // Partition by model version: after a hot-swap, the same request bytes
    // hash to a different key, so a cached pre-swap answer can never be
    // replayed for the new model (and a rollback re-hits its old entries).
    h.write_str(&shared.slot.get().model_hash);
    let key = h.finish();
    if let Some(body) = cache.get(&key) {
        return Response::json(200, body).with_header("x-cache", "hit".to_string());
    }
    let resp = compute();
    if resp.status == 200 {
        if let Ok(body) = std::str::from_utf8(&resp.body) {
            cache.insert(key, body.to_string());
        }
    }
    resp.with_header("x-cache", "miss".to_string())
}

fn health(shared: &Shared) -> Response {
    let runner = shared
        .runner
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let degraded = shared.batcher.is_degraded() || runner.is_degraded();
    let restarts = shared.batcher.restarts() + runner.restarts();
    drop(runner);
    let bundle = shared.slot.get();
    json_or_500(
        200,
        &HealthResponse {
            ok: true,
            status: if degraded { "degraded" } else { "ok" }.to_string(),
            restarts,
            circuit: bundle.circuit.name().to_string(),
            variant: bundle.variant.label().to_string(),
            guidance_len: bundle.guidance_len() as u64,
            uptime_ms: shared.started.elapsed().as_millis() as u64,
            model_hash: bundle.model_hash.clone(),
            build: env!("CARGO_PKG_VERSION").to_string(),
        },
    )
}

fn perf_from_metrics(m: [f64; 5]) -> Performance {
    // Canonical metric order, matching `Performance::as_array`.
    Performance {
        offset_uv: m[0],
        cmrr_db: m[1],
        bandwidth_mhz: m[2],
        dc_gain_db: m[3],
        noise_uvrms: m[4],
    }
}

fn predict(shared: &Shared, req: &Request, deadline: Option<Deadline>) -> Response {
    // Adaptive admission: sustained predict-queue sojourn above target
    // converts new (uncached) work into early 429s instead of queueing
    // everyone into latency collapse. Cache hits never reach this point.
    if shared.batcher.admission().should_shed() {
        return Response::error(429, "queue delay above admission target")
            .with_header("retry-after", shared.cfg.retry_after_s.to_string());
    }
    let body: PredictRequest = match parse_body(&req.body) {
        Ok(b) => b,
        Err(msg) => return Response::error(400, &msg),
    };
    let deadline =
        deadline.unwrap_or_else(|| Deadline::after(shared.cfg.request_deadline_ms.max(1)));
    match shared.batcher.predict(body.guidance, deadline) {
        Ok(prediction) => json_or_500(
            200,
            &PredictResponse {
                performance: perf_from_metrics(prediction.metrics),
                batch_size: prediction.batch_size,
            },
        ),
        Err(SubmitError::Overloaded) => Response::error(429, "predict queue full")
            .with_header("retry-after", shared.cfg.retry_after_s.to_string()),
        Err(SubmitError::ShuttingDown) => Response::error(503, "server shutting down"),
        Err(SubmitError::DeadlineExceeded) => Response::error(408, "request deadline exceeded"),
        Err(SubmitError::Rejected(msg)) => Response::error(400, &msg),
    }
}

fn guide(shared: &Shared, req: &Request) -> Response {
    let body: GuideRequest = match parse_body(&req.body) {
        Ok(b) => b,
        Err(msg) => return Response::error(400, &msg),
    };
    let cfg = analogfold::RelaxConfig {
        restarts: body.restarts.unwrap_or(12).max(1) as usize,
        lbfgs_iters: body.lbfgs_iters.unwrap_or(30).max(1) as usize,
        n_derive: 1,
        seed: body.seed.unwrap_or(99),
        ..analogfold::RelaxConfig::default()
    };
    let bundle = shared.slot.get();
    let potential = analogfold::Potential::new(&bundle.gnn, &bundle.graph);
    let outcomes = analogfold::relax(&potential, &cfg);
    match outcomes.into_iter().next() {
        Some(best) => json_or_500(
            200,
            &GuideResponse {
                guidance: best.guidance,
                potential: best.potential,
            },
        ),
        None => Response::error(500, "relaxation produced no candidates"),
    }
}

fn route_job(shared: &Shared, req: &Request, deadline: Option<Deadline>) -> Response {
    let body: RouteRequest = match parse_body(&req.body) {
        Ok(b) => b,
        Err(msg) => return Response::error(400, &msg),
    };
    // Re-checked at the last moment before the job store: a route job past
    // its submission deadline must never be created or enqueued.
    if deadline.is_some_and(|d| d.expired()) {
        af_guard::shed("job");
        return Response::error(408, "request deadline already expired");
    }
    let params = JobParams::from_request(&body);
    let runner = shared
        .runner
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    match runner.submit(params) {
        Ok(Ok(record)) => json_or_500(
            202,
            &RouteAccepted {
                id: record.id,
                status: record.status,
            },
        ),
        Ok(Err(e)) => Response::error(500, &format!("job store failure: {e}")),
        Err(PushError::Full) => Response::error(429, "job queue full")
            .with_header("retry-after", shared.cfg.retry_after_s.to_string()),
        Err(PushError::Closed) => Response::error(503, "server shutting down"),
    }
}

fn job_status(shared: &Shared, path: &str) -> Response {
    let id_text = &path["/v1/jobs/".len()..];
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(400, &format!("bad job id {id_text:?}"));
    };
    match shared.store.get(id) {
        Some(record) => json_or_500(200, &record),
        None => Response::error(404, &format!("no job {id}")),
    }
}

fn canary_info(shared: &Shared) -> Option<CanaryInfo> {
    shared
        .canary
        .report(shared.cfg.canary_tolerance)
        .map(|(candidate, report)| CanaryInfo {
            candidate,
            samples: report.samples,
            incumbent_mean: report.incumbent_mean,
            candidate_mean: report.candidate_mean,
            regression: report.regression,
        })
}

fn models_list(shared: &Shared) -> Response {
    let resident = shared.slot.get().model_hash.clone();
    let mut response = ModelsResponse {
        resident: resident.clone(),
        current: None,
        canary: canary_info(shared),
        models: Vec::new(),
    };
    if let Some(dir) = &shared.cfg.registry {
        match ModelRegistry::open(dir) {
            Ok(registry) => {
                response.current = registry.current().map(str::to_string);
                response.models = registry
                    .list()
                    .iter()
                    .map(|e| ModelInfo {
                        hash: e.hash.clone(),
                        state: registry.state(e).label().to_string(),
                        resident: e.hash == resident,
                        present: e.present,
                        parent: e.lineage.parent.clone(),
                        samples: e.lineage.samples,
                        eval_mse: e.lineage.eval_mse,
                        promotions: e.promotions,
                    })
                    .collect();
            }
            Err(e) => return Response::error(500, &format!("registry unavailable: {e}")),
        }
    }
    json_or_500(200, &response)
}

fn models_promote(shared: &Shared, req: &Request) -> Response {
    let body: PromoteRequest = match parse_body(&req.body) {
        Ok(b) => b,
        Err(msg) => return Response::error(400, &msg),
    };
    let Some(dir) = &shared.cfg.registry else {
        return Response::error(400, "no model registry configured (start with --registry)");
    };
    let _guard = shared
        .registry_lock
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut registry = match ModelRegistry::open(dir) {
        Ok(r) => r,
        Err(e) => return Response::error(500, &format!("registry unavailable: {e}")),
    };
    let resident = shared.slot.get().model_hash.clone();
    let target = match &body.hash {
        Some(prefix) => match registry.resolve(prefix) {
            Ok(hash) => hash,
            Err(e) => return Response::error(404, &e.to_string()),
        },
        None => match registry.latest_candidate() {
            Some(entry) => entry.hash.clone(),
            None => return Response::error(404, "no candidate to promote"),
        },
    };
    // Fold the accumulated canary evidence into the registry before the
    // gate check, so the promote decision sees what this server measured.
    if let Some((candidate, report)) = shared.canary.report(shared.cfg.canary_tolerance) {
        if candidate == target && report.samples >= shared.cfg.canary_min_samples {
            if let Err(e) = registry.record_verdict(&target, report.regression, &report.summary()) {
                return Response::error(500, &format!("recording canary verdict failed: {e}"));
            }
        }
    }
    match registry.promote(&target, body.force.unwrap_or(false)) {
        Ok(hash) => {
            if hash != resident {
                match load_bundle(shared, &registry, &hash) {
                    Ok(bundle) => {
                        swap_resident(shared, bundle);
                    }
                    Err(e) => {
                        return Response::error(
                            500,
                            &format!("promoted in registry but load failed: {e}"),
                        )
                    }
                }
            }
            json_or_500(
                200,
                &PromoteResponse {
                    ok: true,
                    model_hash: hash,
                    previous: resident,
                },
            )
        }
        Err(af_model::RegistryError::Refused(msg)) => Response::error(409, &msg),
        Err(af_model::RegistryError::NotFound(h)) => {
            Response::error(404, &format!("no registered model matches `{h}`"))
        }
        Err(e) => Response::error(500, &e.to_string()),
    }
}
