//! The coordinator process: worker registry, gen-job lease desk, and
//! fleet-wide metrics aggregation, served on af-serve's HTTP listener and
//! keep-alive loop.
//!
//! The coordinator is deliberately boring: all fleet state fits in two
//! mutexes (registry, lease table), every decision is a pure function of
//! that state plus a monotonic clock, and nothing it stores is
//! irreplaceable — workers re-register after a coordinator restart, and
//! the lease table rebuilds from a checkpoint-directory scan. Traffic is
//! thread-per-connection: coordinator load is a handful of workers and
//! fronts heartbeating, not the serving hot path.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use af_serve::http::{json_or_500, Listener, Request, Response, Shutdown};
use analogfold::{shard_count, shard_is_complete, SampleRecord, ShardStore};

use crate::gen::{spec_config, spec_design};
use crate::leases::LeaseTable;
use crate::protocol::{
    CompleteRequest, CompleteResponse, FleetPromoteRequest, FleetPromoteResponse, GenSpec,
    GenStatus, HeartbeatRequest, LeaseRequest, LeaseResponse, RegisterRequest, StatusResponse,
};
use crate::registry::Registry;
use crate::FleetError;

/// Coordinator settings.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Bind address (`host:port`; port 0 for ephemeral).
    pub addr: String,
    /// Worker lease duration (0 = default).
    pub lease_ms: u64,
    /// Dataset-generation job to hand out, if any.
    pub gen: Option<GenSpec>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            lease_ms: 0,
            gen: None,
        }
    }
}

struct GenJob {
    spec: GenSpec,
    leases: Mutex<LeaseTable>,
}

struct Shared {
    registry: Mutex<Registry>,
    gen: Option<GenJob>,
    shutdown: Shutdown,
    started: Instant,
}

/// Coordinator constructor; see [`Coordinator::bind`].
pub struct Coordinator;

/// A running coordinator.
pub struct CoordinatorHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
}

impl Coordinator {
    /// Binds the coordinator. When `cfg.gen` is set, the checkpoint
    /// directory is scanned and already-complete shards are pre-marked
    /// done, so an interrupted distributed run resumes where it stopped.
    ///
    /// # Errors
    ///
    /// Bind failures and an invalid gen spec (unknown bench/variant).
    pub fn bind(cfg: CoordinatorConfig) -> Result<CoordinatorHandle, FleetError> {
        let listener = Listener::bind(&cfg.addr)?;
        let gen = match &cfg.gen {
            Some(spec) => Some(GenJob {
                spec: spec.clone(),
                leases: Mutex::new(build_lease_table(spec, cfg.lease_ms)?),
            }),
            None => None,
        };
        let shared = Arc::new(Shared {
            registry: Mutex::new(Registry::new(cfg.lease_ms)),
            gen,
            shutdown: listener.shutdown(),
            started: Instant::now(),
        });

        let addr = listener.addr();
        let conn_shared = Arc::clone(&shared);
        let accept = listener.spawn_threaded("fleet-coord", "fleet.coord", move || {
            let shared = Arc::clone(&conn_shared);
            move |req: &Request| dispatch(&shared, req)
        });

        Ok(CoordinatorHandle {
            shared,
            addr,
            accept: Some(accept),
        })
    }
}

/// Scans the checkpoint directory and builds the lease table with complete
/// shards pre-marked done. Contents are validated, not just presence: a
/// torn or failure-carrying shard re-leases.
fn build_lease_table(spec: &GenSpec, lease_ms: u64) -> Result<LeaseTable, FleetError> {
    let dcfg = spec_config(spec)?;
    let design = spec_design(spec)?;
    let store = ShardStore::new(&spec.checkpoint);
    let done: Vec<usize> = store
        .existing_shards()
        .into_iter()
        .filter(|&i| {
            matches!(
                store.load_shard::<Vec<SampleRecord>>(i),
                Ok(Some(ref shard)) if shard_is_complete(&dcfg, &design.graph, i, shard)
            )
        })
        .collect();
    if !done.is_empty() {
        af_obs::counter("fleet.gen.shards_resumed", done.len() as u64);
    }
    let lease_ms = if lease_ms == 0 {
        crate::registry::DEFAULT_LEASE_MS
    } else {
        lease_ms
    };
    Ok(LeaseTable::new(shard_count(&dcfg), &done, lease_ms))
}

impl CoordinatorHandle {
    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the configured gen job has every shard complete
    /// (`false` when no job is configured).
    #[must_use]
    pub fn gen_finished(&self) -> bool {
        self.shared.gen.as_ref().is_some_and(|g| {
            g.leases
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .is_done()
        })
    }

    /// Blocks until the gen job finishes, polling every `poll`. Returns
    /// `false` immediately when no gen job is configured.
    pub fn wait_gen_done(&self, poll: Duration) -> bool {
        if self.shared.gen.is_none() {
            return false;
        }
        while !self.gen_finished() {
            thread::sleep(poll);
        }
        true
    }

    /// Initiates shutdown without waiting.
    pub fn shutdown(&self) {
        self.shared.shutdown.trigger();
    }

    /// Blocks until the coordinator shuts down — via [`shutdown`] or a
    /// `POST /fleet/shutdown` — and joins the accept thread (open
    /// keep-alive connections close after their next response).
    ///
    /// [`shutdown`]: CoordinatorHandle::shutdown
    pub fn join(mut self) {
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
    }
}

fn parse<T: serde::de::DeserializeOwned>(body: &[u8]) -> Result<T, Response> {
    af_serve::api::parse_body(body).map_err(|e| Response::error(400, &e))
}

fn dispatch(shared: &Shared, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/fleet/register") => register(shared, &req.body),
        ("POST", "/fleet/heartbeat") => heartbeat(shared, &req.body),
        ("GET", "/fleet/workers") => workers(shared),
        ("POST", "/fleet/lease") => lease(shared, &req.body),
        ("POST", "/fleet/complete") => complete(shared, &req.body),
        ("POST", "/fleet/promote") => promote(shared, &req.body),
        ("GET", "/fleet/status") => status(shared),
        ("GET", "/healthz") => status(shared),
        ("GET", "/metrics") => Response::text(200, &af_serve::metrics::render_metrics()),
        ("POST", "/fleet/shutdown") => {
            shared.shutdown.trigger();
            Response::json(200, "{\"ok\":true}".to_string()).with_close()
        }
        (
            _,
            "/fleet/register" | "/fleet/heartbeat" | "/fleet/workers" | "/fleet/lease"
            | "/fleet/complete" | "/fleet/promote" | "/fleet/status" | "/healthz" | "/metrics"
            | "/fleet/shutdown",
        ) => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such endpoint"),
    }
}

fn register(shared: &Shared, body: &[u8]) -> Response {
    let req: RegisterRequest = match parse(body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let mut reg = shared
        .registry
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let now = reg.now_ms();
    let resp = reg.register(&req, now);
    json_or_500(200, &resp)
}

fn heartbeat(shared: &Shared, body: &[u8]) -> Response {
    let req: HeartbeatRequest = match parse(body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let mut reg = shared
        .registry
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let now = reg.now_ms();
    let resp = reg.heartbeat(&req, now);
    drop(reg);
    // A heartbeat naming an active shard renews that lease too — one
    // message keeps both the membership and the work alive.
    if resp.known {
        if let (Some(gen), Some(shard)) = (&shared.gen, req.active_shard) {
            gen.leases
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .renew(&req.id, shard as usize, now_ms(shared));
        }
    }
    json_or_500(200, &resp)
}

fn promote(shared: &Shared, body: &[u8]) -> Response {
    let req: FleetPromoteRequest = match parse(body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    if req.model_hash.is_empty() {
        return Response::error(400, "model_hash must be non-empty");
    }
    let mut reg = shared
        .registry
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let now = reg.now_ms();
    let matching = reg.promote(&req.model_hash, now);
    drop(reg);
    json_or_500(
        200,
        &FleetPromoteResponse {
            ok: true,
            model_hash: req.model_hash,
            matching_workers: matching,
        },
    )
}

fn workers(shared: &Shared) -> Response {
    let reg = shared
        .registry
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let now = reg.now_ms();
    json_or_500(200, &reg.alive(now))
}

fn now_ms(shared: &Shared) -> u64 {
    shared.started.elapsed().as_millis() as u64
}

fn lease(shared: &Shared, body: &[u8]) -> Response {
    let req: LeaseRequest = match parse(body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let Some(gen) = &shared.gen else {
        return json_or_500(
            200,
            &LeaseResponse {
                shard: None,
                spec: None,
                done: false,
                total_shards: 0,
                remaining: 0,
            },
        );
    };
    // Only registered, live workers get leases: a worker that lost its
    // membership lease must re-register (proving it still exists) before
    // it can hold work again.
    let known = {
        let reg = shared
            .registry
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let now = reg.now_ms();
        reg.is_alive(&req.id, now)
    };
    if !known {
        return Response::error(403, "unregistered or expired worker; re-register first");
    }
    let mut leases = gen
        .leases
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let now = now_ms(shared);
    let shard = leases.lease(&req.id, now);
    let counts = leases.counts(now);
    let done = leases.is_done();
    drop(leases);
    json_or_500(
        200,
        &LeaseResponse {
            shard: shard.map(|s| s as u64),
            spec: Some(gen.spec.clone()),
            done,
            total_shards: counts.total,
            remaining: counts.total - counts.done,
        },
    )
}

fn complete(shared: &Shared, body: &[u8]) -> Response {
    let req: CompleteRequest = match parse(body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let Some(gen) = &shared.gen else {
        return Response::error(404, "no gen job configured");
    };
    let mut leases = gen
        .leases
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let ok = if req.ok {
        leases.complete(&req.id, req.shard as usize)
    } else {
        af_obs::counter("fleet.gen.shard_failures", 1);
        if let Some(e) = &req.error {
            af_obs::warn(&format!(
                "worker {} failed shard {}: {e}",
                req.id, req.shard
            ));
        }
        leases.release(&req.id, req.shard as usize)
    };
    json_or_500(200, &CompleteResponse { ok })
}

fn status(shared: &Shared) -> Response {
    let reg = shared
        .registry
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let now = reg.now_ms();
    let alive = reg.alive(now).workers.len() as u64;
    let registered = reg.registered_total();
    drop(reg);
    let gen = shared.gen.as_ref().map(|g| {
        let leases = g
            .leases
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let c = leases.counts(now_ms(shared));
        GenStatus {
            total: c.total,
            done: c.done,
            leased: c.leased,
            pending: c.pending,
            finished: c.done == c.total,
        }
    });
    json_or_500(
        200,
        &StatusResponse {
            ok: true,
            uptime_ms: shared.started.elapsed().as_millis() as u64,
            workers_alive: alive,
            workers_registered: registered,
            gen,
        },
    )
}
