//! Fleet calls over af-serve's HTTP client: one-shot JSON helpers, and
//! the worker's background registration/heartbeat agent.
//!
//! The client itself — [`HttpConn`](af_serve::http::HttpConn),
//! [`RawResponse`] and the response reader — lives in
//! [`af_serve::http`] next to the request parser it shares its header
//! reader and limits with.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use af_serve::http::{self, RawResponse};
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::protocol::{
    HeartbeatRequest, HeartbeatResponse, MetricSample, RegisterRequest, RegisterResponse,
    WorkerCaps, PROTOCOL_VERSION,
};
use crate::FleetError;

/// One-shot JSON POST on a fresh connection.
///
/// # Errors
///
/// Transport failures, non-2xx statuses, and undecodable bodies.
pub fn post_json<Req: Serialize, Resp: DeserializeOwned>(
    addr: &str,
    path: &str,
    req: &Req,
) -> Result<Resp, FleetError> {
    let body = serde_json::to_string(req)
        .map_err(|e| FleetError::Protocol(format!("encode {path}: {e}")))?;
    decode(http::request(addr, "POST", path, &[], body.as_bytes())?)
}

/// One-shot JSON GET on a fresh connection.
///
/// # Errors
///
/// Transport failures, non-2xx statuses, and undecodable bodies.
pub fn get_json<Resp: DeserializeOwned>(addr: &str, path: &str) -> Result<Resp, FleetError> {
    decode(http::request(addr, "GET", path, &[], b"")?)
}

fn decode<Resp: DeserializeOwned>(resp: RawResponse) -> Result<Resp, FleetError> {
    if !(200..300).contains(&resp.status) {
        return Err(FleetError::Status(resp.status, resp.text().into_owned()));
    }
    resp.json().map_err(FleetError::Protocol)
}

/// What the [`WorkerAgent`] announces about its worker.
#[derive(Debug, Clone)]
pub struct WorkerIdentity {
    /// Fleet-unique worker id.
    pub id: String,
    /// Serve endpoint (`host:port`), empty for gen-only workers.
    pub addr: String,
    /// Capabilities.
    pub caps: WorkerCaps,
    /// Model content hash (empty without a model).
    pub model_hash: String,
    /// Expected guidance length (0 without a model).
    pub guidance_len: u64,
}

/// Shared closure returning the live resident model hash (see
/// [`ModelHooks::resident_hash`]).
pub type ResidentHashFn = Arc<dyn Fn() -> String + Send + Sync>;

/// Shared closure invoked with the canonical hash on a promotion signal
/// (see [`ModelHooks::on_promote`]).
pub type PromoteFn = Arc<dyn Fn(&str) + Send + Sync>;

/// Callbacks linking a [`WorkerAgent`] to its model runtime, so fleet-wide
/// promotions propagate through ordinary heartbeats.
#[derive(Clone, Default)]
pub struct ModelHooks {
    /// Returns the worker's *current* resident model hash. Unlike the
    /// static [`WorkerIdentity::model_hash`] snapshot, this tracks
    /// hot-swaps — each heartbeat reports the live value, so the
    /// coordinator's skew view converges after a local promotion.
    pub resident_hash: Option<ResidentHashFn>,
    /// Invoked (off the serving path, on the agent thread) when a
    /// heartbeat echoes a canonical hash that differs from the resident
    /// one. The callback should converge — typically load that model from
    /// the shared registry and hot-swap the server slot — and may fail
    /// silently; the agent re-signals on every subsequent heartbeat until
    /// the hashes match.
    pub on_promote: Option<PromoteFn>,
}

impl std::fmt::Debug for ModelHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelHooks")
            .field("resident_hash", &self.resident_hash.is_some())
            .field("on_promote", &self.on_promote.is_some())
            .finish()
    }
}

/// Background thread keeping one worker registered and heartbeating.
///
/// Registration retries until the coordinator answers, then heartbeats at
/// a third of the granted lease. An `unknown` heartbeat reply (coordinator
/// restarted) triggers transparent re-registration. The load figure is
/// requests/s computed from the worker's own `serve.requests` counter
/// between heartbeats; a small metric snapshot rides along for the
/// coordinator's aggregated `/metrics`.
pub struct WorkerAgent {
    stop: Arc<AtomicBool>,
    active_shard: Arc<AtomicU64>,
    thread: Option<thread::JoinHandle<()>>,
}

/// Sentinel for "no active gen shard" in the shared atomic.
const NO_SHARD: u64 = u64::MAX;

/// Worker-local af-obs counters pushed with each heartbeat.
const PUSHED_COUNTERS: [&str; 3] = ["serve.requests", "cache.serve.hits", "cache.serve.misses"];

fn counter_value(name: &str) -> f64 {
    af_obs::with_registry(|r| {
        r.counter_snapshot()
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    })
    .unwrap_or(0.0)
}

impl WorkerAgent {
    /// Starts the agent. Returns immediately; registration happens on the
    /// background thread so a worker can come up before its coordinator.
    #[must_use]
    pub fn start(coordinator: &str, identity: WorkerIdentity) -> Self {
        Self::start_with_hooks(coordinator, identity, ModelHooks::default())
    }

    /// [`start`](WorkerAgent::start) plus [`ModelHooks`], for workers that
    /// can hot-swap their resident model and want fleet promotions to
    /// reach them through heartbeats.
    #[must_use]
    pub fn start_with_hooks(
        coordinator: &str,
        identity: WorkerIdentity,
        hooks: ModelHooks,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let active_shard = Arc::new(AtomicU64::new(NO_SHARD));
        let coordinator = coordinator.to_string();
        let thread = {
            let stop = Arc::clone(&stop);
            let active_shard = Arc::clone(&active_shard);
            thread::Builder::new()
                .name(format!("fleet-agent-{}", identity.id))
                .spawn(move || agent_loop(&coordinator, &identity, &hooks, &stop, &active_shard))
                .expect("spawn fleet agent")
        };
        Self {
            stop,
            active_shard,
            thread: Some(thread),
        }
    }

    /// Marks `shard` as this worker's active gen lease (renewed with every
    /// heartbeat), or clears it with `None`.
    pub fn set_active_shard(&self, shard: Option<u64>) {
        self.active_shard
            .store(shard.unwrap_or(NO_SHARD), Ordering::Relaxed);
    }

    /// Stops heartbeating and joins the thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WorkerAgent {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn register_until_accepted(
    coordinator: &str,
    identity: &WorkerIdentity,
    stop: &AtomicBool,
) -> Option<u64> {
    let req = RegisterRequest {
        id: identity.id.clone(),
        addr: identity.addr.clone(),
        caps: identity.caps,
        model_hash: identity.model_hash.clone(),
        guidance_len: identity.guidance_len,
        protocol: PROTOCOL_VERSION,
    };
    loop {
        if stop.load(Ordering::Relaxed) {
            return None;
        }
        match post_json::<_, RegisterResponse>(coordinator, "/fleet/register", &req) {
            Ok(resp) if resp.ok => {
                af_obs::counter("fleet.agent.registered", 1);
                if resp.skew {
                    af_obs::warn(&format!(
                        "worker {} registered with model-hash skew: fronts will route around it",
                        identity.id
                    ));
                }
                return Some(resp.lease_ms.max(100));
            }
            Ok(resp) => {
                // A semantic rejection (protocol mismatch, bad id) will
                // not fix itself by retrying; give up loudly.
                af_obs::warn(&format!(
                    "worker {} registration rejected: {}",
                    identity.id, resp.message
                ));
                return None;
            }
            Err(_) => {
                af_obs::counter("fleet.agent.register_retries", 1);
                thread::sleep(Duration::from_millis(200));
            }
        }
    }
}

fn agent_loop(
    coordinator: &str,
    identity: &WorkerIdentity,
    hooks: &ModelHooks,
    stop: &AtomicBool,
    active_shard: &AtomicU64,
) {
    let Some(mut lease_ms) = register_until_accepted(coordinator, identity, stop) else {
        return;
    };
    let mut last_requests = counter_value("serve.requests");
    loop {
        // Heartbeat at a third of the lease so two misses still survive.
        let interval = Duration::from_millis((lease_ms / 3).max(50));
        thread::sleep(interval);
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let requests = counter_value("serve.requests");
        let load = (requests - last_requests).max(0.0) / interval.as_secs_f64();
        last_requests = requests;
        let shard = active_shard.load(Ordering::Relaxed);
        let resident = hooks
            .resident_hash
            .as_ref()
            .map_or_else(|| identity.model_hash.clone(), |f| f());
        let req = HeartbeatRequest {
            id: identity.id.clone(),
            load,
            metrics: PUSHED_COUNTERS
                .iter()
                .map(|name| MetricSample {
                    name: (*name).to_string(),
                    value: counter_value(name),
                })
                .collect(),
            active_shard: (shard != NO_SHARD).then_some(shard),
            model_hash: (!resident.is_empty()).then(|| resident.clone()),
        };
        match post_json::<_, HeartbeatResponse>(coordinator, "/fleet/heartbeat", &req) {
            Ok(resp) if resp.known => {
                lease_ms = resp.lease_ms.max(100);
                if let (Some(canonical), Some(promote)) = (&resp.model_hash, &hooks.on_promote) {
                    if !canonical.is_empty() && !resident.is_empty() && *canonical != resident {
                        af_obs::counter("fleet.agent.promote_signals", 1);
                        promote(canonical);
                    }
                }
            }
            Ok(_) => {
                // Coordinator restarted and lost us: re-register.
                af_obs::counter("fleet.agent.reregistrations", 1);
                match register_until_accepted(coordinator, identity, stop) {
                    Some(l) => lease_ms = l,
                    None => return,
                }
            }
            Err(_) => {
                af_obs::counter("fleet.agent.heartbeat_failures", 1);
            }
        }
    }
}
