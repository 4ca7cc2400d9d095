//! The fleet front: a thin HTTP proxy that spreads `/v1/*` traffic over
//! the live worker set with rendezvous hashing.
//!
//! Request affinity is the point, not just balance. The routing key is the
//! request's `(path, body)` bytes — the same bytes af-serve's tier-B
//! response cache keys on — so identical requests always land on the same
//! worker and hit *that worker's* cache. The worker ring is therefore a
//! consistent-hash tier over the per-worker response caches: adding or
//! removing one worker remaps only that worker's key share (the af-cache
//! `Ring` property), leaving every other worker's warm entries warm.
//!
//! Three af-guard policies ride on top of the plain ring:
//!
//! * **Deadline propagation** — a client `x-deadline-ms` header is parsed
//!   once into an absolute budget; the *remaining* budget is recomputed and
//!   forwarded on every upstream hop, and an already-expired request is
//!   shed with `408` before any worker is dialed.
//! * **Circuit breakers** — each worker has a rolling-outcome breaker; a
//!   tripped worker is excluded from candidate selection exactly like a
//!   worker whose lease expired, until half-open probes heal it.
//! * **Hedged requests** — idempotent `/v1/*` forwards race a delayed
//!   duplicate on the next-ranked worker once the primary has been in
//!   flight past the hedge delay, under a token-bucket budget. The winner
//!   is stamped `x-hedged` when the duplicate answered first.
//!
//! Upstream reads are bounded by the client's remaining budget when it sent
//! one; running out of it answers `408` at the front. A pooled keep-alive
//! connection the worker had already closed is redialled once, but a
//! request that may have reached the worker is never resent on the same
//! worker.
//!
//! Failures take one extra hop: if the first-ranked worker is unreachable
//! or answers 503, the front retries the second-ranked replica. Worker
//! backpressure (`429`, and a final `503`) is relayed verbatim — including
//! `Retry-After` — never converted into a bare 502. Async route jobs
//! (`POST /v1/route` → 202 + job id) get a front-global id so
//! `GET /v1/jobs/{id}` can be answered later even though job ids are
//! worker-local.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use af_cache::Ring;
use af_guard::{
    BreakerConfig, BreakerSet, BreakerStatus, Deadline, HedgeConfig, HedgeStats, Hedger,
    DEADLINE_HEADER, HEDGED_HEADER,
};
use af_serve::http::{
    is_timeout, json_or_500, HttpConn, Listener, RawResponse, Request, Response, Shutdown,
    IO_TIMEOUT,
};
use serde::{Serialize, Value};

use crate::client::get_json;
use crate::protocol::WorkersResponse;
use crate::FleetError;

/// Front settings.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Bind address (`host:port`; port 0 for ephemeral).
    pub addr: String,
    /// Coordinator address the worker set is polled from.
    pub coordinator: String,
    /// Worker-set refresh interval.
    pub refresh_ms: u64,
    /// Upper clamp on client-supplied `x-deadline-ms` budgets, in
    /// milliseconds (`0` disables the clamp).
    pub deadline_max_ms: u64,
    /// Hedged-request tuning for idempotent `/v1/*` forwards.
    pub hedge: HedgeConfig,
    /// Per-worker circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Master switch for the breakers; `false` installs an untrippable set
    /// (hedging still works — benchmark passes use exactly that split).
    pub breaker_enabled: bool,
}

impl Default for FrontConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            coordinator: String::new(),
            refresh_ms: 500,
            deadline_max_ms: 600_000,
            hedge: HedgeConfig::default(),
            breaker: BreakerConfig::default(),
            breaker_enabled: true,
        }
    }
}

/// The ring plus the id→addr map it routes to, swapped atomically on each
/// refresh so in-flight requests always see a coherent pair.
#[derive(Default)]
struct RingState {
    ring: Ring,
    addrs: HashMap<String, String>,
    model_hash: String,
}

struct FrontShared {
    coordinator: String,
    ring: RwLock<RingState>,
    /// Front-global job id → (worker id, worker-local job id).
    jobs: Mutex<HashMap<u64, (String, u64)>>,
    next_job: AtomicU64,
    shutdown: Shutdown,
    started: Instant,
    breakers: BreakerSet,
    hedger: Hedger,
    deadline_max_ms: u64,
}

/// Front constructor; see [`Front::bind`].
pub struct Front;

/// A running front.
pub struct FrontHandle {
    shared: Arc<FrontShared>,
    addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
    refresher: Option<thread::JoinHandle<()>>,
}

impl Front {
    /// Binds the front and starts the worker-set refresher. The first
    /// refresh is synchronous so a front that returns from `bind` can
    /// already route (an empty fleet still binds — requests get 503 until
    /// workers appear).
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn bind(cfg: FrontConfig) -> Result<FrontHandle, FleetError> {
        let listener = Listener::bind(&cfg.addr)?;
        let breakers = if cfg.breaker_enabled {
            BreakerSet::new(cfg.breaker.clone())
        } else {
            BreakerSet::disabled()
        };
        let shared = Arc::new(FrontShared {
            coordinator: cfg.coordinator.clone(),
            ring: RwLock::new(RingState::default()),
            jobs: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(1),
            shutdown: listener.shutdown(),
            started: Instant::now(),
            breakers,
            hedger: Hedger::new(cfg.hedge.clone()),
            deadline_max_ms: cfg.deadline_max_ms,
        });
        refresh_ring(&shared);

        let refresher = {
            let shared = Arc::clone(&shared);
            let interval = Duration::from_millis(cfg.refresh_ms.max(50));
            thread::Builder::new()
                .name("fleet-front-refresh".to_string())
                .spawn(move || {
                    while !shared.shutdown.is_triggered() {
                        thread::sleep(interval);
                        refresh_ring(&shared);
                    }
                })
                .expect("spawn front refresher")
        };
        let addr = listener.addr();
        let conn_shared = Arc::clone(&shared);
        let accept = listener.spawn_threaded("fleet-front", "fleet.front", move || {
            let shared = Arc::clone(&conn_shared);
            // Per-connection pool of keep-alive upstream connections, keyed
            // by worker address. Thread-per-connection makes this
            // contention-free.
            let mut pool = HashMap::new();
            move |req: &Request| dispatch(&shared, req, &mut pool)
        });
        Ok(FrontHandle {
            shared,
            addr,
            accept: Some(accept),
            refresher: Some(refresher),
        })
    }
}

impl FrontHandle {
    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live serve-capable workers in the current ring view.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.shared
            .ring
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .ring
            .len()
    }

    /// Hedge accounting (issued / wins / suppressed) since the front bound.
    #[must_use]
    pub fn hedge_stats(&self) -> HedgeStats {
        self.shared.hedger.stats()
    }

    /// Point-in-time breaker state for every worker this front has dialed.
    #[must_use]
    pub fn breakers(&self) -> Vec<BreakerStatus> {
        self.shared.breakers.snapshot()
    }

    /// Initiates shutdown without waiting.
    pub fn shutdown(&self) {
        self.shared.shutdown.trigger();
    }

    /// Blocks until the front shuts down — via [`shutdown`] or a
    /// `POST /v1/shutdown` — and joins the accept + refresher threads.
    ///
    /// [`shutdown`]: FrontHandle::shutdown
    pub fn join(mut self) {
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        if let Some(r) = self.refresher.take() {
            let _ = r.join();
        }
    }
}

/// Polls the coordinator and rebuilds the ring from live, serve-capable,
/// non-skewed workers. A poll failure keeps the previous view — a stale
/// ring routes traffic better than an empty one while the coordinator
/// restarts.
fn refresh_ring(shared: &FrontShared) {
    let resp: Result<WorkersResponse, FleetError> = get_json(&shared.coordinator, "/fleet/workers");
    let Ok(view) = resp else {
        af_obs::counter("fleet.front.refresh_failures", 1);
        return;
    };
    let eligible: Vec<_> = view
        .workers
        .iter()
        .filter(|w| w.caps.serve && !w.skew && !w.addr.is_empty())
        .collect();
    let next = RingState {
        ring: Ring::new(eligible.iter().map(|w| w.id.as_str())),
        addrs: eligible
            .iter()
            .map(|w| (w.id.clone(), w.addr.clone()))
            .collect(),
        model_hash: view.model_hash,
    };
    af_obs::gauge("fleet.front.ring_size", next.ring.len() as f64);
    *shared
        .ring
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = next;
}

/// One worker's breaker as reported by `GET /healthz`.
#[derive(Debug, Clone, Serialize)]
struct BreakerHealth {
    worker: String,
    state: String,
    opened: u64,
}

/// `GET /healthz` reply of a front.
#[derive(Debug, Clone, Serialize)]
struct FrontHealth {
    ok: bool,
    role: String,
    uptime_ms: u64,
    workers: u64,
    model_hash: String,
    build: String,
    breakers: Vec<BreakerHealth>,
}

fn dispatch(shared: &FrontShared, req: &Request, pool: &mut HashMap<String, HttpConn>) -> Response {
    // The deadline gate runs before routing: a malformed budget is the
    // client's bug (400), an expired one is shed here without dialing any
    // worker (408) — that is the whole point of propagating deadlines.
    let deadline = match req.header(DEADLINE_HEADER) {
        Some(raw) => match Deadline::parse(raw, shared.deadline_max_ms) {
            Ok(d) => Some(d),
            Err(e) => return Response::error(400, &e.to_string()),
        },
        None => None,
    };
    if deadline.is_some_and(|d| d.expired()) {
        af_guard::shed("front");
        return Response::error(408, "request deadline already expired");
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let (workers, model_hash) = {
                let r = shared
                    .ring
                    .read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                (r.ring.len() as u64, r.model_hash.clone())
            };
            json_or_500(
                200,
                &FrontHealth {
                    ok: true,
                    role: "front".to_string(),
                    uptime_ms: shared.started.elapsed().as_millis() as u64,
                    workers,
                    model_hash,
                    build: env!("CARGO_PKG_VERSION").to_string(),
                    breakers: shared
                        .breakers
                        .snapshot()
                        .into_iter()
                        .map(|b| BreakerHealth {
                            worker: b.worker,
                            state: b.state,
                            opened: b.opened,
                        })
                        .collect(),
                },
            )
        }
        ("GET", "/metrics") => Response::text(200, &af_serve::metrics::render_metrics()),
        ("POST", "/v1/shutdown") => {
            shared.shutdown.trigger();
            Response::json(200, "{\"ok\":true}".to_string()).with_close()
        }
        ("POST", "/v1/route") => submit_job(shared, req, pool, deadline),
        ("GET", path) if path.starts_with("/v1/jobs/") => job_status(shared, path, pool, deadline),
        ("POST", path) if path.starts_with("/v1/") => forward_hashed(shared, req, pool, deadline),
        _ => Response::error(404, "no such endpoint"),
    }
}

/// The full rendezvous ranking for a request key, as (id, addr) pairs.
fn candidates(shared: &FrontShared, key: &[u8]) -> Vec<(String, String)> {
    let state = shared
        .ring
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let n = state.ring.len();
    state
        .ring
        .ranked(key, n)
        .into_iter()
        .filter_map(|id| {
            state
                .addrs
                .get(id)
                .map(|addr| (id.to_string(), addr.clone()))
        })
        .collect()
}

/// The primary and failover workers for `req`, ranked by its `(path,
/// body)` bytes, or a 503 when the ring is empty.
fn targets(shared: &FrontShared, req: &Request) -> Result<Vec<(String, String)>, Response> {
    let ranked = candidates(shared, &[req.path.as_bytes(), &[0], &req.body].concat());
    if ranked.is_empty() {
        return Err(Response::error(503, "no live workers in the fleet"));
    }
    Ok(routable(shared, ranked))
}

/// Filters a ranking through the per-worker breakers and keeps the primary
/// plus one failover replica. When every candidate is tripped the raw
/// ranking is used instead — failing open beats returning 503 for a
/// condition the breakers will heal on their own (a permitted call doubles
/// as the half-open probe, so simply trying is what heals them).
fn routable(shared: &FrontShared, ranked: Vec<(String, String)>) -> Vec<(String, String)> {
    let allowed: Vec<(String, String)> = ranked
        .iter()
        .filter(|(id, _)| shared.breakers.allow(id))
        .cloned()
        .collect();
    if allowed.is_empty() && !ranked.is_empty() {
        af_obs::counter("fleet.front.breaker_bypass", 1);
        return ranked.into_iter().take(2).collect();
    }
    if allowed.len() < ranked.len() {
        af_obs::counter(
            "fleet.front.breaker_skips",
            (ranked.len() - allowed.len()) as u64,
        );
    }
    allowed.into_iter().take(2).collect()
}

/// The upstream headers and read timeout of one exchange, computed at
/// this instant from the client's *remaining* budget: a worker always sees
/// a strictly smaller deadline than the front did (monotone shrink across
/// hops), and the front waits for the worker no longer than the client
/// waits for the front.
fn budget(deadline: Option<&Deadline>) -> (Vec<(String, String)>, Duration) {
    match deadline {
        Some(d) => (
            vec![(DEADLINE_HEADER.to_string(), d.header_value())],
            d.remaining().max(Duration::from_millis(1)),
        ),
        None => (Vec::new(), IO_TIMEOUT),
    }
}

/// One exchange on a possibly pooled connection. A pooled connection the
/// worker had already closed — `NotConnected`, see [`HttpConn::call`] — is
/// redialled once. Any other failure, a timeout above all, may come after
/// the worker received the request and is returned as is: the caller's
/// replica logic handles it. Returns the connection when it is still
/// reusable.
fn call_once(
    conn: Option<HttpConn>,
    addr: &str,
    req: &Request,
    deadline: Option<Deadline>,
) -> (std::io::Result<RawResponse>, Option<HttpConn>) {
    let exchange = |mut c: HttpConn| {
        let (extra, timeout) = budget(deadline.as_ref());
        match c
            .set_read_timeout(timeout)
            .and_then(|()| c.call(&req.method, &req.path, &extra, &req.body))
        {
            Ok(resp) => {
                let keep = !resp.close;
                (Ok(resp), keep.then_some(c))
            }
            Err(e) => (Err(e), None),
        }
    };
    if let Some(c) = conn {
        match exchange(c) {
            (Err(e), _) if e.kind() == std::io::ErrorKind::NotConnected => {}
            done => return done,
        }
    }
    match HttpConn::connect(addr) {
        Ok(c) => exchange(c),
        Err(e) => (Err(e), None),
    }
}

/// Sends `req` to `addr`, reusing a pooled keep-alive connection when one
/// exists.
fn send_to(
    pool: &mut HashMap<String, HttpConn>,
    addr: &str,
    req: &Request,
    deadline: Option<Deadline>,
) -> std::io::Result<RawResponse> {
    let (result, conn) = call_once(pool.remove(addr), addr, req, deadline);
    if let Some(c) = conn {
        pool.insert(addr.to_string(), c);
    }
    result
}

/// Whether an upstream failure is the client's own budget running out:
/// with a deadline, the read timeout *is* the remaining budget.
fn out_of_budget(deadline: Option<Deadline>, e: &std::io::Error) -> bool {
    deadline.is_some() && is_timeout(e)
}

/// `408` for a request whose budget ran out at the front, counted as
/// `guard.deadline_expired.front` and never held against a worker.
fn expired_at_front() -> Response {
    af_guard::shed("front");
    Response::error(408, "request deadline expired at the front")
}

/// One leg of a hedged exchange: leg index, exchange result, the reusable
/// connection (if any), and the address it belongs to.
type LegOutcome = (
    usize,
    std::io::Result<RawResponse>,
    Option<HttpConn>,
    String,
);

/// Races `primary` against a delayed duplicate on `secondary`. The
/// primary's pooled connection (if any) moves into its leg thread and
/// comes back through the channel on a clean exchange; a losing leg is
/// abandoned — its thread finishes into a dropped receiver and its
/// connection is dropped with it, never returned to the pool.
///
/// Returns `(winner id, result, hedged)` where `hedged` means the
/// duplicate produced the winning response.
fn hedged_send(
    shared: &FrontShared,
    req: &Request,
    pool: &mut HashMap<String, HttpConn>,
    primary: &(String, String),
    secondary: &(String, String),
    deadline: Option<Deadline>,
) -> (String, std::io::Result<RawResponse>, bool) {
    let (tx, rx) = mpsc::channel::<LegOutcome>();
    let spawn_leg =
        |idx: usize, addr: String, conn: Option<HttpConn>, tx: mpsc::Sender<LegOutcome>| {
            let req = req.clone();
            let _ = thread::Builder::new()
                .name("fleet-front-hedge".to_string())
                .spawn(move || {
                    let (result, conn) = call_once(conn, &addr, &req, deadline);
                    let _ = tx.send((idx, result, conn, addr));
                });
        };
    spawn_leg(0, primary.1.clone(), pool.remove(&primary.1), tx.clone());
    let delay = shared.hedger.delay();
    let (idx, result, conn, addr) = match rx.recv_timeout(delay) {
        Ok(outcome) => outcome,
        Err(_) => {
            // The primary has been in flight past the hedge delay. That is
            // the breaker's slow signal — recorded here, unconditionally,
            // because an abandoned loser never reports back — and, budget
            // permitting, the cue to race the duplicate.
            shared
                .breakers
                .record(&primary.0, false, delay.as_secs_f64() * 1e3);
            if shared.hedger.try_hedge() {
                spawn_leg(
                    1,
                    secondary.1.clone(),
                    pool.remove(&secondary.1),
                    tx.clone(),
                );
            }
            drop(tx);
            // First clean response wins; an errored leg defers to the
            // other while it is still running.
            let mut errored: Option<LegOutcome> = None;
            loop {
                match rx.recv() {
                    Ok(o) if o.1.is_ok() => break o,
                    Ok(o) => errored = Some(o),
                    Err(_) => match errored.take() {
                        Some(o) => break o,
                        None => {
                            break (
                                0,
                                Err(std::io::Error::other("hedge legs vanished")),
                                None,
                                primary.1.clone(),
                            )
                        }
                    },
                }
            }
        }
    };
    if result.is_ok() {
        if let Some(c) = conn {
            pool.insert(addr, c);
        }
    }
    let hedged = idx == 1;
    if hedged && result.is_ok() {
        shared.hedger.record_win();
    }
    let winner = if hedged { &secondary.0 } else { &primary.0 };
    (winner.clone(), result, hedged)
}

/// Converts an upstream response into a downstream one, relaying status,
/// body, cache markers, and stamping which worker answered.
fn relay(upstream: RawResponse, worker: &str) -> Response {
    let body = upstream.text().into_owned();
    let text_type = upstream
        .header("content-type")
        .is_some_and(|t| t.starts_with("text/"));
    let mut resp = if text_type {
        Response::text(upstream.status, &body)
    } else {
        Response::json(upstream.status, body)
    };
    if let Some(v) = upstream.header("x-cache") {
        resp = resp.with_header("x-cache", v.to_string());
    }
    if let Some(v) = upstream.header("retry-after") {
        resp = resp.with_header("retry-after", v.to_string());
    }
    resp.with_header("x-fleet-worker", worker.to_string())
}

/// Routes a cacheable `/v1/*` request by content key with one replica
/// retry and optional hedging.
///
/// 503 from the winner (shutting down) fails over; `429` is backpressure
/// and is relayed verbatim — `Retry-After` intact — because the replica
/// would only melt too. When every candidate sheds with 503 the *last 503
/// itself* is relayed (again `Retry-After` intact) rather than a bare 502;
/// 502 is reserved for "nothing even answered".
fn forward_hashed(
    shared: &FrontShared,
    req: &Request,
    pool: &mut HashMap<String, HttpConn>,
    deadline: Option<Deadline>,
) -> Response {
    let targets = match targets(shared, req) {
        Ok(targets) => targets,
        Err(resp) => return resp,
    };
    let mut backpressure: Option<(RawResponse, String)> = None;
    for (i, (id, addr)) in targets.iter().enumerate() {
        if deadline.is_some_and(|d| d.expired()) {
            return expired_at_front();
        }
        let start = Instant::now();
        let (winner, result, hedged) = if i == 0 && shared.hedger.enabled() && targets.len() > 1 {
            hedged_send(shared, req, pool, &targets[0], &targets[1], deadline)
        } else {
            (id.clone(), send_to(pool, addr, req, deadline), false)
        };
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(resp) => {
                shared
                    .breakers
                    .record(&winner, resp.status < 500, latency_ms);
                if resp.status == 429 {
                    return relay(resp, &winner);
                }
                if resp.status == 503 {
                    if i + 1 < targets.len() {
                        af_obs::counter("fleet.front.failovers", 1);
                    }
                    backpressure = Some((resp, winner));
                    continue;
                }
                shared.hedger.observe(latency_ms);
                if i > 0 {
                    af_obs::counter("fleet.front.replica_hits", 1);
                }
                let mut out = relay(resp, &winner);
                if hedged {
                    out = out.with_header(HEDGED_HEADER, "1".to_string());
                }
                return out;
            }
            Err(e) if out_of_budget(deadline, &e) => return expired_at_front(),
            Err(_) => {
                shared.breakers.record(&winner, false, latency_ms);
                af_obs::counter("fleet.front.worker_errors", 1);
            }
        }
    }
    match backpressure {
        Some((resp, id)) => relay(resp, &id),
        None => Response::error(502, "all replicas for this key are unreachable"),
    }
}

/// `POST /v1/route`: forward like any hashed request, but when the worker
/// answers 202 with a worker-local job id, allocate a front-global id and
/// remember the mapping so the job can be polled through this front. Job
/// submission is *not* idempotent, so it is never hedged — a duplicate
/// would enqueue the route twice.
fn submit_job(
    shared: &FrontShared,
    req: &Request,
    pool: &mut HashMap<String, HttpConn>,
    deadline: Option<Deadline>,
) -> Response {
    let targets = match targets(shared, req) {
        Ok(targets) => targets,
        Err(resp) => return resp,
    };
    let mut backpressure: Option<(RawResponse, String)> = None;
    for (id, addr) in &targets {
        if deadline.is_some_and(|d| d.expired()) {
            return expired_at_front();
        }
        let start = Instant::now();
        let result = send_to(pool, addr, req, deadline);
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(resp) if resp.status == 202 => {
                shared.breakers.record(id, true, latency_ms);
                return match rewrite_job_id(shared, id, &resp.body) {
                    Some(body) => relay(
                        RawResponse {
                            body: body.into_bytes(),
                            ..resp
                        },
                        id,
                    ),
                    None => Response::error(502, "worker returned an unintelligible job ticket"),
                };
            }
            Ok(resp) if resp.status == 503 => {
                shared.breakers.record(id, true, latency_ms);
                af_obs::counter("fleet.front.failovers", 1);
                backpressure = Some((resp, id.clone()));
            }
            Ok(resp) => {
                shared.breakers.record(id, resp.status < 500, latency_ms);
                return relay(resp, id);
            }
            Err(e) if out_of_budget(deadline, &e) => return expired_at_front(),
            Err(_) => {
                shared.breakers.record(id, false, latency_ms);
                af_obs::counter("fleet.front.worker_errors", 1);
            }
        }
    }
    match backpressure {
        Some((resp, id)) => relay(resp, &id),
        None => Response::error(502, "all replicas for this key are unreachable"),
    }
}

/// Swaps the worker-local `id` in a 202 body for a freshly allocated
/// front-global one and records the mapping.
fn rewrite_job_id(shared: &FrontShared, worker: &str, body: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(body).ok()?;
    let mut value = serde_json::value_from_str(text).ok()?;
    let local = match value.get("id") {
        Some(Value::UInt(u)) => *u,
        Some(Value::Int(i)) if *i >= 0 => *i as u64,
        _ => return None,
    };
    let global = shared.next_job.fetch_add(1, Ordering::Relaxed);
    shared
        .jobs
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .insert(global, (worker.to_string(), local));
    af_obs::counter("fleet.front.jobs_mapped", 1);
    if let Value::Map(pairs) = &mut value {
        for (k, v) in pairs.iter_mut() {
            if k == "id" {
                *v = Value::UInt(global);
            }
        }
    }
    serde_json::to_string(&value).ok()
}

/// `GET /v1/jobs/{global}`: translate back to the owning worker's local id
/// and proxy the poll there. Job state is worker-resident, so there is no
/// replica to fail over to — a dead worker means the job is gone (410).
fn job_status(
    shared: &FrontShared,
    path: &str,
    pool: &mut HashMap<String, HttpConn>,
    deadline: Option<Deadline>,
) -> Response {
    let id_text = &path["/v1/jobs/".len()..];
    let Ok(global) = id_text.parse::<u64>() else {
        return Response::error(400, &format!("bad job id {id_text:?}"));
    };
    let Some((worker, local)) = shared
        .jobs
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .get(&global)
        .cloned()
    else {
        return Response::error(404, &format!("no job {global}"));
    };
    let addr = {
        let state = shared
            .ring
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.addrs.get(&worker).cloned()
    };
    let Some(addr) = addr else {
        return Response::error(
            410,
            &format!("worker {worker} holding job {global} is gone"),
        );
    };
    let upstream = Request {
        method: "GET".to_string(),
        path: format!("/v1/jobs/{local}"),
        headers: Vec::new(),
        body: Vec::new(),
    };
    match send_to(pool, &addr, &upstream, deadline) {
        Ok(resp) => relay(resp, &worker),
        Err(e) if out_of_budget(deadline, &e) => expired_at_front(),
        Err(_) => Response::error(502, &format!("worker {worker} unreachable")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_guard::parse_header_ms;
    use std::sync::atomic::AtomicUsize;

    fn shared_with(breakers: BreakerSet, hedger: Hedger) -> FrontShared {
        FrontShared {
            coordinator: String::new(),
            ring: RwLock::new(RingState::default()),
            jobs: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(1),
            shutdown: Listener::bind("127.0.0.1:0").unwrap().shutdown(),
            started: Instant::now(),
            breakers,
            hedger,
            deadline_max_ms: 0,
        }
    }

    fn shared_for_test() -> FrontShared {
        shared_with(BreakerSet::disabled(), Hedger::off())
    }

    fn set_ring(shared: &FrontShared, workers: &[(&str, &str)]) {
        let mut state = shared.ring.write().unwrap();
        state.ring = Ring::new(workers.iter().map(|(id, _)| *id));
        state.addrs = workers
            .iter()
            .map(|(id, addr)| ((*id).to_string(), (*addr).to_string()))
            .collect();
    }

    /// A minimal keep-alive mock worker: answers every request through
    /// `behavior` until the test process exits.
    fn spawn_mock(behavior: impl Fn(&Request) -> Response + Send + Sync + 'static) -> String {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.addr().to_string();
        let behavior = Arc::new(behavior);
        listener.spawn_threaded("mock", "mock", move || {
            let behavior = Arc::clone(&behavior);
            move |req: &Request| behavior(req)
        });
        addr
    }

    fn post(path: &str, body: &[u8]) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.to_vec(),
        }
    }

    fn header(resp: &Response, name: &str) -> Option<String> {
        resp.extra_headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
    }

    #[test]
    fn job_id_rewrite_allocates_and_maps() {
        let shared = shared_for_test();
        let out = rewrite_job_id(&shared, "w7", br#"{"id":3,"status":"queued"}"#).unwrap();
        assert!(out.contains("\"id\":1"), "{out}");
        assert!(out.contains("queued"));
        let jobs = shared.jobs.lock().unwrap();
        assert_eq!(jobs.get(&1), Some(&("w7".to_string(), 3)));
    }

    #[test]
    fn job_id_rewrite_rejects_garbage() {
        let shared = shared_for_test();
        assert!(rewrite_job_id(&shared, "w", b"not json").is_none());
        assert!(rewrite_job_id(&shared, "w", br#"{"status":"queued"}"#).is_none());
        assert!(rewrite_job_id(&shared, "w", br#"{"id":"three"}"#).is_none());
    }

    #[test]
    fn candidates_follow_ring_membership() {
        let shared = shared_for_test();
        set_ring(
            &shared,
            &[
                ("w1", "127.0.0.1:1"),
                ("w2", "127.0.0.1:2"),
                ("w3", "127.0.0.1:3"),
            ],
        );
        let c = candidates(&shared, b"some-key");
        assert_eq!(c.len(), 3, "full ranking over the ring");
        assert_ne!(c[0].0, c[1].0, "winner and replica differ");
        // A worker whose addr vanished is skipped rather than dialed blind.
        shared.ring.write().unwrap().addrs.remove(&c[0].0);
        let c2 = candidates(&shared, b"some-key");
        assert_eq!(c2.len(), 2);
    }

    #[test]
    fn routable_excludes_tripped_worker_and_fails_open() {
        let cfg = BreakerConfig {
            window: 4,
            min_samples: 2,
            failure_ratio: 0.5,
            open_ms: 60_000,
            ..BreakerConfig::default()
        };
        let shared = shared_with(BreakerSet::new(cfg), Hedger::off());
        set_ring(&shared, &[("w1", "127.0.0.1:1"), ("w2", "127.0.0.1:2")]);
        let ranked = candidates(&shared, b"k");
        let primary = ranked[0].0.clone();
        for _ in 0..4 {
            shared.breakers.record(&primary, false, 1.0);
        }
        let t = routable(&shared, candidates(&shared, b"k"));
        assert_eq!(t.len(), 1, "tripped primary excluded");
        assert_ne!(t[0].0, primary);
        // Trip the other one too: the front fails open to the raw ranking.
        let other = t[0].0.clone();
        for _ in 0..4 {
            shared.breakers.record(&other, false, 1.0);
        }
        let t = routable(&shared, candidates(&shared, b"k"));
        assert_eq!(t.len(), 2, "fully tripped ring falls back to ranking");
    }

    #[test]
    fn backpressure_429_is_relayed_verbatim_with_retry_after() {
        let addr = spawn_mock(|_req| {
            Response::error(429, "queue full").with_header("retry-after", "7".to_string())
        });
        let shared = shared_for_test();
        set_ring(&shared, &[("w1", addr.as_str())]);
        let mut pool = HashMap::new();
        let resp = forward_hashed(&shared, &post("/v1/predict", b"{}"), &mut pool, None);
        assert_eq!(resp.status, 429);
        assert_eq!(header(&resp, "retry-after").as_deref(), Some("7"));
        assert_eq!(header(&resp, "x-fleet-worker").as_deref(), Some("w1"));
    }

    #[test]
    fn exhausted_failover_relays_last_503_not_bare_502() {
        let mk = || {
            spawn_mock(|_req| {
                Response::error(503, "shutting down").with_header("retry-after", "3".to_string())
            })
        };
        let (a1, a2) = (mk(), mk());
        let shared = shared_for_test();
        set_ring(&shared, &[("w1", a1.as_str()), ("w2", a2.as_str())]);
        let mut pool = HashMap::new();
        let resp = forward_hashed(&shared, &post("/v1/predict", b"{}"), &mut pool, None);
        assert_eq!(resp.status, 503, "503 relayed, not synthesized 502");
        assert_eq!(header(&resp, "retry-after").as_deref(), Some("3"));
    }

    #[test]
    fn forwarded_deadline_budget_shrinks_monotonically() {
        // The mock echoes the x-deadline-ms it received back in the body.
        let addr = spawn_mock(|req| {
            let got = req.header(DEADLINE_HEADER).unwrap_or("none").to_string();
            Response::json(200, format!("{{\"got\":\"{got}\"}}"))
        });
        let shared = shared_for_test();
        set_ring(&shared, &[("w1", addr.as_str())]);
        let mut pool = HashMap::new();
        let deadline = Deadline::after(5_000);
        let resp = forward_hashed(
            &shared,
            &post("/v1/predict", b"{}"),
            &mut pool,
            Some(deadline),
        );
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body.clone()).unwrap();
        let echoed: u64 = body
            .split('"')
            .nth(3)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no echoed budget in {body}"));
        assert!(echoed <= 5_000, "forwarded budget {echoed} above original");
        assert!(
            echoed > 4_000,
            "forwarded budget {echoed} implausibly small"
        );
        assert!(parse_header_ms(&deadline.header_value(), 0, 0).is_ok());
    }

    #[test]
    fn expired_deadline_sheds_before_dialing() {
        // No mock worker at all: if the front tried to dial, it would 502.
        let shared = shared_for_test();
        set_ring(&shared, &[("w1", "127.0.0.1:1")]);
        let mut pool = HashMap::new();
        let resp = forward_hashed(
            &shared,
            &post("/v1/predict", b"{}"),
            &mut pool,
            Some(Deadline::after(0)),
        );
        assert_eq!(resp.status, 408);
    }

    #[test]
    fn deadline_bounds_a_slow_worker_without_resending() {
        let seen = Arc::new(AtomicUsize::new(0));
        let addr = {
            let seen = Arc::clone(&seen);
            spawn_mock(move |_req| {
                // The first request warms the pool; the second outlasts the
                // client's budget.
                if seen.fetch_add(1, Ordering::SeqCst) > 0 {
                    thread::sleep(Duration::from_millis(700));
                }
                Response::json(200, "{}".to_string())
            })
        };
        let shared = shared_for_test();
        set_ring(&shared, &[("w1", addr.as_str())]);
        let mut pool = HashMap::new();
        let warm = forward_hashed(&shared, &post("/v1/predict", b"{}"), &mut pool, None);
        assert_eq!(warm.status, 200);
        assert!(
            pool.contains_key(&addr),
            "the exchange left a warm connection"
        );

        let start = Instant::now();
        let resp = forward_hashed(
            &shared,
            &post("/v1/predict", b"{}"),
            &mut pool,
            Some(Deadline::after(200)),
        );
        let waited = start.elapsed();
        assert_eq!(resp.status, 408, "{}", String::from_utf8_lossy(&resp.body));
        assert!(
            waited < Duration::from_millis(500),
            "answered {waited:?} after a 200 ms budget"
        );
        thread::sleep(Duration::from_millis(900));
        assert_eq!(
            seen.load(Ordering::SeqCst),
            2,
            "the slow request must reach the worker exactly once"
        );
    }

    #[test]
    fn hedge_wins_against_slow_primary() {
        let slow = spawn_mock(|_req| {
            thread::sleep(Duration::from_millis(300));
            Response::json(200, "{\"from\":\"slow\"}".to_string())
        });
        let fast = spawn_mock(|_req| Response::json(200, "{\"from\":\"fast\"}".to_string()));
        let hedger = Hedger::new(HedgeConfig {
            delay_ms: 15,
            seed: 1,
            ..HedgeConfig::default()
        });
        let shared = shared_with(BreakerSet::disabled(), hedger);
        set_ring(&shared, &[("w1", slow.as_str()), ("w2", fast.as_str())]);
        // Find a key whose rendezvous primary is the slow worker.
        let mut body = Vec::new();
        for i in 0..64u32 {
            let candidate = format!("{{\"n\":{i}}}").into_bytes();
            if targets(&shared, &post("/v1/predict", &candidate)).unwrap()[0].0 == "w1" {
                body = candidate;
                break;
            }
        }
        assert!(!body.is_empty(), "no key ranked the slow worker first");
        let mut pool = HashMap::new();
        let resp = forward_hashed(&shared, &post("/v1/predict", &body), &mut pool, None);
        assert_eq!(resp.status, 200);
        assert_eq!(
            String::from_utf8_lossy(&resp.body),
            "{\"from\":\"fast\"}",
            "duplicate on the fast replica should win"
        );
        assert_eq!(header(&resp, HEDGED_HEADER).as_deref(), Some("1"));
        assert_eq!(header(&resp, "x-fleet-worker").as_deref(), Some("w2"));
        let stats = shared.hedger.stats();
        assert_eq!(stats.issued, 1);
        assert_eq!(stats.wins, 1);
    }
}
