//! Closed-loop load generator for `af-serve`: starts an in-process server
//! with a resident model and hammers `POST /v1/predict` from keep-alive
//! client connections, then writes `BENCH_serve.json` with throughput and
//! latency percentiles.
//!
//! Closed-loop means each client sends its next request only after the
//! previous response arrives, so the offered load adapts to the server
//! instead of overrunning it — the numbers measure serving capacity, not
//! queue overflow behaviour (the e2e suite covers shedding).
//!
//! Every client sends the same body, so with the response cache enabled
//! (the default) all but the very first request are served from cache and
//! the numbers measure cached-path capacity; the report separates cold
//! (miss) from warm (hit) latency. Pass `cache=0` to disable the cache and
//! measure raw batched-forward throughput instead.
//!
//! Pass `fault=SPEC` (e.g. `fault=serve.batch:panic:0.01`, optionally with
//! `fault_seed=N`) to arm the af-fault registry inside the server process:
//! the report then records the error rate and tail latency under injected
//! faults instead of asserting every response is a `200`.
//!
//! Pass `workers=1,2,4` to append a **fleet scaling phase**: for each
//! worker count an in-process fleet (coordinator + N model servers with
//! heartbeating agents + rendezvous-hashing front) is stood up and hammered
//! through the front with *distinct* bodies (cache misses, so every request
//! traverses the worker's batch collector). Offered load is held constant
//! *per worker* (`fleet_conns_per` closed-loop clients each, default 2), and
//! fleet workers run with a stretched batch window so per-request latency is
//! dominated by the collector's batching wait — idle time that overlapping
//! replicas can hide even on a single-core CI box, where raw compute cannot
//! parallelize. The row therefore measures what a front actually multiplies:
//! aggregate concurrency across replicas, each with a bounded service rate.
//! A second short pass with a small repeated body pool measures routing
//! affinity: its per-worker cache-hit ratios are only high because the
//! rendezvous ring keeps sending a given body to the same worker's warm
//! cache. `coordinator=HOST:PORT` instead points the fleet phase at an
//! externally running coordinator (one row, workers as found).
//!
//! Pass `swap=N` to append a **promote-under-load phase**: a registry-backed
//! server with two registered model versions is hammered with `N` distinct
//! predict bodies per connection while `POST /v1/models/promote` hot-swaps
//! the resident model mid-run. The row records latency percentiles on both
//! sides of the swap, the promote round-trip itself, and asserts zero
//! dropped or non-200 responses — the zero-downtime claim as a number.
//!
//! Pass `slow=MS` to append a **slow-worker phase**: a 3-worker fleet where
//! a seeded `serve.batch.delay` fault makes exactly one worker's batch
//! collector sleep `MS` milliseconds, measured three ways — healthy (fault
//! disarmed), unhedged (fault armed, af-guard off), and hedged (fault
//! armed, hedging + latency breaker on). The row records the p50/p99 of
//! each pass plus how many hedges were issued, so the hedged-vs-unhedged
//! tail comparison lands in `BENCH_serve.json` as numbers.
//!
//! Run: `cargo run -p af-bench --bin loadgen --release --
//!       [quick|full] [conns=N] [requests=N] [cache=MB] [obs=path]
//!       [route_threads=a,b,c] [route_jobs=N] [fault=SPEC] [fault_seed=N]
//!       [workers=a,b,c] [coordinator=HOST:PORT] [fleet_conns_per=N]
//!       [fleet_requests=N] [swap=N] [slow=MS]`

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use af_bench::{cache_arg, fault_arg, kv_list, kv_num, obs_arg, Scale};
use af_fleet::{
    Coordinator, CoordinatorConfig, Front, FrontConfig, FrontHandle, WorkerAgent, WorkerCaps,
    WorkerIdentity,
};
use af_model::{Lineage, ModelRegistry};
use af_serve::api::{ModelsResponse, RouteAccepted};
use af_serve::http::{self, HttpConn};
use af_serve::{JobRecord, ModelBundle, ServeConfig, Server};
use analogfold::{GnnConfig, ThreeDGnn};
use serde::Serialize;

#[derive(Serialize)]
struct LoadgenReport {
    scale: String,
    conns: u64,
    requests_per_conn: u64,
    total_requests: u64,
    wall_s: f64,
    req_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    cache_mb: u64,
    cache_hits: u64,
    cache_hit_ratio: f64,
    cold_p50_ms: f64,
    warm_p50_ms: f64,
    warm_speedup: f64,
    fault_spec: String,
    errors: u64,
    error_rate: f64,
    /// `POST /v1/route` job latency per router worker count.
    route: Vec<RouteLatencyRow>,
    /// Fleet scaling rows (empty unless `workers=` or `coordinator=` given).
    fleet: Vec<FleetScalingRow>,
    /// Promote-under-load row (empty unless `swap=` given).
    swap: Vec<SwapPhaseRow>,
    /// Slow-worker tail-tolerance row (empty unless `slow=` given).
    slow: Vec<SlowWorkerRow>,
}

/// Tail latency through a 3-worker fleet with one seeded-slow worker,
/// measured healthy, unhedged, and hedged (hedging + latency breaker).
#[derive(Serialize)]
struct SlowWorkerRow {
    /// Injected collector delay on the slow worker, per batch.
    delay_ms: u64,
    workers: u64,
    /// Samples per pass (conns x requests).
    requests: u64,
    healthy_p50_ms: f64,
    healthy_p99_ms: f64,
    unhedged_p50_ms: f64,
    unhedged_p99_ms: f64,
    hedged_p50_ms: f64,
    hedged_p99_ms: f64,
    /// Hedges issued during the hedged pass.
    hedged_requests: u64,
    /// Issued hedges over total requests — the extra-load cost of the
    /// bounded tail (token bucket keeps it near `budget_ratio`).
    hedge_ratio: f64,
}

/// Predict latency on both sides of a mid-run model promotion, plus the
/// promote round-trip itself. A sample counts as `post` when its request
/// *started* after the promote response arrived; requests that straddle the
/// swap stay on the `pre` side.
#[derive(Serialize)]
struct SwapPhaseRow {
    conns: u64,
    total_requests: u64,
    /// Dropped connections or non-200 responses — must be zero for the
    /// zero-downtime claim to hold (asserted before the report is written).
    errors: u64,
    /// `POST /v1/models/promote` round-trip, including the synchronous
    /// registry reload and slot swap.
    swap_ms: f64,
    pre_requests: u64,
    pre_p50_ms: f64,
    pre_p99_ms: f64,
    post_requests: u64,
    post_p50_ms: f64,
    post_p99_ms: f64,
}

/// Aggregate throughput and affinity through a fleet front at one worker
/// count.
#[derive(Serialize)]
struct FleetScalingRow {
    workers: u64,
    conns: u64,
    total_requests: u64,
    wall_s: f64,
    req_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    errors: u64,
    /// Aggregate req/s divided by the 1-worker row's (1.0 for that row;
    /// 0.0 when no 1-worker row ran).
    speedup_vs_one_worker: f64,
    /// Affinity pass: repeated bodies from a small pool.
    affinity_requests: u64,
    affinity_hit_ratio: f64,
    per_worker: Vec<WorkerHitRow>,
}

/// Where the affinity pass's requests landed and how often they hit that
/// worker's response cache.
#[derive(Serialize)]
struct WorkerHitRow {
    worker: String,
    requests: u64,
    hits: u64,
    hit_ratio: f64,
}

/// End-to-end `/v1/route` job latency (submit to `done`) at one router
/// worker count.
#[derive(Serialize)]
struct RouteLatencyRow {
    route_threads: u64,
    jobs: u64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Submits one cheap route job pinned to `route_threads` workers and polls
/// it to completion, returning submit-to-done latency in milliseconds.
fn route_job_ms(addr: SocketAddr, route_threads: u64, seed: u64) -> Option<f64> {
    let addr = addr.to_string();
    let body = format!(
        "{{\"restarts\":1,\"lbfgs_iters\":2,\"n_derive\":1,\"seed\":{seed},\
         \"route_threads\":{route_threads}}}"
    );
    let t0 = Instant::now();
    let accepted = http::request(&addr, "POST", "/v1/route", &[], body.as_bytes()).ok()?;
    if accepted.status != 202 {
        return None;
    }
    let id = accepted.json::<RouteAccepted>().ok()?.id;
    let deadline = Instant::now() + std::time::Duration::from_secs(600);
    loop {
        let record = http::request(&addr, "GET", &format!("/v1/jobs/{id}"), &[], b"").ok()?;
        if record.status != 200 || Instant::now() > deadline {
            return None;
        }
        match record.json::<JobRecord>().ok()?.status.as_str() {
            "done" => return Some(t0.elapsed().as_secs_f64() * 1e3),
            "failed" => return None,
            _ => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
}

/// Sends one predict on the keep-alive connection in `conn`, dialling
/// `addr` first when there is none, and returns `(ok, cache_hit,
/// fleet_worker)` (`fleet_worker` is empty when not going through a fleet
/// front). A failed exchange — a dropped connection, possible while a
/// supervised collector restarts under injected faults — is not ok and
/// empties `conn`, so the next call reconnects.
fn predict_once(conn: &mut Option<HttpConn>, addr: &str, body: &str) -> (bool, bool, String) {
    if conn.is_none() {
        *conn = HttpConn::connect(addr).ok();
    }
    let sent = conn
        .as_mut()
        .map(|c| c.call("POST", "/v1/predict", &[], body.as_bytes()));
    let Some(Ok(resp)) = sent else {
        *conn = None;
        return (false, false, String::new());
    };
    if resp.close {
        *conn = None;
    }
    let worker = resp.header("x-fleet-worker").unwrap_or_default();
    (
        resp.status == 200,
        resp.header("x-cache") == Some("hit"),
        worker.to_string(),
    )
}

/// A predict body whose guidance values are a pure function of `nonce`, so
/// distinct nonces give distinct bodies (distinct response-cache keys and
/// distinct rendezvous ring positions) and equal nonces repeat exactly.
fn guidance_body(guidance_len: u64, nonce: u64) -> String {
    let n = nonce as f64;
    format!(
        "{{\"guidance\":[{}]}}",
        (0..guidance_len)
            .map(|i| format!("{:?}", ((i as f64).mul_add(0.37, n * 0.71)).sin() * 0.3))
            .collect::<Vec<_>>()
            .join(",")
    )
}

/// One measurement pass through a fleet front: `conns` closed-loop client
/// threads each send `requests` keep-alive predicts, building body number
/// `r` on connection `c` with `make_body(c, r)`. Returns
/// `(latency_ms, ok, cache_hit, worker_id)` samples.
fn fleet_pass(
    addr: SocketAddr,
    conns: u64,
    requests: u64,
    make_body: &(dyn Fn(u64, u64) -> String + Sync),
) -> Vec<(f64, bool, bool, String)> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let (addr, mut conn) = (addr.to_string(), None);
                    let mut out = Vec::with_capacity(requests as usize);
                    for r in 0..requests {
                        let body = make_body(c, r);
                        let t = Instant::now();
                        let (ok, hit, worker) = predict_once(&mut conn, &addr, &body);
                        out.push((t.elapsed().as_secs_f64() * 1e3, ok, hit, worker));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fleet client"))
            .collect()
    })
}

/// Blocks until the front's ring holds at least `want` workers (or the
/// timeout passes) and returns the count it last saw.
fn wait_for_workers(front: &FrontHandle, want: usize, timeout: Duration) -> usize {
    let deadline = Instant::now() + timeout;
    loop {
        let n = front.worker_count();
        if n >= want || Instant::now() > deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Runs the throughput and affinity passes against a front that already has
/// `workers` live workers behind it. `speedup_vs_one_worker` is filled in
/// later, once every row exists.
fn measure_fleet_row(
    front_addr: SocketAddr,
    workers: u64,
    conns: u64,
    requests: u64,
    guidance_len: u64,
) -> FleetScalingRow {
    // Throughput pass: a distinct body per request, so every response is a
    // real pass through some worker's batch collector, and the rendezvous
    // hash of fresh keys spreads the load across the whole ring.
    let t0 = Instant::now();
    let samples = fleet_pass(front_addr, conns, requests, &|c, r| {
        guidance_body(guidance_len, 1 + c * requests + r)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut lat: Vec<f64> = samples.iter().map(|&(ms, ..)| ms).collect();
    lat.sort_by(f64::total_cmp);
    let errors = samples.iter().filter(|&&(_, ok, ..)| !ok).count() as u64;
    let total = samples.len() as u64;

    // Affinity pass: a small pool of repeated bodies, disjoint from the
    // throughput pass's nonces so every hit below is earned by the ring
    // sending a repeat to the same worker, never by leftover cache state.
    let pool = (2 * workers).max(4);
    let aff_requests = requests.clamp(8, 32);
    let aff = fleet_pass(front_addr, conns, aff_requests, &|c, r| {
        guidance_body(guidance_len, 1_000_003 + (c + r) % pool)
    });
    let mut by_worker: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let (mut aff_hits, mut aff_total) = (0u64, 0u64);
    for (_, ok, hit, worker) in &aff {
        if !ok {
            continue;
        }
        aff_total += 1;
        let entry = by_worker.entry(worker.clone()).or_default();
        entry.0 += 1;
        if *hit {
            entry.1 += 1;
            aff_hits += 1;
        }
    }

    FleetScalingRow {
        workers,
        conns,
        total_requests: total,
        wall_s,
        req_per_s: total as f64 / wall_s,
        p50_ms: percentile(&lat, 0.50),
        p99_ms: percentile(&lat, 0.99),
        errors,
        speedup_vs_one_worker: 0.0,
        affinity_requests: aff_total,
        affinity_hit_ratio: aff_hits as f64 / aff_total.max(1) as f64,
        per_worker: by_worker
            .into_iter()
            .map(|(worker, (requests, hits))| WorkerHitRow {
                worker,
                requests,
                hits,
                hit_ratio: hits as f64 / requests.max(1) as f64,
            })
            .collect(),
    }
}

/// Stands up one in-process fleet per requested worker count (or one front
/// over an external coordinator) and measures each. Fleet workers run with
/// a stretched batch window and a single-item offered load per client, so
/// the row stays meaningful on single-core machines (see the module docs).
fn fleet_phase(
    worker_counts: &[u64],
    external: Option<&str>,
    gnn: &ThreeDGnn,
    cache_mb: u64,
    conns_per_worker: u64,
    requests: u64,
) -> Vec<FleetScalingRow> {
    let mut rows = Vec::new();
    if let Some(coordinator) = external {
        println!("fleet: measuring external coordinator at {coordinator} ...");
        let front = Front::bind(FrontConfig {
            addr: "127.0.0.1:0".to_string(),
            coordinator: coordinator.to_string(),
            refresh_ms: 100,
            // Guard machinery off: scaling rows measure the plain ring.
            hedge: af_guard::HedgeConfig {
                enabled: false,
                ..af_guard::HedgeConfig::default()
            },
            breaker_enabled: false,
            ..FrontConfig::default()
        })
        .expect("bind front");
        let n = wait_for_workers(&front, 1, Duration::from_secs(10)) as u64;
        assert!(
            n > 0,
            "no live serve workers behind coordinator {coordinator}"
        );
        let workers: af_fleet::protocol::WorkersResponse =
            af_fleet::get_json(coordinator, "/fleet/workers").expect("list workers");
        let guidance_len = workers
            .workers
            .iter()
            .map(|w| w.guidance_len)
            .max()
            .unwrap_or(0);
        rows.push(measure_fleet_row(
            front.addr(),
            n,
            conns_per_worker * n,
            requests,
            guidance_len,
        ));
        front.shutdown();
        front.join();
    } else {
        for &count in worker_counts {
            let n = count.max(1);
            println!("fleet: standing up {n} in-process worker(s) ...");
            let coord = Coordinator::bind(CoordinatorConfig {
                addr: "127.0.0.1:0".to_string(),
                lease_ms: 0,
                gen: None,
            })
            .expect("bind coordinator");
            let coordinator = coord.addr().to_string();
            let conns = conns_per_worker * n;
            let mut servers = Vec::new();
            let mut agents = Vec::new();
            let mut job_dirs = Vec::new();
            let mut guidance_len = 0u64;
            for i in 0..n {
                let bundle = ModelBundle::with_model("OTA1", "A", gnn.clone()).expect("bundle");
                guidance_len = bundle.guidance_len() as u64;
                let model_hash = bundle.model_hash.clone();
                // Each in-process server needs its own job dir: the default
                // is keyed by pid, which is shared here.
                let job_dir = std::env::temp_dir()
                    .join(format!("af-loadgen-fleet-{}-{n}-{i}", std::process::id()));
                let server = Server::bind(
                    bundle,
                    ServeConfig {
                        // Enough handlers that every pooled front
                        // connection can be served concurrently (handlers
                        // hold a keep-alive connection for its lifetime).
                        workers: conns as usize,
                        // Stretch the collector window well past the
                        // forward pass so replicas scale by overlapping
                        // waits, not by competing for the (possibly single)
                        // core.
                        batch_window_us: 12_000,
                        job_dir: Some(job_dir.clone()),
                        cache_mb,
                        ..ServeConfig::default()
                    },
                )
                .expect("bind fleet worker");
                agents.push(WorkerAgent::start(
                    &coordinator,
                    WorkerIdentity {
                        id: format!("lg{i}"),
                        addr: server.addr().to_string(),
                        caps: WorkerCaps {
                            serve: true,
                            gen: false,
                        },
                        model_hash,
                        guidance_len,
                    },
                ));
                servers.push(server);
                job_dirs.push(job_dir);
            }
            let front = Front::bind(FrontConfig {
                addr: "127.0.0.1:0".to_string(),
                coordinator: coordinator.clone(),
                refresh_ms: 50,
                // Guard machinery off: scaling rows measure the plain ring.
                hedge: af_guard::HedgeConfig {
                    enabled: false,
                    ..af_guard::HedgeConfig::default()
                },
                breaker_enabled: false,
                ..FrontConfig::default()
            })
            .expect("bind front");
            let seen = wait_for_workers(&front, n as usize, Duration::from_secs(10));
            assert_eq!(seen as u64, n, "fleet front only sees {seen}/{n} workers");
            rows.push(measure_fleet_row(
                front.addr(),
                n,
                conns,
                requests,
                guidance_len,
            ));
            front.shutdown();
            front.join();
            for agent in agents {
                agent.stop();
            }
            for server in servers {
                server.shutdown();
                server.join();
            }
            coord.shutdown();
            coord.join();
            for dir in job_dirs {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
    let base = rows
        .iter()
        .find(|r| r.workers == 1)
        .map(|r| r.req_per_s)
        .filter(|&r| r > 0.0);
    for row in &mut rows {
        row.speedup_vs_one_worker = base.map_or(0.0, |b| row.req_per_s / b);
    }
    rows
}

/// Stands up a registry-backed server with two registered model versions
/// and measures predict latency while `POST /v1/models/promote` hot-swaps
/// the resident model mid-run. Every request carries a distinct body
/// (cache miss), so each sample crosses the batch collector and whichever
/// model session is resident at that moment.
fn swap_phase(conns: u64, requests: u64, cache_mb: u64) -> SwapPhaseRow {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let pid = std::process::id();
    let reg_dir = std::env::temp_dir().join(format!("af-loadgen-swap-registry-{pid}"));
    let job_dir = std::env::temp_dir().join(format!("af-loadgen-swap-jobs-{pid}"));
    let _ = std::fs::remove_dir_all(&reg_dir);
    let _ = std::fs::remove_dir_all(&job_dir);

    // Two differently seeded untrained models: enough to give them distinct
    // content hashes, which is all a swap-latency measurement needs.
    let make = |seed: u64| {
        ThreeDGnn::new(&GnnConfig {
            hidden: 16,
            layers: 2,
            seed,
            ..GnnConfig::default()
        })
    };
    let incumbent = make(41);
    let mut registry = ModelRegistry::open(&reg_dir).expect("open registry");
    let h_old = registry
        .register(&incumbent, Lineage::default())
        .expect("register incumbent")
        .hash;
    let h_new = registry
        .register(&make(42), Lineage::default())
        .expect("register candidate")
        .hash;
    registry.promote(&h_old, false).expect("promote incumbent");
    drop(registry);

    let bundle = ModelBundle::with_model("OTA1", "A", incumbent).expect("bundle");
    let guidance_len = bundle.guidance_len() as u64;
    let server = Server::bind(
        bundle,
        ServeConfig {
            // Handlers pin keep-alive connections for their lifetime; the
            // +2 keeps handlers free for the control-plane promote and
            // `/v1/models` requests while every client connection is live.
            workers: conns as usize + 2,
            job_dir: Some(job_dir.clone()),
            cache_mb,
            registry: Some(reg_dir.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("bind swap server");
    let addr = server.addr();
    println!(
        "swap: {conns} conns x {requests} requests against {addr}, promoting {} mid-run ...",
        &h_new[..8]
    );

    let done = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let clients: Vec<_> = (0..conns)
        .map(|c| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let (addr, mut conn) = (addr.to_string(), None);
                let mut out = Vec::with_capacity(requests as usize);
                for r in 0..requests {
                    let body = guidance_body(guidance_len, 1 + c * requests + r);
                    let started_s = t0.elapsed().as_secs_f64();
                    let t = Instant::now();
                    let (ok, _, _) = predict_once(&mut conn, &addr, &body);
                    done.fetch_add(1, Ordering::Relaxed);
                    out.push((started_s, t.elapsed().as_secs_f64() * 1e3, ok));
                }
                out
            })
        })
        .collect();

    // Promote once a third of the offered load has been served, so both
    // sides of the swap carry a meaningful sample count.
    let total = conns * requests;
    while done.load(Ordering::Relaxed) < total / 3 {
        std::thread::sleep(Duration::from_millis(2));
    }
    let t_swap = Instant::now();
    let promote = format!("{{\"hash\":\"{h_new}\"}}");
    let resp = http::request(
        &addr.to_string(),
        "POST",
        "/v1/models/promote",
        &[],
        promote.as_bytes(),
    )
    .expect("promote request");
    let swap_ms = t_swap.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        resp.status,
        200,
        "promote under load failed: {}",
        resp.text()
    );
    let cut_s = t0.elapsed().as_secs_f64();

    let samples: Vec<(f64, f64, bool)> = clients
        .into_iter()
        .flat_map(|h| h.join().expect("swap client"))
        .collect();

    // The promote handler swaps synchronously, so by the time the load
    // drained the server must be resident on the candidate.
    let models =
        http::request(&addr.to_string(), "GET", "/v1/models", &[], b"").expect("GET /v1/models");
    let resident = models.json::<ModelsResponse>().map(|m| m.resident);
    assert_eq!(
        resident.as_deref(),
        Ok(h_new.as_str()),
        "server did not swap to the promoted model: {}",
        models.text()
    );

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&reg_dir);
    let _ = std::fs::remove_dir_all(&job_dir);

    let side = |pre: bool| -> Vec<f64> {
        let mut v: Vec<f64> = samples
            .iter()
            .filter(|&&(start, _, ok)| ok && (start < cut_s) == pre)
            .map(|&(_, ms, _)| ms)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let (pre, post) = (side(true), side(false));
    let errors = samples.iter().filter(|&&(_, _, ok)| !ok).count() as u64;
    assert_eq!(errors, 0, "promotion under load dropped or failed requests");
    SwapPhaseRow {
        conns,
        total_requests: samples.len() as u64,
        errors,
        swap_ms,
        pre_requests: pre.len() as u64,
        pre_p50_ms: percentile(&pre, 0.50),
        pre_p99_ms: percentile(&pre, 0.99),
        post_requests: post.len() as u64,
        post_p50_ms: percentile(&post, 0.50),
        post_p99_ms: percentile(&post, 0.99),
    }
}

/// Stands up a 3-worker fleet where a seeded `serve.batch.delay` fault
/// makes exactly one worker's collector sleep `delay_ms` per batch, and
/// measures the same offered load three ways:
///
/// 1. **healthy** — fault disarmed, hedging and breakers off: the baseline.
/// 2. **unhedged** — fault armed, af-guard off: every request whose
///    rendezvous winner is the slow worker rides the full delay, so the
///    p99 tracks the injected latency.
/// 3. **hedged** — fault armed, hedging plus a latency breaker on: early
///    slow requests are rescued by a duplicate on the next-ranked worker,
///    the breaker trips on the slow-call signal and excludes the worker,
///    and the tail collapses back toward healthy.
///
/// Which worker is slow is picked by seed scan over the per-server
/// `fault_key`s, so the fault fires on every batch of one deterministic
/// worker and never on the others.
fn slow_phase(
    delay_ms: u64,
    gnn: &ThreeDGnn,
    cache_mb: u64,
    conns: u64,
    requests: u64,
) -> SlowWorkerRow {
    const WORKERS: u64 = 3;
    const PROB: f64 = 0.34;
    let fault_seed = (1u64..100_000)
        .find(|&s| {
            (0..WORKERS)
                .filter(|&k| af_fault::would_fire(s, "serve.batch.delay", k, PROB))
                .count()
                == 1
        })
        .expect("no seed selects exactly one slow worker");

    let coord = Coordinator::bind(CoordinatorConfig {
        addr: "127.0.0.1:0".to_string(),
        lease_ms: 0,
        gen: None,
    })
    .expect("bind coordinator");
    let coordinator = coord.addr().to_string();
    let mut servers = Vec::new();
    let mut agents = Vec::new();
    let mut job_dirs = Vec::new();
    let mut guidance_len = 0u64;
    for i in 0..WORKERS {
        let bundle = ModelBundle::with_model("OTA1", "A", gnn.clone()).expect("bundle");
        guidance_len = bundle.guidance_len() as u64;
        let model_hash = bundle.model_hash.clone();
        let job_dir =
            std::env::temp_dir().join(format!("af-loadgen-slow-{}-{i}", std::process::id()));
        let server = Server::bind(
            bundle,
            ServeConfig {
                workers: conns as usize,
                fault_key: i,
                job_dir: Some(job_dir.clone()),
                cache_mb,
                ..ServeConfig::default()
            },
        )
        .expect("bind slow-phase worker");
        agents.push(WorkerAgent::start(
            &coordinator,
            WorkerIdentity {
                id: format!("sw{i}"),
                addr: server.addr().to_string(),
                caps: WorkerCaps {
                    serve: true,
                    gen: false,
                },
                model_hash,
                guidance_len,
            },
        ));
        servers.push(server);
        job_dirs.push(job_dir);
    }

    // One measurement pass behind a freshly configured front. Nonce bases
    // are disjoint across passes so no pass is served from cache state the
    // previous one warmed.
    let mut pass_index = 0u64;
    let mut run_pass = |hedge_on: bool, breaker_on: bool| -> (Vec<f64>, u64) {
        let front = Front::bind(FrontConfig {
            addr: "127.0.0.1:0".to_string(),
            coordinator: coordinator.clone(),
            refresh_ms: 50,
            hedge: af_guard::HedgeConfig {
                enabled: hedge_on,
                delay_ms: (delay_ms / 4).max(5),
                seed: 7,
                ..af_guard::HedgeConfig::default()
            },
            breaker: af_guard::BreakerConfig {
                window: 8,
                min_samples: 2,
                slow_ms: (delay_ms / 2).max(5),
                // Stays open for the remainder of the pass: this phase
                // measures exclusion; healing is the smoke test's job.
                open_ms: 60_000,
                ..af_guard::BreakerConfig::default()
            },
            breaker_enabled: breaker_on,
            ..FrontConfig::default()
        })
        .expect("bind slow-phase front");
        let seen = wait_for_workers(&front, WORKERS as usize, Duration::from_secs(10));
        assert_eq!(seen as u64, WORKERS, "front only sees {seen}/{WORKERS}");
        let base = 5_000_000 + pass_index * conns * requests;
        pass_index += 1;
        let samples = fleet_pass(front.addr(), conns, requests, &|c, r| {
            guidance_body(guidance_len, base + c * requests + r)
        });
        let issued = front.hedge_stats().issued;
        front.shutdown();
        front.join();
        let mut lat: Vec<f64> = samples.iter().map(|&(ms, ..)| ms).collect();
        lat.sort_by(f64::total_cmp);
        (lat, issued)
    };

    println!("slow: healthy pass ({conns} conns x {requests} requests) ...");
    let (healthy, _) = run_pass(false, false);
    let spec = format!("serve.batch.delay:delay:{delay_ms}:{PROB}");
    af_fault::set_seed(fault_seed);
    af_fault::arm_spec(&spec).expect("arm slow-worker fault");
    println!("slow: unhedged pass under `{spec}` (seed {fault_seed}) ...");
    let (unhedged, _) = run_pass(false, false);
    println!("slow: hedged pass (hedging + latency breaker) ...");
    let (hedged, issued) = run_pass(true, true);
    af_fault::disarm_all();

    for agent in agents {
        agent.stop();
    }
    for server in servers {
        server.shutdown();
        server.join();
    }
    coord.shutdown();
    coord.join();
    for dir in job_dirs {
        let _ = std::fs::remove_dir_all(dir);
    }

    SlowWorkerRow {
        delay_ms,
        workers: WORKERS,
        requests: conns * requests,
        healthy_p50_ms: percentile(&healthy, 0.50),
        healthy_p99_ms: percentile(&healthy, 0.99),
        unhedged_p50_ms: percentile(&unhedged, 0.50),
        unhedged_p99_ms: percentile(&unhedged, 0.99),
        hedged_p50_ms: percentile(&hedged, 0.50),
        hedged_p99_ms: percentile(&hedged, 0.99),
        hedged_requests: issued,
        hedge_ratio: issued as f64 / hedged.len().max(1) as f64,
    }
}

/// Nearest-rank percentile of an already-sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let _obs = obs_arg(&args);
    let scale = args
        .iter()
        .find_map(|a| Scale::parse(a))
        .unwrap_or(Scale::Quick);
    let (default_conns, default_requests) = match scale {
        Scale::Quick => (4, 100),
        _ => (8, 500),
    };
    let conns = kv_num(&args, "conns", default_conns).max(1);
    let requests = kv_num(&args, "requests", default_requests).max(1);
    let cache_mb = cache_arg(&args, ServeConfig::default().cache_mb);
    let fault_spec = fault_arg(&args);

    // Serving throughput does not depend on trained weights, so an
    // untrained compact model keeps startup instant.
    let gnn = ThreeDGnn::new(&GnnConfig {
        hidden: 16,
        layers: 2,
        ..GnnConfig::default()
    });
    let bundle = ModelBundle::with_model("OTA1", "A", gnn.clone()).expect("bundle");
    let guidance_len = bundle.guidance_len();
    let job_dir = std::env::temp_dir().join(format!("af-loadgen-jobs-{}", std::process::id()));
    let handle = Server::bind(
        bundle,
        ServeConfig {
            workers: conns as usize,
            job_dir: Some(job_dir.clone()),
            cache_mb,
            ..ServeConfig::default()
        },
    )
    .expect("bind server");
    let addr = handle.addr();
    println!("loadgen: {conns} conns x {requests} requests against {addr} (scale {scale:?})");

    let body = format!(
        "{{\"guidance\":[{}]}}",
        (0..guidance_len)
            .map(|i| format!("{:?}", (i as f64).sin() * 0.3))
            .collect::<Vec<_>>()
            .join(",")
    );

    let t0 = Instant::now();
    let clients: Vec<_> = (0..conns)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || {
                let (addr, mut conn) = (addr.to_string(), None);
                let mut samples = Vec::with_capacity(requests as usize);
                for _ in 0..requests {
                    let t = Instant::now();
                    let (ok, hit, _) = predict_once(&mut conn, &addr, &body);
                    samples.push((t.elapsed().as_secs_f64() * 1e3, ok, hit));
                }
                samples
            })
        })
        .collect();
    let samples: Vec<(f64, bool, bool)> = clients
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    let mut latencies: Vec<f64> = samples.iter().map(|&(ms, _, _)| ms).collect();
    let errors = samples.iter().filter(|&&(_, ok, _)| !ok).count() as u64;
    let cache_hits = samples.iter().filter(|&&(_, _, hit)| hit).count() as u64;
    // Cold/warm latency split only makes sense over successful responses.
    let mut cold: Vec<f64> = samples
        .iter()
        .filter(|&&(_, ok, hit)| ok && !hit)
        .map(|&(ms, _, _)| ms)
        .collect();
    let mut warm: Vec<f64> = samples
        .iter()
        .filter(|&&(_, ok, hit)| ok && hit)
        .map(|&(ms, _, _)| ms)
        .collect();
    cold.sort_by(f64::total_cmp);
    warm.sort_by(f64::total_cmp);

    // --- Route-job latency per router worker count -----------------------
    // Cheap flow parameters (1 restart, 1 candidate) keep each job
    // dominated by the guided routing itself. Jobs run one at a time so a
    // row measures the router at exactly its `route_threads` setting.
    let route_thread_counts: Vec<u64> = kv_list(&args, "route_threads")
        .map(|l| l.iter().filter_map(|s| s.parse().ok()).collect())
        .unwrap_or_else(|| match scale {
            Scale::Quick => vec![1, 2],
            _ => vec![1, 4, 8],
        });
    let jobs_per_row = kv_num(
        &args,
        "route_jobs",
        if matches!(scale, Scale::Quick) { 2 } else { 3 },
    );
    let mut route_rows = Vec::new();
    for &rt in &route_thread_counts {
        println!("route jobs: {jobs_per_row} at route_threads={rt} ...");
        let mut lat: Vec<f64> = (0..jobs_per_row)
            .filter_map(|j| route_job_ms(addr, rt, 99 + j))
            .collect();
        lat.sort_by(f64::total_cmp);
        route_rows.push(RouteLatencyRow {
            route_threads: rt,
            jobs: lat.len() as u64,
            p50_ms: percentile(&lat, 0.50),
            p99_ms: percentile(&lat, 0.99),
        });
    }

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&job_dir);

    // --- Fleet scaling phase (only with `workers=` or `coordinator=`) ----
    let worker_counts: Vec<u64> = kv_list(&args, "workers")
        .map(|l| l.iter().filter_map(|s| s.parse().ok()).collect())
        .unwrap_or_default();
    let external_coord = args
        .iter()
        .find_map(|a| a.strip_prefix("coordinator=").map(str::to_string));
    let fleet_rows = if worker_counts.is_empty() && external_coord.is_none() {
        Vec::new()
    } else {
        let conns_per_worker = kv_num(&args, "fleet_conns_per", 2).max(1);
        let fleet_requests = kv_num(
            &args,
            "fleet_requests",
            if matches!(scale, Scale::Quick) {
                60
            } else {
                200
            },
        )
        .max(1);
        fleet_phase(
            &worker_counts,
            external_coord.as_deref(),
            &gnn,
            cache_mb,
            conns_per_worker,
            fleet_requests,
        )
    };

    // --- Promote-under-load phase (only with `swap=`) --------------------
    let swap_requests = kv_num(&args, "swap", 0);
    let swap_rows = if swap_requests == 0 {
        Vec::new()
    } else {
        vec![swap_phase(conns, swap_requests.max(30), cache_mb)]
    };

    // --- Slow-worker tail-tolerance phase (only with `slow=`) ------------
    let slow_ms = kv_num(&args, "slow", 0);
    let slow_rows = if slow_ms == 0 {
        Vec::new()
    } else {
        let slow_conns = kv_num(&args, "fleet_conns_per", 2).max(1) * 3;
        let slow_requests = kv_num(
            &args,
            "fleet_requests",
            if matches!(scale, Scale::Quick) {
                60
            } else {
                200
            },
        )
        .max(1);
        vec![slow_phase(
            slow_ms,
            &gnn,
            cache_mb,
            slow_conns,
            slow_requests,
        )]
    };

    latencies.sort_by(f64::total_cmp);
    let total = latencies.len() as u64;
    let cold_p50_ms = percentile(&cold, 0.50);
    let warm_p50_ms = percentile(&warm, 0.50);
    let report = LoadgenReport {
        scale: format!("{scale:?}"),
        conns,
        requests_per_conn: requests,
        total_requests: total,
        wall_s,
        req_per_s: total as f64 / wall_s,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        max_ms: latencies.last().copied().unwrap_or(f64::NAN),
        cache_mb,
        cache_hits,
        cache_hit_ratio: cache_hits as f64 / total.max(1) as f64,
        cold_p50_ms,
        warm_p50_ms,
        warm_speedup: if warm.is_empty() || cold.is_empty() {
            1.0
        } else {
            cold_p50_ms / warm_p50_ms.max(1e-9)
        },
        fault_spec: fault_spec.unwrap_or_default(),
        errors,
        error_rate: errors as f64 / total.max(1) as f64,
        route: route_rows,
        fleet: fleet_rows,
        swap: swap_rows,
        slow: slow_rows,
    };
    println!(
        "{} requests in {:.2}s: {:.1} req/s, p50 {:.2} ms, p99 {:.2} ms",
        report.total_requests, report.wall_s, report.req_per_s, report.p50_ms, report.p99_ms
    );
    println!(
        "cache: {} hits / {} requests (ratio {:.2}), cold p50 {:.2} ms, warm p50 {:.2} ms",
        report.cache_hits, report.total_requests, report.cache_hit_ratio, cold_p50_ms, warm_p50_ms
    );
    for row in &report.route {
        println!(
            "route jobs @ {} thread(s): {} jobs, p50 {:.0} ms, p99 {:.0} ms",
            row.route_threads, row.jobs, row.p50_ms, row.p99_ms
        );
    }
    for row in &report.fleet {
        println!(
            "fleet @ {} worker(s), {} conns: {:.1} req/s ({:.2}x vs 1 worker), p50 {:.2} ms, \
             p99 {:.2} ms, affinity hit ratio {:.2} over {} worker(s)",
            row.workers,
            row.conns,
            row.req_per_s,
            row.speedup_vs_one_worker,
            row.p50_ms,
            row.p99_ms,
            row.affinity_hit_ratio,
            row.per_worker.len()
        );
    }
    for row in &report.swap {
        println!(
            "swap @ {} conns: promote round-trip {:.2} ms, pre p50 {:.2} ms / p99 {:.2} ms \
             ({} reqs), post p50 {:.2} ms / p99 {:.2} ms ({} reqs), {} errors",
            row.conns,
            row.swap_ms,
            row.pre_p50_ms,
            row.pre_p99_ms,
            row.pre_requests,
            row.post_p50_ms,
            row.post_p99_ms,
            row.post_requests,
            row.errors
        );
    }
    for row in &report.slow {
        println!(
            "slow worker @ {} ms delay: healthy p99 {:.2} ms, unhedged p99 {:.2} ms, \
             hedged p99 {:.2} ms ({} hedges over {} requests, ratio {:.3})",
            row.delay_ms,
            row.healthy_p99_ms,
            row.unhedged_p99_ms,
            row.hedged_p99_ms,
            row.hedged_requests,
            row.requests,
            row.hedge_ratio
        );
    }
    if !report.fault_spec.is_empty() {
        println!(
            "faults: `{}` -> {} errors / {} requests (rate {:.4})",
            report.fault_spec, report.errors, report.total_requests, report.error_rate
        );
    }
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}
