//! End-to-end fleet tests, in-process but over real loopback sockets:
//!
//! 1. A front proxying `/v1/predict` answers byte-identically to every
//!    replica, stamps which worker served the request, retries the other
//!    replica when the first is unreachable, and shrinks its ring once a
//!    worker's membership lease expires.
//! 2. Distributed dataset generation (coordinator + leasing workers over
//!    HTTP) assembles a dataset bit-identical to the single-process
//!    baseline — the determinism contract the healing story rests on.
//! 3. Worker, front and coordinator share one listener and keep-alive
//!    loop, so one framing and shutdown test runs against all three.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use analogfold_suite::analogfold::{
    assemble_dataset, generate_dataset, GnnConfig, ShardStore, ThreeDGnn,
};
use analogfold_suite::fleet::{
    run_gen_worker, spec_config, spec_design, Coordinator, CoordinatorConfig, Front, FrontConfig,
    FrontHandle, GenSpec, WorkerAgent, WorkerCaps, WorkerIdentity,
};
use analogfold_suite::guard::HedgeConfig;
use analogfold_suite::serve::http::{self, read_response, RawResponse, MAX_BODY};
use analogfold_suite::serve::{ModelBundle, ServeConfig, Server};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("af-fleet-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_gnn() -> ThreeDGnn {
    ThreeDGnn::new(&GnnConfig {
        hidden: 8,
        layers: 1,
        ..GnnConfig::default()
    })
}

/// One-shot HTTP exchange on a fresh connection (connection: close).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> RawResponse {
    request_with(addr, method, path, body, &[])
}

/// [`request`] with extra request headers (e.g. `x-deadline-ms`).
fn request_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    extra: &[(&str, &str)],
) -> RawResponse {
    let headers: Vec<(String, String)> = extra
        .iter()
        .map(|(name, value)| ((*name).to_string(), (*value).to_string()))
        .collect();
    http::request(&addr.to_string(), method, path, &headers, body.as_bytes()).unwrap()
}

fn wait_ring(front: &FrontHandle, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while front.worker_count() != want {
        assert!(
            Instant::now() < deadline,
            "front ring stuck at {} workers, wanted {want}",
            front.worker_count()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn guidance_body(guidance_len: usize, nonce: u64) -> String {
    let n = nonce as f64;
    format!(
        "{{\"guidance\":[{}]}}",
        (0..guidance_len)
            .map(|i| format!("{:?}", ((i as f64).mul_add(0.31, n * 0.83)).sin() * 0.3))
            .collect::<Vec<_>>()
            .join(",")
    )
}

#[test]
fn front_parity_failover_and_ring_shrink() {
    let gnn = small_gnn();
    let coord = Coordinator::bind(CoordinatorConfig {
        addr: "127.0.0.1:0".to_string(),
        // Short membership leases so the ring-shrink step stays fast.
        lease_ms: 400,
        gen: None,
    })
    .unwrap();
    let coordinator = coord.addr().to_string();

    let mut rigs = Vec::new();
    let mut guidance_len = 0;
    for i in 0..2 {
        let bundle = ModelBundle::with_model("OTA1", "A", gnn.clone()).unwrap();
        guidance_len = bundle.guidance_len();
        let model_hash = bundle.model_hash.clone();
        let server = Server::bind(
            bundle,
            ServeConfig {
                job_dir: Some(tmp_dir(&format!("serve-w{i}"))),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let id = format!("e{i}");
        let agent = WorkerAgent::start(
            &coordinator,
            WorkerIdentity {
                id: id.clone(),
                addr: server.addr().to_string(),
                caps: WorkerCaps {
                    serve: true,
                    gen: false,
                },
                model_hash,
                guidance_len: guidance_len as u64,
            },
        );
        rigs.push((id, server, agent));
    }
    let front = Front::bind(FrontConfig {
        addr: "127.0.0.1:0".to_string(),
        coordinator: coordinator.clone(),
        refresh_ms: 50,
        // Guard machinery off: this test pins down the plain ring contract
        // (who serves which key, failover, shrink) without hedged duplicates.
        hedge: HedgeConfig {
            enabled: false,
            ..HedgeConfig::default()
        },
        breaker_enabled: false,
        ..FrontConfig::default()
    })
    .unwrap();
    wait_ring(&front, 2);

    // Parity: the front's answer is byte-identical to what every replica
    // answers directly (same model, deterministic forward pass; on the
    // routed-to worker the direct call replays the front-warmed cache).
    let body = guidance_body(guidance_len, 1);
    let via_front = request(front.addr(), "POST", "/v1/predict", &body);
    assert_eq!(via_front.status, 200, "{}", via_front.text());
    let served_by = via_front
        .header("x-fleet-worker")
        .expect("front stamps the serving worker")
        .to_string();
    assert!(rigs.iter().any(|(id, ..)| *id == served_by));
    for (id, server, _) in &rigs {
        let direct = request(server.addr(), "POST", "/v1/predict", &body);
        assert_eq!(direct.status, 200);
        assert_eq!(
            direct.body, via_front.body,
            "replica {id} disagrees with the front"
        );
    }

    // Failover: kill the server that answered (but leave its agent
    // heartbeating, so the ring still lists it). The front's first-ranked
    // upstream is now unreachable and the request must land on the other
    // replica in the same client call.
    let idx = rigs.iter().position(|(id, ..)| *id == served_by).unwrap();
    let (_, dead_server, dead_agent) = rigs.remove(idx);
    dead_server.shutdown();
    dead_server.join();
    let survivor = rigs[0].0.clone();
    let failover = request(front.addr(), "POST", "/v1/predict", &body);
    assert_eq!(
        failover.status,
        200,
        "single-hop retry must hide the dead replica: {}",
        failover.text()
    );
    assert_eq!(failover.header("x-fleet-worker"), Some(survivor.as_str()));
    assert_eq!(failover.body, via_front.body);

    // Ring shrink: once the dead worker stops heartbeating, its membership
    // lease expires and the front drops it — every key now routes to the
    // survivor directly, no failover hop involved.
    dead_agent.stop();
    wait_ring(&front, 1);
    for nonce in 2..6 {
        let reply = request(
            front.addr(),
            "POST",
            "/v1/predict",
            &guidance_body(guidance_len, nonce),
        );
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("x-fleet-worker"), Some(survivor.as_str()));
    }

    front.shutdown();
    front.join();
    for (_, server, agent) in rigs {
        agent.stop();
        server.shutdown();
        server.join();
    }
    coord.shutdown();
    coord.join();
}

#[test]
fn distributed_gen_matches_single_process_dataset() {
    let checkpoint = tmp_dir("gen");
    let spec = GenSpec {
        bench: "OTA1".to_string(),
        variant: "A".to_string(),
        samples: 8,
        shard_size: 2,
        seed: 5,
        c_low: 0.4,
        c_high: 2.4,
        checkpoint: checkpoint.to_string_lossy().into_owned(),
        threads: 1,
        cache_mb: 0,
    };
    let cfg = spec_config(&spec).unwrap();
    let design = spec_design(&spec).unwrap();
    let baseline = generate_dataset(
        &design.circuit,
        &design.placement,
        &design.tech,
        &design.graph,
        &cfg,
    )
    .unwrap();

    let coord = Coordinator::bind(CoordinatorConfig {
        addr: "127.0.0.1:0".to_string(),
        lease_ms: 0,
        gen: Some(spec.clone()),
    })
    .unwrap();
    let coordinator = coord.addr().to_string();
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let coordinator = coordinator.clone();
            std::thread::spawn(move || {
                let id = format!("g{i}");
                let agent = WorkerAgent::start(
                    &coordinator,
                    WorkerIdentity {
                        id: id.clone(),
                        addr: String::new(),
                        caps: WorkerCaps {
                            serve: false,
                            gen: true,
                        },
                        model_hash: String::new(),
                        guidance_len: 0,
                    },
                );
                let result = run_gen_worker(&coordinator, &id, Some(&agent));
                agent.stop();
                result
            })
        })
        .collect();
    assert!(
        coord.wait_gen_done(Duration::from_millis(25)),
        "a configured gen job must report done"
    );
    let mut shards_seen = 0;
    for t in workers {
        let summary = t.join().unwrap().unwrap();
        shards_seen += summary.shards_computed + summary.shards_skipped;
    }
    assert_eq!(shards_seen, 4, "both workers together cover all 4 shards");
    coord.shutdown();
    coord.join();

    let store = ShardStore::new(&checkpoint);
    let distributed = assemble_dataset(&store, &cfg, &design.graph)
        .unwrap()
        .expect("all shards complete");
    assert_eq!(
        serde_json::to_string(&distributed).unwrap(),
        serde_json::to_string(&baseline).unwrap(),
        "distributed generation must be bit-identical to the single-process run"
    );
    let _ = std::fs::remove_dir_all(&checkpoint);
}

/// Deadline propagation through a real front→worker hop: a generous budget
/// rides along and the request completes; an exhausted or malformed budget
/// is shed/rejected at the front before any worker is dialed — in
/// particular, an expired `/v1/route` never creates route work.
#[test]
fn deadline_propagation_and_front_shedding() {
    let gnn = small_gnn();
    let coord = Coordinator::bind(CoordinatorConfig {
        addr: "127.0.0.1:0".to_string(),
        lease_ms: 0,
        gen: None,
    })
    .unwrap();
    let coordinator = coord.addr().to_string();

    let bundle = ModelBundle::with_model("OTA1", "A", gnn).unwrap();
    let guidance_len = bundle.guidance_len();
    let model_hash = bundle.model_hash.clone();
    let job_dir = tmp_dir("deadline-jobs");
    let server = Server::bind(
        bundle,
        ServeConfig {
            job_dir: Some(job_dir.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let agent = WorkerAgent::start(
        &coordinator,
        WorkerIdentity {
            id: "d0".to_string(),
            addr: server.addr().to_string(),
            caps: WorkerCaps {
                serve: true,
                gen: false,
            },
            model_hash,
            guidance_len: guidance_len as u64,
        },
    );
    let front = Front::bind(FrontConfig {
        addr: "127.0.0.1:0".to_string(),
        coordinator,
        refresh_ms: 50,
        ..FrontConfig::default()
    })
    .unwrap();
    wait_ring(&front, 1);

    // A live budget rides through the whole hop: the front re-encodes the
    // remaining budget, the worker's gates all pass, and the answer comes
    // back byte-identical to a direct, deadline-free call.
    let body = guidance_body(guidance_len, 3);
    let budgeted = request_with(
        front.addr(),
        "POST",
        "/v1/predict",
        &body,
        &[("x-deadline-ms", "30000")],
    );
    assert_eq!(budgeted.status, 200, "{}", budgeted.text());
    let direct = request(server.addr(), "POST", "/v1/predict", &body);
    assert_eq!(budgeted.body, direct.body);

    // An already-exhausted budget — relative or absolute-in-the-past — is
    // shed at the front with 408 before routing.
    for spent in ["0", "@1"] {
        let shed = request_with(
            front.addr(),
            "POST",
            "/v1/predict",
            &body,
            &[("x-deadline-ms", spent)],
        );
        assert_eq!(shed.status, 408, "value {spent:?}: {}", shed.text());
    }

    // Garbage is the client's bug: 400, not 408.
    let bad = request_with(
        front.addr(),
        "POST",
        "/v1/predict",
        &body,
        &[("x-deadline-ms", "soon-ish")],
    );
    assert_eq!(bad.status, 400, "{}", bad.text());

    // An expired /v1/route is shed before any job is enqueued: the worker's
    // job directory must hold no shard afterwards.
    let route = request_with(
        front.addr(),
        "POST",
        "/v1/route",
        "{\"bench\":\"OTA1\",\"variant\":\"A\"}",
        &[("x-deadline-ms", "0")],
    );
    assert_eq!(route.status, 408, "{}", route.text());
    let jobs = std::fs::read_dir(&job_dir).map(|d| d.count()).unwrap_or(0);
    assert_eq!(jobs, 0, "an expired route request must enqueue nothing");

    front.shutdown();
    front.join();
    agent.stop();
    server.shutdown();
    server.join();
    coord.shutdown();
    coord.join();
    let _ = std::fs::remove_dir_all(&job_dir);
}

/// Drives the role at `addr` with raw request bytes — keep-alive, 400 and
/// 413 with close, `connection: close` — then shuts it down, through its
/// `shutdown()` when `call` and else through `shutdown_path`, and checks
/// that `stop` (its `join()`) returns.
fn check_role(
    role: &str,
    shutdown_path: &str,
    addr: SocketAddr,
    call: bool,
    stop: impl FnOnce() + Send + 'static,
) {
    let connect = || {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
    };
    let keep_alive = connect();
    let mut reader = BufReader::new(&keep_alive);
    for i in 0..3 {
        (&keep_alive)
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
            .unwrap();
        let resp = read_response(&mut reader).unwrap();
        assert_eq!((resp.status, resp.close), (200, false), "{role}: {i}");
    }
    drop(keep_alive);
    let oversize = format!(
        "POST /healthz HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        MAX_BODY + 1
    );
    for (raw, want) in [
        ("GARBAGE\r\n\r\n", 400),
        (oversize.as_str(), 413),
        ("GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n", 200),
    ] {
        let stream = connect();
        (&stream).write_all(raw.as_bytes()).unwrap();
        let mut reader = BufReader::new(&stream);
        let resp = read_response(&mut reader).unwrap();
        assert_eq!((resp.status, resp.close), (want, true), "{role}: {want}");
        let closed = reader.read(&mut [0u8; 1]).unwrap() == 0;
        assert!(closed, "{role}: the connection closes after the {want}");
    }

    if !call {
        let ack = request(addr, "POST", shutdown_path, "");
        assert_eq!((ack.status, ack.close), (200, true), "{role}");
    }
    // Either way the accept loop must wake up and join() return.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        stop();
        let _ = tx.send(());
    });
    let joined = rx.recv_timeout(Duration::from_secs(20)).is_ok();
    assert!(joined, "{role}: join() hung (shutdown() called: {call})");
}

#[test]
fn framing_and_shutdown_hold_on_every_role() {
    for call in [true, false] {
        let bundle = ModelBundle::with_model("OTA1", "A", small_gnn()).unwrap();
        let job_dir = Some(tmp_dir("framing-worker"));
        let cfg = ServeConfig {
            job_dir,
            ..ServeConfig::default()
        };
        let worker = Server::bind(bundle, cfg).unwrap();
        check_role("worker", "/v1/shutdown", worker.addr(), call, move || {
            if call {
                worker.shutdown();
            }
            worker.join();
        });
        let front = Front::bind(FrontConfig::default()).unwrap();
        check_role("front", "/v1/shutdown", front.addr(), call, move || {
            if call {
                front.shutdown();
            }
            front.join();
        });
        let coord = Coordinator::bind(CoordinatorConfig::default()).unwrap();
        check_role(
            "coordinator",
            "/fleet/shutdown",
            coord.addr(),
            call,
            move || {
                if call {
                    coord.shutdown();
                }
                coord.join();
            },
        );
    }
}
