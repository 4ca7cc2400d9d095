//! End-to-end tests over real loopback sockets: an in-process server with
//! a resident (untrained) model — serving semantics are independent of
//! training quality — exercised through the shared HTTP client.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use af_serve::api::{
    HealthResponse, ModelsResponse, PredictResponse, PromoteResponse, RouteAccepted,
};
use af_serve::http::{self, RawResponse};
use af_serve::{JobRecord, JobStore, ModelBundle, ServeConfig, Server, ServerHandle};
use analogfold::{GnnConfig, ThreeDGnn};

fn tiny_bundle() -> ModelBundle {
    let gnn = ThreeDGnn::new(&GnnConfig {
        hidden: 8,
        layers: 1,
        ..GnnConfig::default()
    });
    ModelBundle::with_model("OTA1", "A", gnn).unwrap()
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("af-serve-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(name: &str, tweak: impl FnOnce(&mut ServeConfig)) -> (ServerHandle, std::path::PathBuf) {
    let dir = tmp_dir(name);
    let mut cfg = ServeConfig {
        job_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    tweak(&mut cfg);
    (Server::bind(tiny_bundle(), cfg).unwrap(), dir)
}

/// One-shot request on a fresh connection.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> RawResponse {
    http::request(&addr.to_string(), method, path, &[], body.as_bytes()).unwrap()
}

fn predict_metrics(resp: &RawResponse) -> [f64; 5] {
    resp.json::<PredictResponse>()
        .unwrap()
        .performance
        .as_array()
}

#[test]
fn health_metrics_and_error_statuses() {
    let (server, _dir) = start("health", |_| {});
    let addr = server.addr();

    let health = request(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    let health: HealthResponse = health.json().unwrap();
    assert_eq!(health.circuit, "OTA1");
    assert!(health.guidance_len > 0);

    let metrics = request(addr, "GET", "/metrics", "");
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.header("content-type"),
        Some("text/plain; charset=utf-8")
    );

    assert_eq!(request(addr, "GET", "/nope", "").status, 404);
    assert_eq!(request(addr, "GET", "/v1/predict", "").status, 405);
    assert_eq!(request(addr, "POST", "/v1/predict", "not json").status, 400);
    assert_eq!(
        request(addr, "POST", "/v1/predict", "{\"guidance\":[1.0]}").status,
        400,
        "wrong guidance length is a client error"
    );
    assert_eq!(request(addr, "GET", "/v1/jobs/notanumber", "").status, 400);
    assert_eq!(request(addr, "GET", "/v1/jobs/4242", "").status, 404);

    server.shutdown();
    server.join();
}

#[test]
fn concurrent_predictions_are_bit_identical_to_single_requests() {
    let (server, _dir) = start("bitident", |cfg| {
        // Six handlers, each predicting on a program of its own: pin the
        // worker count so all six requests are in flight at once whatever
        // the hardware-derived default is (the CI container may have one
        // core).
        cfg.workers = 6;
    });
    let addr = server.addr();

    let bundle = tiny_bundle();
    let len = bundle.guidance_len();
    let inputs: Vec<Vec<f64>> = (0..6)
        .map(|k| (0..len).map(|i| ((i + k) as f64).sin() * 0.4).collect())
        .collect();
    let mut session = bundle.session();
    let expected: Vec<[f64; 5]> = inputs.iter().map(|g| session.predict(g)).collect();

    // Fire all six concurrently: each lands on its own handler, whose
    // program was compiled independently of the others.
    let inputs = Arc::new(inputs);
    let handles: Vec<_> = (0..inputs.len())
        .map(|k| {
            let inputs = Arc::clone(&inputs);
            std::thread::spawn(move || {
                let guidance: Vec<String> = inputs[k].iter().map(|v| format!("{v:?}")).collect();
                let body = format!("{{\"guidance\":[{}]}}", guidance.join(","));
                request(addr, "POST", "/v1/predict", &body)
            })
        })
        .collect();
    let responses: Vec<RawResponse> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    for (resp, want) in responses.iter().zip(&expected) {
        assert_eq!(resp.status, 200, "body: {}", resp.text());
        // Bit-identical: vendored serde_json prints f64 via `{:?}`, which
        // round-trips exactly, so exact equality is the right assertion.
        assert_eq!(
            predict_metrics(resp),
            *want,
            "a concurrent predict must match a lone session's"
        );
    }

    server.shutdown();
    server.join();
}

#[test]
fn identical_predicts_hit_the_response_cache() {
    let (server, _dir) = start("cache", |cfg| {
        cfg.cache_mb = 8;
    });
    let addr = server.addr();
    let bundle = tiny_bundle();
    let body = format!(
        "{{\"guidance\":[{}]}}",
        vec!["0.7"; bundle.guidance_len()].join(",")
    );

    let first = request(addr, "POST", "/v1/predict", &body);
    assert_eq!(first.status, 200, "body: {}", first.text());
    assert_eq!(first.header("x-cache"), Some("miss"));

    let second = request(addr, "POST", "/v1/predict", &body);
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(
        second.body, first.body,
        "a cache hit must replay the exact body"
    );

    // A different request is its own key.
    let other_body = format!(
        "{{\"guidance\":[{}]}}",
        vec!["0.9"; bundle.guidance_len()].join(",")
    );
    let other = request(addr, "POST", "/v1/predict", &other_body);
    assert_eq!(other.header("x-cache"), Some("miss"));

    // x-no-cache bypasses: fresh compute, no x-cache header.
    let no_cache = [("x-no-cache".to_string(), "1".to_string())];
    let bypass = http::request(
        &addr.to_string(),
        "POST",
        "/v1/predict",
        &no_cache,
        body.as_bytes(),
    )
    .unwrap();
    assert_eq!(bypass.status, 200);
    assert_eq!(bypass.header("x-cache"), None, "bypass skips the cache");

    server.shutdown();
    server.join();
}

#[test]
fn cache_disabled_serves_uncached() {
    let (server, _dir) = start("nocache", |cfg| {
        cfg.cache_mb = 0;
    });
    let addr = server.addr();
    let bundle = tiny_bundle();
    let body = format!(
        "{{\"guidance\":[{}]}}",
        vec!["0.7"; bundle.guidance_len()].join(",")
    );
    for _ in 0..2 {
        let resp = request(addr, "POST", "/v1/predict", &body);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-cache"), None);
    }
    server.shutdown();
    server.join();
}

#[test]
fn flooding_a_bounded_queue_sheds_with_429_and_retry_after() {
    let (server, _dir) = start("flood", |cfg| {
        cfg.workers = 1;
        cfg.conn_queue = 1;
    });
    let addr = server.addr();
    let bundle = tiny_bundle();
    let body = format!(
        "{{\"guidance\":[{}]}}",
        vec!["0.1"; bundle.guidance_len()].join(",")
    );

    // Occupy the single worker. Once a keep-alive connection's first
    // request is answered, the worker is reading that connection's next
    // one; a predict whose body is still arriving holds it there, for up
    // to `keepalive_idle_ms` (5 s).
    let mut blocker = TcpStream::connect(addr).unwrap();
    blocker
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(blocker.try_clone().unwrap());
    blocker.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(http::read_response(&mut reader).unwrap().status, 200);
    let (part, rest) = body.as_bytes().split_at(body.len() / 2);
    write!(
        blocker,
        "POST /v1/predict HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    blocker.write_all(part).unwrap();

    // Flood: first extra connection parks in the queue (capacity 1), the
    // rest must be shed at accept with 429 + Retry-After.
    let statuses: Vec<u16> = std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        for _ in 0..5 {
            let (tx, body) = (tx.clone(), &body);
            s.spawn(move || tx.send(request(addr, "POST", "/v1/predict", body)).unwrap());
        }
        // The shed floods are answered at accept; the parked one only once
        // the worker is free.
        let mut floods: Vec<RawResponse> = (0..4)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        // The rest of the body completes the held request, which closes
        // its connection and frees the worker for the parked one.
        blocker.write_all(rest).unwrap();
        let held = http::read_response(&mut reader).unwrap();
        assert_eq!(held.status, 200, "body: {}", held.text());
        floods.push(rx.recv().unwrap());
        floods
            .iter()
            .map(|resp| {
                if resp.status == 429 {
                    assert_eq!(resp.header("retry-after"), Some("1"));
                }
                resp.status
            })
            .collect()
    });
    drop((blocker, reader));
    assert!(
        statuses.iter().filter(|s| **s == 429).count() >= 3,
        "overflowing a capacity-1 queue must shed most of 5 floods, got {statuses:?}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn route_jobs_complete_survive_restart_and_drain_on_shutdown() {
    let (server, dir) = start("jobs", |cfg| {
        cfg.job_workers = 1;
    });
    let addr = server.addr();

    // Cheap flow parameters: untrained model, 2 restarts, 1 candidate.
    let submit = request(
        addr,
        "POST",
        "/v1/route",
        "{\"restarts\":2,\"lbfgs_iters\":3,\"n_derive\":1,\"seed\":5}",
    );
    assert_eq!(submit.status, 202, "body: {}", submit.text());
    let ticket: RouteAccepted = submit.json().unwrap();
    assert_eq!(ticket.status, "queued");
    let id = ticket.id;

    // Poll to completion.
    let deadline = Instant::now() + Duration::from_secs(300);
    let result = loop {
        let poll = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(poll.status, 200);
        let record: JobRecord = poll.json().unwrap();
        match record.status.as_str() {
            "done" => break record.result.expect("a done job carries its result"),
            "failed" => panic!("job failed: {}", poll.text()),
            _ => {
                assert!(Instant::now() < deadline, "job did not finish in time");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    };
    assert!(result.wirelength_um > 0.0);
    assert!(result.performance.bandwidth_mhz.is_finite());

    // A second job queued right before shutdown must still complete: join()
    // drains the job queue before returning.
    let submit2 = request(
        addr,
        "POST",
        "/v1/route",
        "{\"restarts\":1,\"lbfgs_iters\":2,\"n_derive\":1,\"seed\":6}",
    );
    assert_eq!(submit2.status, 202);
    let id2 = submit2.json::<RouteAccepted>().unwrap().id;
    let shut = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(shut.status, 200);
    server.join();

    // The store on disk has both jobs done — the drained one included.
    let store = JobStore::open(&dir).unwrap();
    assert_eq!(store.get(id).unwrap().status, "done");
    assert_eq!(
        store.get(id2).unwrap().status,
        "done",
        "graceful shutdown must drain queued jobs"
    );
}

fn seeded_gnn(seed: u64) -> ThreeDGnn {
    ThreeDGnn::new(&GnnConfig {
        hidden: 8,
        layers: 1,
        seed,
        ..GnnConfig::default()
    })
}

#[test]
fn promotion_hot_swaps_bit_stably_and_partitions_the_cache() {
    use af_model::{Lineage, ModelRegistry};

    let reg_dir = tmp_dir("swap-registry");
    let (gnn1, gnn2) = (seeded_gnn(1), seeded_gnn(2));
    let mut registry = ModelRegistry::open(&reg_dir).unwrap();
    let h1 = registry.register(&gnn1, Lineage::default()).unwrap().hash;
    let h2 = registry.register(&gnn2, Lineage::default()).unwrap().hash;
    assert_ne!(h1, h2);
    registry.promote(&h1, false).unwrap();
    drop(registry);

    // Each model's exact one-shot outputs, computed out of process.
    let bundle1 = ModelBundle::with_model("OTA1", "A", gnn1).unwrap();
    let bundle2 = ModelBundle::with_model("OTA1", "A", gnn2).unwrap();
    let guidance: Vec<f64> = (0..bundle1.guidance_len())
        .map(|i| (i as f64).cos() * 0.3)
        .collect();
    let want1 = bundle1.session().predict(&guidance);
    let want2 = bundle2.session().predict(&guidance);
    assert_ne!(want1, want2, "differently seeded models must differ");
    let body = format!(
        "{{\"guidance\":[{}]}}",
        guidance
            .iter()
            .map(|v| format!("{v:?}"))
            .collect::<Vec<_>>()
            .join(",")
    );

    let dir = tmp_dir("swap-jobs");
    let cfg = ServeConfig {
        job_dir: Some(dir),
        registry: Some(reg_dir.clone()),
        cache_mb: 8,
        ..ServeConfig::default()
    };
    let server = Server::bind(
        ModelBundle::with_model("OTA1", "A", seeded_gnn(1)).unwrap(),
        cfg,
    )
    .unwrap();
    let addr = server.addr();

    // Incumbent answers with its exact one-shot output; repeat hits cache.
    let first = request(addr, "POST", "/v1/predict", &body);
    assert_eq!(first.status, 200, "body: {}", first.text());
    assert_eq!(first.header("x-cache"), Some("miss"));
    assert_eq!(predict_metrics(&first), want1);
    let again = request(addr, "POST", "/v1/predict", &body);
    assert_eq!(again.header("x-cache"), Some("hit"));
    assert_eq!(again.body, first.body);

    // Promote the candidate over HTTP: the reply names both hashes and the
    // swap is visible to the very next request.
    let promote = request(
        addr,
        "POST",
        "/v1/models/promote",
        &format!("{{\"hash\":\"{h2}\"}}"),
    );
    assert_eq!(promote.status, 200, "body: {}", promote.text());
    let promoted: PromoteResponse = promote.json().unwrap();
    assert_eq!((promoted.model_hash, promoted.previous), (h2.clone(), h1));

    // Same request, new model: a cache *miss* (keys are partitioned by
    // model hash, so a stale hit is impossible) with the new model's exact
    // output — then a hit replaying exactly that.
    let swapped = request(addr, "POST", "/v1/predict", &body);
    assert_eq!(swapped.status, 200, "body: {}", swapped.text());
    assert_eq!(
        swapped.header("x-cache"),
        Some("miss"),
        "cache must not cross model versions"
    );
    assert_eq!(predict_metrics(&swapped), want2);
    let swapped_again = request(addr, "POST", "/v1/predict", &body);
    assert_eq!(swapped_again.header("x-cache"), Some("hit"));
    assert_eq!(swapped_again.body, swapped.body);

    let models = request(addr, "GET", "/v1/models", "");
    assert_eq!(models.status, 200);
    let models: ModelsResponse = models.json().unwrap();
    assert_eq!(models.resident, h2);
    assert_eq!(models.current, Some(h2));

    // A candidate with a recorded regression verdict is refused (409)
    // unless forced.
    let mut registry = ModelRegistry::open(&reg_dir).unwrap();
    let h3 = registry
        .register(&seeded_gnn(3), Lineage::default())
        .unwrap()
        .hash;
    registry
        .record_verdict(&h3, true, "e2e regression")
        .unwrap();
    drop(registry);
    let refused = request(
        addr,
        "POST",
        "/v1/models/promote",
        &format!("{{\"hash\":\"{h3}\"}}"),
    );
    assert_eq!(refused.status, 409, "body: {}", refused.text());
    let forced = request(
        addr,
        "POST",
        "/v1/models/promote",
        &format!("{{\"hash\":\"{h3}\",\"force\":true}}"),
    );
    assert_eq!(forced.status, 200, "body: {}", forced.text());
    assert_eq!(forced.json::<PromoteResponse>().unwrap().model_hash, h3);

    server.shutdown();
    server.join();
}

#[test]
fn restart_with_new_model_marks_recovered_jobs_stale() {
    let dir = tmp_dir("stale-jobs");
    let bundle1 = ModelBundle::with_model("OTA1", "A", seeded_gnn(11)).unwrap();
    let h1 = bundle1.model_hash.clone();
    let cfg = ServeConfig {
        job_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    let server = Server::bind(bundle1, cfg.clone()).unwrap();
    let addr = server.addr();
    let submit = request(
        addr,
        "POST",
        "/v1/route",
        "{\"restarts\":1,\"lbfgs_iters\":2,\"n_derive\":1,\"seed\":5}",
    );
    assert_eq!(submit.status, 202, "body: {}", submit.text());
    let id = submit.json::<RouteAccepted>().unwrap().id;
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let poll = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        let record: JobRecord = poll.json().unwrap();
        match record.status.as_str() {
            "done" => {
                assert_eq!(
                    record.model_hash.as_deref(),
                    Some(h1.as_str()),
                    "a done job records which model produced it"
                );
                break;
            }
            "failed" => panic!("job failed: {}", poll.text()),
            _ => {
                assert!(Instant::now() < deadline, "job did not finish in time");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    server.shutdown();
    server.join();

    // Restart over the same job store with a *different* model: the
    // recovered result is still served, but marked as produced by a
    // superseded model rather than silently passed off as current.
    let bundle2 = ModelBundle::with_model("OTA1", "A", seeded_gnn(12)).unwrap();
    assert_ne!(bundle2.model_hash, h1);
    let server = Server::bind(bundle2, cfg).unwrap();
    let poll = request(server.addr(), "GET", &format!("/v1/jobs/{id}"), "");
    assert_eq!(poll.status, 200, "recovered results stay served");
    let record: JobRecord = poll.json().unwrap();
    assert_eq!(record.model_hash, Some(h1));
    assert_eq!(
        record.stale_model,
        Some(true),
        "recovered job from a superseded model must be marked: {}",
        poll.text()
    );
    server.shutdown();
    server.join();
}
