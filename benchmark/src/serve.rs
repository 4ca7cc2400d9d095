//! `serve-predict` and `serve-mixed`: the served request through an
//! in-process fleet — coordinator, one af-serve worker, one af-fleet
//! front — driven over HTTP by two closed-loop keep-alive connections.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use af_fleet::protocol::WorkersResponse;
use af_fleet::{
    get_json, Coordinator, CoordinatorConfig, CoordinatorHandle, Front, FrontConfig, FrontHandle,
    HttpConn, RawResponse, WorkerAgent, WorkerCaps, WorkerIdentity,
};
use af_netlist::benchmarks;
use af_place::{place, PlacementVariant};
use af_serve::{JobRecord, ModelBundle, ServeConfig, Server, ServerHandle};
use af_sim::Performance;
use af_tech::Technology;
use analogfold::{generate_dataset, DatasetConfig, FlowConfig, HeteroGraph, ThreeDGnn};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::flow::THREADS;
use crate::{draw_guidance, stats, Recorder, Size, Workbench};

/// Served predictions per run compared bit for bit with an in-process
/// `PredictSession::predict`, split evenly over the predict connections.
pub(crate) const CHECKED: usize = 32;

/// Training seed of the served model. The model is part of the stack under
/// test, not of a run's inputs: every run serves the same one, so runs
/// differ only in the requests they send. A model trained per seed moved
/// guide and route-job costs, and with them the contention serve-mixed's
/// reads see, from seed to seed.
const MODEL_SEED: u64 = 2024;

/// Distinct bodies serve-mixed's cached-read connection draws from.
const POOL: usize = 256;

/// `/v1/guide` requests and `/v1/route` jobs serve-mixed sends at minimum
/// (each).
const MIN_HEAVY: usize = 2;

/// Operation classes of serve-mixed: cached reads, guides and route jobs
/// each weigh the same in the reported percentiles.
const READ: usize = 0;
const GUIDE: usize = 1;
const JOB: usize = 2;

/// How often a submitted route job is polled.
const POLL: Duration = Duration::from_millis(10);

/// Front-then-direct probe pairs of the traced hop measurement.
const HOP_PROBES: usize = 200;

/// Worker lease and front refresh: short, so a set-up sees its worker and
/// a teardown joins the heartbeat and refresh threads within ~0.2 s.
const LEASE_MS: u64 = 600;
const REFRESH_MS: u64 = 100;

pub(crate) struct ServeBench {
    seed: u64,
    size: Size,
    mixed: bool,
}

impl ServeBench {
    pub(crate) fn new(seed: u64, size: &Size, mixed: bool) -> Self {
        Self {
            seed,
            size: *size,
            mixed,
        }
    }
}

/// A running fleet; dropping it shuts every part down and joins it.
pub(crate) struct Stack {
    bundle: ModelBundle,
    front: Option<FrontHandle>,
    agent: Option<WorkerAgent>,
    server: Option<ServerHandle>,
    coordinator: Option<CoordinatorHandle>,
    front_addr: String,
    worker_addr: String,
    job_dir: PathBuf,
}

impl Drop for Stack {
    fn drop(&mut self) {
        if let Some(front) = self.front.take() {
            front.shutdown();
            front.join();
        }
        if let Some(agent) = self.agent.take() {
            agent.stop();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
        if let Some(coordinator) = self.coordinator.take() {
            coordinator.shutdown();
            coordinator.join();
        }
        let _ = std::fs::remove_dir_all(&self.job_dir);
    }
}

#[derive(Serialize)]
struct PredictBody {
    guidance: Vec<f64>,
}

#[derive(Deserialize)]
struct Predicted {
    performance: Performance,
}

#[derive(Serialize)]
struct GuideBody {
    seed: u64,
}

#[derive(Deserialize)]
struct Guided {
    guidance: Vec<f64>,
}

#[derive(Serialize)]
struct RouteBody {
    restarts: u64,
    n_derive: u64,
    route_threads: u64,
    seed: u64,
}

#[derive(Deserialize)]
struct Accepted {
    id: u64,
}

/// A keep-alive client that reconnects after a dropped connection.
struct Client {
    addr: String,
    conn: Option<HttpConn>,
}

impl Client {
    fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_string(),
            conn: None,
        }
    }

    fn call(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(String, String)],
        body: &[u8],
    ) -> Result<RawResponse, String> {
        let conn = match &mut self.conn {
            Some(conn) => conn,
            None => self
                .conn
                .insert(HttpConn::connect(&self.addr).map_err(|e| format!("connect: {e}"))?),
        };
        match conn.call(method, path, headers, body) {
            Ok(resp) => {
                if resp.close {
                    self.conn = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.conn = None;
                Err(format!("dropped connection: {e}"))
            }
        }
    }

    /// A call that must answer `want`; anything else is a failure.
    fn expect(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        want: u16,
    ) -> Result<RawResponse, String> {
        let resp = self.call(method, path, &[], body.as_bytes())?;
        if resp.status == want {
            Ok(resp)
        } else {
            Err(format!(
                "{method} {path}: status {} ({})",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ))
        }
    }
}

fn predict_body(guidance: Vec<f64>) -> String {
    serde_json::to_string(&PredictBody { guidance }).expect("serializable")
}

/// Waits up to ten seconds for `ready`.
fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One keep-alive `/v1/predict` connection and what it saw.
struct Reader {
    client: Client,
    /// Requests sent so far.
    sent: usize,
    ms: Vec<f64>,
    failures: Vec<String>,
    /// The first `check` answers: guidance and served metrics.
    checked: Vec<(Vec<f64>, [f64; 5])>,
    check: usize,
    hits: u64,
}

impl Reader {
    fn new(addr: &str, check: usize) -> Self {
        Self {
            client: Client::new(addr),
            sent: 0,
            ms: Vec::new(),
            failures: Vec::new(),
            checked: Vec::new(),
            check,
            hits: 0,
        }
    }

    /// Sends requests, request `i` carrying guidance `next(i)`, until
    /// `stop()` and at least `min` were sent.
    fn run(
        &mut self,
        min: usize,
        stop: impl Fn() -> bool,
        mut next: impl FnMut(usize) -> Vec<f64>,
    ) {
        while self.sent < min || !stop() {
            let guidance = next(self.sent);
            self.sent += 1;
            let body = predict_body(guidance.clone());
            let t = Instant::now();
            let resp = self.client.expect("POST", "/v1/predict", &body, 200);
            self.ms.push(t.elapsed().as_secs_f64() * 1e3);
            let resp = match resp {
                Ok(resp) => resp,
                Err(e) => {
                    self.failures.push(e);
                    continue;
                }
            };
            self.hits += u64::from(resp.header("x-cache") == Some("hit"));
            if self.checked.len() < self.check {
                match resp.json::<Predicted>() {
                    Ok(p) => self.checked.push((guidance, p.performance.as_array())),
                    Err(e) => self.failures.push(format!("predict answer: {e}")),
                }
            }
        }
    }
}

/// serve-mixed's heavy connection and what it saw.
struct Heavy {
    client: Client,
    seed: u64,
    /// Operations sent so far: guides at even, route jobs at odd counts.
    sent: usize,
    guide_ms: Vec<f64>,
    job_ms: Vec<f64>,
    failures: Vec<String>,
    digest: Vec<serde::Value>,
}

impl Heavy {
    /// Alternates `/v1/guide` requests (distinct seeds) and `/v1/route`
    /// jobs (each polled every [`POLL`] until it ends) until past
    /// `deadline` and at least `min` of each were sent. Digests the first
    /// `min` of each.
    fn run(&mut self, min: usize, deadline: Instant) {
        while self.sent < 2 * min || Instant::now() < deadline {
            let k = self.sent;
            self.sent += 1;
            let seed = afrt::split_seed(self.seed, k as u64);
            let t = Instant::now();
            if k.is_multiple_of(2) {
                let body = serde_json::to_string(&GuideBody { seed }).expect("serializable");
                let guided = self
                    .client
                    .expect("POST", "/v1/guide", &body, 200)
                    .and_then(|r| r.json::<Guided>().map_err(|e| e.to_string()));
                self.guide_ms.push(t.elapsed().as_secs_f64() * 1e3);
                match guided {
                    Ok(g) if k < 2 * min => self.digest.push(g.guidance.to_value()),
                    Ok(_) => {}
                    Err(e) => self.failures.push(format!("guide: {e}")),
                }
            } else {
                match route_job(&mut self.client, seed) {
                    Ok(record) => {
                        self.job_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        if k < 2 * min {
                            self.digest.push(record.result.to_value());
                        }
                    }
                    Err(e) => self.failures.push(format!("route job: {e}")),
                }
            }
        }
    }
}

/// Submits one route job and polls it until it ends; `Ok` only for a
/// `done` job with a clean layout and finite metrics.
fn route_job(client: &mut Client, seed: u64) -> Result<JobRecord, String> {
    let body = serde_json::to_string(&RouteBody {
        restarts: 2,
        n_derive: 1,
        route_threads: 1,
        seed,
    })
    .expect("serializable");
    let accepted: Accepted = client
        .expect("POST", "/v1/route", &body, 202)?
        .json()
        .map_err(|e| e.to_string())?;
    let path = format!("/v1/jobs/{}", accepted.id);
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let record: JobRecord = client
            .expect("GET", &path, "", 200)?
            .json()
            .map_err(|e| e.to_string())?;
        match record.status.as_str() {
            "done" => {
                let result = record.result.as_ref().ok_or("done job without a result")?;
                let finite = result.performance.as_array().iter().all(|v| v.is_finite());
                if result.conflicts != 0 || !finite {
                    return Err(format!(
                        "job {} layout has {} conflicts, metrics {:?}",
                        record.id,
                        result.conflicts,
                        result.performance.as_array()
                    ));
                }
                return Ok(record);
            }
            "failed" => return Err(format!("job {} failed: {:?}", record.id, record.error)),
            _ if Instant::now() > deadline => return Err(format!("job {} never ended", record.id)),
            _ => std::thread::sleep(POLL),
        }
    }
}

/// Front latency over direct-to-worker latency, p50 against p50, on the
/// same distinct bodies: each goes to the worker first with the response
/// cache bypassed (so nothing is cached), then through the front.
fn hop_ratio(stack: &Stack, seed: u64, rec: &mut Recorder) -> f64 {
    let len = stack.bundle.guidance_len();
    let range = DatasetConfig::default();
    let mut direct = Client::new(&stack.worker_addr);
    let mut front = Client::new(&stack.front_addr);
    let bypass = [("x-no-cache".to_string(), "1".to_string())];
    let (mut direct_ms, mut front_ms) = (Vec::new(), Vec::new());
    for i in 0..HOP_PROBES {
        let body = predict_body(draw_guidance(
            seed,
            i as u64,
            len,
            range.c_low,
            range.c_high,
        ));
        for (client, headers, out) in [
            (&mut direct, &bypass[..], &mut direct_ms),
            (&mut front, &[][..], &mut front_ms),
        ] {
            let t = Instant::now();
            let resp = client.call("POST", "/v1/predict", headers, body.as_bytes());
            out.push(t.elapsed().as_secs_f64() * 1e3);
            let status = resp.as_ref().map(|r| r.status);
            rec.outcome(status == Ok(200), || format!("hop probe: {status:?}"));
        }
    }
    stats::percentile(&stats::sorted(front_ms), 0.5)
        / stats::percentile(&stats::sorted(direct_ms), 0.5).max(1e-9)
}

static NEXT_JOB_DIR: AtomicU64 = AtomicU64::new(0);

impl Workbench for ServeBench {
    type State = Stack;

    fn setup(&self, rec: &mut Recorder) -> Stack {
        // Train the served OTA1-A model exactly as the flow's training
        // stage does at the benchmark's scale, from a fixed seed.
        let circuit = benchmarks::by_name("OTA1").expect("bundled benchmark");
        let tech = Technology::nm40();
        let placement = {
            let _s = af_obs::span!("place");
            place(&circuit, PlacementVariant::A)
        };
        let graph = {
            let _s = af_obs::span!("hetero");
            HeteroGraph::build(&circuit, &placement, &tech, 3)
        };
        let cfg = FlowConfig::builder()
            .samples(self.size.samples)
            .epochs(self.size.epochs)
            .seed(MODEL_SEED)
            .threads(THREADS)
            .route_threads(1)
            .build()
            .expect("benchmark flow configuration is valid");
        let dataset = generate_dataset(&circuit, &placement, &tech, &graph, &cfg.dataset)
            .unwrap_or_else(|e| panic!("training set of the served model: {e}"));
        let mut gnn = ThreeDGnn::new(&cfg.gnn);
        gnn.train(&graph, &dataset, &cfg.gnn);
        let bundle = ModelBundle::with_model("OTA1", "A", gnn).expect("bundled design");
        rec.digest(&bundle.model_hash);

        let coordinator = Coordinator::bind(CoordinatorConfig {
            addr: "127.0.0.1:0".to_string(),
            lease_ms: LEASE_MS,
            gen: None,
        })
        .expect("bind coordinator");
        let coordinator_addr = coordinator.addr().to_string();
        let job_dir = crate::out_dir().join(format!(
            "jobs-{}-{}",
            std::process::id(),
            NEXT_JOB_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&job_dir);
        let mut stack = Stack {
            bundle: bundle.clone(),
            front: None,
            agent: None,
            server: None,
            coordinator: Some(coordinator),
            front_addr: String::new(),
            worker_addr: String::new(),
            job_dir: job_dir.clone(),
        };
        let server = Server::bind(
            bundle,
            ServeConfig {
                workers: 8,
                job_dir: Some(job_dir),
                ..ServeConfig::default()
            },
        )
        .expect("bind serve worker");
        stack.worker_addr = server.addr().to_string();
        stack.agent = Some(WorkerAgent::start(
            &coordinator_addr,
            WorkerIdentity {
                id: "bench-worker".to_string(),
                addr: stack.worker_addr.clone(),
                caps: WorkerCaps {
                    serve: true,
                    gen: false,
                },
                model_hash: stack.bundle.model_hash.clone(),
                guidance_len: stack.bundle.guidance_len() as u64,
            },
        ));
        stack.server = Some(server);
        wait_until("the worker to register", || {
            get_json::<WorkersResponse>(&coordinator_addr, "/fleet/workers")
                .is_ok_and(|w| w.workers.len() == 1)
        });
        let front = Front::bind(FrontConfig {
            addr: "127.0.0.1:0".to_string(),
            coordinator: coordinator_addr,
            refresh_ms: REFRESH_MS,
            ..FrontConfig::default()
        })
        .expect("bind front");
        wait_until("the front to see the worker", || front.worker_count() == 1);
        stack.front_addr = front.addr().to_string();
        stack.front = Some(front);
        stack
    }

    fn measure(&self, stack: &mut Stack, seconds: f64, rec: &mut Recorder) {
        let seed = self.seed;
        let size = self.size;
        if af_obs::enabled() {
            let ratio = hop_ratio(stack, afrt::split_seed(seed, 3), rec);
            rec.values.insert("fleet.hop_ratio", ratio);
        }
        let len = stack.bundle.guidance_len();
        let range = DatasetConfig::default();
        let draw = |stream: u64, i: usize| {
            draw_guidance(
                afrt::split_seed(seed, stream),
                i as u64,
                len,
                range.c_low,
                range.c_high,
            )
        };
        let front = stack.front_addr.as_str();
        let pool: Vec<Vec<f64>> = if self.mixed {
            (0..POOL).map(|i| draw(1, i)).collect()
        } else {
            Vec::new()
        };
        let mut pick = ChaCha8Rng::seed_from_u64(afrt::split_seed(seed, 2));
        let mut readers: Vec<Reader> = if self.mixed {
            vec![Reader::new(front, CHECKED)]
        } else {
            (0..2).map(|_| Reader::new(front, CHECKED / 2)).collect()
        };
        let mut heavy = self.mixed.then(|| Heavy {
            client: Client::new(front),
            seed: afrt::split_seed(seed, 4),
            sent: 0,
            guide_ms: Vec::new(),
            job_ms: Vec::new(),
            failures: Vec::new(),
            digest: Vec::new(),
        });

        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        // serve-mixed's cached reads run for as long as the heavy connection
        // is busy, so every read competes with it.
        let busy = &AtomicBool::new(true);
        std::thread::scope(|s| match heavy.as_mut() {
            Some(heavy) => {
                s.spawn(move || {
                    heavy.run(MIN_HEAVY, deadline);
                    busy.store(false, Ordering::SeqCst);
                });
                readers[0].run(
                    size.min_predicts,
                    || !busy.load(Ordering::SeqCst),
                    |_| pool[pick.gen_range(0..POOL)].clone(),
                );
            }
            None => {
                for (c, reader) in (5u64..).zip(readers.iter_mut()) {
                    s.spawn(move || {
                        reader.run(
                            size.min_predicts,
                            || Instant::now() >= deadline,
                            |i| draw(c, i),
                        );
                    });
                }
            }
        });

        let mut session = stack.bundle.session();
        let (mut predicts, mut hits) = (0usize, 0u64);
        for reader in readers {
            predicts += reader.sent;
            hits += reader.hits;
            rec.attempted += reader.sent as u64;
            rec.failed += reader.failures.len() as u64;
            for &ms in &reader.ms {
                rec.request(READ, ms);
            }
            for f in reader.failures {
                rec.problem(f);
            }
            for (guidance, served) in &reader.checked {
                let want = session.predict(guidance);
                if want.map(f64::to_bits) != served.map(f64::to_bits) {
                    rec.problem(format!(
                        "served prediction {served:?} != in-process {want:?}"
                    ));
                }
                rec.digest(guidance);
                rec.digest(served);
            }
        }
        let p99 = stats::percentile(
            &stats::sorted(rec.ops.iter().filter(|o| o.0 == READ).map(|o| o.1)),
            0.99,
        );
        rec.notes.push(format!(
            "{predicts} predicts (p99 {p99:.3} ms), {hits} answered from the response cache"
        ));

        if let Some(h) = heavy {
            rec.attempted += h.sent as u64;
            rec.failed += h.failures.len() as u64;
            for f in h.failures {
                rec.problem(f);
            }
            rec.digest.extend(h.digest);
            for &ms in &h.guide_ms {
                rec.request(GUIDE, ms);
            }
            for &ms in &h.job_ms {
                rec.request(JOB, ms);
            }
            let per_s = |ms: &[f64]| ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3).max(1e-9);
            rec.values.insert("serve.guides_per_s", per_s(&h.guide_ms));
            rec.values
                .insert("serve.route_jobs_per_s", per_s(&h.job_ms));
            rec.values.insert("serve.jobs_done", h.job_ms.len() as f64);
            let p50 = |ms: &[f64]| stats::percentile(&stats::sorted(ms.iter().copied()), 0.5);
            rec.notes.push(format!(
                "{} guides (p50 {:.1} ms), {} route jobs done (p50 {:.1} ms)",
                h.guide_ms.len(),
                p50(&h.guide_ms),
                h.job_ms.len(),
                p50(&h.job_ms)
            ));
        }
    }
}
