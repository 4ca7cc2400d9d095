//! Chaos suite: the pipeline and the server under armed failpoints.
//!
//! Every test holds [`fault::scenario`] for its whole body, so the suite
//! serializes and the global failpoint registry never leaks into (or out
//! of) a test. Firing decisions are pure functions of the fault seed and
//! the site key, so each of these tests is deterministic: a seed that
//! passes once passes always.
//!
//! The two properties under test, per ISSUE acceptance criteria:
//!
//! 1. **Transient faults are invisible** — once retries succeed, results
//!    are bit-identical to a fault-free run (the retried work is recomputed
//!    from the same per-sample seeds).
//! 2. **Permanent faults degrade, never hang or abort** — failed samples
//!    are recorded in the checkpoint, a flow with no routable candidate
//!    falls back to unguided routing, and a predict that panics on a serve
//!    handler answers its request with `503` while `/healthz` reports
//!    `degraded` for the recovery grace.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use analogfold_suite::analogfold::{
    generate_dataset, generate_dataset_checkpointed, magical_route, relax, AnalogFoldFlow,
    DatasetConfig, FlowConfig, GnnConfig, HeteroGraph, Potential, RelaxConfig, SampleRecord,
    ShardStore, ThreeDGnn,
};
use analogfold_suite::fault::{self, FaultMode, RetryPolicy};
use analogfold_suite::netlist::{benchmarks, NetId};
use analogfold_suite::obs::{Event, MemorySink};
use analogfold_suite::place::{place, PlacementVariant};
use analogfold_suite::route::{Router, RouterConfig, RoutingGuidance};
use analogfold_suite::serve::api::{HealthResponse, PredictResponse};
use analogfold_suite::serve::http::{self, RawResponse};
use analogfold_suite::serve::{ModelBundle, ServeConfig, Server};
use analogfold_suite::sim::SimConfig;
use analogfold_suite::tech::Technology;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("af-chaos-{}-{name}", std::process::id()));
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

fn small_dataset_cfg() -> DatasetConfig {
    DatasetConfig {
        samples: 6,
        shard_size: 3,
        // Quick (zero-delay) retries: the injected faults are keyed by
        // (sample, attempt), so later attempts draw fresh and recover.
        retry: RetryPolicy::quick(5),
        ..DatasetConfig::default()
    }
}

#[test]
fn dataset_bit_identical_under_transient_faults() {
    let circuit = benchmarks::ota1();
    let tech = Technology::nm40();
    let placement = place(&circuit, PlacementVariant::A);
    let graph = HeteroGraph::build(&circuit, &placement, &tech, 3);
    let cfg = small_dataset_cfg();

    let baseline = {
        let _guard = fault::scenario();
        let store = ShardStore::new(tmp_dir("ds-baseline"));
        generate_dataset_checkpointed(&circuit, &placement, &tech, &graph, &cfg, Some(&store))
            .unwrap()
    };

    let _guard = fault::scenario();
    fault::set_seed(7);
    fault::arm("sim.eval", FaultMode::Err, 0.3);
    fault::arm("persist.save_shard", FaultMode::Err, 0.3);
    let store = ShardStore::new(tmp_dir("ds-faulty")).with_retry(RetryPolicy::quick(6));
    let faulty =
        generate_dataset_checkpointed(&circuit, &placement, &tech, &graph, &cfg, Some(&store))
            .unwrap();

    let fired =
        fault::stats("sim.eval").unwrap().fires + fault::stats("persist.save_shard").unwrap().fires;
    assert!(fired > 0, "the chaos run must actually inject faults");

    assert_eq!(baseline.samples.len(), faulty.samples.len());
    for (a, b) in baseline.samples.iter().zip(&faulty.samples) {
        assert_eq!(a.guidance, b.guidance, "retries must recompute, not skew");
        assert_eq!(a.performance, b.performance);
    }
}

#[test]
fn permanent_failures_are_recorded_then_healed_on_resume() {
    let circuit = benchmarks::ota1();
    let tech = Technology::nm40();
    let placement = place(&circuit, PlacementVariant::A);
    let graph = HeteroGraph::build(&circuit, &placement, &tech, 3);
    let cfg = DatasetConfig {
        retry: RetryPolicy::quick(2),
        ..small_dataset_cfg()
    };
    let dir = tmp_dir("ds-permanent");

    {
        let _guard = fault::scenario();
        fault::arm("sim.eval", FaultMode::Err, 1.0);
        let store = ShardStore::new(&dir);
        let ds =
            generate_dataset_checkpointed(&circuit, &placement, &tech, &graph, &cfg, Some(&store))
                .unwrap();
        assert!(
            ds.samples.is_empty(),
            "every sample permanently fails, yet generation completes"
        );
        let shard: Vec<SampleRecord> = store.load_shard(0).unwrap().unwrap();
        assert_eq!(shard.len(), cfg.shard_size);
        for record in &shard {
            assert!(record.performance.is_none());
            assert!(record.error.as_deref().unwrap().contains("sim.eval"));
        }
    }

    // A disarmed resume over the same checkpoint regenerates the failed
    // shards and lands on the fault-free result exactly.
    let _guard = fault::scenario();
    let store = ShardStore::new(&dir);
    let healed =
        generate_dataset_checkpointed(&circuit, &placement, &tech, &graph, &cfg, Some(&store))
            .unwrap();
    let reference = generate_dataset(&circuit, &placement, &tech, &graph, &cfg).unwrap();
    assert_eq!(healed.samples.len(), cfg.samples);
    for (a, b) in healed.samples.iter().zip(&reference.samples) {
        assert_eq!(a.guidance, b.guidance);
        assert_eq!(a.performance, b.performance);
    }
}

#[test]
fn flow_degrades_to_unguided_fallback_when_every_candidate_fails() {
    let circuit = benchmarks::ota1();
    let placement = place(&circuit, PlacementVariant::A);
    let gnn = small_gnn();
    let cfg = FlowConfig::builder()
        .relax(RelaxConfig {
            restarts: 3,
            pool_size: 2,
            n_derive: 2,
            lbfgs_iters: 3,
            ..RelaxConfig::default()
        })
        .build()
        .unwrap();
    let flow = AnalogFoldFlow::new(cfg);

    let _guard = fault::scenario();
    fault::arm("flow.candidate", FaultMode::Err, 1.0);
    let outcome = flow.run_with_model(&circuit, &placement, &gnn).unwrap();
    assert!(fault::stats("flow.candidate").unwrap().fires >= 2);
    assert!(
        outcome.guidance.is_empty(),
        "the fallback is unguided, so the outcome carries no guidance"
    );

    let (_, _, unguided) = magical_route(
        &circuit,
        &placement,
        &Technology::nm40(),
        &RouterConfig::default(),
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(outcome.performance, unguided);
}

#[test]
fn reused_candidates_still_pass_the_candidate_failpoint() {
    let circuit = benchmarks::ota1();
    let placement = place(&circuit, PlacementVariant::A);
    // A seeded flow in which two of the three candidates are dataset
    // samples, which guided routing takes from the dataset stage.
    let builder = FlowConfig::builder()
        .samples(4)
        .gnn(GnnConfig {
            epochs: 3,
            hidden: 8,
            layers: 1,
            ..GnnConfig::default()
        })
        .restarts(4)
        .n_derive(3)
        .seed(1)
        .threads(1);
    let sink = Arc::new(MemorySink::new());
    let _guard = fault::scenario();
    AnalogFoldFlow::new(builder.clone().obs(sink.clone()).build().unwrap())
        .run(&circuit, &placement)
        .unwrap();
    let reused = sink.events().iter().find_map(|e| match e {
        Event::Counter { name, value, .. } if name == "flow.candidates_reused" => Some(*value),
        _ => None,
    });
    assert!(reused.is_some_and(|n| n >= 1), "reused {reused:?}");

    // The failpoint comes first, so it fails every candidate, reused or not.
    fault::arm("flow.candidate", FaultMode::Err, 1.0);
    let outcome = AnalogFoldFlow::new(builder.build().unwrap())
        .run(&circuit, &placement)
        .unwrap();
    let stats = fault::stats("flow.candidate").unwrap();
    assert_eq!((stats.evals, stats.fires), (3, 3));
    assert!(outcome.guidance.is_empty(), "unguided fallback");
}

#[test]
fn relax_reinitializes_injected_nonfinite_restarts() {
    let circuit = benchmarks::ota1();
    let tech = Technology::nm40();
    let placement = place(&circuit, PlacementVariant::A);
    let graph = HeteroGraph::build(&circuit, &placement, &tech, 3);
    let gnn = small_gnn();
    let potential = Potential::new(&gnn, &graph);
    let cfg = RelaxConfig {
        restarts: 4,
        pool_size: 3,
        n_derive: 2,
        lbfgs_iters: 4,
        ..RelaxConfig::default()
    };

    let _guard = fault::scenario();
    fault::set_seed(3);
    fault::arm("relax.nonfinite", FaultMode::Err, 0.5);
    let outcomes = relax(&potential, &cfg);
    assert!(fault::stats("relax.nonfinite").unwrap().fires > 0);
    assert!(!outcomes.is_empty());
    for o in &outcomes {
        assert!(o.potential.is_finite());
        assert!(o.guidance.iter().all(|g| g.is_finite()));
    }
}

#[test]
fn relax_survives_nan_value_grad_injection() {
    let circuit = benchmarks::ota1();
    let tech = Technology::nm40();
    let placement = place(&circuit, PlacementVariant::A);
    let graph = HeteroGraph::build(&circuit, &placement, &tech, 3);
    let gnn = small_gnn();
    let potential = Potential::new(&gnn, &graph);
    let cfg = RelaxConfig {
        restarts: 4,
        pool_size: 3,
        n_derive: 2,
        lbfgs_iters: 4,
        ..RelaxConfig::default()
    };

    let _guard = fault::scenario();
    // The first three surrogate evaluations return (NaN, 0⃗): whichever
    // restarts they poison must be re-initialized, never pooled.
    fault::arm_limited("relax.value_grad", FaultMode::Nan, 1.0, Some(3));
    let outcomes = relax(&potential, &cfg);
    assert_eq!(fault::stats("relax.value_grad").unwrap().fires, 3);
    assert!(!outcomes.is_empty());
    for o in &outcomes {
        assert!(o.potential.is_finite());
        assert!(o.guidance.iter().all(|g| g.is_finite()));
    }
}

/// CI hook: arms whatever `AF_FAULT` / `AF_FAULT_SEED` specify (falling
/// back to a fixed local schedule when unset) and asserts the guided flow
/// still completes — degraded if it must, but never hung or aborted.
#[test]
fn env_armed_flow_completes() {
    let _guard = fault::scenario();
    if fault::arm_from_env().unwrap() == 0 {
        fault::set_seed(7);
        fault::arm_spec("flow.candidate:err:0.4,relax.nonfinite:err:0.3").unwrap();
    }

    let circuit = benchmarks::ota1();
    let placement = place(&circuit, PlacementVariant::A);
    let cfg = FlowConfig::builder()
        .relax(RelaxConfig {
            restarts: 3,
            pool_size: 2,
            n_derive: 2,
            lbfgs_iters: 3,
            ..RelaxConfig::default()
        })
        .build()
        .unwrap();
    let outcome = AnalogFoldFlow::new(cfg)
        .run_with_model(&circuit, &placement, &small_gnn())
        .unwrap();
    assert!(outcome.performance.dc_gain_db.is_finite());
}

// ---------------------------------------------------------------------------
// Serving tier: a predict panic on a handler thread → 503 for that request,
// degraded health for the grace window, full recovery.

/// One-shot request on a fresh connection.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> RawResponse {
    http::request(&addr.to_string(), method, path, &[], body.as_bytes()).unwrap()
}

fn health(addr: SocketAddr) -> HealthResponse {
    let reply = request(addr, "GET", "/healthz", "");
    assert_eq!(reply.status, 200, "health stays up while degraded");
    reply.json().unwrap()
}

#[test]
fn serve_recovers_from_a_predict_panic() {
    let _guard = fault::scenario();
    // Exactly one panic, armed before the server starts: the first predict
    // panics on its handler thread.
    fault::arm_limited("serve.predict", FaultMode::Panic, 1.0, Some(1));

    let bundle = ModelBundle::with_model("OTA1", "A", small_gnn()).unwrap();
    let guidance_len = bundle.guidance_len();
    let cfg = ServeConfig {
        job_dir: Some(tmp_dir("serve")),
        supervisor_backoff_ms: 20,
        supervisor_grace_ms: 400,
        ..ServeConfig::default()
    };
    let server = Server::bind(bundle, cfg).unwrap();
    let addr = server.addr();
    let body = format!("{{\"guidance\":{:?}}}", vec![0.0; guidance_len]);

    let first = request(addr, "POST", "/v1/predict", &body);
    assert_eq!(
        first.status,
        503,
        "the in-flight request gets an error, not a hang: {}",
        first.text()
    );

    // The panic marks the server degraded for the grace (400 ms here), so
    // polling right after the 503 must observe it.
    let deadline = Instant::now() + Duration::from_millis(300);
    let mut saw_degraded = false;
    while Instant::now() < deadline {
        if health(addr).status == "degraded" {
            saw_degraded = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(saw_degraded, "/healthz must report the restart window");

    // ... and clears the flag once the grace has passed.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = health(addr);
        if now.status == "ok" {
            assert!(now.restarts >= 1);
            break;
        }
        assert!(Instant::now() < deadline, "server never recovered: {now:?}");
        std::thread::sleep(Duration::from_millis(50));
    }

    let second = request(addr, "POST", "/v1/predict", &body);
    assert_eq!(second.status, 200, "body: {}", second.text());

    server.shutdown();
    server.join();
}

// ---------------------------------------------------------------------------
// Fleet tier: a gen worker killed between lease and computation leaves a
// leased-but-never-renewed shard behind; the lease expires, the survivor
// re-leases it, and the assembled dataset is bit-identical to a fault-free
// single-process run. CI's chaos job also drives this test with
// `AF_FAULT=fleet.worker_kill:err:1.0:1` as the fleet scenario.

#[test]
fn fleet_worker_kill_heals_bit_identically() {
    use analogfold_suite::analogfold::assemble_dataset;
    use analogfold_suite::fleet::{
        run_gen_worker, spec_config, spec_design, Coordinator, CoordinatorConfig, GenSpec,
        WorkerAgent, WorkerCaps, WorkerIdentity,
    };

    let checkpoint = tmp_dir("fleet-kill");
    let spec = GenSpec {
        bench: "OTA1".to_string(),
        variant: "A".to_string(),
        samples: 6,
        shard_size: 2,
        seed: 9,
        c_low: 0.4,
        c_high: 2.4,
        checkpoint: checkpoint.to_string_lossy().into_owned(),
        threads: 1,
    };
    let cfg = spec_config(&spec).unwrap();
    let design = spec_design(&spec).unwrap();

    let baseline = {
        let _guard = fault::scenario();
        generate_dataset(
            &design.circuit,
            &design.placement,
            &design.tech,
            &design.graph,
            &cfg,
        )
        .unwrap()
    };

    let _guard = fault::scenario();
    fault::set_seed(7);
    // The CI fleet scenario arms the kill through AF_FAULT; a run whose env
    // doesn't name this failpoint arms the same fixed schedule itself.
    let env_has_kill =
        std::env::var("AF_FAULT").is_ok_and(|spec| spec.contains("fleet.worker_kill"));
    if !env_has_kill || fault::arm_from_env().unwrap() == 0 {
        fault::arm_limited("fleet.worker_kill", FaultMode::Err, 1.0, Some(1));
    }

    let coord = Coordinator::bind(CoordinatorConfig {
        addr: "127.0.0.1:0".to_string(),
        // Short shard leases so the killed worker's shard re-assigns fast.
        lease_ms: 300,
        gen: Some(spec.clone()),
    })
    .unwrap();
    let coordinator = coord.addr().to_string();
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let coordinator = coordinator.clone();
            std::thread::spawn(move || {
                let id = format!("k{i}");
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
    assert!(coord.wait_gen_done(Duration::from_millis(25)));
    let results: Vec<_> = workers.into_iter().map(|t| t.join().unwrap()).collect();
    coord.shutdown();
    coord.join();

    assert!(
        fault::stats("fleet.worker_kill").unwrap().fires >= 1,
        "the kill must actually fire"
    );
    assert!(
        results.iter().any(std::result::Result::is_err),
        "the injected kill must take a worker down"
    );
    assert!(
        results.iter().any(std::result::Result::is_ok),
        "the surviving worker must finish the job"
    );

    let healed = assemble_dataset(&ShardStore::new(&checkpoint), &cfg, &design.graph)
        .unwrap()
        .expect("every shard healed to completion");
    assert_eq!(healed.samples.len(), baseline.samples.len());
    for (a, b) in healed.samples.iter().zip(&baseline.samples) {
        assert_eq!(a.guidance, b.guidance, "healing must recompute, not skew");
        assert_eq!(a.performance, b.performance);
    }
    let _ = std::fs::remove_dir_all(&checkpoint);
}

/// A panic injected into one parallel net-routing task must degrade that
/// task to a supervised sequential re-route — same clean layout contract,
/// no corruption, no hang — and the layout must still be identical at
/// every worker count (the fallback merges at a deterministic point).
#[test]
fn routing_task_panic_degrades_to_sequential_without_corruption() {
    let _guard = fault::scenario();
    let circuit = benchmarks::ota1();
    let tech = Technology::nm40();
    let placement = place(&circuit, PlacementVariant::A);
    let route_with_threads = |threads: usize| {
        let cfg = RouterConfig::builder().threads(threads).build().unwrap();
        Router::new(cfg)
            .unwrap()
            .route(&circuit, &placement, &tech, &RoutingGuidance::None)
            .unwrap()
    };

    // Probability-armed under a fixed seed: whether a task panics is a pure
    // function of (seed, task index), so the same task set faults at every
    // worker count. A `max_fires` cap would instead crown whichever worker
    // raced to the failpoint first, which is exactly the nondeterminism this
    // test must not depend on.
    fault::set_seed(11);
    fault::arm("route.task", FaultMode::Panic, 0.4);
    let faulted = route_with_threads(4);
    let stats = fault::stats("route.task").unwrap();
    assert!(stats.fires >= 1, "the failpoint must actually fire");
    assert!(
        faulted.is_clean(),
        "degraded run must still converge: {} conflicts",
        faulted.conflicts
    );
    for (i, net) in circuit.nets().iter().enumerate() {
        if net.is_routable() {
            assert!(
                faulted.net(NetId::new(i as u32)).is_some(),
                "net `{}` dropped by the fallback",
                net.name
            );
        }
    }

    // Same injection at other worker counts: identical layout (the
    // sequential fallback is part of the deterministic merge order).
    for threads in [1usize, 8] {
        fault::disarm_all();
        fault::set_seed(11);
        fault::arm("route.task", FaultMode::Panic, 0.4);
        let other = route_with_threads(threads);
        assert_eq!(
            faulted.nets, other.nets,
            "fault-degraded layout must be thread-count invariant"
        );
    }
}

/// Mirrors the trainer's job-shard mirror format: one done `/v1/route` job
/// as af-serve persists it.
fn write_done_job(dir: &std::path::Path, id: u64, guidance_len: usize, scale: f64) {
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(
        dir.join(format!("shard-{id:04}.json")),
        format!(
            "{{\"id\":{id},\"status\":\"done\",\"error\":null,\"result\":{{\"wirelength_um\":1.0,\
             \"vias\":2,\"conflicts\":0,\"performance\":{{\"offset_uv\":{},\"cmrr_db\":80.0,\
             \"bandwidth_mhz\":45.0,\"dc_gain_db\":60.0,\"noise_uvrms\":30.0}},\"guidance\":[{}]}}}}",
            120.0 * scale,
            vec!["0.5"; guidance_len].join(",")
        ),
    )
    .unwrap();
}

#[test]
fn trainer_killed_mid_finetune_never_exposes_a_half_written_candidate() {
    use analogfold_suite::model::{
        train_once, ModelRegistry, TrainOutcome, Trainer, TrainerConfig,
    };

    let root = tmp_dir("trainer-kill");
    let cfg = TrainerConfig {
        epochs: 2,
        interval_ms: 50,
        backoff_ms: 10,
        ..TrainerConfig::new(
            root.join("registry"),
            root.join("jobs"),
            root.join("dataset"),
            "OTA1",
            "A",
        )
    };
    let circuit = benchmarks::ota1();
    let tech = Technology::nm40();
    let placement = place(&circuit, PlacementVariant::A);
    let graph = HeteroGraph::build(&circuit, &placement, &tech, 3);
    let glen = small_gnn().session(&graph).guidance_len();
    write_done_job(&cfg.jobs, 0, glen, 1.0);
    write_done_job(&cfg.jobs, 1, glen, 1.2);

    let _guard = fault::scenario();
    fault::arm_spec("model.train:panic:1:1").unwrap();

    // The kill: one training pass dies inside the fine-tune window, after
    // the dataset was ingested but before any candidate was published.
    let killed = std::panic::catch_unwind(|| train_once(&cfg));
    assert!(killed.is_err(), "the armed failpoint must kill the pass");

    // The registry the kill left behind is clean: it opens, exposes no
    // entry, and holds no torn temp files a reader could mistake for one.
    let registry = ModelRegistry::open(&cfg.registry).unwrap();
    assert!(
        registry.list().is_empty(),
        "a killed trainer must not expose a half-written candidate"
    );
    assert!(registry.current().is_none());
    drop(registry);
    let models_dir = cfg.registry.join("models");
    if models_dir.exists() {
        for entry in std::fs::read_dir(&models_dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().contains(".tmp"),
                "stray temp file after kill: {name:?}"
            );
        }
    }

    // Supervised recovery: the failpoint is exhausted, so the restarted
    // trainer loop re-runs the same pass and registers the candidate a
    // never-killed trainer would have produced (ingest state was only
    // persisted after a successful registration, so nothing was lost).
    let mut trainer = Trainer::start(cfg.clone()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    let hash = loop {
        let registry = ModelRegistry::open(&cfg.registry).unwrap();
        if let Some(entry) = registry.list().first() {
            break entry.hash.clone();
        }
        assert!(
            Instant::now() < deadline,
            "trainer did not register after recovery"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    trainer.shutdown();

    let registry = ModelRegistry::open(&cfg.registry).unwrap();
    assert_eq!(registry.list().len(), 1, "exactly one candidate");
    let entry = registry.entry(&hash).unwrap();
    assert_eq!(entry.lineage.samples, Some(2));
    // The published file is whole: the content-hash envelope validates at
    // load, so a torn write could not have survived unnoticed.
    registry.load(&hash).unwrap();

    // And the recovered pass is the deterministic one: re-running over the
    // same shards is a no-op, not a divergent duplicate.
    assert_eq!(train_once(&cfg).unwrap(), TrainOutcome::Unchanged);
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// Tail tolerance: one of three serve replicas is deterministically slow (a
// seeded `serve.predict.delay` failpoint fires on every predict of exactly
// one worker), the front hedges around it, the latency breaker trips it out of
// the ring, and a disarmed run heals the breaker back to closed — while the
// predicted performance stays bit-identical at every server thread count.

#[test]
fn fleet_slow_worker_is_hedged_tripped_and_healed() {
    use analogfold_suite::fleet::{
        Coordinator, CoordinatorConfig, Front, FrontConfig, WorkerAgent, WorkerCaps, WorkerIdentity,
    };
    use analogfold_suite::guard::{BreakerConfig, HedgeConfig};

    let _guard = fault::scenario();
    const WORKERS: u64 = 3;
    const PROB: f64 = 0.34;
    const DELAY_MS: u64 = 120;
    const NONCES: u64 = 32;

    // Whether the delay fires is a pure function of (seed, fault_key), so a
    // small scan finds a seed under which exactly one of the three replicas
    // is slow — on every predict, at every thread count, in every run.
    let fault_seed = (1u64..100_000)
        .find(|&s| {
            (0..WORKERS)
                .filter(|&k| fault::would_fire(s, "serve.predict.delay", k, PROB))
                .count()
                == 1
        })
        .expect("some seed slows exactly one of three workers");
    let slow_idx = (0..WORKERS)
        .find(|&k| fault::would_fire(fault_seed, "serve.predict.delay", k, PROB))
        .unwrap();
    let slow_id = format!("cw{slow_idx}");

    let gnn = small_gnn();
    let bodies_for = |guidance_len: usize, nonce: u64| {
        let n = nonce as f64;
        format!(
            "{{\"guidance\":[{}]}}",
            (0..guidance_len)
                .map(|i| format!("{:?}", ((i as f64).mul_add(0.29, n * 0.77)).sin() * 0.3))
                .collect::<Vec<_>>()
                .join(",")
        )
    };

    let performance_bits = |reply: &RawResponse| -> [u64; 5] {
        reply
            .json::<PredictResponse>()
            .expect("a /v1/predict body")
            .performance
            .as_array()
            .map(f64::to_bits)
    };

    let mut reference: Option<Vec<[u64; 5]>> = None;
    for threads in [1usize, 4, 8] {
        fault::disarm_all();
        fault::set_seed(fault_seed);
        fault::arm_spec(&format!("serve.predict.delay:delay:{DELAY_MS}:{PROB}")).unwrap();

        let coord = Coordinator::bind(CoordinatorConfig {
            addr: "127.0.0.1:0".to_string(),
            lease_ms: 0,
            gen: None,
        })
        .unwrap();
        let coordinator = coord.addr().to_string();
        let mut rigs = Vec::new();
        let mut guidance_len = 0;
        for i in 0..WORKERS {
            let bundle = ModelBundle::with_model("OTA1", "A", gnn.clone()).unwrap();
            guidance_len = bundle.guidance_len();
            let model_hash = bundle.model_hash.clone();
            let server = Server::bind(
                bundle,
                ServeConfig {
                    workers: threads,
                    fault_key: i,
                    job_dir: Some(tmp_dir(&format!("slow-{threads}-{i}"))),
                    ..ServeConfig::default()
                },
            )
            .unwrap();
            let id = format!("cw{i}");
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
            coordinator,
            refresh_ms: 50,
            // A fixed hedge delay well under the injected slowness (and well
            // over a healthy small-model prediction) keeps both phases of
            // the test off the flakiness cliff.
            hedge: HedgeConfig {
                delay_ms: 30,
                seed: 1,
                ..HedgeConfig::default()
            },
            breaker: BreakerConfig {
                window: 8,
                min_samples: 2,
                slow_ms: DELAY_MS / 3,
                open_ms: 300,
                probe_interval_ms: 50,
                close_after: 2,
                ..BreakerConfig::default()
            },
            ..FrontConfig::default()
        })
        .unwrap();
        let ring_deadline = Instant::now() + Duration::from_secs(10);
        while front.worker_count() != WORKERS as usize {
            assert!(Instant::now() < ring_deadline, "front ring never filled");
            std::thread::sleep(Duration::from_millis(20));
        }

        let predictions: Vec<[u64; 5]> = (0..NONCES)
            .map(|nonce| {
                let reply = request(
                    front.addr(),
                    "POST",
                    "/v1/predict",
                    &bodies_for(guidance_len, nonce),
                );
                assert_eq!(reply.status, 200, "{}", reply.text());
                performance_bits(&reply)
            })
            .collect();

        // Parity with every replica answered directly — the hedge winner is
        // whichever leg was fastest, so this is only safe because replicas
        // agree bit for bit.
        for (id, server, _) in &rigs {
            let direct = request(
                server.addr(),
                "POST",
                "/v1/predict",
                &bodies_for(guidance_len, 0),
            );
            assert_eq!(direct.status, 200);
            assert_eq!(
                performance_bits(&direct),
                predictions[0],
                "replica {id} disagrees with the front"
            );
        }

        match &reference {
            None => reference = Some(predictions),
            Some(want) => assert_eq!(
                want, &predictions,
                "predictions must be thread-count invariant under the slow worker"
            ),
        }

        let stats = front.hedge_stats();
        assert!(
            stats.issued >= 1,
            "at least one hedge must fire around the slow worker (issued {})",
            stats.issued
        );
        let tripped = front
            .breakers()
            .into_iter()
            .find(|b| b.worker == slow_id)
            .expect("the slow worker has a breaker");
        assert!(
            tripped.opened >= 1,
            "the latency breaker must trip the slow worker (state {})",
            tripped.state
        );

        // Heal: disarm the fault and keep sending traffic. The open breaker
        // moves to half-open after `open_ms`, `allow` lets probes through,
        // the now-fast replica answers, and `close_after` successes close it.
        fault::disarm_all();
        let heal_deadline = Instant::now() + Duration::from_secs(20);
        let mut nonce = 1_000u64;
        loop {
            let b = front
                .breakers()
                .into_iter()
                .find(|b| b.worker == slow_id)
                .unwrap();
            if b.state == "closed" {
                break;
            }
            assert!(
                Instant::now() < heal_deadline,
                "breaker never healed: stuck {} after {} trips",
                b.state,
                b.opened
            );
            let reply = request(
                front.addr(),
                "POST",
                "/v1/predict",
                &bodies_for(guidance_len, nonce),
            );
            assert_eq!(reply.status, 200);
            nonce += 1;
            std::thread::sleep(Duration::from_millis(10));
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
}
