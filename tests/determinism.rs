//! Reproducibility: the entire stack is seeded, so identical inputs must
//! produce identical outputs — placements, routes, datasets, trained
//! weights, and derived guidance.

use std::sync::{Mutex, PoisonError};

use analogfold_suite::analogfold::{
    generate_dataset, guidance_field, relax, set_cache_enabled, AnalogFoldFlow, DatasetConfig,
    FlowConfig, GnnConfig, GnnProgram, GraphTensors, HeteroGraph, Potential, RelaxConfig,
    ThreeDGnn,
};
use analogfold_suite::extract::extract;
use analogfold_suite::netlist::benchmarks;
use analogfold_suite::place::{place, PlacementVariant};
use analogfold_suite::route::{Router, RouterConfig, RoutingGuidance};
use analogfold_suite::sim::{simulate, SimConfig};
use analogfold_suite::tech::Technology;

#[test]
fn placement_routing_extraction_simulation_deterministic() {
    let circuit = benchmarks::ota3();
    let tech = Technology::nm40();
    let run = || {
        let p = place(&circuit, PlacementVariant::C);
        let l = Router::new(RouterConfig::default())
            .unwrap()
            .route(&circuit, &p, &tech, &RoutingGuidance::None)
            .unwrap();
        let x = extract(&circuit, &tech, &l);
        let perf = simulate(&circuit, Some(&x), &SimConfig::default()).unwrap();
        (p, l, perf)
    };
    let (p1, l1, perf1) = run();
    let (p2, l2, perf2) = run();
    assert_eq!(p1, p2);
    assert_eq!(l1.nets, l2.nets);
    assert_eq!(perf1, perf2);
}

#[test]
fn dataset_and_flow_deterministic() {
    let circuit = benchmarks::ota1();
    let tech = Technology::nm40();
    let placement = place(&circuit, PlacementVariant::A);
    let graph = HeteroGraph::build(&circuit, &placement, &tech, 3);
    let ds_cfg = DatasetConfig {
        samples: 3,
        ..DatasetConfig::default()
    };
    let d1 = generate_dataset(&circuit, &placement, &tech, &graph, &ds_cfg).unwrap();
    let d2 = generate_dataset(&circuit, &placement, &tech, &graph, &ds_cfg).unwrap();
    assert_eq!(d1.samples.len(), d2.samples.len());
    for (a, b) in d1.samples.iter().zip(&d2.samples) {
        assert_eq!(a.guidance, b.guidance);
        assert_eq!(a.performance, b.performance);
    }

    let cfg = || FlowConfig {
        dataset: DatasetConfig {
            samples: 4,
            ..DatasetConfig::default()
        },
        gnn: GnnConfig {
            epochs: 3,
            hidden: 8,
            layers: 1,
            ..GnnConfig::default()
        },
        relax: RelaxConfig {
            restarts: 2,
            n_derive: 1,
            lbfgs_iters: 5,
            ..RelaxConfig::default()
        },
        ..FlowConfig::default()
    };
    let o1 = AnalogFoldFlow::new(cfg())
        .run(&circuit, &placement)
        .unwrap();
    let o2 = AnalogFoldFlow::new(cfg())
        .run(&circuit, &placement)
        .unwrap();
    assert_eq!(o1.guidance, o2.guidance);
    assert_eq!(o1.performance, o2.performance);
    assert_eq!(o1.layout.nets, o2.layout.nets);
}

/// Observability must not perturb the computation: running the flow with a
/// sink installed (spans, counters, and histograms recording on every hot
/// path) must produce a bit-identical outcome to the silent run. Wall-clock
/// fields (`breakdown`) are excluded — they are measurements, not results.
#[test]
fn flow_outcome_identical_with_observability_enabled() {
    let circuit = benchmarks::ota1();
    let placement = place(&circuit, PlacementVariant::A);
    let builder = || {
        FlowConfig::builder()
            .samples(4)
            .gnn(GnnConfig {
                epochs: 3,
                hidden: 8,
                layers: 1,
                ..GnnConfig::default()
            })
            .relax(RelaxConfig {
                restarts: 2,
                n_derive: 1,
                lbfgs_iters: 5,
                ..RelaxConfig::default()
            })
    };
    let off = AnalogFoldFlow::new(builder().build().unwrap())
        .run(&circuit, &placement)
        .unwrap();

    let sink = std::sync::Arc::new(analogfold_suite::obs::MemorySink::new());
    let on = AnalogFoldFlow::new(
        builder()
            .obs(std::sync::Arc::clone(&sink) as _)
            .build()
            .unwrap(),
    )
    .run(&circuit, &placement)
    .unwrap();

    // The sink must actually have observed the run ...
    let events = sink.events();
    assert!(!events.is_empty(), "obs-on run recorded no events");
    assert!(
        events.iter().any(|e| e.name() == "flow"),
        "missing flow span"
    );

    // ... and the outcome must be bit-identical to the silent run.
    assert_eq!(off.guidance, on.guidance);
    assert_eq!(off.layout.nets, on.layout.nets);
    assert_eq!(off.performance, on.performance);
    assert_eq!(off.train_report.epoch_losses, on.train_report.epoch_losses);
    assert_eq!(
        off.train_report.final_loss.to_bits(),
        on.train_report.final_loss.to_bits()
    );
}

/// The `afrt` contract applied to relaxation: one worker and eight workers
/// must produce bit-identical pools for the same root seed.
#[test]
fn relaxation_thread_count_invariant() {
    let circuit = benchmarks::ota1();
    let tech = Technology::nm40();
    let placement = place(&circuit, PlacementVariant::A);
    let graph = HeteroGraph::build(&circuit, &placement, &tech, 2);
    let gnn = ThreeDGnn::new(&GnnConfig {
        hidden: 8,
        layers: 1,
        ..GnnConfig::default()
    });
    let potential = Potential::new(&gnn, &graph);
    let run = |threads: usize| {
        relax(
            &potential,
            &RelaxConfig {
                restarts: 8,
                pool_size: 4,
                n_derive: 3,
                lbfgs_iters: 8,
                threads,
                ..RelaxConfig::default()
            },
        )
    };
    let seq = run(1);
    let par = run(8);
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.guidance, b.guidance, "guidance must be bit-identical");
        assert!(
            a.potential.to_bits() == b.potential.to_bits(),
            "potential must be bit-identical: {} vs {}",
            a.potential,
            b.potential
        );
    }
}

/// Serializes the tests that flip the process-wide tensor-prefix cache
/// switch: while a test holds it, the switch is where that test put it.
static CACHE_SWITCH: Mutex<()> = Mutex::new(());

/// Runs `f` with the tensor-prefix cache switched off and switches it back
/// on afterwards, also when `f` panics. Callers hold [`CACHE_SWITCH`].
fn with_cache_off<R>(f: impl FnOnce() -> R) -> R {
    struct On;
    impl Drop for On {
        fn drop(&mut self) {
            set_cache_enabled(true);
        }
    }
    set_cache_enabled(false);
    let _on = On;
    f()
}

/// The caching contract: the tensor-prefix cache is a pure wall-clock
/// optimization, so a flow run with it on must be bit-identical to a run
/// with it switched off — at any worker count.
#[test]
fn flow_outcome_identical_with_cache_on_and_off() {
    let _switch = CACHE_SWITCH.lock().unwrap_or_else(PoisonError::into_inner);
    let circuit = benchmarks::ota1();
    let placement = place(&circuit, PlacementVariant::A);
    let builder = |threads: usize| {
        FlowConfig::builder()
            .samples(4)
            .threads(threads)
            .gnn(GnnConfig {
                epochs: 3,
                hidden: 8,
                layers: 1,
                ..GnnConfig::default()
            })
            .relax(RelaxConfig {
                restarts: 2,
                n_derive: 1,
                lbfgs_iters: 5,
                ..RelaxConfig::default()
            })
            .build()
            .unwrap()
    };
    let off = with_cache_off(|| {
        AnalogFoldFlow::new(builder(1))
            .run(&circuit, &placement)
            .unwrap()
    });
    for threads in [1, 4] {
        let on = AnalogFoldFlow::new(builder(threads))
            .run(&circuit, &placement)
            .unwrap();
        assert_eq!(
            off.guidance, on.guidance,
            "guidance must be bit-identical (cache on, {threads} threads)"
        );
        assert_eq!(off.layout.nets, on.layout.nets);
        assert_eq!(off.performance, on.performance);
        assert_eq!(off.train_report.epoch_losses, on.train_report.epoch_losses);
        assert_eq!(
            off.train_report.final_loss.to_bits(),
            on.train_report.final_loss.to_bits()
        );
    }
}

/// The same contract at the relaxation tier: a potential built with the
/// tensor-prefix cache on must relax to the same bits as one built with it
/// off, at any worker count.
#[test]
fn relaxation_cache_on_off_thread_count_invariant() {
    let _switch = CACHE_SWITCH.lock().unwrap_or_else(PoisonError::into_inner);
    let circuit = benchmarks::ota1();
    let tech = Technology::nm40();
    let placement = place(&circuit, PlacementVariant::A);
    let graph = HeteroGraph::build(&circuit, &placement, &tech, 2);
    let gnn = ThreeDGnn::new(&GnnConfig {
        hidden: 8,
        layers: 1,
        ..GnnConfig::default()
    });
    let run = |threads: usize| {
        relax(
            &Potential::new(&gnn, &graph),
            &RelaxConfig {
                restarts: 6,
                pool_size: 3,
                n_derive: 2,
                lbfgs_iters: 8,
                threads,
                ..RelaxConfig::default()
            },
        )
    };
    let base = with_cache_off(|| run(1));
    for threads in [1, 4, 8] {
        let out = run(threads);
        assert_eq!(base.len(), out.len());
        for (a, b) in base.iter().zip(&out) {
            assert_eq!(
                a.guidance, b.guidance,
                "guidance must be bit-identical (cache on, {threads} threads)"
            );
            assert_eq!(
                a.potential.to_bits(),
                b.potential.to_bits(),
                "potential must be bit-identical: {} vs {}",
                a.potential,
                b.potential
            );
        }
    }
}

/// The `afrt` contract applied to dataset generation: per-sample seed
/// splitting makes the dataset independent of the worker count.
#[test]
fn dataset_generation_thread_count_invariant() {
    let circuit = benchmarks::ota1();
    let tech = Technology::nm40();
    let placement = place(&circuit, PlacementVariant::A);
    let graph = HeteroGraph::build(&circuit, &placement, &tech, 2);
    let run = |threads: usize| {
        generate_dataset(
            &circuit,
            &placement,
            &tech,
            &graph,
            &DatasetConfig {
                samples: 6,
                threads,
                ..DatasetConfig::default()
            },
        )
        .unwrap()
    };
    let seq = run(1);
    let par = run(8);
    assert_eq!(seq.samples.len(), par.samples.len());
    for (a, b) in seq.samples.iter().zip(&par.samples) {
        assert_eq!(a.guidance, b.guidance, "sampled guidance must match");
        assert_eq!(a.performance, b.performance, "labels must match");
    }
}

/// The retry layer must be invisible when nothing fails: a dataset built
/// under the default retry policy is bit-identical to one built with
/// retries disabled, at any worker count. (Armed-failpoint determinism is
/// covered by `tests/chaos.rs`, which serializes scenarios; this test
/// deliberately never arms the global registry so it can run concurrently
/// with its neighbors.)
#[test]
fn dataset_retry_policy_is_invisible_without_faults() {
    let circuit = benchmarks::ota1();
    let tech = Technology::nm40();
    let placement = place(&circuit, PlacementVariant::A);
    let graph = HeteroGraph::build(&circuit, &placement, &tech, 2);
    let run = |threads: usize, retry: analogfold_suite::fault::RetryPolicy| {
        generate_dataset(
            &circuit,
            &placement,
            &tech,
            &graph,
            &DatasetConfig {
                samples: 6,
                threads,
                retry,
                ..DatasetConfig::default()
            },
        )
        .unwrap()
    };
    let reference = run(1, analogfold_suite::fault::RetryPolicy::none());
    for threads in [1usize, 4, 8] {
        let with_retries = run(threads, analogfold_suite::fault::RetryPolicy::default());
        assert_eq!(reference.samples.len(), with_retries.samples.len());
        for (a, b) in reference.samples.iter().zip(&with_retries.samples) {
            assert_eq!(a.guidance, b.guidance);
            assert_eq!(a.performance, b.performance);
        }
    }
}

/// Deterministic guidance probes inside the box bounds (no RNG: the same
/// points must be fed to both compiled programs).
fn guidance_probes(n: usize, dim: usize, lo: f64, hi: f64) -> Vec<Vec<f64>> {
    let mid = 0.5 * (lo + hi);
    let amp = 0.4 * (hi - lo);
    (0..n)
        .map(|j| {
            (0..dim)
                .map(|i| mid + amp * ((1 + i + j * dim) as f64).sin())
                .collect()
        })
        .collect()
}

/// Tape replay and recompilation are both deterministic: a recompiled
/// program gives the same bits as a fresh one, and a program returning to a
/// previously seen input reproduces it exactly even after evaluating other
/// points in between. (Thread-count and cache on/off invariance of the
/// tensor path is covered by `relaxation_thread_count_invariant` and
/// `relaxation_cache_on_off_thread_count_invariant` above, which run the
/// compiled tape. Parity with the scalar `af_nn::Graph` reference is
/// `analogfold`'s `gnn::tests::fast_path_matches_oracle`.)
#[test]
fn gnn_program_replay_and_recompilation_deterministic() {
    let circuit = benchmarks::ota1();
    let tech = Technology::nm40();
    let placement = place(&circuit, PlacementVariant::A);
    let graph = HeteroGraph::build(&circuit, &placement, &tech, 2);
    let cfg = GnnConfig {
        hidden: 8,
        layers: 1,
        ..GnnConfig::default()
    };
    let gnn = ThreeDGnn::new(&cfg);
    let tensors = GraphTensors::new(&graph);
    let weights = [1.0, -1.0, -1.0, -1.0, 1.0];
    let probes = guidance_probes(3, tensors.guidance_len(), cfg.c_min, cfg.c_max);

    let mut p1 = GnnProgram::compile_fom(&gnn, &tensors, &weights);
    let mut p2 = GnnProgram::compile_fom(&gnn, &tensors, &weights);
    let first = p1.fom_and_grad(&probes[0]);
    for c in &probes {
        let (fa, ga) = p1.fom_and_grad(c);
        let (fb, gb) = p2.fom_and_grad(c);
        assert_eq!(fa.to_bits(), fb.to_bits(), "recompiled program diverged");
        assert_eq!(ga.len(), gb.len());
        for (a, b) in ga.iter().zip(&gb) {
            assert_eq!(a.to_bits(), b.to_bits(), "recompiled gradient diverged");
        }
    }
    let again = p1.fom_and_grad(&probes[0]);
    assert_eq!(first.0.to_bits(), again.0.to_bits(), "replay drifted");
    for (a, b) in first.1.iter().zip(&again.1) {
        assert_eq!(a.to_bits(), b.to_bits(), "replay gradient drifted");
    }
}

/// The router's parallel-negotiation contract: the routed layout is
/// bit-identical at every worker count — the per-round snapshot plus
/// deterministic task-order merge must hide scheduling entirely. The
/// guided case also holds each worker's reused thread-local claim overlay
/// and nearest-AP memo to carrying nothing from one task, net or round to
/// the next: OTA3-A negotiates over several rounds and routes mirrored
/// pairs.
#[test]
fn routing_thread_count_invariant() {
    let tech = Technology::nm40();
    let ota1 = benchmarks::ota1();
    let ota3 = benchmarks::ota3();
    let ota3_placement = place(&ota3, PlacementVariant::A);
    let graph = HeteroGraph::build(&ota3, &ota3_placement, &tech, 3);
    let vector: Vec<f64> = (0..graph.guided_ap_indices().len() * 3)
        .map(|i| 0.4 + ((i * 7) % 10) as f64 * 0.2)
        .collect();
    let cases = [
        (
            &ota1,
            place(&ota1, PlacementVariant::A),
            RoutingGuidance::None,
        ),
        (
            &ota3,
            ota3_placement,
            RoutingGuidance::NonUniform(guidance_field(&graph, &vector)),
        ),
    ];
    for (circuit, placement, guidance) in &cases {
        let run = |threads: usize| {
            let cfg = RouterConfig::builder().threads(threads).build().unwrap();
            Router::new(cfg)
                .unwrap()
                .route(circuit, placement, &tech, guidance)
                .unwrap()
        };
        let reference = run(1);
        assert!(
            !circuit.symmetric_net_pairs().is_empty() && reference.iterations > 1,
            "each case routes mirrored pairs over several rounds"
        );
        for threads in [2usize, 4, 8] {
            let layout = run(threads);
            assert_eq!(
                reference.nets, layout.nets,
                "layout must be bit-identical at {threads} threads"
            );
            assert_eq!(reference.conflicts, layout.conflicts);
            assert_eq!(reference.iterations, layout.iterations);
        }
    }
}
