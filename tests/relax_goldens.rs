//! Golden relaxation: one seeded flow on OTA1-A (4 samples, a small GNN,
//! 4 restarts, one derived candidate, one thread), pinned as an FNV-1a
//! hash of the derived guidance bits, the simulated performance bits, and
//! the `gnn.fom_grad_evals` and `relax.lbfgs_iters` counts. The flow seeds
//! relaxation from the dataset's best samples and then runs random
//! restarts, so both paths are pinned: a change that claims the same
//! relaxation must leave every value as it is, and the same number of
//! surrogate evaluations.
//!
//! This file holds one test on purpose: it reads a process-global af-obs
//! sink, which a concurrently running test in the same binary would pollute.

use std::sync::Arc;

use analogfold_suite::analogfold::{AnalogFoldFlow, FlowConfig, GnnConfig};
use analogfold_suite::netlist::benchmarks;
use analogfold_suite::obs::{Event, MemorySink};
use analogfold_suite::place::{place, PlacementVariant};

// Printed by the relaxation that kept a memo of surrogate evaluations in
// front of the GNN; relaxing without it must give the same bits and make
// the same evaluations.

/// Hash of the derived guidance bits.
const GUIDANCE_HASH: u64 = 0x31a7_d3d6_e755_61dd;
/// `[offset, cmrr, bandwidth, gain, noise]` of the guided layout, as bits.
const PERFORMANCE_BITS: [u64; 5] = [
    0x4050_0d5a_8205_84ae,
    0x4050_1af0_6df3_b63f,
    0x4055_bb24_a83f_501a,
    0x404b_d570_3d5f_1ec8,
    0x40a6_2771_344c_0a20,
];
/// Surrogate forward+backward evaluations over the whole flow.
const FOM_GRAD_EVALS: u64 = 440;
/// L-BFGS iterations over every warm start and restart.
const LBFGS_ITERS: u64 = 210;

/// FNV-1a (64-bit) over the little-endian bits of every value. Unlike
/// `DefaultHasher` its output is fixed across Rust releases.
fn fnv1a(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn relaxed_guidance_and_work_match_goldens() {
    let circuit = benchmarks::ota1();
    let placement = place(&circuit, PlacementVariant::A);
    let sink = Arc::new(MemorySink::new());
    let cfg = FlowConfig::builder()
        .samples(4)
        .gnn(GnnConfig {
            epochs: 3,
            hidden: 8,
            layers: 1,
            ..GnnConfig::default()
        })
        .restarts(4)
        .n_derive(1)
        .threads(1)
        .route_threads(1)
        .obs(sink.clone())
        .build()
        .unwrap();
    let outcome = AnalogFoldFlow::new(cfg).run(&circuit, &placement).unwrap();
    let events = sink.events();
    let counter = |wanted: &str| {
        events
            .iter()
            .find_map(|e| match e {
                Event::Counter { name, value, .. } if name == wanted => Some(*value),
                _ => None,
            })
            .unwrap_or_else(|| panic!("the flow reports {wanted}"))
    };
    let got = (
        fnv1a(&outcome.guidance),
        outcome.performance.as_array().map(f64::to_bits),
        counter("gnn.fom_grad_evals"),
        counter("relax.lbfgs_iters"),
    );
    assert_eq!(
        got,
        (GUIDANCE_HASH, PERFORMANCE_BITS, FOM_GRAD_EVALS, LBFGS_ITERS),
        "relaxation moved; this run gives {:#018x}, {:#018x?}, {} evaluations, {} L-BFGS iterations",
        got.0,
        got.1,
        got.2,
        got.3
    );
}
