#![warn(missing_docs)]
//! **AnalogFold** — performance-driven analog routing guidance via a
//! heterogeneous 3DGNN and potential relaxation (DAC 2024 reproduction).
//!
//! This crate is the paper's primary contribution, built on the workspace
//! substrates (`af-place`, `af-route`, `af-extract`, `af-sim`, `af-nn`):
//!
//! 1. [`HeteroGraph`] — the heterogeneous routing graph
//!    `G_H = <V_AP, V_M, E_PP, E_MM, E_MP>` fusing physical pin-access
//!    geometry with logical module connectivity (paper §4.1, Fig. 3).
//! 2. [`ThreeDGnn`] — protein-inspired 3DGNN whose messages are modulated by
//!    the **cost-aware distance** of Eq. (1), expanded with radial basis
//!    functions (SchNet-style), predicting the five post-layout metrics
//!    (paper §4.2, Eq. 2–6). The guidance `C` enters the forward pass as a
//!    differentiable leaf, so ∂metrics/∂C is available.
//! 3. [`Potential`] / [`relax`] — the potential
//!    `V(C) = w_FoM · f_θ(G_H, C) + g(C)` with an interior-point log
//!    barrier, minimized by L-BFGS from many initializations with a
//!    pool-assisted noisy-restart schedule (paper §4.3, Eq. 7–8).
//! 4. [`generate_dataset`] — training data from the *automated* engine: sample
//!    random guidance, route, extract, simulate, label (paper §1, §5.1).
//! 5. Baselines: [`magical_route`] (the unguided router) and
//!    [`GeniusRouteModel`] (VAE-generated 2-D guidance maps).
//! 6. [`AnalogFoldFlow`] — the end-to-end flow with the runtime breakdown of
//!    Fig. 5.
//!
//! # Examples
//!
//! Train a small model and derive guidance for one placement:
//!
//! ```no_run
//! use af_netlist::benchmarks;
//! use af_place::{place, PlacementVariant};
//! use analogfold::{AnalogFoldFlow, FlowConfig};
//!
//! let circuit = benchmarks::ota1();
//! let placement = place(&circuit, PlacementVariant::A);
//! let cfg = FlowConfig::builder()
//!     .samples(40) // laptop-scale
//!     .build()
//!     .unwrap();
//! let outcome = AnalogFoldFlow::new(cfg).run(&circuit, &placement).unwrap();
//! println!("AnalogFold: {:?}", outcome.performance);
//! ```
//!
//! Every fallible entry point returns the unified [`enum@Error`], which
//! carries the observability span path active at the failure site when an
//! [`af_obs`] sink is installed (see `FlowConfigBuilder::obs`).

pub mod cache;
mod dataset;
mod error;
mod evaluate;
mod flow;
mod genius;
mod gnn;
mod hetero;
mod persist;
mod potential;

pub use cache::{cache_enabled, content_hash_of, graph_hash, set_cache_enabled};
pub use dataset::{
    assemble_dataset, generate_dataset, generate_dataset_checkpointed, generate_dataset_multi,
    generate_shard, guidance_field, guidance_field_for, shard_count, shard_is_complete,
    shard_range, Dataset, DatasetConfig, DatasetError, Sample, SampleRecord, TargetStats,
};
pub use error::Error;
pub use evaluate::{holdout_mse, kfold_mse, summarize, DatasetSummary, KfoldReport, METRIC_NAMES};
pub use flow::{
    magical_route, AnalogFoldFlow, FlowConfig, FlowConfigBuilder, FlowError, FlowOutcome,
    ObsSinkHandle, RuntimeBreakdown,
};
pub use genius::{GeniusConfig, GeniusRouteModel, NetClass};
pub use gnn::{GnnConfig, GnnProgram, GraphTensors, ThreeDGnn, TrainReport};
pub use hetero::{ApNode, EdgeKind, HeteroGraph, ModuleNode};
pub use persist::{write_durable, PersistError, ShardStore};
pub use potential::{relax, relax_seeded, Potential, PotentialEval, RelaxConfig, RelaxOutcome};

/// Serializes the unit tests that install the process-global af-obs sink
/// and the ones that run a flow, whose counters would land in that sink.
#[cfg(test)]
static OBS_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
