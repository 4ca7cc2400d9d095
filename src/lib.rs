#![warn(missing_docs)]
//! Umbrella crate for the AnalogFold reproduction workspace.
//!
//! This crate re-exports every subsystem so that examples and integration
//! tests can use a single dependency. The actual implementation lives in the
//! `crates/` workspace members:
//!
//! * [`geom`] — geometry primitives (points, rects, directions, grids).
//! * [`tech`] — technology description (layers, design rules, parasitics).
//! * [`netlist`] — circuits, devices, nets, symmetry constraints, benchmarks.
//! * [`place`] — symmetry-aware analog placement.
//! * [`route`] — 3-D grid detailed routing with guidance hooks.
//! * [`extract`] — geometric parasitic extraction (R + C + coupling C).
//! * [`sim`] — small-signal MNA simulator and metric extraction.
//! * [`nn`] — pure-Rust autograd, MLPs, optimizers, VAE.
//! * [`analogfold`] — the paper's contribution: heterogeneous graph, 3DGNN,
//!   potential relaxation, baselines, and the end-to-end flow.
//! * [`obs`] — zero-dependency observability: spans, metrics, sinks, and the
//!   shared table formatter (`--obs-jsonl` / `--obs-report` in the CLI).
//! * [`fleet`] — coordinator/worker multi-process serving and distributed
//!   dataset generation (registration, heartbeats, rendezvous-hashed
//!   fronting, leased shard generation).
//! * [`guard`] — tail tolerance for the serve/fleet tier: end-to-end
//!   deadline propagation, per-worker circuit breakers, and hedged
//!   requests.
//! * [`model`] — versioned model registry (content-hash ids, lineage,
//!   promote/rollback/gc), canary scoring, and the background trainer that
//!   closes the train→serve loop.
//!
//! # Quick start
//!
//! ```
//! use analogfold_suite::netlist::benchmarks;
//!
//! let ota1 = benchmarks::ota1();
//! assert_eq!(ota1.name(), "OTA1");
//! ```

pub mod cli;

pub use af_cache as cache;
pub use af_extract as extract;
pub use af_fault as fault;
pub use af_fleet as fleet;
pub use af_geom as geom;
pub use af_guard as guard;
pub use af_model as model;
pub use af_netlist as netlist;
pub use af_nn as nn;
pub use af_obs as obs;
pub use af_place as place;
pub use af_route as route;
pub use af_serve as serve;
pub use af_sim as sim;
pub use af_tech as tech;
pub use af_tensor as tensor;
pub use analogfold;
