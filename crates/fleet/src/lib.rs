//! af-fleet: coordinator/worker multi-process serving and distributed
//! dataset generation, built entirely on the workspace's one std-only HTTP
//! module, [`af_serve::http`] (no async runtime, no RPC framework, no new
//! dependencies).
//!
//! # Roles
//!
//! A fleet has three process roles, all speaking the JSON protocol in
//! [`protocol`]:
//!
//! - **Coordinator** ([`Coordinator`]): the only stateful party. Tracks
//!   worker membership through registrations and heartbeats with
//!   deterministic lease expiry ([`registry`]), hands out dataset-shard
//!   leases ([`leases`]), and aggregates worker metrics for one-stop
//!   `/metrics` scraping. All its state is reconstructible: workers
//!   re-register after a coordinator restart, and the lease table rebuilds
//!   from the checkpoint directory.
//! - **Worker**: an af-serve model server (and/or gen loop) plus a
//!   [`client::WorkerAgent`] background thread that registers and
//!   heartbeats. Gen workers run [`gen::run_gen_worker`].
//! - **Front** ([`Front`]): a stateless-ish proxy that routes `/v1/*`
//!   by rendezvous-hashing the request's `(path, body)` — the same key
//!   af-serve's response cache uses — so the worker ring doubles as a
//!   consistent-hash tier over the per-worker caches. One replica retry,
//!   then 502.
//!
//! # Healing
//!
//! Failure handling leans on one invariant: every dataset shard is a pure
//! function of `(spec, shard_index)`. A killed worker needs no recovery
//! protocol — its membership lease expires, its shard lease expires, and
//! whoever re-leases the shard produces bit-identical bytes. Serving heals
//! the same way: the ring drops the dead worker on the next refresh and
//! only its key share remaps.

use std::fmt;

pub mod client;
pub mod coordinator;
pub mod gen;
pub mod leases;
pub mod protocol;
pub mod proxy;
pub mod registry;

pub use af_serve::http::{HttpConn, RawResponse};
pub use client::{
    get_json, post_json, ModelHooks, PromoteFn, ResidentHashFn, WorkerAgent, WorkerIdentity,
};
pub use coordinator::{Coordinator, CoordinatorConfig, CoordinatorHandle};
pub use gen::{run_gen_worker, spec_config, spec_design, GenSummary};
pub use leases::LeaseTable;
pub use protocol::{GenSpec, WorkerCaps, PROTOCOL_VERSION};
pub use proxy::{Front, FrontConfig, FrontHandle};
pub use registry::Registry;

/// Fleet-level failure.
#[derive(Debug)]
pub enum FleetError {
    /// Transport-level failure (connect, read, write, framing).
    Io(std::io::Error),
    /// A peer answered with a non-success HTTP status.
    Status(u16, String),
    /// A peer's reply was syntactically or semantically unintelligible.
    Protocol(String),
    /// A spec or configuration problem on our side.
    Config(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Io(e) => write!(f, "fleet transport failure: {e}"),
            FleetError::Status(code, body) => {
                write!(f, "fleet peer answered {code}: {body}")
            }
            FleetError::Protocol(msg) => write!(f, "fleet protocol violation: {msg}"),
            FleetError::Config(msg) => write!(f, "fleet configuration error: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e)
    }
}
