#![warn(missing_docs)]
//! `af-serve`: a std-only HTTP/1.1 service that keeps a trained
//! [`analogfold::ThreeDGnn`] resident and amortizes it across requests.
//!
//! The paper's economics are train-once / guide-many: a trained surrogate
//! makes guidance generation cheap relative to training. The CLI and bench
//! binaries pay model-loading and graph-construction costs on every
//! invocation; this crate moves them to process startup and serves:
//!
//! | route               | behaviour                                          |
//! |---------------------|----------------------------------------------------|
//! | `POST /v1/predict`  | metric prediction, **micro-batched** across requests |
//! | `POST /v1/guide`    | potential-relaxation guidance on the `afrt` pool   |
//! | `POST /v1/route`    | full guided routing as an async job (`202` + id)   |
//! | `GET /v1/jobs/{id}` | job status/result from the persistent job store    |
//! | `GET /healthz`      | liveness                                           |
//! | `GET /metrics`      | Prometheus text export of the `af_obs` registry    |
//! | `POST /v1/shutdown` | graceful shutdown (drains in-flight jobs)          |
//!
//! Robustness is part of the design, not an add-on: every internal queue is
//! a bounded [`afrt::BoundedQueue`] whose depth is an obs gauge, overload
//! sheds with `429` + `Retry-After`, queued waits respect a per-request
//! deadline (`408`), connections are keep-alive with an idle timeout, and
//! shutdown stops accepting, drains, and joins every thread.
//!
//! [`http`] is the workspace's one HTTP module: the request and response
//! parsers, the response writer, the listener and keep-alive loop that the
//! fleet front and coordinator run on too, and the client they call with.
//!
//! Zero dependencies beyond std and the workspace's vendored
//! `serde`/`serde_json`, matching the offline build constraint.

pub mod api;
pub mod batch;
pub mod config;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod server;
pub mod state;

pub use config::ServeConfig;
pub use jobs::{JobRecord, JobStore, RouteResult};
pub use server::{Server, ServerHandle};
pub use state::ModelBundle;

/// Top-level serving failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Invalid configuration (unknown benchmark, bad address, …).
    Config(String),
    /// Socket or filesystem failure.
    Io(std::io::Error),
    /// Model loading/validation failure (including the versioned-header
    /// checks — a stale or truncated model is refused at startup, not
    /// served).
    Model(analogfold::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "config error: {msg}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<analogfold::Error> for ServeError {
    fn from(e: analogfold::Error) -> Self {
        ServeError::Model(e)
    }
}
