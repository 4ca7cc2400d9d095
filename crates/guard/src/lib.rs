#![warn(missing_docs)]
//! Tail tolerance and overload protection for the serve/fleet tier.
//!
//! The serving stack (af-serve behind an af-fleet front) already defends
//! against *dead* workers — heartbeat leases expire and the rendezvous ring
//! drops them — but a merely *slow* worker drags front p99 unboundedly, and
//! a request that has already blown its client deadline still burns backend
//! compute all the way through a prediction or a route job. This crate
//! packages three classic tail-tolerance policies as small, std-only
//! building blocks that both tiers thread through their hot paths:
//!
//! * [`Deadline`] — end-to-end budgets. Clients set [`DEADLINE_HEADER`]
//!   (`x-deadline-ms`), the front converts it to an absolute instant and
//!   forwards the *remaining* budget to the worker it picks, and every stage
//!   sheds expired work with `408` *before* doing any compute. [`shed`]
//!   records where expiry was caught (`guard.deadline_expired.<stage>`).
//! * [`BreakerSet`] — per-worker circuit breakers. A rolling window of call
//!   outcomes trips a breaker (closed → open → half-open with probation
//!   probes); the front excludes tripped workers from candidate selection
//!   exactly like dead ones, and heals them through half-open successes.
//! * [`Hedger`] — hedged requests. After a p95-derived delay the front
//!   issues a duplicate of an idempotent request to the next ring worker and
//!   takes the first response; a token-bucket budget caps the extra load at
//!   roughly `budget_ratio` of observed traffic. Winners are stamped with
//!   [`HEDGED_HEADER`].
//!
//! Overload needs no admission gate: a worker's predicts run on its
//! handler threads and wait in no queue behind its bounded connection
//! queue, which sheds with `429` at accept.
//!
//! Every policy is deterministic given its configuration and seed (hedge
//! jitter reuses the afrt SplitMix64 mixer) and observable through af-obs
//! counters; none of them allocate on the per-request fast path beyond a
//! mutex-guarded ring buffer update.

pub mod breaker;
pub mod deadline;
pub mod hedge;

pub use breaker::{BreakerConfig, BreakerSet, BreakerState, BreakerStatus};
pub use deadline::{parse_header_ms, Deadline, DeadlineError, DEADLINE_HEADER, HEDGED_HEADER};
pub use hedge::{HedgeConfig, HedgeStats, Hedger};

/// Records that a request was shed because its deadline had already expired
/// when it reached `stage` (`front`, `conn`, `predict`, `job`).
///
/// The counter name is `guard.deadline_expired.<stage>`; the smoke script
/// and chaos tests assert on these to prove expired requests never reach the
/// compute stages behind them.
pub fn shed(stage: &str) {
    af_obs::counter(&format!("guard.deadline_expired.{stage}"), 1);
}
