//! Wire types of the fleet protocol (all JSON over the std-only HTTP
//! stack).
//!
//! The protocol is four verbs on the coordinator:
//!
//! | endpoint            | method | body                 | reply                |
//! |---------------------|--------|----------------------|----------------------|
//! | `/fleet/register`   | POST   | [`RegisterRequest`]  | [`RegisterResponse`] |
//! | `/fleet/heartbeat`  | POST   | [`HeartbeatRequest`] | [`HeartbeatResponse`]|
//! | `/fleet/workers`    | GET    | —                    | [`WorkersResponse`]  |
//! | `/fleet/lease`      | POST   | [`LeaseRequest`]     | [`LeaseResponse`]    |
//! | `/fleet/complete`   | POST   | [`CompleteRequest`]  | [`CompleteResponse`] |
//!
//! plus `/fleet/status`, `/healthz`, and `/metrics` for observers. All
//! state lives on the coordinator; workers are restartable at any moment
//! and re-derive everything from (re-)registration and their next lease.

use serde::{Deserialize, Serialize};

/// Protocol revision; bumped on breaking wire changes. A coordinator
/// rejects registrations from a different revision rather than guessing.
/// Revision 2 dropped the dataset-cache size from [`GenSpec`], which a
/// revision-1 worker requires.
pub const PROTOCOL_VERSION: u64 = 2;

/// What a worker can do for the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerCaps {
    /// Answers `/v1/*` serving traffic (has a resident model).
    pub serve: bool,
    /// Leases dataset-generation shards.
    pub gen: bool,
}

/// `POST /fleet/register` body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegisterRequest {
    /// Worker id, unique within the fleet (the rendezvous-ring member id).
    pub id: String,
    /// `host:port` of the worker's serve endpoint; empty for gen-only
    /// workers.
    pub addr: String,
    /// Capability report.
    pub caps: WorkerCaps,
    /// Content hash of the worker's resident model (32 hex chars; empty
    /// without a model). The coordinator flags version skew against the
    /// first registrant's hash.
    pub model_hash: String,
    /// Expected guidance length of the worker's model (0 without one).
    pub guidance_len: u64,
    /// [`PROTOCOL_VERSION`] the worker speaks.
    pub protocol: u64,
}

/// `POST /fleet/register` reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegisterResponse {
    /// Whether the registration was accepted.
    pub ok: bool,
    /// Lease duration: a worker missing heartbeats for this long is
    /// considered dead (its serve traffic re-routes, its gen shard
    /// re-leases).
    pub lease_ms: u64,
    /// Whether this worker's model hash differs from the fleet's canonical
    /// hash (accepted, but fronts exclude skewed workers from the ring).
    pub skew: bool,
    /// Human-readable rejection reason when `ok` is false.
    pub message: String,
}

/// One pushed metric sample (a worker-local af-obs counter or gauge).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricSample {
    /// af-obs metric name on the worker (e.g. `serve.requests`).
    pub name: String,
    /// Current value.
    pub value: f64,
}

/// `POST /fleet/heartbeat` body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeartbeatRequest {
    /// Registered worker id.
    pub id: String,
    /// Load report: requests served per second over the last heartbeat
    /// interval (0.0 when idle or not serving).
    pub load: f64,
    /// Worker-local metrics for the coordinator's aggregated `/metrics`
    /// (re-exported there as `fleet_worker_<name>{worker="<id>"}`).
    pub metrics: Vec<MetricSample>,
    /// Gen shard the worker is still computing, if any — renews that
    /// shard's lease along with the membership lease.
    pub active_shard: Option<u64>,
    /// The worker's *current* resident model hash. Unlike the registration
    /// snapshot, this tracks hot-swaps, so a promotion propagates through
    /// ordinary heartbeats and skew converges instead of persisting until
    /// re-registration. `None` from workers predating this field (additive
    /// JSON: the derive reads a missing field as `None`).
    pub model_hash: Option<String>,
}

/// `POST /fleet/heartbeat` reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeartbeatResponse {
    /// Whether the heartbeat was accepted.
    pub ok: bool,
    /// Whether the coordinator knows this worker. `false` after a
    /// coordinator restart — the worker must re-register.
    pub known: bool,
    /// Current lease duration (may change across coordinator restarts).
    pub lease_ms: u64,
    /// The fleet's canonical model hash, echoed on every heartbeat. A
    /// worker whose resident hash differs should converge (e.g. load the
    /// canonical model from a shared registry and hot-swap). `None` from
    /// coordinators predating this field.
    pub model_hash: Option<String>,
}

/// `POST /fleet/promote` body: moves the fleet's canonical model hash, so
/// skew detection flips — workers still on the old model become the skewed
/// ones and converge via the heartbeat echo.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetPromoteRequest {
    /// The new canonical model hash (32 hex chars).
    pub model_hash: String,
}

/// `POST /fleet/promote` reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetPromoteResponse {
    /// Whether the promotion was accepted.
    pub ok: bool,
    /// The canonical hash after the call.
    pub model_hash: String,
    /// How many live workers currently match the new canonical hash.
    pub matching_workers: u64,
}

/// One worker as seen by the coordinator (`GET /fleet/workers`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerView {
    /// Worker id.
    pub id: String,
    /// Serve endpoint (`host:port`), empty for gen-only workers.
    pub addr: String,
    /// Capabilities.
    pub caps: WorkerCaps,
    /// Model content hash.
    pub model_hash: String,
    /// Expected guidance length.
    pub guidance_len: u64,
    /// Last reported load (requests/s).
    pub load: f64,
    /// Milliseconds since the last heartbeat.
    pub since_heartbeat_ms: u64,
    /// Whether this worker's model hash differs from the fleet canonical.
    pub skew: bool,
}

/// `GET /fleet/workers` reply: the *live* members only (lease not
/// expired), which is exactly the set a front should build its ring from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkersResponse {
    /// Live workers.
    pub workers: Vec<WorkerView>,
    /// The fleet's canonical model hash (first registrant wins; empty
    /// until a model-bearing worker registers).
    pub model_hash: String,
}

/// The dataset-generation job spec a coordinator hands to gen workers.
/// Everything a worker needs to compute any shard bit-identically:
/// the design coordinates plus the full [`analogfold::DatasetConfig`]
/// surface that affects sample values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenSpec {
    /// Benchmark circuit name (e.g. `OTA1`).
    pub bench: String,
    /// Placement variant label (`A`..`D`).
    pub variant: String,
    /// Total samples in the dataset.
    pub samples: u64,
    /// Samples per shard (the lease granule).
    pub shard_size: u64,
    /// Sampling seed — with `samples`, fully determines every guidance
    /// vector.
    pub seed: u64,
    /// Guidance sampling lower bound (log-uniform).
    pub c_low: f64,
    /// Guidance sampling upper bound.
    pub c_high: f64,
    /// Shared checkpoint directory all workers write shards into (must be
    /// reachable from every worker — same box or shared filesystem).
    pub checkpoint: String,
    /// Worker threads per shard evaluation (0 = auto). Never affects
    /// results, only wall-clock.
    pub threads: u64,
}

/// `POST /fleet/lease` body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LeaseRequest {
    /// Registered worker id asking for work.
    pub id: String,
}

/// `POST /fleet/lease` reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LeaseResponse {
    /// Shard index granted to this worker, if any work is available.
    pub shard: Option<u64>,
    /// The job spec (present whenever a gen job is configured).
    pub spec: Option<GenSpec>,
    /// Whether the whole job is finished (workers should stop polling).
    pub done: bool,
    /// Total shard count of the job (0 without a job).
    pub total_shards: u64,
    /// Shards not yet completed (including leased ones).
    pub remaining: u64,
}

/// `POST /fleet/complete` body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompleteRequest {
    /// Worker id reporting.
    pub id: String,
    /// Completed shard index.
    pub shard: u64,
    /// Whether the shard was computed and persisted successfully. `false`
    /// releases the lease for another worker instead.
    pub ok: bool,
    /// Failure description when `ok` is false.
    pub error: Option<String>,
}

/// `POST /fleet/complete` reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompleteResponse {
    /// Whether the completion was recorded (false for unknown shard/worker).
    pub ok: bool,
}

/// Gen-job progress (`GET /fleet/status`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GenStatus {
    /// Total shards.
    pub total: u64,
    /// Completed shards.
    pub done: u64,
    /// Currently leased shards.
    pub leased: u64,
    /// Unleased, uncompleted shards.
    pub pending: u64,
    /// Whether every shard is complete.
    pub finished: bool,
}

/// `GET /fleet/status` reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatusResponse {
    /// Coordinator liveness (always true when it can answer).
    pub ok: bool,
    /// Monotonic coordinator uptime.
    pub uptime_ms: u64,
    /// Live worker count.
    pub workers_alive: u64,
    /// All-time registration count.
    pub workers_registered: u64,
    /// Gen-job progress, when one is configured.
    pub gen: Option<GenStatus>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_types_round_trip() {
        let reg = RegisterRequest {
            id: "w1".into(),
            addr: "127.0.0.1:8401".into(),
            caps: WorkerCaps {
                serve: true,
                gen: true,
            },
            model_hash: "ab".repeat(16),
            guidance_len: 42,
            protocol: PROTOCOL_VERSION,
        };
        let json = serde_json::to_string(&reg).unwrap();
        let back: RegisterRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, "w1");
        assert_eq!(back.guidance_len, 42);
        assert!(back.caps.serve && back.caps.gen);

        let lease = LeaseResponse {
            shard: Some(3),
            spec: Some(GenSpec {
                bench: "OTA1".into(),
                variant: "A".into(),
                samples: 12,
                shard_size: 2,
                seed: 5,
                c_low: 0.4,
                c_high: 2.2,
                checkpoint: "/tmp/ckpt".into(),
                threads: 0,
            }),
            done: false,
            total_shards: 6,
            remaining: 4,
        };
        let json = serde_json::to_string(&lease).unwrap();
        let back: LeaseResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shard, Some(3));
        assert_eq!(back.spec.as_ref().unwrap().samples, 12);
        assert!(!back.done);
    }
}
