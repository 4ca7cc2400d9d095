//! Wire types of the JSON API.
//!
//! Request bodies use derived `Deserialize` (the vendored derive maps a
//! missing named field to `Null`, which `Option<T>` reads as `None`, so
//! optional knobs need no custom code). Responses derive `Serialize`; the
//! ones clients read back (tests, loadgen) also derive `Deserialize`.

use af_sim::Performance;
use serde::{Deserialize, Serialize};

/// `{"error": ...}` envelope attached to every non-2xx response.
#[derive(Debug, Clone, Serialize)]
pub struct ErrorBody {
    /// Human-readable failure description.
    pub error: String,
}

/// `GET /healthz` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Always `true` when the server can answer at all.
    pub ok: bool,
    /// `"ok"`, or `"degraded"` while a supervised thread (batch collector,
    /// job worker) is restarting after a panic or still inside its recovery
    /// grace window. Degraded is advisory: requests are still served, but a
    /// load balancer should prefer a healthy replica.
    pub status: String,
    /// Supervised-thread panics recovered since startup (collector plus all
    /// job workers).
    pub restarts: u64,
    /// Benchmark circuit the resident model serves.
    pub circuit: String,
    /// Placement variant label (`A`..`D`).
    pub variant: String,
    /// Expected `guidance` length for `/v1/predict`.
    pub guidance_len: u64,
    /// Monotonic milliseconds since the server bound its listener (from
    /// `Instant`, so wall-clock adjustments cannot run it backwards). A
    /// coordinator uses a reset to detect silent worker restarts.
    pub uptime_ms: u64,
    /// Canonical content hash of the resident model (32 lowercase hex
    /// chars). Two workers with different hashes are serving different
    /// weights — version skew a fleet front must not load-balance across.
    pub model_hash: String,
    /// Crate version of the serving binary (`CARGO_PKG_VERSION`), the
    /// coarse build-skew complement to `model_hash`.
    pub build: String,
}

/// `POST /v1/predict` request body.
#[derive(Debug, Clone, Deserialize)]
pub struct PredictRequest {
    /// Flattened guidance assignment (3 values per guided access point);
    /// must have exactly `guidance_len` entries.
    pub guidance: Vec<f64>,
}

/// `POST /v1/predict` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictResponse {
    /// Predicted post-layout metrics for the supplied guidance.
    pub performance: Performance,
    /// Size of the micro-batch this request was computed in (`1` when no
    /// other request arrived within the batching window).
    pub batch_size: u64,
}

/// `POST /v1/guide` request body; every knob is optional.
#[derive(Debug, Clone, Deserialize)]
pub struct GuideRequest {
    /// Relaxation restarts (default 12).
    pub restarts: Option<u64>,
    /// L-BFGS iterations per restart (default 30).
    pub lbfgs_iters: Option<u64>,
    /// RNG seed (default 99).
    pub seed: Option<u64>,
}

/// `POST /v1/guide` response body.
#[derive(Debug, Clone, Serialize)]
pub struct GuideResponse {
    /// Best derived guidance assignment.
    pub guidance: Vec<f64>,
    /// Its potential value (lower is better).
    pub potential: f64,
}

/// `POST /v1/route` request body; every knob is optional.
#[derive(Debug, Clone, Deserialize)]
pub struct RouteRequest {
    /// Relaxation restarts (default 6).
    pub restarts: Option<u64>,
    /// L-BFGS iterations per restart (default 30).
    pub lbfgs_iters: Option<u64>,
    /// Guidance candidates to route-and-evaluate (default 1).
    pub n_derive: Option<u64>,
    /// RNG seed (default 99).
    pub seed: Option<u64>,
    /// Router worker threads (default 1; `0` = auto via `AFRT_THREADS`).
    pub route_threads: Option<u64>,
}

/// `POST /v1/route` response body (`202 Accepted`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouteAccepted {
    /// Job id; poll `GET /v1/jobs/{id}`.
    pub id: u64,
    /// Initial status, always `"queued"`.
    pub status: String,
}

/// One registered model in a `GET /v1/models` listing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelInfo {
    /// Canonical content hash (the registry id).
    pub hash: String,
    /// Promotion state: `current`, `candidate`, `rejected`, or `retired`.
    pub state: String,
    /// Whether this is the model currently answering requests here.
    pub resident: bool,
    /// Whether the model file is still on disk (false after gc).
    pub present: bool,
    /// Parent model this one was fine-tuned from, if recorded.
    pub parent: Option<String>,
    /// Training-set size, if recorded.
    pub samples: Option<u64>,
    /// Normalized training-set MSE, if recorded.
    pub eval_mse: Option<f64>,
    /// Times this model has been promoted.
    pub promotions: u64,
}

/// Canary progress in a `GET /v1/models` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CanaryInfo {
    /// Candidate hash under shadow evaluation.
    pub candidate: String,
    /// Jobs scored so far.
    pub samples: u64,
    /// Incumbent mean FoM prediction error.
    pub incumbent_mean: f64,
    /// Candidate mean FoM prediction error.
    pub candidate_mean: f64,
    /// Whether the candidate currently reads as a regression.
    pub regression: bool,
}

/// `GET /v1/models` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelsResponse {
    /// Hash of the model answering requests right now.
    pub resident: String,
    /// The registry's promoted hash (`None` without a registry, or before
    /// the first promotion).
    pub current: Option<String>,
    /// Shadow-evaluation progress, when a candidate is under canary.
    pub canary: Option<CanaryInfo>,
    /// Registered models in registration order (empty without a registry).
    pub models: Vec<ModelInfo>,
}

/// `POST /v1/models/promote` request body.
#[derive(Debug, Clone, Deserialize)]
pub struct PromoteRequest {
    /// Hash (or unique prefix) to promote. Defaults to the newest
    /// registered non-resident candidate.
    pub hash: Option<String>,
    /// Promote even when the canary verdict is a regression.
    pub force: Option<bool>,
}

/// `POST /v1/models/promote` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PromoteResponse {
    /// Always `true` on 200.
    pub ok: bool,
    /// The now-resident model hash.
    pub model_hash: String,
    /// The displaced model hash.
    pub previous: String,
}

/// Parses a request body as JSON of type `T`, mapping failures to a
/// uniform error message.
pub fn parse_body<T: serde::de::DeserializeOwned>(body: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    serde_json::from_str(text).map_err(|e| format!("invalid json body: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optional_fields_default_to_none() {
        let req: RouteRequest = parse_body(b"{}").unwrap();
        assert!(req.restarts.is_none() && req.seed.is_none());
        let req: RouteRequest = parse_body(b"{\"restarts\": 9, \"seed\": 7}").unwrap();
        assert_eq!(req.restarts, Some(9));
        assert_eq!(req.seed, Some(7));
    }

    #[test]
    fn predict_request_round_trips() {
        let req: PredictRequest = parse_body(b"{\"guidance\": [0.25, -1.5, 3.0]}").unwrap();
        assert_eq!(req.guidance, vec![0.25, -1.5, 3.0]);
    }

    #[test]
    fn bad_bodies_are_reported_not_panicked() {
        assert!(parse_body::<PredictRequest>(b"not json").is_err());
        assert!(parse_body::<PredictRequest>(&[0xff, 0xfe]).is_err());
        assert!(parse_body::<PredictRequest>(b"{\"guidance\": \"nope\"}").is_err());
    }

    #[test]
    fn responses_serialize() {
        let body = serde_json::to_string(&RouteAccepted {
            id: 3,
            status: "queued".to_string(),
        })
        .unwrap();
        assert!(body.contains("\"id\":3") && body.contains("\"queued\""));
    }
}
