//! Server tuning knobs. Defaults favor interactive latency on small
//! models; every threshold is explicit so the e2e tests can force each
//! failure mode deterministically.

use std::path::PathBuf;

/// Configuration of one [`crate::Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port (the bound address is
    /// reported by [`crate::ServerHandle::addr`]).
    pub addr: String,
    /// Connection-handler threads. `0` = auto (hardware parallelism,
    /// capped at 8). Each handler runs its predicts on a compiled model of
    /// its own, built on its first predict.
    pub workers: usize,
    /// Bound of the accepted-connection queue; beyond it the accept loop
    /// sheds with `429`.
    pub conn_queue: usize,
    /// Bound of the route-job queue; a full queue sheds with `429`.
    pub job_queue: usize,
    /// Threads executing route jobs.
    pub job_workers: usize,
    /// Upper clamp on client-supplied `x-deadline-ms` budgets, in
    /// milliseconds (`0` disables the clamp). A skewed or hostile client
    /// must not pin work in a queue indefinitely.
    pub deadline_max_ms: u64,
    /// Stable identity this server passes as the key of keyed chaos
    /// failpoints (e.g. `serve.predict.delay`). With a per-worker key, a
    /// seeded probability deterministically selects *which* fleet worker a
    /// fault fires on — every predict on the selected worker, never on the
    /// others.
    pub fault_key: u64,
    /// Keep-alive idle timeout, in milliseconds: a connection with no new
    /// request within this window is closed.
    pub keepalive_idle_ms: u64,
    /// `Retry-After` seconds advertised on `429` responses.
    pub retry_after_s: u64,
    /// Directory of the persistent job store (a `persist::ShardStore`).
    /// `None` uses `serve-jobs` under the system temp directory.
    pub job_dir: Option<PathBuf>,
    /// Capacity (MiB) of the response cache for `/v1/predict` and
    /// `/v1/guide` (keyed by request content hash; bypass per-request with
    /// an `x-no-cache` header). `0` disables it.
    pub cache_mb: u64,
    /// Base backoff (milliseconds) between supervisor restarts of a
    /// panicked job worker (exponential, deterministic jitter).
    pub supervisor_backoff_ms: u64,
    /// Recovery grace (milliseconds): after a job worker restarts,
    /// `/healthz` keeps reporting `degraded` until the replacement has
    /// stayed alive this long; after a predict panics on a handler thread,
    /// it reports `degraded` for this long.
    pub supervisor_grace_ms: u64,
    /// Model registry directory. `None` disables the registry watcher, the
    /// `/v1/models` endpoints answer from the resident model only, and
    /// promotion is unavailable.
    pub registry: Option<PathBuf>,
    /// How often the registry watcher polls for an external promotion or a
    /// fresh candidate, in milliseconds.
    pub registry_poll_ms: u64,
    /// Fraction of completed `/v1/route` jobs shadow-scored on the canary
    /// candidate (deterministic per job id). `0` disables canarying.
    pub canary_fraction: f64,
    /// Minimum scored jobs before a canary verdict is recorded at
    /// promotion time.
    pub canary_min_samples: u64,
    /// Relative tolerance before a worse candidate counts as a regression
    /// (e.g. `0.10` = up to 10% worse mean FoM error is acceptable).
    pub canary_tolerance: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            conn_queue: 128,
            job_queue: 16,
            job_workers: 1,
            deadline_max_ms: 600_000,
            fault_key: 0,
            keepalive_idle_ms: 5_000,
            retry_after_s: 1,
            job_dir: None,
            cache_mb: 32,
            supervisor_backoff_ms: 50,
            supervisor_grace_ms: 500,
            registry: None,
            registry_poll_ms: 500,
            canary_fraction: 0.25,
            canary_min_samples: 3,
            canary_tolerance: 0.10,
        }
    }
}

impl ServeConfig {
    /// Resolved handler-thread count.
    #[must_use]
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(2)
            .min(8)
    }

    /// The restart-backoff policy for the supervised job workers.
    #[must_use]
    pub fn supervisor_backoff(&self) -> af_fault::RetryPolicy {
        af_fault::RetryPolicy {
            // Restarts are unlimited (the supervisor loops for the server's
            // lifetime); `max_attempts` only shapes the backoff curve.
            max_attempts: u32::MAX,
            base_delay_ms: self.supervisor_backoff_ms,
            max_delay_ms: (self.supervisor_backoff_ms * 32).max(1_000),
            ..af_fault::RetryPolicy::default()
        }
    }

    /// The supervisor recovery grace as a [`std::time::Duration`].
    #[must_use]
    pub fn supervisor_grace(&self) -> std::time::Duration {
        std::time::Duration::from_millis(self.supervisor_grace_ms)
    }

    /// Resolved job-store directory.
    #[must_use]
    pub fn resolved_job_dir(&self) -> PathBuf {
        self.job_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("af-serve-jobs-{}", std::process::id()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.resolved_workers() >= 1);
        assert!(cfg
            .resolved_job_dir()
            .to_string_lossy()
            .contains("af-serve-jobs"));
        let fixed = ServeConfig {
            workers: 3,
            job_dir: Some(PathBuf::from("/tmp/x")),
            ..ServeConfig::default()
        };
        assert_eq!(fixed.resolved_workers(), 3);
        assert_eq!(fixed.resolved_job_dir(), PathBuf::from("/tmp/x"));
    }
}
