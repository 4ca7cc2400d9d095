//! Cross-request batching for `/v1/predict`.
//!
//! A single collector thread owns the compiled [`analogfold::GnnProgram`]
//! (and with it the mutable inference tape). Handler threads submit jobs into a bounded
//! queue and block on a reply channel; the collector blocks for the first
//! job, then takes the jobs already queued behind it, up to eight, and runs
//! them as one batch. It never waits for a job that has not arrived.
//!
//! A batch shares no compute: each element runs through the same session
//! path as a lone request, so results are bit-identical regardless of how
//! requests were coalesced, and a batch-mate is not worth waiting for. What
//! a batch amortizes is the collector's own bookkeeping: one hot-swap
//! check, one queue-sojourn observation and one pass through the chaos
//! failpoints per batch.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use af_fault::Supervisor;
use af_guard::{Admission, AdmissionConfig, Deadline};
use afrt::{BoundedQueue, PushError};

use crate::config::ServeConfig;
use crate::state::ModelSlot;

/// One queued prediction: the guidance to evaluate, the deadline the answer
/// is still useful until, and where to send it.
struct PredictJob {
    guidance: Vec<f64>,
    deadline: Deadline,
    enqueued: Instant,
    reply: mpsc::Sender<Result<Prediction, Reject>>,
}

/// Why the collector refused a queued job without running it.
enum Reject {
    /// Malformed request (wrong guidance length) — `400`.
    Bad(String),
    /// The job's deadline expired while it sat in the queue — `408`,
    /// shed before any compute.
    Expired,
}

/// A successful prediction.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// The five denormalized metrics, in [`analogfold`] metric order.
    pub metrics: [f64; 5],
    /// How many requests the collector took off the queue together with
    /// this one (each still runs its own forward pass).
    pub batch_size: u64,
}

/// Why a submission failed before reaching the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The predict queue is full — shed with `429`.
    Overloaded,
    /// The server is shutting down — `503`.
    ShuttingDown,
    /// The reply did not arrive within the request deadline — `408`.
    DeadlineExceeded,
    /// The request was rejected (e.g. wrong guidance length) — `400`.
    Rejected(String),
}

/// Handle to the supervised collector thread.
pub struct Batcher {
    queue: Arc<BoundedQueue<PredictJob>>,
    supervisor: Option<Supervisor>,
    admission: Arc<Admission>,
}

/// Most jobs one batch takes off the queue. A batch shares no compute, so
/// the bound only limits how many predictions run between two hot-swap
/// checks.
const BATCH_MAX: usize = 8;

/// The collector loop: owns a [`analogfold::GnnProgram`] and drains the
/// queue until it closes. It blocks for a batch's first job, then takes
/// only the jobs already queued, up to [`BATCH_MAX`], so a lone request
/// runs as soon as the collector is free. The loop runs under a
/// [`Supervisor`], so it must be re-enterable: a panic (real, or injected
/// via the `serve.batch` failpoint) unwinds out, dropping the in-hand jobs'
/// reply senders — their waiting handlers observe `Disconnected` and answer
/// `503` instead of hanging — and the supervisor re-invokes the loop with a
/// fresh session after backoff.
fn collector_loop(
    slot: &ModelSlot,
    q: &BoundedQueue<PredictJob>,
    admission: &Admission,
    fault_key: u64,
) {
    let mut epoch = slot.epoch();
    let mut bundle = slot.get();
    let mut session = bundle.session();
    let mut expected = session.guidance_len();
    while let Some(first) = q.pop() {
        // Hot-swap point: a model promotion is only ever observed *between*
        // batches, so a batch in hand finishes on the model it started on
        // and the next batch runs entirely on the replacement.
        let now_epoch = slot.epoch();
        if now_epoch != epoch {
            epoch = now_epoch;
            bundle = slot.get();
            session = bundle.session();
            expected = session.guidance_len();
            af_obs::counter("serve.batch.session_swaps", 1);
        }
        let mut jobs = vec![first];
        while jobs.len() < BATCH_MAX {
            match q.pop_timeout(Duration::ZERO) {
                Some(job) => jobs.push(job),
                None => break,
            }
        }

        // The oldest job's queue sojourn is the CoDel signal: sustained
        // sojourn above target flips the admission gate to early 429s.
        let sojourn_ms = jobs[0].enqueued.elapsed().as_secs_f64() * 1e3;
        af_obs::hist("serve.predict.sojourn_ms", sojourn_ms);
        admission.observe(sojourn_ms);

        // Shed work that expired while queued *before* validation and
        // compute: an answer past its deadline has no reader.
        let mut live = Vec::with_capacity(jobs.len());
        for job in jobs {
            if job.deadline.expired() {
                af_guard::shed("batch");
                let _ = job.reply.send(Err(Reject::Expired));
            } else {
                live.push(job);
            }
        }

        // Validate lengths next so one malformed request cannot
        // sink its batch-mates.
        let mut valid = Vec::with_capacity(live.len());
        for job in live {
            if job.guidance.len() == expected {
                valid.push(job);
            } else {
                let msg = format!(
                    "guidance must have {expected} values, got {}",
                    job.guidance.len()
                );
                let _ = job.reply.send(Err(Reject::Bad(msg)));
            }
        }
        if valid.is_empty() {
            continue;
        }

        // Chaos hooks: a collector crash with a batch in hand (the in-hand
        // replies drop; see the function docs), and a keyed slow-batch site
        // — armed in `delay` mode, the per-server `fault_key` decides
        // deterministically *which* fleet worker is the slow one.
        af_fault::fail!("serve.batch");
        af_fault::fail!("serve.batch.delay", key = fault_key);

        let batch: Vec<Vec<f64>> = valid.iter().map(|j| j.guidance.clone()).collect();
        let size = batch.len() as u64;
        af_obs::hist("serve.batch.size", size as f64);
        let outputs = session.predict_batch(&batch);
        for (job, metrics) in valid.into_iter().zip(outputs) {
            let _ = job.reply.send(Ok(Prediction {
                metrics,
                batch_size: size,
            }));
        }
    }
}

impl Batcher {
    /// Spawns the supervised collector thread around the model slot.
    #[must_use]
    pub fn start(slot: &Arc<ModelSlot>, cfg: &ServeConfig) -> Self {
        let queue: Arc<BoundedQueue<PredictJob>> =
            Arc::new(BoundedQueue::new("serve.predict", cfg.predict_queue));
        let admission = Arc::new(Admission::new(AdmissionConfig {
            target_ms: cfg.admission_target_ms,
            interval_ms: cfg.admission_interval_ms,
        }));
        let fault_key = cfg.fault_key;
        let slot = Arc::clone(slot);
        let q = Arc::clone(&queue);
        let adm = Arc::clone(&admission);
        let supervisor = Supervisor::spawn(
            "serve-batcher",
            cfg.supervisor_backoff(),
            cfg.supervisor_grace(),
            move || collector_loop(&slot, &q, &adm, fault_key),
        )
        .expect("spawn serve-batcher thread");
        Self {
            queue,
            supervisor: Some(supervisor),
            admission,
        }
    }

    /// The adaptive admission gate fed by this collector's queue sojourn;
    /// the server checks it before accepting new predict work.
    #[must_use]
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Whether the collector is restarting after a panic (or inside its
    /// recovery grace window); surfaced by `/healthz` as `degraded`.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.supervisor
            .as_ref()
            .is_some_and(Supervisor::is_degraded)
    }

    /// Collector panics recovered so far.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.supervisor.as_ref().map_or(0, Supervisor::restarts)
    }

    /// Submits one guidance vector and blocks until the batched answer
    /// arrives or `deadline` expires. An already-expired deadline is shed
    /// here (`guard.deadline_expired.predict`) without enqueueing anything.
    pub fn predict(
        &self,
        guidance: Vec<f64>,
        deadline: Deadline,
    ) -> Result<Prediction, SubmitError> {
        if deadline.expired() {
            af_guard::shed("predict");
            return Err(SubmitError::DeadlineExceeded);
        }
        let (tx, rx) = mpsc::channel();
        match self.queue.try_push(PredictJob {
            guidance,
            deadline,
            enqueued: Instant::now(),
            reply: tx,
        }) {
            Ok(()) => {}
            Err(PushError::Full) => return Err(SubmitError::Overloaded),
            Err(PushError::Closed) => return Err(SubmitError::ShuttingDown),
        }
        match rx.recv_timeout(deadline.remaining()) {
            Ok(Ok(prediction)) => Ok(prediction),
            Ok(Err(Reject::Bad(msg))) => Err(SubmitError::Rejected(msg)),
            Ok(Err(Reject::Expired)) => Err(SubmitError::DeadlineExceeded),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(SubmitError::DeadlineExceeded),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Closes the submission queue through a shared reference without
    /// joining the collector; the collector drains what is queued and
    /// exits, and is joined when the batcher drops.
    pub(crate) fn close_queue(&self) {
        self.queue.close();
    }

    /// Stops accepting work, drains what is queued, and joins the
    /// collector.
    pub fn shutdown(&mut self) {
        self.queue.close();
        if let Some(mut supervisor) = self.supervisor.take() {
            supervisor.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ModelBundle;
    use analogfold::{GnnConfig, ThreeDGnn};

    fn bundle(seed: u64) -> ModelBundle {
        let gnn = ThreeDGnn::new(&GnnConfig {
            hidden: 8,
            layers: 1,
            seed,
            ..GnnConfig::default()
        });
        ModelBundle::with_model("OTA1", "A", gnn).unwrap()
    }

    fn slot() -> Arc<ModelSlot> {
        Arc::new(ModelSlot::new(bundle(0)))
    }

    #[test]
    fn single_prediction_matches_direct_session() {
        let slot = slot();
        let len = slot.get().guidance_len();
        let guidance: Vec<f64> = (0..len).map(|i| (i as f64) * 0.01 - 0.3).collect();
        let expected = slot.get().session().predict(&guidance);

        let mut batcher = Batcher::start(&slot, &ServeConfig::default());
        let got = batcher.predict(guidance, Deadline::after(30_000)).unwrap();
        assert_eq!(got.metrics, expected);
        assert!(got.batch_size >= 1);
        batcher.shutdown();
    }

    #[test]
    fn swapped_model_answers_follow_up_requests() {
        let slot = slot();
        let len = slot.get().guidance_len();
        let guidance: Vec<f64> = (0..len).map(|i| (i as f64) * 0.01 - 0.3).collect();
        let next = bundle(7);
        let expected_old = slot.get().session().predict(&guidance);
        let expected_new = next.session().predict(&guidance);
        assert_ne!(expected_old, expected_new);

        let mut batcher = Batcher::start(&slot, &ServeConfig::default());
        let before = batcher
            .predict(guidance.clone(), Deadline::after(30_000))
            .unwrap();
        assert_eq!(before.metrics, expected_old);
        slot.swap(next);
        let after = batcher.predict(guidance, Deadline::after(30_000)).unwrap();
        assert_eq!(after.metrics, expected_new);
        batcher.shutdown();
    }

    #[test]
    fn collector_batches_what_is_queued_and_answers_bit_identically() {
        let slot = slot();
        let len = slot.get().guidance_len();
        let inputs: Vec<Vec<f64>> = (0..11)
            .map(|k| (0..len).map(|i| ((i + 3 * k) as f64).sin() * 0.4).collect())
            .collect();
        let mut session = slot.get().session();
        let expected: Vec<[f64; 5]> = inputs.iter().map(|g| session.predict(g)).collect();

        // Everything is queued and the queue closed before the collector
        // runs, so it takes one full batch, then the rest, then exits.
        let q = BoundedQueue::new("test.predict", 16);
        let replies: Vec<_> = inputs
            .iter()
            .map(|guidance| {
                let (tx, rx) = mpsc::channel();
                q.try_push(PredictJob {
                    guidance: guidance.clone(),
                    deadline: Deadline::after(30_000),
                    enqueued: Instant::now(),
                    reply: tx,
                })
                .expect("queue has room");
                rx
            })
            .collect();
        q.close();
        collector_loop(&slot, &q, &Admission::new(AdmissionConfig::default()), 0);

        for (k, (rx, want)) in replies.iter().zip(&expected).enumerate() {
            let Ok(Ok(got)) = rx.try_recv() else {
                panic!("job {k} got no prediction");
            };
            assert_eq!(got.batch_size, if k < 8 { 8 } else { 3 }, "job {k}");
            assert_eq!(
                got.metrics.map(f64::to_bits),
                want.map(f64::to_bits),
                "job {k} must match a lone predict bit for bit"
            );
        }
    }

    #[test]
    fn wrong_length_is_rejected_not_panicked() {
        let slot = slot();
        let mut batcher = Batcher::start(&slot, &ServeConfig::default());
        match batcher.predict(vec![0.0; 3], Deadline::after(30_000)) {
            Err(SubmitError::Rejected(msg)) => assert!(msg.contains("guidance")),
            other => panic!("expected Rejected, got {other:?}"),
        }
        batcher.shutdown();
    }

    #[test]
    fn shutdown_then_submit_reports_shutting_down() {
        let slot = slot();
        let mut batcher = Batcher::start(&slot, &ServeConfig::default());
        batcher.shutdown();
        assert_eq!(
            batcher
                .predict(vec![0.0; slot.get().guidance_len()], Deadline::after(1_000))
                .unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    #[test]
    fn expired_deadline_is_shed_before_enqueue() {
        let slot = slot();
        let len = slot.get().guidance_len();
        let mut batcher = Batcher::start(&slot, &ServeConfig::default());
        assert_eq!(
            batcher
                .predict(vec![0.0; len], Deadline::after(0))
                .unwrap_err(),
            SubmitError::DeadlineExceeded
        );
        // Nothing was enqueued for the collector to run.
        assert_eq!(batcher.queue.len(), 0);
        batcher.shutdown();
    }
}
