//! `/v1/predict` on the handler thread that read the request.
//!
//! Each serve handler thread keeps one [`HandlerSession`]: a compiled
//! [`GnnProgram`] that only it uses. The session is compiled on the
//! thread's first predict and again after a model hot-swap, so a handler
//! that never predicts compiles none. A predict crosses no thread and waits
//! in no server-side queue: its forward pass is shorter than a hand-off to
//! a shared compute thread and back. What bounds the work in flight is the
//! handler count, the bounded connection queue in front of the handlers,
//! and client deadlines.
//!
//! A panic inside a predict (real, or injected through the `serve.predict`
//! failpoint) is caught on the handler: the request answers `503`, the
//! handler drops its session, and [`PredictPanics`] marks the server
//! degraded for the recovery grace.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use af_guard::Deadline;
use analogfold::GnnProgram;

use crate::state::ModelSlot;

/// Why a predict produced no metrics.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PredictError {
    /// The request deadline had expired before compute — `408`.
    DeadlineExceeded,
    /// Malformed request (wrong guidance length) — `400`.
    Rejected(String),
    /// The predict panicked — `503`.
    Panicked,
}

/// One handler thread's compiled predict program, tagged with the model
/// slot's epoch it was compiled at.
#[derive(Default)]
pub(crate) struct HandlerSession {
    compiled: Option<(u64, GnnProgram)>,
}

/// Predict panics caught on the handler threads. `/healthz` reports the
/// count as restarts and the grace window as `degraded`, together with the
/// job workers' supervisors.
pub(crate) struct PredictPanics {
    grace: Duration,
    count: AtomicU64,
    degraded_until: Mutex<Option<Instant>>,
}

impl PredictPanics {
    /// A record that reports `degraded` for `grace` after each panic.
    pub(crate) fn new(grace: Duration) -> Self {
        Self {
            grace,
            count: AtomicU64::new(0),
            degraded_until: Mutex::new(None),
        }
    }

    fn record(&self, msg: &str) {
        self.count.fetch_add(1, Ordering::Relaxed);
        *self
            .degraded_until
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Instant::now() + self.grace);
        af_obs::counter("serve.predict.panics", 1);
        af_obs::warn(&format!(
            "predict panicked ({msg}); the handler drops its session"
        ));
    }

    /// Predict panics caught so far.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Whether a predict panicked within the last grace window.
    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded_until
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .is_some_and(|until| Instant::now() < until)
    }
}

impl HandlerSession {
    /// Predicts the five metrics for `guidance` on this handler's program,
    /// compiling it first when there is none or the slot's model has been
    /// swapped since. An already-expired `deadline` is shed before
    /// anything else (`guard.deadline_expired.predict`). `fault_key` keys
    /// the `serve.predict.delay` failpoint.
    pub(crate) fn predict(
        &mut self,
        slot: &ModelSlot,
        panics: &PredictPanics,
        fault_key: u64,
        guidance: &[f64],
        deadline: Option<Deadline>,
    ) -> Result<[f64; 5], PredictError> {
        if deadline.is_some_and(|d| d.expired()) {
            af_guard::shed("predict");
            return Err(PredictError::DeadlineExceeded);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let program = self.program(slot);
            let expected = program.guidance_len();
            if guidance.len() != expected {
                return Err(PredictError::Rejected(format!(
                    "guidance must have {expected} values, got {}",
                    guidance.len()
                )));
            }
            // Chaos hooks: a crash mid-predict, and a keyed slow site —
            // armed in `delay` mode, the per-server `fault_key` decides
            // deterministically *which* fleet worker is the slow one.
            af_fault::fail!("serve.predict");
            af_fault::fail!("serve.predict.delay", key = fault_key);
            let t0 = af_obs::enabled().then(Instant::now);
            let metrics = program.predict(guidance);
            if let Some(t0) = t0 {
                af_obs::hist("serve.predict.compute_ms", t0.elapsed().as_secs_f64() * 1e3);
            }
            Ok(metrics)
        }));
        outcome.unwrap_or_else(|payload| {
            self.compiled = None;
            panics.record(&afrt::panic_message(payload.as_ref()));
            Err(PredictError::Panicked)
        })
    }

    /// The program for the slot's resident model. The epoch is read before
    /// the bundle: a swap stores the bundle before it bumps the epoch, so a
    /// program is never tagged with an epoch newer than its model, and
    /// every prediction runs wholly on one model.
    fn program(&mut self, slot: &ModelSlot) -> &mut GnnProgram {
        let epoch = slot.epoch();
        if self.compiled.as_ref().map(|(tag, _)| *tag) != Some(epoch) {
            af_obs::counter("serve.predict.compiles", 1);
            self.compiled = Some((epoch, slot.get().session()));
        }
        &mut self.compiled.as_mut().expect("compiled above").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ModelBundle;
    use af_fault::FaultMode;
    use af_obs::{Event, MemorySink};
    use analogfold::{GnnConfig, ThreeDGnn};
    use std::sync::{Arc, Barrier};

    fn bundle(seed: u64) -> ModelBundle {
        let gnn = ThreeDGnn::new(&GnnConfig {
            hidden: 8,
            layers: 1,
            seed,
            ..GnnConfig::default()
        });
        ModelBundle::with_model("OTA1", "A", gnn).unwrap()
    }

    fn inputs(len: usize, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|k| (0..len).map(|i| ((i + 3 * k) as f64).sin() * 0.4).collect())
            .collect()
    }

    fn bits(metrics: [f64; 5]) -> [u64; 5] {
        metrics.map(f64::to_bits)
    }

    /// The `serve.predict.compiles` count and the `serve.predict.compute_ms`
    /// sample count recorded while `f` runs.
    fn recorded(f: impl FnOnce()) -> (u64, u64) {
        let sink = Arc::new(MemorySink::new());
        let guard = af_obs::install(sink.clone());
        f();
        drop(guard);
        let (mut compiles, mut computes) = (0, 0);
        for event in sink.events() {
            match event {
                Event::Counter { name, value, .. } if name == "serve.predict.compiles" => {
                    compiles += value;
                }
                Event::Histogram { name, count, .. } if name == "serve.predict.compute_ms" => {
                    computes += count;
                }
                _ => {}
            }
        }
        (compiles, computes)
    }

    #[test]
    fn handler_sessions_on_two_threads_match_a_lone_session_bit_for_bit() {
        let _faults = af_fault::scenario();
        let slot = Arc::new(ModelSlot::new(bundle(0)));
        let guidance = Arc::new(inputs(slot.get().guidance_len(), 6));
        let mut lone = slot.get().session();
        let expected: Vec<[u64; 5]> = guidance.iter().map(|g| bits(lone.predict(g))).collect();

        let panics = Arc::new(PredictPanics::new(Duration::from_millis(500)));
        let barrier = Arc::new(Barrier::new(2));
        let handlers: Vec<_> = (0..2)
            .map(|_| {
                let (slot, panics, barrier, guidance) = (
                    Arc::clone(&slot),
                    Arc::clone(&panics),
                    Arc::clone(&barrier),
                    Arc::clone(&guidance),
                );
                std::thread::spawn(move || {
                    let mut session = HandlerSession::default();
                    barrier.wait();
                    guidance
                        .iter()
                        .map(|g| bits(session.predict(&slot, &panics, 0, g, None).unwrap()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handler in handlers {
            assert_eq!(handler.join().unwrap(), expected);
        }
        assert_eq!(panics.count(), 0);
    }

    #[test]
    fn a_swap_recompiles_once_and_answers_with_the_new_model() {
        let _faults = af_fault::scenario();
        let slot = ModelSlot::new(bundle(0));
        let next = bundle(7);
        let guidance = inputs(slot.get().guidance_len(), 1).remove(0);
        let old = bits(slot.get().session().predict(&guidance));
        let new = bits(next.session().predict(&guidance));
        assert_ne!(old, new);

        let panics = PredictPanics::new(Duration::from_millis(500));
        let mut session = HandlerSession::default();
        let mut predict = || bits(session.predict(&slot, &panics, 0, &guidance, None).unwrap());
        let (compiles, _) = recorded(|| assert_eq!(predict(), old));
        assert_eq!(compiles, 1, "the first predict compiles");
        slot.swap(next);
        let (compiles, computes) = recorded(|| {
            assert_eq!(predict(), new);
            assert_eq!(predict(), new);
        });
        assert_eq!(compiles, 1, "a swap costs one compile, not one per predict");
        assert_eq!(computes, 2);
    }

    #[test]
    fn a_predict_panic_answers_503_degrades_and_recovers_on_a_fresh_session() {
        let _faults = af_fault::scenario();
        af_fault::arm_limited("serve.predict", FaultMode::Panic, 1.0, Some(1));
        let slot = ModelSlot::new(bundle(0));
        let guidance = inputs(slot.get().guidance_len(), 1).remove(0);
        let fresh = bits(slot.get().session().predict(&guidance));

        let panics = PredictPanics::new(Duration::from_millis(100));
        let mut session = HandlerSession::default();
        assert_eq!(
            session.predict(&slot, &panics, 0, &guidance, None),
            Err(PredictError::Panicked)
        );
        assert!(panics.is_degraded());
        assert_eq!(panics.count(), 1);
        assert!(session.compiled.is_none(), "the panic drops the session");

        let again = session.predict(&slot, &panics, 0, &guidance, None).unwrap();
        assert_eq!(bits(again), fresh);
        std::thread::sleep(Duration::from_millis(150));
        assert!(!panics.is_degraded(), "health reads ok after the grace");
        assert_eq!(panics.count(), 1);
    }

    #[test]
    fn wrong_length_is_400_and_an_expired_deadline_408_without_compute() {
        let _faults = af_fault::scenario();
        let slot = ModelSlot::new(bundle(0));
        let len = slot.get().guidance_len();
        let panics = PredictPanics::new(Duration::from_millis(500));
        let mut session = HandlerSession::default();
        let (_, computes) = recorded(|| {
            match session.predict(&slot, &panics, 0, &[0.0; 3], None) {
                Err(PredictError::Rejected(msg)) => {
                    assert!(msg.contains(&format!("guidance must have {len} values, got 3")));
                }
                other => panic!("expected Rejected, got {other:?}"),
            }
            assert_eq!(
                session.predict(&slot, &panics, 0, &vec![0.0; len], Some(Deadline::after(0))),
                Err(PredictError::DeadlineExceeded)
            );
        });
        assert_eq!(computes, 0, "neither request reached the forward pass");
        assert_eq!(panics.count(), 0);
    }
}
