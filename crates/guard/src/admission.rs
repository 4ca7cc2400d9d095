//! CoDel-style adaptive admission control.
//!
//! Bounded queues already shed when *full*, but a queue can be far from full
//! and still be the reason every request is late: sustained sojourn time
//! above the latency target means the server has slipped from "absorbing a
//! burst" into "standing queue", and the kind thing to do is fail fast with
//! `429` so clients retry elsewhere (or later) instead of queueing into
//! collapse.
//!
//! [`Admission`] implements the CoDel control law's first half: the batch
//! collector feeds it each job's measured queue sojourn; once sojourn has
//! stayed above `target_ms` continuously for `interval_ms`, the admission
//! gate flips to shedding and the server converts new predict work into
//! early `429`s. The first sojourn back under target closes the gate, and
//! so does a whole interval with no sojourn observed at all. Shed work never
//! reaches the collector, so a shedding gate would otherwise never see the
//! sojourn that reopens it; and a collector that has dequeued nothing for an
//! interval has nothing standing in its queue. Either way the excursion
//! ends, and shedding again takes a fresh interval above target. (A
//! collector slower than one batch per interval therefore never trips the
//! gate; the bounded queue and deadline shedding still bound it.) The
//! gate never touches work already queued — it only stops the queue from
//! growing — so it cannot reorder or drop accepted requests.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tuning for an [`Admission`] gate.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Queue-sojourn target in milliseconds; `0` disables the gate.
    pub target_ms: u64,
    /// How long sojourn must stay above target before shedding starts.
    pub interval_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            target_ms: 0,
            interval_ms: 100,
        }
    }
}

struct AdmissionInner {
    first_above: Option<Instant>,
    last_observed: Option<Instant>,
    shedding: bool,
    shed_total: u64,
}

impl AdmissionInner {
    /// Ends the current excursion once `interval` has passed with no
    /// observation: the collector has gone quiet, so its queue has drained.
    fn end_if_quiet(&mut self, now: Instant, interval: Duration) {
        if self
            .last_observed
            .is_some_and(|t| now.saturating_duration_since(t) >= interval)
        {
            self.first_above = None;
            self.shedding = false;
        }
    }
}

/// Queue-delay-target admission gate.
pub struct Admission {
    cfg: AdmissionConfig,
    inner: Mutex<AdmissionInner>,
}

impl Admission {
    /// A gate with the given tuning (`target_ms == 0` never sheds).
    pub fn new(cfg: AdmissionConfig) -> Self {
        Admission {
            cfg,
            inner: Mutex::new(AdmissionInner {
                first_above: None,
                last_observed: None,
                shedding: false,
                shed_total: 0,
            }),
        }
    }

    /// Whether the gate is active at all.
    pub fn enabled(&self) -> bool {
        self.cfg.target_ms > 0
    }

    /// Feeds one measured queue sojourn (dequeue time minus enqueue time).
    pub fn observe(&self, sojourn_ms: f64) {
        self.observe_at(sojourn_ms, Instant::now());
    }

    /// [`Admission::observe`] with an explicit clock.
    pub fn observe_at(&self, sojourn_ms: f64, now: Instant) {
        if !self.enabled() {
            return;
        }
        let interval = Duration::from_millis(self.cfg.interval_ms);
        let mut inner = self.inner.lock().expect("admission lock");
        inner.end_if_quiet(now, interval);
        inner.last_observed = Some(now);
        if sojourn_ms > self.cfg.target_ms as f64 {
            let first = *inner.first_above.get_or_insert(now);
            if now.saturating_duration_since(first) >= interval {
                inner.shedding = true;
            }
        } else {
            inner.first_above = None;
            inner.shedding = false;
        }
    }

    /// Whether new work should be shed with an early `429` right now. A
    /// `true` answer is counted as a shed (`guard.admission.shed`).
    pub fn should_shed(&self) -> bool {
        self.should_shed_at(Instant::now())
    }

    /// [`Admission::should_shed`] with an explicit clock.
    pub fn should_shed_at(&self, now: Instant) -> bool {
        if !self.enabled() {
            return false;
        }
        let mut inner = self.inner.lock().expect("admission lock");
        inner.end_if_quiet(now, Duration::from_millis(self.cfg.interval_ms));
        if inner.shedding {
            inner.shed_total += 1;
            af_obs::counter("guard.admission.shed", 1);
        }
        inner.shedding
    }

    /// Total requests shed by this gate since creation.
    pub fn shed_total(&self) -> u64 {
        self.inner.lock().expect("admission lock").shed_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_gate_never_sheds() {
        let gate = Admission::new(AdmissionConfig::default());
        let t0 = Instant::now();
        for i in 0..100 {
            gate.observe_at(1e6, t0 + Duration::from_millis(i));
        }
        assert!(!gate.should_shed());
        assert_eq!(gate.shed_total(), 0);
    }

    #[test]
    fn sheds_only_after_sustained_excess_and_recovers() {
        let gate = Admission::new(AdmissionConfig {
            target_ms: 10,
            interval_ms: 100,
        });
        let t0 = Instant::now();
        // A momentary spike within the interval does not shed.
        gate.observe_at(50.0, t0);
        gate.observe_at(50.0, t0 + Duration::from_millis(50));
        assert!(!gate.should_shed_at(t0 + Duration::from_millis(50)));
        // Still above target past the interval: shedding starts.
        gate.observe_at(50.0, t0 + Duration::from_millis(120));
        assert!(gate.should_shed_at(t0 + Duration::from_millis(120)));
        assert_eq!(gate.shed_total(), 1);
        // One sojourn back under target closes the gate immediately.
        gate.observe_at(5.0, t0 + Duration::from_millis(130));
        assert!(!gate.should_shed_at(t0 + Duration::from_millis(130)));
        // And the clock restarts: a fresh excursion needs its own interval.
        gate.observe_at(50.0, t0 + Duration::from_millis(140));
        assert!(!gate.should_shed_at(t0 + Duration::from_millis(140)));
    }

    #[test]
    fn an_interval_without_observations_reopens_the_gate() {
        let gate = Admission::new(AdmissionConfig {
            target_ms: 2,
            interval_ms: 50,
        });
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Sustained excess: every sojourn for 60 ms stands above target.
        for ms in (0..=60).step_by(3) {
            gate.observe_at(3.0, at(ms));
        }
        assert!(gate.should_shed_at(at(61)));
        // Shed work never reaches the collector, so nothing more is
        // observed. Within the interval the gate keeps shedding...
        assert!(gate.should_shed_at(at(100)));
        // ...and once a whole interval has passed quietly, it reopens.
        assert!(!gate.should_shed_at(at(110)));
        assert_eq!(gate.shed_total(), 2);
        // The excursion is over: one late sojourn above target starts a
        // fresh interval instead of shedding at once.
        gate.observe_at(3.0, at(120));
        assert!(!gate.should_shed_at(at(121)));
    }
}
