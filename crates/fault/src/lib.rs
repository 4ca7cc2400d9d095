//! `af-fault`: deterministic fault injection, retry/backoff, and supervised
//! threads for the analogfold suite.
//!
//! The crate has three parts:
//!
//! 1. A global **failpoint registry**. Code under test declares named
//!    failpoints with the [`fail!`] macro (or calls [`should_fail`] /
//!    [`should_fail_keyed`] directly); the sites compile to a single relaxed
//!    atomic load when nothing is armed, so leaving them in production hot
//!    paths is free. Tests and chaos runs arm failpoints programmatically
//!    ([`arm`], [`arm_spec`]) or through the `AF_FAULT` environment variable
//!    (see [`arm_from_env`]).
//! 2. A [`RetryPolicy`] with exponential backoff, deterministic jitter, a
//!    total deadline, and an optional cross-operation [`RetryBudget`].
//! 3. A [`Supervisor`] that keeps a named thread alive across panics with
//!    backoff and exposes a degraded-state flag for health endpoints.
//!
//! # Determinism
//!
//! Whether a failpoint fires is a pure function of `(fault seed, failpoint
//! name, key)`, derived with the same SplitMix64 splitting that `afrt` uses
//! for seed derivation. Call sites that have a natural stable identity (a
//! sample index, a restart index) pass it as the key, so the set of injected
//! faults — and therefore the retry timeline and the final result — is
//! bit-identical at any thread count and any interleaving. Sites without a
//! natural key (e.g. the serve predict site) fall back to a per-failpoint
//! counter, which is deterministic only under single-threaded access; chaos
//! tests assert *recovery* for those, not bit-identity.
//!
//! Retries compose the attempt number into the key (see [`mix`]), so each
//! attempt gets an independent draw and a transient injected fault can stop
//! firing once retries kick in.
//!
//! # Spec grammar
//!
//! `AF_FAULT` (and [`arm_spec`]) accept a comma-separated list of
//! `name:mode:prob[:max_fires]` entries:
//!
//! ```text
//! AF_FAULT="persist.save_shard:err:0.1,sim.eval:panic:0.02,serve.predict:panic:1.0:1"
//! AF_FAULT_SEED=42
//! ```
//!
//! `mode` is `err` (the site returns its injected error), `panic` (the site
//! panics), `nan` (the site substitutes a non-finite value), or `abort` (the
//! whole process dies on the spot, like `kill -9` — used by fleet chaos runs
//! to kill a worker mid-shard); `prob` is the per-evaluation activation
//! probability in `[0, 1]`; the optional `max_fires` caps how many times the
//! failpoint fires in total (handy for one-shot crash tests like
//! `serve.predict:panic:1.0:1` or `fleet.worker_kill:abort:1.0:1`).
//!
//! The `delay` mode carries a milliseconds payload and shifts the grammar by
//! one field — `name:delay:<ms>:prob[:max_fires]`, e.g.
//! `serve.predict.delay:delay:400:1.0` — and makes the site *slow* instead of
//! broken: it sleeps and then proceeds normally (used by tail-tolerance
//! chaos runs to exercise hedging and latency-tripped circuit breakers).

mod retry;
mod supervisor;

pub use retry::{RetryBudget, RetryPolicy};
pub use supervisor::{Supervisor, SupervisorHealth};

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, RwLock};

/// What an armed failpoint injects at the call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The site returns its injected error value.
    Err,
    /// The site panics (exercises supervisors and panic isolation).
    Panic,
    /// The site substitutes a non-finite value (exercises NaN guards).
    Nan,
    /// The whole process dies on the spot via [`std::process::abort`] — no
    /// unwinding, no destructors, no flushing — simulating a `kill -9`/OOM
    /// kill. Handled centrally in the firing path, so arming *any* existing
    /// failpoint in `abort` mode turns it into a crash site (exercises
    /// durable-write atomicity and fleet worker-death healing).
    Abort,
    /// The site blocks for the given number of milliseconds and then
    /// proceeds *normally* — the operation still succeeds, it is just slow.
    /// Like [`FaultMode::Abort`] this is handled centrally in the firing
    /// path (sleep, then report "did not fire" to the site), so arming any
    /// existing failpoint in `delay` mode turns it into a slow site with no
    /// per-site match arm. This is how chaos tests make a worker *slow*
    /// rather than dead, exercising hedging and latency-tripped breakers.
    Delay(u64),
}

impl FaultMode {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "err" => Ok(Self::Err),
            "panic" => Ok(Self::Panic),
            "nan" => Ok(Self::Nan),
            "abort" => Ok(Self::Abort),
            other => Err(format!(
                "unknown fault mode `{other}` (expected err|panic|nan|abort|delay)"
            )),
        }
    }
}

/// Observed activity of one failpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// How many times the site evaluated the failpoint.
    pub evals: u64,
    /// How many times it actually fired.
    pub fires: u64,
}

struct Failpoint {
    mode: FaultMode,
    prob: f64,
    max_fires: Option<u64>,
    evals: AtomicU64,
    fires: AtomicU64,
    /// Stream position for unkeyed sites (see module docs on determinism).
    counter: AtomicU64,
}

/// Fast-path flag: a single relaxed load decides "disarmed, do nothing".
static ARMED: AtomicBool = AtomicBool::new(false);
static FAULT_SEED: AtomicU64 = AtomicU64::new(0);
static REGISTRY: LazyLock<RwLock<HashMap<String, Arc<Failpoint>>>> =
    LazyLock::new(|| RwLock::new(HashMap::new()));
/// Serializes tests that arm global failpoints (see [`scenario`]).
static SCENARIO_LOCK: Mutex<()> = Mutex::new(());

/// Whether any failpoint is armed. This is the only cost a disarmed
/// failpoint pays on the hot path.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Sets the seed that drives every activation decision (also read from
/// `AF_FAULT_SEED` by [`arm_from_env`]).
pub fn set_seed(seed: u64) {
    FAULT_SEED.store(seed, Ordering::Relaxed);
}

/// The current fault seed.
#[must_use]
pub fn seed() -> u64 {
    FAULT_SEED.load(Ordering::Relaxed)
}

/// Composes two values into one failpoint key (SplitMix64 mixing, the same
/// finalizer `afrt` uses for seed splitting). Use it to fold a retry
/// attempt into a stable identity: `mix(sample_index, attempt)`.
#[inline]
#[must_use]
pub fn mix(a: u64, b: u64) -> u64 {
    afrt::split_seed(a, b)
}

fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Maps a u64 to `[0, 1)` using the top 53 bits.
fn u01(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Arms `name` with activation probability `prob` (clamped to `[0, 1]`).
pub fn arm(name: &str, mode: FaultMode, prob: f64) {
    arm_limited(name, mode, prob, None);
}

/// Arms `name`, firing at most `max_fires` times when `Some`.
pub fn arm_limited(name: &str, mode: FaultMode, prob: f64, max_fires: Option<u64>) {
    let mut map = REGISTRY
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    map.insert(
        name.to_string(),
        Arc::new(Failpoint {
            mode,
            prob: prob.clamp(0.0, 1.0),
            max_fires,
            evals: AtomicU64::new(0),
            fires: AtomicU64::new(0),
            counter: AtomicU64::new(0),
        }),
    );
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms one failpoint.
pub fn disarm(name: &str) {
    let mut map = REGISTRY
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    map.remove(name);
    if map.is_empty() {
        ARMED.store(false, Ordering::Relaxed);
    }
}

/// Disarms everything and resets the seed to 0.
pub fn disarm_all() {
    let mut map = REGISTRY
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    map.clear();
    ARMED.store(false, Ordering::Relaxed);
    FAULT_SEED.store(0, Ordering::Relaxed);
}

/// Parses and arms a comma-separated `name:mode:prob[:max_fires]` spec.
/// Returns how many failpoints were armed.
///
/// # Errors
///
/// On any malformed entry (nothing from the bad spec is armed).
pub fn arm_spec(spec: &str) -> Result<usize, String> {
    let mut parsed = Vec::new();
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let parts: Vec<&str> = entry.split(':').collect();
        // `delay` carries a milliseconds payload, shifting the grammar by
        // one field: name:delay:<ms>:prob[:max_fires].
        let (mode, rest) = if parts.get(1) == Some(&"delay") {
            if parts.len() < 4 || parts.len() > 5 {
                return Err(format!(
                    "bad fault spec entry `{entry}` (expected name:delay:<ms>:prob[:max_fires])"
                ));
            }
            let ms: u64 = parts[2]
                .parse()
                .map_err(|_| format!("bad delay ms `{}` in `{entry}`", parts[2]))?;
            (FaultMode::Delay(ms), &parts[3..])
        } else {
            if parts.len() < 3 || parts.len() > 4 {
                return Err(format!(
                    "bad fault spec entry `{entry}` (expected name:mode:prob[:max_fires])"
                ));
            }
            (FaultMode::parse(parts[1])?, &parts[2..])
        };
        let prob: f64 = rest[0]
            .parse()
            .map_err(|_| format!("bad probability `{}` in `{entry}`", rest[0]))?;
        let max_fires = match rest.get(1) {
            None => None,
            Some(v) => Some(
                v.parse::<u64>()
                    .map_err(|_| format!("bad max_fires `{v}` in `{entry}`"))?,
            ),
        };
        parsed.push((parts[0].to_string(), mode, prob, max_fires));
    }
    let n = parsed.len();
    for (name, mode, prob, max_fires) in parsed {
        arm_limited(&name, mode, prob, max_fires);
    }
    Ok(n)
}

/// Arms failpoints from `AF_FAULT` and seeds from `AF_FAULT_SEED`.
/// Returns how many failpoints were armed (0 when the variable is unset).
///
/// # Errors
///
/// When `AF_FAULT` is set but malformed.
pub fn arm_from_env() -> Result<usize, String> {
    if let Ok(seed) = std::env::var("AF_FAULT_SEED") {
        let parsed = seed
            .parse::<u64>()
            .map_err(|_| format!("bad AF_FAULT_SEED `{seed}`"))?;
        set_seed(parsed);
    }
    match std::env::var("AF_FAULT") {
        Ok(spec) => arm_spec(&spec),
        Err(_) => Ok(0),
    }
}

fn lookup(name: &str) -> Option<Arc<Failpoint>> {
    REGISTRY
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .get(name)
        .cloned()
}

fn decide(fp: &Failpoint, name: &str, key: u64) -> Option<FaultMode> {
    fp.evals.fetch_add(1, Ordering::Relaxed);
    let draw = u01(afrt::split_seed(seed() ^ fnv1a(name), key));
    if draw >= fp.prob {
        return None;
    }
    if let Some(max) = fp.max_fires {
        // The slot index returned by `fetch_add` is what decides, so the cap
        // stays strict under concurrency; the losing increment is backed out
        // only so `stats().fires` counts actual fires, not reservations.
        if fp.fires.fetch_add(1, Ordering::Relaxed) >= max {
            fp.fires.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
    } else {
        fp.fires.fetch_add(1, Ordering::Relaxed);
    }
    af_obs::counter(&format!("fault.fired.{name}"), 1);
    if fp.mode == FaultMode::Abort {
        // Centralized so every `fail!` site is abort-capable without its own
        // match arm. eprintln is best-effort breadcrumb; abort skips unwind.
        eprintln!("af-fault: aborting process at failpoint `{name}` (key {key})");
        std::process::abort();
    }
    if let FaultMode::Delay(ms) = fp.mode {
        // Also centralized: the site sleeps here and then proceeds as if
        // nothing fired, so every existing failpoint is delay-capable and a
        // delayed operation still *succeeds* (slow ≠ broken). The registry
        // lock is not held here — only the failpoint's Arc.
        std::thread::sleep(std::time::Duration::from_millis(ms));
        return None;
    }
    Some(fp.mode)
}

/// Whether an armed failpoint with activation probability `prob` would fire
/// for `(seed, name, key)` — the same pure decision [`should_fail_keyed`]
/// makes, exposed so tests can *choose* a seed with a desired firing pattern
/// (e.g. scan for a seed where exactly one of three worker keys fires) by
/// evaluating the function instead of trial-arming the global registry.
#[must_use]
pub fn would_fire(seed: u64, name: &str, key: u64, prob: f64) -> bool {
    u01(afrt::split_seed(seed ^ fnv1a(name), key)) < prob.clamp(0.0, 1.0)
}

/// Evaluates failpoint `name` with a per-failpoint stream counter as the
/// key. Deterministic only under single-threaded access to this failpoint;
/// prefer [`should_fail_keyed`] where the site has a stable identity.
#[inline]
#[must_use]
pub fn should_fail(name: &str) -> Option<FaultMode> {
    if !enabled() {
        return None;
    }
    let fp = lookup(name)?;
    let key = fp.counter.fetch_add(1, Ordering::Relaxed);
    decide(&fp, name, key)
}

/// Evaluates failpoint `name` for a caller-supplied stable `key`. The
/// decision is a pure function of `(seed, name, key)`, independent of
/// scheduling and thread count (module docs).
#[inline]
#[must_use]
pub fn should_fail_keyed(name: &str, key: u64) -> Option<FaultMode> {
    if !enabled() {
        return None;
    }
    let fp = lookup(name)?;
    decide(&fp, name, key)
}

/// Activity counters of one failpoint, if armed.
#[must_use]
pub fn stats(name: &str) -> Option<FaultStats> {
    let fp = lookup(name)?;
    Some(FaultStats {
        evals: fp.evals.load(Ordering::Relaxed),
        fires: fp.fires.load(Ordering::Relaxed),
    })
}

/// Activity counters of every armed failpoint, sorted by name.
#[must_use]
pub fn all_stats() -> Vec<(String, FaultStats)> {
    let map = REGISTRY
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut out: Vec<(String, FaultStats)> = map
        .iter()
        .map(|(name, fp)| {
            (
                name.clone(),
                FaultStats {
                    evals: fp.evals.load(Ordering::Relaxed),
                    fires: fp.fires.load(Ordering::Relaxed),
                },
            )
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// The canonical message carried by injected errors. Sites that return an
/// injected error should embed this so [`is_injected`] (and transient-error
/// classification built on it) can recognize the fault.
#[must_use]
pub fn injected(name: &str) -> String {
    format!("injected fault at failpoint `{name}`")
}

/// Whether an error message originates from an injected fault. Injected
/// faults are transient by contract: the real operation never ran.
#[must_use]
pub fn is_injected(msg: &str) -> bool {
    msg.contains("injected fault at failpoint") || msg.contains("injected panic at failpoint")
}

/// RAII guard for tests that arm global failpoints: takes a process-wide
/// lock (so chaos tests in one binary never see each other's faults) and
/// disarms everything on entry and on drop.
pub struct Scenario {
    _guard: MutexGuard<'static, ()>,
}

/// Enters an isolated fault scenario. Hold the returned guard for the whole
/// test.
#[must_use]
pub fn scenario() -> Scenario {
    let guard = SCENARIO_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    disarm_all();
    Scenario { _guard: guard }
}

impl Drop for Scenario {
    fn drop(&mut self) {
        disarm_all();
    }
}

/// Declares a failpoint.
///
/// - `fail!("name")` — panics when the failpoint fires in `panic` mode;
///   other modes are ignored (for sites that can only crash).
/// - `fail!("name", err_expr)` — `return Err(err_expr)` on `err`/`nan`,
///   panic on `panic`.
/// - `fail!("name", key = k, err_expr)` — same, with deterministic keyed
///   activation.
///
/// All forms compile to one relaxed atomic load when nothing is armed.
#[macro_export]
macro_rules! fail {
    ($name:expr) => {
        if let Some($crate::FaultMode::Panic) = $crate::should_fail($name) {
            panic!("injected panic at failpoint `{}`", $name);
        }
    };
    ($name:expr, key = $key:expr) => {
        if let Some($crate::FaultMode::Panic) = $crate::should_fail_keyed($name, $key) {
            panic!("injected panic at failpoint `{}`", $name);
        }
    };
    ($name:expr, $err:expr) => {
        if let Some(mode) = $crate::should_fail($name) {
            if let $crate::FaultMode::Panic = mode {
                panic!("injected panic at failpoint `{}`", $name);
            }
            return Err($err);
        }
    };
    ($name:expr, key = $key:expr, $err:expr) => {
        if let Some(mode) = $crate::should_fail_keyed($name, $key) {
            if let $crate::FaultMode::Panic = mode {
                panic!("injected panic at failpoint `{}`", $name);
            }
            return Err($err);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_is_free_and_never_fires() {
        let _s = scenario();
        assert!(!enabled());
        assert_eq!(should_fail("nope"), None);
        assert_eq!(should_fail_keyed("nope", 7), None);
    }

    #[test]
    fn spec_parses_and_arms() {
        let _s = scenario();
        let n = arm_spec("a.b:err:0.5, c.d:panic:1.0:2").unwrap();
        assert_eq!(n, 2);
        assert!(enabled());
        assert!(stats("a.b").is_some());
        assert!(arm_spec("bad").is_err());
        assert!(arm_spec("x:weird:0.5").is_err());
        assert!(arm_spec("x:err:notaprob").is_err());
    }

    #[test]
    fn keyed_firing_is_pure_in_seed_name_key() {
        let _s = scenario();
        set_seed(42);
        arm("pure.site", FaultMode::Err, 0.5);
        let first: Vec<bool> = (0..256)
            .map(|k| should_fail_keyed("pure.site", k).is_some())
            .collect();
        let second: Vec<bool> = (0..256)
            .map(|k| should_fail_keyed("pure.site", k).is_some())
            .collect();
        assert_eq!(first, second);
        let fired = first.iter().filter(|f| **f).count();
        assert!(
            fired > 64 && fired < 192,
            "p=0.5 should fire ~half: {fired}"
        );
        // A different seed draws a different schedule.
        set_seed(43);
        let third: Vec<bool> = (0..256)
            .map(|k| should_fail_keyed("pure.site", k).is_some())
            .collect();
        assert_ne!(first, third);
    }

    #[test]
    fn max_fires_caps_total_fires() {
        let _s = scenario();
        arm_limited("one.shot", FaultMode::Panic, 1.0, Some(1));
        assert_eq!(should_fail("one.shot"), Some(FaultMode::Panic));
        for _ in 0..10 {
            assert_eq!(should_fail("one.shot"), None);
        }
        let st = stats("one.shot").unwrap();
        assert_eq!(st.evals, 11);
    }

    #[test]
    fn prob_bounds_are_absolute() {
        let _s = scenario();
        arm("always", FaultMode::Err, 1.0);
        arm("never", FaultMode::Err, 0.0);
        for k in 0..64 {
            assert!(should_fail_keyed("always", k).is_some());
            assert!(should_fail_keyed("never", k).is_none());
        }
    }

    #[test]
    fn fail_macro_err_form_returns() {
        let _s = scenario();
        arm("macro.err", FaultMode::Err, 1.0);
        fn site() -> Result<u32, String> {
            fail!("macro.err", crate::injected("macro.err"));
            Ok(7)
        }
        let err = site().unwrap_err();
        assert!(is_injected(&err));
        disarm("macro.err");
        assert_eq!(site().unwrap(), 7);
    }

    #[test]
    fn delay_spec_parses_and_sleeps_then_succeeds() {
        let _s = scenario();
        let n = arm_spec("slow.site:delay:30:1.0").unwrap();
        assert_eq!(n, 1);
        let t0 = std::time::Instant::now();
        // Fires (sleeps) but reports None, so err-form sites still succeed.
        assert_eq!(should_fail_keyed("slow.site", 0), None);
        assert!(
            t0.elapsed() >= std::time::Duration::from_millis(25),
            "delay did not sleep: {:?}",
            t0.elapsed()
        );
        assert_eq!(stats("slow.site").unwrap().fires, 1);
        // Malformed delay specs are rejected whole.
        assert!(arm_spec("x:delay:1.0").is_err());
        assert!(arm_spec("x:delay:abc:1.0").is_err());
        assert!(arm_spec("x:delay:5:1.0:2:9").is_err());
    }

    #[test]
    fn would_fire_matches_keyed_decision() {
        let _s = scenario();
        set_seed(42);
        arm("pure.scan", FaultMode::Err, 0.34);
        for k in 0..128 {
            assert_eq!(
                would_fire(42, "pure.scan", k, 0.34),
                should_fail_keyed("pure.scan", k).is_some(),
                "key {k}"
            );
        }
    }

    #[test]
    fn fail_macro_panic_form_panics() {
        let _s = scenario();
        arm("macro.panic", FaultMode::Panic, 1.0);
        let caught = std::panic::catch_unwind(|| fail!("macro.panic"));
        let msg = afrt::panic_message(caught.unwrap_err().as_ref());
        assert!(is_injected(&msg), "{msg}");
    }
}
