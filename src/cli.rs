//! Argument-parsing helpers for `analogfold-cli` (kept in the library so
//! they are unit-testable without spawning the binary).

use crate::place::PlacementVariant;

/// Returns the value following `flag`, if present.
///
/// # Examples
///
/// ```
/// use analogfold_suite::cli::flag_value;
///
/// let args: Vec<String> = ["--out", "file.json"].iter().map(|s| s.to_string()).collect();
/// assert_eq!(flag_value(&args, "--out"), Some("file.json"));
/// assert_eq!(flag_value(&args, "--model"), None);
/// ```
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses the numeric value following `flag`, falling back to `default` when
/// missing or malformed.
pub fn flag_num(args: &[String], flag: &str, default: usize) -> usize {
    flag_value(args, flag)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses the float value following `flag`, falling back to `default` when
/// missing or malformed.
pub fn flag_f64(args: &[String], flag: &str, default: f64) -> f64 {
    flag_value(args, flag)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Whether a bare switch is present.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parses the `--threads N` worker-count flag. `0` (also the default when
/// the flag is absent or malformed) means "auto": the `afrt` runtime then
/// honors the `AFRT_THREADS` environment variable and finally falls back to
/// the hardware parallelism. Every thread count produces bit-identical
/// results; the flag only changes wall-clock time.
pub fn threads_flag(args: &[String]) -> usize {
    flag_num(args, "--threads", 0)
}

/// Parses the `--route-threads N` flag controlling the detailed router's
/// parallel negotiation rounds, independently of the flow-level `--threads`.
/// Defaults to `0` ("auto"): the `afrt` runtime honors `AFRT_THREADS` and
/// then the hardware parallelism. The router's determinism contract makes
/// every value produce a bit-identical layout.
pub fn route_threads_flag(args: &[String]) -> usize {
    flag_num(args, "--route-threads", 0)
}

/// Observability options parsed from `--obs-jsonl FILE` / `--obs-report`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsFlags {
    /// JSONL event-log destination (`--obs-jsonl FILE`).
    pub jsonl: Option<String>,
    /// Whether to print the span-tree report after the run (`--obs-report`).
    pub report: bool,
}

impl ObsFlags {
    /// Whether any observability output was requested.
    #[must_use]
    pub fn active(&self) -> bool {
        self.jsonl.is_some() || self.report
    }
}

/// Parses the observability flags shared by the CLI subcommands.
pub fn obs_flags(args: &[String]) -> ObsFlags {
    ObsFlags {
        jsonl: flag_value(args, "--obs-jsonl").map(str::to_string),
        report: has_flag(args, "--obs-report"),
    }
}

/// Installs the observability sinks requested by `flags`. Returns `None`
/// (recording stays disabled, zero overhead) when no flag was given.
///
/// # Errors
///
/// When the `--obs-jsonl` file cannot be created.
pub fn obs_install(flags: &ObsFlags) -> Result<Option<af_obs::ObsGuard>, String> {
    if !flags.active() {
        return Ok(None);
    }
    let mut tee = af_obs::TeeSink::new();
    if let Some(path) = &flags.jsonl {
        let sink = af_obs::JsonlSink::create(std::path::Path::new(path))
            .map_err(|e| format!("cannot create `{path}`: {e}"))?;
        tee = tee.with(Box::new(sink));
    }
    // `--obs-report` alone still needs recording on: the report renders from
    // the in-memory registry, so an empty tee suffices as the sink.
    Ok(Some(af_obs::install(std::sync::Arc::new(tee))))
}

/// Parses the caching flags of the `serve` and `fleet-worker` subcommands:
/// `--cache-mb N` sizes the response cache in MiB (falling back to
/// `default` when absent or malformed) and `--no-cache` disables caching
/// entirely, returning `0` and switching the process-wide tensor-prefix
/// cache off through [`analogfold::set_cache_enabled`].
/// Caching never changes results — cached and uncached runs are
/// bit-identical — so `--no-cache` is a debugging/benchmarking aid, not a
/// correctness knob.
pub fn cache_mb_flag(args: &[String], default: u64) -> u64 {
    if has_flag(args, "--no-cache") {
        crate::analogfold::set_cache_enabled(false);
        return 0;
    }
    flag_value(args, "--cache-mb")
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Arms the fault-injection registry from `--fault SPEC` (optionally
/// seeded by `--fault-seed N`) and from the `AF_FAULT` / `AF_FAULT_SEED`
/// environment variables. The env is applied first, so an explicit flag
/// extends or overrides it per failpoint. Returns the number of armed
/// failpoints (`0` leaves the zero-overhead disarmed fast path in place).
///
/// # Errors
///
/// When either spec is malformed (see [`af_fault::arm_spec`] for the
/// `name:mode:prob[:max_fires]` grammar).
pub fn fault_flag(args: &[String]) -> Result<usize, String> {
    let mut armed = af_fault::arm_from_env()?;
    if let Some(spec) = flag_value(args, "--fault") {
        if let Some(seed) = flag_value(args, "--fault-seed") {
            af_fault::set_seed(
                seed.parse()
                    .map_err(|_| format!("bad --fault-seed `{seed}`"))?,
            );
        }
        armed += af_fault::arm_spec(spec).map_err(|e| format!("bad --fault spec: {e}"))?;
    }
    if armed > 0 {
        eprintln!(
            "fault injection armed: {armed} failpoint(s), seed {}",
            af_fault::seed()
        );
    }
    Ok(armed)
}

/// Parses a placement-variant positional argument (defaults to `A`).
pub fn variant_arg(args: &[String], idx: usize) -> PlacementVariant {
    args.get(idx)
        .and_then(|v| PlacementVariant::from_label(v))
        .unwrap_or(PlacementVariant::A)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_value_finds_pairs() {
        let args = argv(&["route", "OTA1", "--svg", "x.svg", "--def", "y.def"]);
        assert_eq!(flag_value(&args, "--svg"), Some("x.svg"));
        assert_eq!(flag_value(&args, "--def"), Some("y.def"));
        assert_eq!(flag_value(&args, "--missing"), None);
        // flag at the end without value
        let tail = argv(&["--svg"]);
        assert_eq!(flag_value(&tail, "--svg"), None);
    }

    #[test]
    fn flag_num_parses_and_defaults() {
        let args = argv(&["--samples", "42", "--epochs", "abc"]);
        assert_eq!(flag_num(&args, "--samples", 7), 42);
        assert_eq!(flag_num(&args, "--epochs", 7), 7, "malformed falls back");
        assert_eq!(flag_num(&args, "--restarts", 9), 9, "missing falls back");
    }

    #[test]
    fn flag_f64_parses_and_defaults() {
        let args = argv(&["--canary-fraction", "0.5", "--tolerance", "abc"]);
        assert_eq!(flag_f64(&args, "--canary-fraction", 0.25), 0.5);
        assert_eq!(flag_f64(&args, "--tolerance", 0.1), 0.1, "malformed");
        assert_eq!(flag_f64(&args, "--missing", 2.0), 2.0, "absent");
    }

    #[test]
    fn has_flag_exact_match() {
        let args = argv(&["--report", "--svg"]);
        assert!(has_flag(&args, "--report"));
        assert!(!has_flag(&args, "--rep"));
    }

    #[test]
    fn threads_flag_parsing() {
        assert_eq!(threads_flag(&argv(&["train", "OTA1", "--threads", "8"])), 8);
        assert_eq!(threads_flag(&argv(&["train", "OTA1"])), 0, "absent is auto");
        assert_eq!(
            threads_flag(&argv(&["--threads", "many"])),
            0,
            "malformed is auto"
        );
        assert_eq!(threads_flag(&argv(&["--threads", "0"])), 0);
    }

    #[test]
    fn route_threads_flag_parsing() {
        let args = argv(&["route", "OTA1", "A", "--route-threads", "4"]);
        assert_eq!(route_threads_flag(&args), 4);
        assert_eq!(route_threads_flag(&argv(&["route", "OTA1"])), 0, "auto");
        // `--threads` and `--route-threads` are independent knobs.
        let both = argv(&["flow", "OTA1", "--threads", "2", "--route-threads", "8"]);
        assert_eq!(threads_flag(&both), 2);
        assert_eq!(route_threads_flag(&both), 8);
    }

    #[test]
    fn obs_flags_parsing() {
        let args = argv(&["flow", "OTA1", "--obs-jsonl", "out.jsonl", "--obs-report"]);
        let f = obs_flags(&args);
        assert_eq!(f.jsonl.as_deref(), Some("out.jsonl"));
        assert!(f.report);
        assert!(f.active());
        let none = obs_flags(&argv(&["flow", "OTA1"]));
        assert_eq!(none, ObsFlags::default());
        assert!(!none.active());
    }

    #[test]
    fn cache_flag_parsing() {
        assert_eq!(
            cache_mb_flag(&argv(&["serve", "OTA1", "--cache-mb", "128"]), 64),
            128
        );
        assert_eq!(cache_mb_flag(&argv(&["serve", "OTA1"]), 64), 64, "default");
        assert_eq!(
            cache_mb_flag(&argv(&["--cache-mb", "lots"]), 32),
            32,
            "malformed falls back"
        );
        assert_eq!(
            cache_mb_flag(&argv(&["--no-cache", "--cache-mb", "128"]), 64),
            0,
            "--no-cache wins over --cache-mb"
        );
        // The kill switch flipped as a side effect; restore it so other
        // tests in this process see the default-enabled state.
        assert!(!crate::analogfold::cache_enabled());
        crate::analogfold::set_cache_enabled(true);
    }

    #[test]
    fn fault_flag_parsing() {
        // Serialize against any other registry user and disarm afterwards.
        let _guard = crate::fault::scenario();
        let armed = fault_flag(&argv(&[
            "flow",
            "OTA1",
            "--fault",
            "sim.eval:err:0.5",
            "--fault-seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(armed, 1);
        assert_eq!(crate::fault::seed(), 9);
        assert!(crate::fault::stats("sim.eval").is_some());
        assert!(fault_flag(&argv(&["--fault", "nonsense"])).is_err());
        assert!(fault_flag(&argv(&["--fault", "a:err:0.1", "--fault-seed", "x"])).is_err());
        crate::fault::disarm_all();
        assert_eq!(fault_flag(&argv(&["flow", "OTA1"])).unwrap(), 0);
    }

    #[test]
    fn variant_parsing() {
        let args = argv(&["OTA1", "b"]);
        assert_eq!(variant_arg(&args, 1), PlacementVariant::B);
        assert_eq!(variant_arg(&args, 5), PlacementVariant::A, "default");
        let bad = argv(&["OTA1", "zz"]);
        assert_eq!(variant_arg(&bad, 1), PlacementVariant::A);
    }
}
