//! `bench`: the AnalogFold benchmark.
//!
//! ```text
//! bench run <all|WORKLOAD> [seed=N] [seconds=S] [ledger=PATH]
//! bench trace <WORKLOAD> [seed=N] [seconds=S]
//! bench --workload WORKLOAD --seed N --seconds S --trace 0|1
//! ```
//!
//! `run` executes each workload untraced in its own child process (cold
//! caches, per-workload peak RSS), prints every end-to-end metric as
//! `<workload> <metric> <value> <unit>` and then one JSON document, and
//! with `ledger=PATH` appends that document, with the git revision and a
//! machine fingerprint, as one line to PATH. `trace` is the traced run
//! that yields the per-layer metrics. The flag form runs one workload in
//! this process; its last stdout line is the JSON result object. Every
//! form exits non-zero when a correctness check fails.

use std::process::{Command, ExitCode, Stdio};

use af_benchmark::{run, Report, Size, Workload, WORKLOADS};
use serde::Value;

const DEFAULT_SEED: u64 = 2024;
const DEFAULT_SECONDS: f64 = 25.0;

const USAGE: &str = "usage:
  bench run <all|WORKLOAD> [seed=N] [seconds=S] [ledger=PATH]
  bench trace <WORKLOAD> [seed=N] [seconds=S]
  bench --workload WORKLOAD --seed N --seconds S --trace 0|1
workloads: flow-quick route-sweep serve-predict serve-mixed";

fn main() -> ExitCode {
    af_benchmark::mark_process_start();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_children(&args[1..]),
        Some("trace") => trace_one(&args[1..]),
        Some(a) if a.starts_with("--") => flags(&args),
        _ => Err(String::new()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("bench: {msg}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))
}

fn kv<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match args
        .iter()
        .find_map(|a| a.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
    {
        Some(v) => v.parse().map_err(|_| format!("bad {key}=`{v}`")),
        None => Ok(default),
    }
}

fn seconds_arg(value: f64) -> Result<f64, String> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(format!(
            "seconds must be a non-negative number, got {value}"
        ))
    }
}

/// `--workload W --seed N --seconds S --trace 0|1`.
fn flags(args: &[String]) -> Result<bool, String> {
    let flag = |name: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let w = workload(flag("--workload")?)?;
    let seed: u64 = flag("--seed")?
        .parse()
        .map_err(|_| "bad --seed".to_string())?;
    let seconds = seconds_arg(
        flag("--seconds")?
            .parse()
            .map_err(|_| "bad --seconds".to_string())?,
    )?;
    let traced = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(emit(&run(w, seed, seconds, traced, &Size::RUN)))
}

/// `trace <WORKLOAD> [seed=N] [seconds=S]`.
fn trace_one(args: &[String]) -> Result<bool, String> {
    let w = workload(args.first().ok_or("trace needs a workload")?)?;
    let seed = kv(args, "seed", DEFAULT_SEED)?;
    let seconds = seconds_arg(kv(args, "seconds", DEFAULT_SECONDS)?)?;
    Ok(emit(&run(w, seed, seconds, true, &Size::RUN)))
}

/// Prints a report: notes, one line per metric, the digest, failed checks
/// (stderr), and last the JSON result object. Returns whether it passed.
fn emit(report: &Report) -> bool {
    let name = report.workload.name();
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    println!("{name} output_digest {}", report.digest);
    if let Some(ratio) = report.offset_ratio {
        println!("{name} offset_ratio {ratio} ratio");
    }
    for p in &report.problems {
        eprintln!("CHECK FAILED ({name}): {p}");
    }
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            let entry = Value::Map(vec![
                ("value".to_string(), Value::Float(m.value)),
                ("unit".to_string(), Value::Str(m.unit.to_string())),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    let result = Value::Map(vec![
        ("correct".to_string(), Value::Bool(report.correct())),
        ("attempted".to_string(), Value::Int(report.attempted as i64)),
        ("failed".to_string(), Value::Int(report.failed as i64)),
        ("metrics".to_string(), Value::Map(metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("serializable"));
    report.correct()
}

/// `run <all|WORKLOAD> [seed=N] [seconds=S] [ledger=PATH]`: one child
/// process per workload.
fn run_children(args: &[String]) -> Result<bool, String> {
    let selected: Vec<Workload> = match args.first().map(String::as_str) {
        Some("all") => WORKLOADS.to_vec(),
        Some(name) => vec![workload(name)?],
        None => return Err("run needs `all` or a workload".to_string()),
    };
    let seed = kv(args, "seed", DEFAULT_SEED)?;
    let seconds = seconds_arg(kv(args, "seconds", DEFAULT_SECONDS)?)?;
    let ledger: Option<String> =
        kv(args, "ledger", String::new()).map(|s| (!s.is_empty()).then_some(s))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;

    let mut ok = true;
    let mut results = Vec::new();
    for w in selected {
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let parsed = lines
            .pop()
            .and_then(|last| serde_json::value_from_str(last).ok());
        for line in &lines {
            println!("{line}");
        }
        let printed = |key: &str| {
            let prefix = format!("{} {key} ", w.name());
            lines.iter().find_map(|l| l.strip_prefix(&prefix))
        };
        let digest = printed("output_digest").unwrap_or("").to_string();
        let offset_ratio =
            printed("offset_ratio").and_then(|v| v.split(' ').next()?.parse::<f64>().ok());
        let passed = out.status.success()
            && parsed.as_ref().and_then(|v| v.get("correct")) == Some(&Value::Bool(true));
        if !passed {
            eprintln!("bench: {} failed ({})", w.name(), out.status);
            ok = false;
        }
        let mut entry = match parsed {
            Some(Value::Map(pairs)) => pairs,
            _ => vec![("correct".to_string(), Value::Bool(false))],
        };
        entry.push(("output_digest".to_string(), Value::Str(digest)));
        if let Some(ratio) = offset_ratio {
            entry.push(("offset_ratio".to_string(), Value::Float(ratio)));
        }
        results.push((w.name().to_string(), Value::Map(entry)));
    }

    let document = Value::Map(vec![
        ("seed".to_string(), Value::UInt(seed)),
        ("seconds".to_string(), Value::Float(seconds)),
        ("workloads".to_string(), Value::Map(results)),
    ]);
    println!(
        "{}",
        serde_json::to_string_pretty(&document).expect("serializable")
    );
    if let Some(path) = ledger {
        append_ledger(&path, document)?;
    }
    Ok(ok)
}

/// Output of `program args..`, trimmed, or `"unknown"`.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Appends `document` with the git revision (`-dirty` when the working
/// tree has changes) and a machine fingerprint as one JSON line.
fn append_ledger(path: &str, document: Value) -> Result<(), String> {
    use std::io::Write;
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let machine = Value::Map(vec![
        ("nproc".to_string(), Value::Int(nproc as i64)),
        ("cpu".to_string(), Value::Str(cpu)),
        (
            "rustc".to_string(),
            Value::Str(command_output("rustc", &["--version"])),
        ),
    ]);
    let mut line = vec![
        (
            "rev".to_string(),
            Value::Str(command_output("git", &["describe", "--always", "--dirty"])),
        ),
        ("machine".to_string(), machine),
    ];
    if let Value::Map(pairs) = document {
        line.extend(pairs);
    }
    let text = serde_json::to_string(&Value::Map(line)).expect("serializable");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open ledger {path}: {e}"))?;
    writeln!(file, "{text}").map_err(|e| format!("cannot append to ledger {path}: {e}"))
}
