//! Every workload at the tiny size, untraced and traced. The emitted
//! metrics must be exactly those `BENCHMARK.json` declares, with the same
//! units; the trace log must pass the af-obs event schema; and tracing must
//! not change a single output bit.
//!
//! One test function, because a traced run records process-wide.

use af_benchmark::{out_dir, run, Report, Size, WORKLOADS};
use serde::Value;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::value_from_str(&text).expect("BENCHMARK.json is JSON")
}

fn seq<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("BENCHMARK.json `{key}` is not a list: {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

/// `(name, unit)` pairs declared under `key`.
fn declared(m: &Value, key: &str) -> Vec<(String, String)> {
    seq(m, key)
        .iter()
        .map(|d| (text(d, "name").to_string(), text(d, "unit").to_string()))
        .collect()
}

fn emitted(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_emits_the_declared_metrics_and_traces_without_changing_outputs() {
    let m = manifest();
    let workloads: Vec<&str> = seq(&m, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours, "BENCHMARK.json workloads");
    let end_to_end = declared(&m, "end_to_end");
    let per_layer = declared(&m, "per_layer");
    for (name, _) in end_to_end.iter().chain(&per_layer) {
        assert!(well_formed(name), "metric name `{name}`");
    }

    for w in WORKLOADS {
        let plain = run(w, 7, 0.0, false, &Size::TINY);
        assert!(plain.correct(), "{}: {:?}", w.name(), plain.problems);
        assert_eq!(plain.failed, 0, "{}", w.name());
        assert_eq!(
            emitted(&plain),
            end_to_end,
            "{} end-to-end metrics",
            w.name()
        );

        let traced = run(w, 7, 0.0, true, &Size::TINY);
        assert!(
            traced.correct(),
            "{} traced: {:?}",
            w.name(),
            traced.problems
        );
        assert_eq!(
            emitted(&traced),
            per_layer,
            "{} per-layer metrics",
            w.name()
        );
        assert_eq!(
            plain.digest,
            traced.digest,
            "tracing changed {}'s outputs",
            w.name()
        );

        let log = out_dir().join(format!("{}.trace.jsonl", w.name()));
        let log = std::fs::read_to_string(&log).expect("trace log written");
        assert!(log.lines().count() > 0, "{} trace log is empty", w.name());
        for (i, line) in log.lines().enumerate() {
            if let Err(e) = af_obs::json::validate_event_line(line) {
                panic!("{} trace line {}: {e}", w.name(), i + 1);
            }
        }
    }
}
