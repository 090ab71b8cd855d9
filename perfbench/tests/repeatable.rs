//! Runs the built binary: two traced runs with the same seed must report
//! the same counts, and `BENCHMARK.json` must list exactly the metrics
//! the binary prints.

use std::collections::BTreeMap;
use std::process::Command;

/// Metrics that are counts (or ratios of counts) and must repeat exactly.
fn is_count(name: &str, unit: &str) -> bool {
    match unit {
        "count" | "bytes" => true,
        "ratio" => !matches!(name, "trace.overhead_ratio" | "ivm.vs_recompute"),
        _ => false,
    }
}

/// `name → (value, unit)` from the result line, parsed without a JSON
/// library: each metric reads `"name": {"value": v, "unit": "u"}`.
fn metrics(line: &str) -> BTreeMap<String, (String, String)> {
    let body = line.split("\"metrics\": {").nth(1).expect("metrics object");
    body.split("}, ")
        .map(|m| {
            let name = m.split('"').nth(1).expect("metric name").to_owned();
            let value = m.split("\"value\": ").nth(1).expect("value");
            let value = value.split(',').next().expect("value").to_owned();
            let unit = m.split("\"unit\": \"").nth(1).expect("unit");
            let unit = unit.split('"').next().expect("unit").to_owned();
            (name, (value, unit))
        })
        .collect()
}

fn traced_run(workload: &str, state: &std::path::Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--trace",
            "1",
        ])
        .arg("--state-dir")
        .arg(state)
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_owned();
    assert!(
        last.starts_with("{\"correct\": true,"),
        "{workload}: {last}"
    );
    last
}

#[test]
fn counts_repeat_across_runs_with_the_same_seed() {
    let state = std::env::temp_dir().join(format!("perfbench-repeat-{}", std::process::id()));
    for workload in ["fixpoint", "view-churn", "invention"] {
        let (a, b) = (traced_run(workload, &state), traced_run(workload, &state));
        let (a, b) = (metrics(&a), metrics(&b));
        assert_eq!(a.keys().collect::<Vec<_>>(), b.keys().collect::<Vec<_>>());
        for (name, (value, unit)) in &a {
            if is_count(name, unit) {
                assert_eq!(value, &b[name].0, "{workload}: {name} differs between runs");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let state = std::env::temp_dir().join(format!("perfbench-spec-{}", std::process::id()));
    let traced = metrics(&traced_run("invention", &state));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "invention",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .arg("--state-dir")
        .arg(&state)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let untraced = metrics(stdout.lines().last().expect("a result line"));
    let listed = spec.matches("\"unit\": ").count();
    assert_eq!(
        listed,
        traced.len() + untraced.len(),
        "metric count in BENCHMARK.json"
    );
    for (name, (_, unit)) in traced.iter().chain(&untraced) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let _ = std::fs::remove_dir_all(&state);
}
