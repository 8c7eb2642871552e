//! Schema/smoke test: a `--quick` set (tiny data, the minimum pass count)
//! drives all four workloads, and what it prints must be exactly what
//! `BENCHMARK.json` declares. `--quick` numbers are never a baseline.

use aig_mediator::json::{self, Json};
use std::collections::BTreeMap;
use std::process::Command;

const BINARY: &str = env!("CARGO_BIN_EXE_aig-benchmark");

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(spec: &Json, key: &str) -> Vec<String> {
    let entries = spec.get(key).and_then(Json::as_arr).expect(key);
    let name = |entry: &Json| {
        entry
            .get("name")
            .and_then(Json::as_str)
            .expect("name")
            .to_string()
    };
    entries.iter().map(name).collect()
}

fn well_formed(name: &str) -> bool {
    let allowed = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(allowed)
}

#[test]
fn a_quick_set_prints_exactly_the_declared_metrics() {
    let spec = spec();
    let workloads = names(&spec, "workloads");
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!(end_to_end.iter().any(|name| name == "setup_s"));
    let all = workloads.iter().chain(&end_to_end).chain(&per_layer);
    let mut seen = std::collections::BTreeSet::new();
    for name in all {
        assert!(well_formed(name), "bad name {name}");
        assert!(seen.insert(name), "{name} is declared twice");
    }

    let output = Command::new(BINARY)
        .args(["--quick", "--seed", "5"])
        .output()
        .expect("run the set");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    assert!(output.status.success(), "the quick set failed:\n{stdout}");
    // `<workload> <metric> <value> <unit>` lines, counted per pair.
    let mut printed: BTreeMap<(String, String), usize> = BTreeMap::new();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        if let [workload, metric, value, unit] = fields[..] {
            if workloads.iter().any(|w| w == workload) {
                assert!(value.parse::<f64>().is_ok_and(f64::is_finite), "{line}");
                assert!(!unit.is_empty() && unit.len() <= 16, "{line}");
                *printed
                    .entry((workload.to_string(), metric.to_string()))
                    .or_default() += 1;
            }
        }
    }
    for workload in &workloads {
        for metric in end_to_end.iter().chain(&per_layer) {
            let times = printed
                .remove(&(workload.clone(), metric.clone()))
                .unwrap_or(0);
            assert_eq!(times, 1, "{workload} {metric} printed {times} times");
        }
    }
    assert!(printed.is_empty(), "printed but not declared: {printed:?}");
}

#[test]
fn a_corrupted_expected_document_fails_the_run() {
    let output = Command::new(BINARY)
        .args(["--quick", "--workload", "plan_cold", "--corrupt-oracle"])
        .output()
        .expect("run the workload");
    assert!(!output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let result = json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
    assert!(result.get("failed").and_then(Json::as_f64).expect("failed") >= 1.0);
}
