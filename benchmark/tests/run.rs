//! `run --rounds 1` prints every metric `BENCHMARK.json` names, with its
//! unit, for every workload, and no operation fails.

use std::process::Command;

/// `(name, unit)` of every metric object in `BENCHMARK.json`: the objects
/// that carry both keys.
fn benchmark_metrics() -> Vec<(String, String)> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json readable");
    let field = |object: &str, key: &str| -> Option<String> {
        let start = object.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = object[start..].find('"')?;
        Some(object[start..start + len].to_string())
    };
    spec.split('{')
        .filter_map(|object| Some((field(object, "name")?, field(object, "unit")?)))
        .collect()
}

fn benchmark_workloads() -> Vec<String> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json readable");
    spec.split('{')
        .filter(|object| object.contains("\"why\""))
        .filter_map(|object| {
            let start = object.find("\"name\": \"")? + 9;
            Some(object[start..start + object[start..].find('"')?].to_string())
        })
        .collect()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "needs an optimized build: cargo test --release"
)]
fn run_prints_every_metric_with_its_unit() {
    let out = Command::new(env!("CARGO_BIN_EXE_mesh-benchmark"))
        .args(["run", "--seed", "1", "--rounds", "1"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = benchmark_metrics();
    let workloads = benchmark_workloads();
    assert_eq!(workloads.len(), 4);
    assert!(metrics.len() > 40, "found {} metrics", metrics.len());
    for workload in &workloads {
        assert!(
            stdout.contains(&format!("== {workload} (attempted")),
            "no section for {workload}"
        );
        for (name, unit) in &metrics {
            let key = format!("{workload}.{name} ");
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&key))
                .unwrap_or_else(|| panic!("{key} not printed"));
            assert!(
                line.ends_with(&format!(" {unit}")),
                "{line:?} lacks unit {unit}"
            );
            let value: f64 = line
                .split_whitespace()
                .nth(1)
                .expect("value")
                .parse()
                .expect("number");
            assert!(value.is_finite(), "{line:?}");
        }
    }
    let last = stdout.lines().last().expect("result document");
    assert!(last.starts_with('{') && last.ends_with('}'));
    assert_eq!(
        last.matches("\"failed\": 0,").count(),
        4,
        "an operation failed:\n{last}"
    );
}
