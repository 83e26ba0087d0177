//! End-to-end tests of cross-process observability through the sweep
//! fabric, driving the real `mesh_worker` binary.
//!
//! The contract under test is the telemetry half of the fabric tentpole:
//! a sharded run's **merged metrics snapshot equals the single-process
//! run's** (counters sum, gauges max, histogram counts add), the merged
//! timeline carries one process track per shard, and a poisoned point's
//! `PointFailure` carries the dead worker's salvaged flight-recorder dump.

use std::path::Path;
use std::process::{Command, Output};

const WORKER_EXE: &str = env!("CARGO_BIN_EXE_mesh_worker");

/// Runs `mesh_worker` under `envs`, with every inherited `MESH_*` variable
/// removed so the ambient environment can neither steer nor invalidate the
/// subject.
fn run(envs: &[(&str, String)]) -> Output {
    let mut cmd = Command::new(WORKER_EXE);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MESH_") {
            cmd.env_remove(key);
        }
    }
    for (key, value) in envs {
        cmd.env(key, value);
    }
    cmd.output()
        .expect("spawning mesh_worker from a test must work")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mesh-obsfab-itest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test temp dir");
    dir
}

/// Extracts a counter or gauge value from a `metrics.json` snapshot (the
/// hand-rolled format writes one `"name": value` pair per line).
fn metric(json: &str, name: &str) -> Option<u64> {
    let needle = format!("\"{name}\": ");
    json.lines().find_map(|line| {
        let rest = line.trim().strip_prefix(&needle)?;
        rest.trim_end_matches(',').trim().parse().ok()
    })
}

/// Extracts a histogram's sample count from a `metrics.json` snapshot.
fn histogram_count(json: &str, name: &str) -> Option<u64> {
    let needle = format!("\"{name}\": {{\"count\": ");
    let at = json.find(&needle)? + needle.len();
    json[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

fn read_metrics(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("metrics.json")).expect("metrics.json written")
}

/// The acceptance pin: a 3-shard run under `MESH_OBS_OUT` produces one
/// merged `metrics.json` whose summed counters equal the single-process
/// run's — while stdout stays byte-identical.
#[test]
fn sharded_metrics_snapshot_equals_single_process_run() {
    let points = 16u64;
    let single_dir = temp_dir("single");
    let sharded_dir = temp_dir("sharded");

    let single = run(&[
        ("MESH_WORKER_DEMO_POINTS", points.to_string()),
        ("MESH_OBS_OUT", single_dir.display().to_string()),
    ]);
    assert!(single.status.success(), "single run failed: {single:?}");
    let sharded = run(&[
        ("MESH_WORKER_DEMO_POINTS", points.to_string()),
        ("MESH_BENCH_SHARDS", "3".to_string()),
        ("MESH_OBS_OUT", sharded_dir.display().to_string()),
    ]);
    assert!(sharded.status.success(), "sharded run failed: {sharded:?}");

    // Simulated output stays byte-identical with observability on.
    assert_eq!(
        String::from_utf8(single.stdout).expect("stdout is UTF-8"),
        String::from_utf8(sharded.stdout).expect("stdout is UTF-8"),
        "sharded stdout must match the single-process run"
    );

    let single_json = read_metrics(&single_dir);
    let sharded_json = read_metrics(&sharded_dir);
    // Per-evaluation counter: every demo point evaluated exactly once
    // across the worker fleet, summed by the wire merge.
    assert_eq!(
        metric(&single_json, "demo.evals"),
        Some(points),
        "single-process eval counter:\n{single_json}"
    );
    assert_eq!(
        metric(&sharded_json, "demo.evals"),
        Some(points),
        "merged eval counter accounts for every accepted record:\n{sharded_json}"
    );
    // Gauges merge by max: the final progress gauge matches.
    assert_eq!(
        metric(&sharded_json, "sweep.points_done"),
        metric(&single_json, "sweep.points_done"),
        "points_done gauge:\n{sharded_json}"
    );
    // Histogram counts add: one sweep.point_ns sample per evaluated point
    // (warmup + demo), wherever the evaluation ran.
    assert_eq!(
        histogram_count(&sharded_json, "sweep.point_ns"),
        histogram_count(&single_json, "sweep.point_ns"),
        "point span histogram count:\nsingle:\n{single_json}\nsharded:\n{sharded_json}"
    );

    // The manifest records per-shard provenance for the merged snapshot.
    let manifest =
        std::fs::read_to_string(sharded_dir.join("manifest.json")).expect("manifest written");
    assert!(
        manifest.contains("\"shards\"") && manifest.contains("shard 0"),
        "manifest names its shard origins: {manifest}"
    );

    let _ = std::fs::remove_dir_all(&single_dir);
    let _ = std::fs::remove_dir_all(&sharded_dir);
}

/// A sharded run under `MESH_OBS_TRACE` merges every worker's timeline
/// into one file with a distinct process track per shard (parent + 2
/// workers here), and the merged file passes the multi-process validator.
#[test]
fn sharded_timeline_merges_worker_tracks() {
    let dir = temp_dir("trace");
    let trace = dir.join("trace.json");
    let out = run(&[
        ("MESH_WORKER_DEMO_POINTS", "10".to_string()),
        ("MESH_BENCH_SHARDS", "2".to_string()),
        ("MESH_OBS_TRACE", trace.display().to_string()),
    ]);
    assert!(out.status.success(), "traced sharded run failed: {out:?}");
    let text = std::fs::read_to_string(&trace).expect("merged trace written");
    let summary = mesh_obs::chrome::validate_processes(&text, 3)
        .unwrap_or_else(|e| panic!("merged trace invalid ({e}):\n{text}"));
    assert!(summary.slices > 0, "merged trace has slices:\n{text}");
    assert!(
        text.contains("shard 0: ") && text.contains("shard 1: "),
        "worker process tracks are labeled by shard:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A point that aborts its worker on every attempt is poisoned — and with
/// the recorder on, the supervisor salvages the dead worker's flight
/// record, attaches it to the `PointFailure`, and the preserved dump names
/// the fatal point.
#[test]
fn poisoned_point_failure_references_salvaged_flight_record() {
    let out_dir = temp_dir("flightrec");
    let out = run(&[
        ("MESH_WORKER_DEMO_POINTS", "12".to_string()),
        ("MESH_BENCH_SHARDS", "2".to_string()),
        ("MESH_BENCH_RETRIES", "1".to_string()),
        ("MESH_CHAOS_ABORT", "3:always".to_string()),
        ("MESH_OBS_FLIGHTREC", "1".to_string()),
        ("MESH_OBS_OUT", out_dir.display().to_string()),
    ]);
    assert!(
        !out.status.success(),
        "a poisoned point must fail the sweep"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("poisoning point #3 3 of sweep 'demo'"),
        "poison report names the point: {stderr}"
    );
    // The PointFailure report (printed by the sweep error path) references
    // the salvaged dump...
    let reference = stderr
        .lines()
        .find_map(|line| line.split("[flight record: ").nth(1))
        .map(|rest| rest.trim_end_matches(']').to_string())
        .unwrap_or_else(|| panic!("no flight-record reference in: {stderr}"));
    // ...and the referenced file exists, is a complete JSON document, and
    // its ring already names the fatal point (flushed *before* the abort).
    let dump = std::fs::read_to_string(&reference)
        .unwrap_or_else(|e| panic!("flight record {reference} unreadable: {e}"));
    assert!(
        dump.contains("\"events\"") && dump.ends_with("}\n"),
        "flight record is a complete dump: {dump}"
    );
    assert!(
        dump.contains("\"kind\":\"point\""),
        "ring records the point events: {dump}"
    );
    let _ = std::fs::remove_dir_all(&out_dir);
}
