//! End-to-end tests of the multi-process sweep fabric, driving the real
//! `mesh_worker` binary (re-exec'd by the fabric as its own worker
//! processes).
//!
//! The contract under test is the tentpole guarantee: **sharded output is
//! byte-identical to the single-process engine at any shard count**,
//! including after worker SIGKILLs mid-sweep, a parent kill resumed from a
//! checkpoint, and a hung point killed by the heartbeat timeout — while a
//! permanently crashing point becomes a `PointFailure` with grid
//! coordinates and a nonzero exit instead of a hang or a restart loop.

use proptest::prelude::*;
use std::collections::HashMap;
use std::process::{Command, Output, Stdio};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

const WORKER_EXE: &str = env!("CARGO_BIN_EXE_mesh_worker");

/// A `mesh_worker` command under `envs`, with every inherited `MESH_*`
/// variable removed so the ambient environment can neither steer nor
/// invalidate the subject.
fn command(envs: &[(&str, String)]) -> Command {
    command_of(WORKER_EXE, envs)
}

/// As [`command`], for any binary of the crate.
fn command_of(exe: &str, envs: &[(&str, String)]) -> Command {
    let mut cmd = Command::new(exe);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MESH_") {
            cmd.env_remove(key);
        }
    }
    for (key, value) in envs {
        cmd.env(key, value);
    }
    cmd
}

fn run(envs: &[(&str, String)]) -> Output {
    command(envs)
        .output()
        .expect("spawning mesh_worker from a test must work")
}

/// Reference (in-process, unsharded) stdout for a demo grid size, computed
/// once per size and shared across tests and proptest cases.
fn reference(points: u64) -> String {
    static CACHE: OnceLock<Mutex<HashMap<u64, String>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().expect("reference cache poisoned");
    cache
        .entry(points)
        .or_insert_with(|| {
            let out = run(&[("MESH_WORKER_DEMO_POINTS", points.to_string())]);
            assert!(out.status.success(), "reference run failed: {out:?}");
            String::from_utf8(out.stdout).expect("reference stdout is UTF-8")
        })
        .clone()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mesh-fabric-itest-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test temp dir");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline: any shard count, any (small) grid size — stdout is
    /// byte-identical to the in-process engine.
    #[test]
    fn sharded_output_byte_identical(shards in 1usize..=5, points in 6u64..=20) {
        let expected = reference(points);
        let out = run(&[
            ("MESH_WORKER_DEMO_POINTS", points.to_string()),
            ("MESH_BENCH_SHARDS", shards.to_string()),
        ]);
        prop_assert!(out.status.success(), "sharded run failed: {out:?}");
        prop_assert_eq!(
            String::from_utf8(out.stdout).expect("stdout is UTF-8"),
            expected,
            "shards={} points={}", shards, points
        );
    }
}

/// PIDs of a process's direct children, from procfs (the fabric's worker
/// processes, when `pid` is a sharded parent).
#[cfg(target_os = "linux")]
fn children_of(pid: u32) -> Vec<u32> {
    std::fs::read_to_string(format!("/proc/{pid}/task/{pid}/children"))
        .unwrap_or_default()
        .split_whitespace()
        .filter_map(|p| p.parse().ok())
        .collect()
}

#[cfg(target_os = "linux")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// SIGKILL a random worker at a random time mid-sweep: the supervisor
    /// restarts it from its own checkpoint and the merged output is still
    /// byte-identical.
    #[test]
    fn worker_sigkill_mid_sweep_is_recovered(
        kill_after_ms in 40u64..400,
        victim in 0usize..3,
    ) {
        let points = 16u64;
        let expected = reference(points);
        let child = command(&[
            ("MESH_WORKER_DEMO_POINTS", points.to_string()),
            ("MESH_WORKER_DEMO_DELAY_MS", "25".to_string()),
            ("MESH_BENCH_SHARDS", "3".to_string()),
            // The kill must not eat into the strike budget permanently.
            ("MESH_BENCH_RETRIES", "10".to_string()),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sharded mesh_worker");

        std::thread::sleep(Duration::from_millis(kill_after_ms));
        let workers = children_of(child.id());
        if let Some(&pid) = workers.get(victim % workers.len().max(1)) {
            // SIGKILL: no unwinding, no cleanup — the hard death.
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
        let out = child.wait_with_output().expect("collect sharded run");
        prop_assert!(out.status.success(), "killed-worker run failed");
        prop_assert_eq!(
            String::from_utf8(out.stdout).expect("stdout is UTF-8"),
            expected,
            "kill_after={}ms victim={}", kill_after_ms, victim
        );
    }
}

/// SIGKILL the *parent* mid-sweep, then resume from the user checkpoint:
/// the second run completes the grid and its output is byte-identical.
#[cfg(target_os = "linux")]
#[test]
fn parent_sigkill_then_checkpoint_resume_is_byte_identical() {
    let points = 16u64;
    let expected = reference(points);
    let dir = temp_dir("parent-kill");
    let ckpt = dir.join("demo.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let envs = [
        ("MESH_WORKER_DEMO_POINTS", points.to_string()),
        ("MESH_WORKER_DEMO_DELAY_MS", "25".to_string()),
        ("MESH_BENCH_SHARDS", "2".to_string()),
        ("MESH_BENCH_CHECKPOINT", ckpt.display().to_string()),
    ];
    let mut child = command(&envs)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sharded mesh_worker");
    // Let it make partial progress, then kill parent AND workers (the
    // workers are orphaned by a parent SIGKILL; reap them so they don't
    // race the resumed run for CPU).
    std::thread::sleep(Duration::from_millis(250));
    let workers = children_of(child.id());
    child.kill().expect("SIGKILL parent");
    let _ = child.wait();
    for pid in workers {
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }

    let out = run(&envs);
    assert!(out.status.success(), "resumed run failed: {out:?}");
    assert_eq!(
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        expected,
        "resume after parent SIGKILL"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hung point is killed by the heartbeat timeout, retried on a fresh
/// worker (the chaos marker makes the hang fire once), and the sweep
/// completes byte-identical — the livelock path `catch_unwind` never
/// covered.
#[test]
fn hung_point_is_timed_out_and_recovered() {
    let points = 12u64;
    let expected = reference(points);
    let dir = temp_dir("hang");
    let out = run(&[
        ("MESH_WORKER_DEMO_POINTS", points.to_string()),
        ("MESH_BENCH_SHARDS", "2".to_string()),
        ("MESH_BENCH_TIMEOUT", "1".to_string()),
        ("MESH_CHAOS_HANG", "4".to_string()),
        ("MESH_CHAOS_DIR", dir.display().to_string()),
    ]);
    assert!(out.status.success(), "timed-out run failed: {out:?}");
    assert_eq!(
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        expected
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no heartbeat"),
        "timeout kill is reported: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A point that aborts its worker on every attempt is poisoned: bounded
/// attempts, grid coordinates in the report, nonzero exit — never a hang
/// or an endless restart loop.
#[test]
fn permanently_crashing_point_is_poisoned_with_coordinates() {
    let start = Instant::now();
    let out = run(&[
        ("MESH_WORKER_DEMO_POINTS", "12".to_string()),
        ("MESH_BENCH_SHARDS", "2".to_string()),
        ("MESH_BENCH_RETRIES", "1".to_string()),
        ("MESH_CHAOS_ABORT", "3:always".to_string()),
    ]);
    assert!(
        !out.status.success(),
        "a poisoned point must fail the sweep"
    );
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "poisoning must terminate promptly, not loop"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("poisoning point #3 3 of sweep 'demo'"),
        "poison report names index and coordinates: {stderr}"
    );
    assert!(
        stderr.contains("after 2 attempt(s)"),
        "strike budget is retries + 1: {stderr}"
    );
    // Every healthy point still completed.
    assert!(
        stderr.contains("failed at 1 of 12 points (11 completed)"),
        "healthy points completed: {stderr}"
    );
}

/// When worker processes cannot be spawned at all, the fabric degrades to
/// the in-process engine: same bytes, exit 0, a warning on stderr.
#[test]
fn spawn_failure_degrades_to_in_process_engine() {
    let points = 10u64;
    let expected = reference(points);
    let out = run(&[
        ("MESH_WORKER_DEMO_POINTS", points.to_string()),
        ("MESH_BENCH_SHARDS", "3".to_string()),
        (
            "MESH_FABRIC_EXE",
            "/nonexistent/mesh-no-such-exe".to_string(),
        ),
    ]);
    assert!(out.status.success(), "fallback run failed: {out:?}");
    assert_eq!(
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        expected
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("falling back to the in-process engine"),
        "degradation is reported"
    );
}

/// The fabric composes with fault injection: `MESH_BENCH_FAIL_POINT`
/// panics inside a worker process and the strike/poison protocol reports
/// it like any other worker death.
#[test]
fn fail_point_injection_is_honored_inside_workers() {
    let out = run(&[
        ("MESH_WORKER_DEMO_POINTS", "8".to_string()),
        ("MESH_BENCH_SHARDS", "2".to_string()),
        ("MESH_BENCH_RETRIES", "0".to_string()),
        ("MESH_BENCH_FAIL_POINT", "demo:2".to_string()),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("poisoning point #2 2 of sweep 'demo'"),
        "injected failure poisons the right point: {stderr}"
    );
}

/// A sharded run leaves nothing in its temp directory once it ends: not
/// the sweep directories with their plan files, not the default session
/// store, and not the per-process directory that held them. That holds
/// with worker processes and on the in-process fallback after every worker
/// spawn failed.
#[test]
fn sharded_runs_leave_no_scratch_behind() {
    let legs = [("workers", None), ("spawn-failure", Some("/nonexistent"))];
    for (leg, fabric_exe) in legs {
        let tmp = temp_dir(&format!("scratch-{leg}"));
        std::fs::remove_dir_all(&tmp).expect("clear the temp directory");
        std::fs::create_dir_all(&tmp).expect("create the temp directory");
        let mut envs = vec![
            ("MESH_BENCH_SHARDS", "2".to_string()),
            ("MESH_BENCH_JOBS", "1".to_string()),
        ];
        if let Some(exe) = fabric_exe {
            envs.push(("MESH_FABRIC_EXE", exe.to_string()));
        }
        let out = command_of(env!("CARGO_BIN_EXE_fig5"), &envs)
            .env("TMPDIR", &tmp)
            .output()
            .expect("spawning fig5 from a test must work");
        assert!(out.status.success(), "{leg}: fig5 failed: {out:?}");
        let left: Vec<_> = walk(&tmp);
        assert!(left.is_empty(), "{leg}: the run left {left:?}");
        std::fs::remove_dir_all(&tmp).expect("remove the temp directory");
    }
}

/// Every file and directory under `dir`, depth first.
fn walk(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            found.extend(walk(&path));
        }
        found.push(path);
    }
    found
}
