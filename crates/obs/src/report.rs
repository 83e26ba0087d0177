//! End-of-run exporters: the metrics snapshot directory and the run
//! manifest, plus the single [`finish`] entry point binaries call.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use crate::{chrome, json_escape, snapshot, Snapshot};

/// The metrics-snapshot output directory from [`crate::OUT_ENV`], if set.
/// Public so the fabric parent can park dead workers' flight-recorder files
/// next to the merged metrics.
pub fn out_dir() -> Option<&'static Path> {
    static DIR: OnceLock<Option<PathBuf>> = OnceLock::new();
    DIR.get_or_init(|| {
        std::env::var_os(crate::OUT_ENV)
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    })
    .as_deref()
}

/// Per-worker snapshots absorbed by the fabric parent, with their origin
/// tags (e.g. `"shard 2 (embedded)"`), merged into the unified report.
fn worker_snaps() -> &'static Mutex<Vec<(String, Snapshot)>> {
    static SNAPS: OnceLock<Mutex<Vec<(String, Snapshot)>>> = OnceLock::new();
    SNAPS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers one worker's decoded snapshot for the merged report; `origin`
/// is recorded in the manifest's `shards` array as provenance.
pub fn absorb_worker(origin: impl Into<String>, snap: Snapshot) {
    let mut w = worker_snaps().lock().unwrap_or_else(|e| e.into_inner());
    w.push((origin.into(), snap));
}

/// Drops all absorbed worker snapshots (tests only).
pub fn clear_workers() {
    worker_snaps()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
}

/// The unified snapshot: this process's registry folded together with every
/// absorbed worker snapshot (in absorption order — the merge is
/// order-independent up to labels, with the parent's labels winning).
#[must_use]
pub fn merged_snapshot() -> Snapshot {
    let mut merged = snapshot();
    let w = worker_snaps().lock().unwrap_or_else(|e| e.into_inner());
    for (_, snap) in w.iter() {
        merged.merge(snap);
    }
    merged
}

/// Renders the run manifest: git sha, argv, every `MESH_*` environment
/// knob, the run labels and the workload fingerprint.
pub fn manifest_json() -> String {
    use std::fmt::Write as _;
    let snap = merged_snapshot();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"git_sha\": \"{}\",", json_escape(&git_sha()));
    let argv: Vec<String> = std::env::args().collect();
    let _ = write!(out, "  \"argv\": [");
    for (i, arg) in argv.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", json_escape(arg));
    }
    out.push_str("],\n");
    let _ = writeln!(
        out,
        "  \"workload_fingerprint\": \"{:016x}\",",
        snap.fingerprint
    );
    out.push_str("  \"labels\": {");
    for (i, (k, v)) in snap.labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": \"{}\"", json_escape(k), json_escape(v));
    }
    out.push_str("\n  },\n  \"shards\": [");
    {
        let w = worker_snaps().lock().unwrap_or_else(|e| e.into_inner());
        for (i, (origin, shard)) in w.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"origin\": \"{}\", \"counters\": {}, \"fingerprint\": \"{:016x}\"}}",
                json_escape(origin),
                shard.counters.len(),
                shard.fingerprint
            );
        }
        if !w.is_empty() {
            out.push_str("\n  ");
        }
    }
    out.push_str("],\n  \"env\": {");
    // `vars_os`: a non-UTF-8 variable anywhere in the environment must not
    // stop the manifest from being written.
    let mut knobs: Vec<(String, String)> = std::env::vars_os()
        .filter(|(k, _)| k.to_string_lossy().starts_with("MESH_"))
        .map(|(k, v)| (k.to_string_lossy().into(), v.to_string_lossy().into()))
        .collect();
    knobs.sort();
    for (i, (k, v)) in knobs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": \"{}\"", json_escape(k), json_escape(v));
    }
    out.push_str("\n  }\n}\n");
    out
}

/// The short git revision (`git rev-parse --short=12 HEAD`) of the
/// repository this crate was built from, or `"unknown"` outside a work
/// tree. The run manifest and perfsuite's BENCH files both record it.
///
/// Resolved against the repository this crate lives in (via
/// `CARGO_MANIFEST_DIR`), not the process working directory, so a binary
/// launched from a subdirectory, or from anywhere else, names its revision
/// correctly. Falls back to a plain cwd-relative invocation (for relocated
/// builds where the compiled-in path no longer exists) before giving up.
pub fn git_sha() -> String {
    git_short_sha_in(Some(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")))
        .or_else(|| git_short_sha_in(None))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs `git rev-parse --short=12 HEAD`, in `dir` when given, and returns
/// the trimmed stdout on success.
fn git_short_sha_in(dir: Option<&str>) -> Option<String> {
    let mut cmd = std::process::Command::new("git");
    if let Some(dir) = dir {
        // `git -C <missing-dir>` fails cleanly, which is what we want for
        // builds whose source tree has moved.
        cmd.args(["-C", dir]);
    }
    cmd.args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Writes the metrics snapshot (`metrics.txt`, `metrics.json`,
/// `manifest.json`) into `dir`. Under sharding the snapshot is the *merged*
/// one — this process's registry folded with every absorbed worker
/// snapshot — so `MESH_OBS_OUT` always yields one unified report.
pub fn write_snapshot(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let snap = merged_snapshot();
    std::fs::write(dir.join("metrics.txt"), snap.to_text())?;
    std::fs::write(dir.join("metrics.json"), snap.to_json())?;
    std::fs::write(dir.join("manifest.json"), manifest_json())
}

/// Flushes every requested exporter: the Chrome-trace file when
/// [`crate::TRACE_ENV`] is set, the snapshot directory when
/// [`crate::OUT_ENV`] is set. A no-op when observability is disabled.
///
/// Export failures are reported on stderr but never fail the run — a full
/// disk must not turn a finished experiment into an error.
///
/// Every experiment binary calls this once, last thing before exiting.
pub fn finish() {
    if !crate::enabled() {
        return;
    }
    if let Some(dir) = out_dir() {
        if let Err(e) = write_snapshot(dir) {
            eprintln!(
                "mesh-obs: writing metrics snapshot to {} failed: {e}",
                dir.display()
            );
        }
    }
    if let Some(path) = chrome::output_path() {
        if let Err(e) = chrome::write_file(path) {
            eprintln!(
                "mesh-obs: writing timeline to {} failed: {e}",
                path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mesh-obs-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn snapshot_directory_round_trip() {
        let _gate = crate::tests::lock();
        crate::set_enabled(true);
        crate::counter("test.report_counter").add(2);
        crate::set_label("suite", "report-test");
        let dir = temp_dir("snapshot");
        write_snapshot(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("metrics.txt")).unwrap();
        assert!(text.contains("test.report_counter"));
        let json = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
        assert!(json.contains("\"test.report_counter\""));
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(manifest.contains("\"git_sha\""));
        assert!(manifest.contains("\"argv\""));
        assert!(manifest.contains("\"workload_fingerprint\""));
        std::fs::remove_dir_all(&dir).unwrap();
        crate::set_enabled(false);
    }

    #[test]
    fn git_sha_resolves_independent_of_cwd() {
        // The manifest-anchored lookup must succeed inside a checkout no
        // matter where the process was launched from; the test binary runs
        // somewhere under the repo, so this is the subdirectory case.
        let sha = git_short_sha_in(Some(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")))
            .expect("repo root lookup");
        assert_eq!(sha.len(), 12, "short=12 sha: {sha}");
        assert!(sha.chars().all(|c| c.is_ascii_hexdigit()), "{sha}");
        assert_eq!(git_sha(), sha);
        // A nonexistent directory fails cleanly rather than panicking.
        assert_eq!(git_short_sha_in(Some("/nonexistent/do-not-create")), None);
    }

    #[test]
    fn manifest_lists_mesh_env_knobs() {
        let _gate = crate::tests::lock();
        crate::set_enabled(true);
        // The test runner may or may not carry MESH_* vars; the section must
        // exist either way and the JSON stay parseable by eye.
        let manifest = manifest_json();
        assert!(manifest.contains("\"env\""));
        assert!(manifest.trim_end().ends_with('}'));
        crate::set_enabled(false);
    }

    #[test]
    fn finish_is_silent_noop_when_disabled() {
        let _gate = crate::tests::lock();
        crate::set_enabled(false);
        finish();
    }

    #[test]
    fn absorbed_workers_fold_into_report_and_manifest() {
        let _gate = crate::tests::lock();
        crate::set_enabled(true);
        clear_workers();
        crate::counter("test.merge_counter").add(5);
        let mut worker = Snapshot::default();
        worker.counters.push(("test.merge_counter".to_string(), 7));
        worker.counters.push(("test.worker_only".to_string(), 3));
        absorb_worker("shard 1 (embedded)", worker);
        let merged = merged_snapshot();
        assert_eq!(merged.counter("test.merge_counter"), Some(12));
        assert_eq!(merged.counter("test.worker_only"), Some(3));
        let manifest = manifest_json();
        assert!(manifest.contains("\"shards\""));
        assert!(manifest.contains("shard 1 (embedded)"));
        let dir = temp_dir("merged");
        write_snapshot(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("metrics.txt")).unwrap();
        assert!(text.contains("test.merge_counter = 12"));
        std::fs::remove_dir_all(&dir).unwrap();
        clear_workers();
        crate::reset();
        crate::set_enabled(false);
    }
}
