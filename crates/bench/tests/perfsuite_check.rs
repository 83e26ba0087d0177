//! `perfsuite --check` end to end, on the exit status CI gates on: a
//! filtered quick run (`--filter phm` measures `kernel/`, `cyclesim/` and
//! `store/` rows) checked against a baseline made from an earlier run's own
//! output. With the `kernel/` and `store/` medians cut 1000× in that
//! baseline, the run exits 1 and names every row of both prefixes, so a
//! prefix that fails early never hides one checked later; against the
//! unmodified output it exits 0.
//!
//! Both checks use `--factor 50`: far below the seeded 1000× slowdown, and
//! far above the run-to-run spread of the same build on a busy host, which
//! the default 2× would not tolerate.

use mesh_bench::perf::BenchFile;
use std::path::PathBuf;
use std::process::{Command, Output};

const FILTER: [&str; 3] = ["--quick", "--filter", "phm"];
const FACTOR: &str = "50";

/// A `mesh-perfsuite-check-*` directory in the temp directory, removed when
/// dropped, also when an assertion fails.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        let path =
            std::env::temp_dir().join(format!("mesh-perfsuite-check-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the temp directory");
        TempDir(path)
    }

    fn file(&self, name: &str) -> String {
        self.0.join(name).display().to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `perfsuite --quick --filter phm` with `args` on one job, with every
/// inherited `MESH_*` variable removed.
fn perfsuite(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfsuite"));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MESH_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("MESH_BENCH_JOBS", "1")
        .args(FILTER)
        .args(args)
        .output()
        .expect("spawning perfsuite must work")
}

fn read_bench(path: &str) -> BenchFile {
    let text = std::fs::read_to_string(path).expect("perfsuite wrote its output");
    BenchFile::from_json(&text).expect("perfsuite's output parses")
}

fn write_bench(path: &str, file: &BenchFile) {
    std::fs::write(path, file.to_json()).expect("write the baseline");
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("perfsuite prints UTF-8")
}

#[test]
fn check_reports_every_failing_prefix() {
    let tmp = TempDir::new();
    let first = tmp.file("first.json");
    let run = perfsuite(&["--out", &first]);
    assert!(run.status.success(), "{}", text(&run.stderr));
    let measured = read_bench(&first);
    let rows = |prefix: &str| -> Vec<String> {
        measured
            .benchmarks
            .iter()
            .filter(|b| b.name.starts_with(prefix))
            .map(|b| b.name.clone())
            .collect()
    };
    for prefix in ["kernel/", "cyclesim/", "store/"] {
        assert!(
            !rows(prefix).is_empty(),
            "the filter measured no {prefix} row"
        );
    }

    let slowed = ["kernel/", "store/"];
    let mut cut = measured.clone();
    for b in &mut cut.benchmarks {
        if slowed.iter().any(|prefix| b.name.starts_with(prefix)) {
            b.median_ns /= 1000.0;
        }
    }
    let cut_path = tmp.file("cut.json");
    write_bench(&cut_path, &cut);
    let gated = perfsuite(&[
        "--out",
        &tmp.file("gated.json"),
        "--check",
        &cut_path,
        "--factor",
        FACTOR,
    ]);
    let (stdout, stderr) = (text(&gated.stdout), text(&gated.stderr));
    assert_eq!(gated.status.code(), Some(1), "{stdout}\n{stderr}");
    for prefix in slowed {
        for row in rows(prefix) {
            assert!(
                stderr.contains(&format!("  {row}: ")),
                "{row} is not named as a regression:\n{stderr}"
            );
        }
    }
    for row in rows("cyclesim/") {
        assert!(!stderr.contains(&row), "{row} did not regress:\n{stderr}");
    }
    assert!(
        stdout.contains("perf check OK: ") && stdout.contains(" cyclesim/ benchmarks within"),
        "the prefix between the two failures was not checked:\n{stdout}"
    );

    let passed = perfsuite(&[
        "--out",
        &tmp.file("passed.json"),
        "--check",
        &first,
        "--factor",
        FACTOR,
    ]);
    assert!(
        passed.status.success(),
        "the run's own output failed the gate:\n{}\n{}",
        text(&passed.stdout),
        text(&passed.stderr)
    );
}
