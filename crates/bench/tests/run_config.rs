//! The run configuration at the process boundary, driving the real
//! `mesh_worker` binary, and the documented knob names against the table of
//! accepted ones.

use mesh_bench::config::{Reader, KNOBS};
use std::ffi::OsStr;
use std::process::{Command, Output};

/// Runs `mesh_worker` on a 4-point demo grid under `envs`, with every
/// inherited `MESH_*` variable removed.
fn run<V: AsRef<OsStr>>(envs: &[(&str, V)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mesh_worker"));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MESH_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("MESH_WORKER_DEMO_POINTS", "4")
        .envs(envs.iter().map(|(k, v)| (k, v)))
        .output()
        .expect("spawning mesh_worker from a test must work")
}

#[test]
fn progress_follows_the_on_off_rule() {
    let reports = |value| {
        let out = run(&[("MESH_BENCH_JOBS", "2"), ("MESH_BENCH_PROGRESS", value)]);
        assert!(out.status.success(), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        stderr.contains("points (") || stderr.contains("trace-cache")
    };
    assert!(reports("1"), "on must report progress");
    for off in ["0", "off", " No ", ""] {
        assert!(
            !reports(off),
            "MESH_BENCH_PROGRESS={off:?} reported progress"
        );
    }
}

#[cfg(unix)]
#[test]
fn manifest_survives_a_non_utf8_environment() {
    use std::os::unix::ffi::OsStrExt as _;
    let dir = std::env::temp_dir().join(format!("mesh-runcfg-{}", std::process::id()));
    let out = run(&[
        ("JUNK_VAR", OsStr::from_bytes(b"\xff\xfe")),
        ("MESH_OBS_OUT", dir.as_os_str()),
    ]);
    assert!(out.status.success(), "{out:?}");
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest written");
    assert!(manifest.contains("\"MESH_OBS_OUT\": "), "{manifest}");
    assert!(
        !manifest.contains("JUNK_VAR"),
        "only MESH_* names are recorded"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Names that no build accepts, used on purpose: `fault_smoke.sh` checks
/// that a typo and a removed knob stop a run, and the docs cite the typo.
const DELIBERATELY_UNKNOWN: [&str; 2] = ["MESH_BENCH_JOB", "MESH_TRACE_STORE"];

#[test]
fn documented_names_and_the_knob_table_agree() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = vec![
        root.join("EXPERIMENTS.md"),
        root.join(".github/workflows/ci.yml"),
    ];
    for (dir, ext) in [("docs", "md"), ("scripts", "sh")] {
        for entry in std::fs::read_dir(root.join(dir)).expect("listable") {
            let path = entry.expect("readable entry").path();
            if path.extension() == Some(OsStr::new(ext)) {
                files.push(path);
            }
        }
    }
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable document");
        let tokens = text
            .split(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .filter(|token| token.starts_with("MESH_"));
        for token in tokens {
            // `FOO_*` names a family of knobs.
            let accepted = if token.ends_with('_') {
                KNOBS.iter().any(|(name, _)| name.starts_with(token))
            } else {
                KNOBS.iter().any(|(name, _)| *name == token)
            };
            assert!(
                accepted || DELIBERATELY_UNKNOWN.contains(&token),
                "{} names {token}, which no build accepts",
                file.display()
            );
        }
    }
    let experiments = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("readable");
    for (name, reader) in KNOBS {
        if matches!(reader, Reader::Bench | Reader::Obs) {
            let row = format!("| `{name}");
            assert!(
                experiments.contains(&row),
                "EXPERIMENTS.md has no row for {name}"
            );
        }
    }
}
