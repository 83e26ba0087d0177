//! The perf-trajectory harness: timing primitives, the `BENCH_*.json`
//! format, and the regression check used by the CI `perf-smoke` job.
//!
//! Timing follows the vendored criterion stand-in's methodology — a fixed
//! number of samples, `black_box` around every routine, median reported —
//! but exposes the numbers programmatically so `perfsuite` can persist them
//! as a [`BenchFile`] instead of only printing. See `docs/PERFORMANCE.md`
//! for how to run the suite and read the files.
//!
//! ## File format
//!
//! Hand-rolled JSON (the workspace has no serde):
//!
//! ```json
//! {
//!   "git_sha": "443d550",
//!   "quick": false,
//!   "jobs": 4,
//!   "shards": 0,
//!   "benchmarks": [
//!     { "name": "cyclesim/smoke_fft_skip", "median_ns": 1234567.0 }
//!   ]
//! }
//! ```
//!
//! `jobs` records `MESH_BENCH_JOBS` and `shards` records
//! `MESH_BENCH_SHARDS` (0 = in-process), because medians from runs with
//! different parallelism configurations are not comparable;
//! [`check_regression`] refuses to compare two files whose configurations
//! differ. Files written before these fields existed parse with `jobs: 0`,
//! which marks the configuration unrecorded and skips that refusal.
//! `result_cache` (0 = off, 1 = on) records whether the result memo cache
//! (`MESH_RESULT_CACHE`) was active, since memoized points skip simulation;
//! the same refusal applies to it when the parallelism configuration is
//! recorded. Keys the reader does not know are ignored, so files carrying
//! retired configuration fields (`trace_store`, `planner`, `subeval_lru`)
//! still parse.
//!
//! Benchmark names contain only `[A-Za-z0-9_/.-]`, so no string escaping is
//! needed; [`BenchFile::from_json`] rejects anything else.

use criterion::black_box;
use std::time::Instant;

/// One benchmark's result: its name and the median wall time per iteration.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Hierarchical benchmark name, e.g. `cyclesim/fig4_p8_8KB_skip`.
    pub name: String,
    /// Median wall-clock nanoseconds per iteration.
    pub median_ns: f64,
}

/// A full perfsuite run: the perf-trajectory artifact written as
/// `BENCH_<git-sha>.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchFile {
    /// Short git revision the suite ran at (`unknown` outside a checkout).
    pub git_sha: String,
    /// Whether the run used `--quick` (CI smoke) sizing.
    pub quick: bool,
    /// Sweep worker-thread count the run used (`MESH_BENCH_JOBS`
    /// resolution); 0 in files written before the field existed, marking
    /// the configuration unrecorded.
    pub jobs: usize,
    /// Fabric shard count (`MESH_BENCH_SHARDS`); 0 means the run was
    /// in-process (or predates the field, when `jobs` is also 0).
    pub shards: usize,
    /// 1 when the result memo cache (`MESH_RESULT_CACHE`) was active,
    /// 0 when off or unrecorded (files predating the field).
    pub result_cache: usize,
    /// The measurements, in execution order.
    pub benchmarks: Vec<BenchRecord>,
}

impl BenchFile {
    /// Looks up a benchmark's median by exact name.
    pub fn median_of(&self, name: &str) -> Option<f64> {
        self.benchmarks
            .iter()
            .find(|b| b.name == name)
            .map(|b| b.median_ns)
    }

    /// Serializes to the `BENCH_*.json` format.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"git_sha\": \"{}\",\n", self.git_sha));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"shards\": {},\n", self.shards));
        out.push_str(&format!("  \"result_cache\": {},\n", self.result_cache));
        out.push_str("  \"benchmarks\": [\n");
        for (i, b) in self.benchmarks.iter().enumerate() {
            let comma = if i + 1 == self.benchmarks.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!(
                "    {{ \"name\": \"{}\", \"median_ns\": {:.1} }}{comma}\n",
                b.name, b.median_ns
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the format emitted by [`BenchFile::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field. This is a
    /// purpose-built reader for our own writer, not a general JSON parser.
    pub fn from_json(text: &str) -> Result<BenchFile, String> {
        fn string_field(text: &str, key: &str) -> Result<String, String> {
            let tag = format!("\"{key}\"");
            let at = text.find(&tag).ok_or_else(|| format!("missing {key}"))?;
            let rest = &text[at + tag.len()..];
            let open = rest.find('"').ok_or_else(|| format!("bad {key}"))? + 1;
            let close = rest[open..]
                .find('"')
                .ok_or_else(|| format!("unterminated {key}"))?;
            let value = &rest[open..open + close];
            if !value
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/.-".contains(c))
            {
                return Err(format!("unsupported characters in {key}: {value:?}"));
            }
            Ok(value.to_string())
        }
        let git_sha = string_field(text, "git_sha")?;
        let quick = {
            // Match the key with its colon so a string *value* that happens
            // to read `quick` (a legal git_sha) cannot shadow the field.
            let tag = "\"quick\":";
            let at = text.find(tag).ok_or("missing quick")?;
            let rest = text[at + tag.len()..].trim_start();
            if rest.starts_with("true") {
                true
            } else if rest.starts_with("false") {
                false
            } else {
                return Err("quick is not a boolean".to_string());
            }
        };
        // Absent in files from before the fabric: parse as 0 (unrecorded).
        // Benchmark names cannot contain quotes or colons, so a whole-text
        // key search cannot be shadowed by a name.
        fn usize_field(text: &str, key: &str) -> Result<usize, String> {
            let tag = format!("\"{key}\":");
            let Some(at) = text.find(&tag) else {
                return Ok(0);
            };
            let num: String = text[at + tag.len()..]
                .chars()
                .skip_while(|c| c.is_whitespace())
                .take_while(char::is_ascii_digit)
                .collect();
            num.parse().map_err(|e| format!("bad {key}: {e}"))
        }
        let jobs = usize_field(text, "jobs")?;
        let shards = usize_field(text, "shards")?;
        let result_cache = usize_field(text, "result_cache")?;
        let mut benchmarks = Vec::new();
        let body = &text[text.find("\"benchmarks\"").ok_or("missing benchmarks")?..];
        let mut rest = body;
        while let Some(open) = rest.find('{') {
            let close = rest[open..]
                .find('}')
                .ok_or("unterminated benchmark object")?;
            let obj = &rest[open..open + close + 1];
            let name = string_field(obj, "name")?;
            let tag = "\"median_ns\":";
            let at = obj
                .find(tag)
                .ok_or_else(|| format!("missing median_ns for {name}"))?;
            let num: String = obj[at + tag.len()..]
                .chars()
                .skip_while(|c| c.is_whitespace())
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
                .collect();
            let median_ns: f64 = num
                .parse()
                .map_err(|e| format!("bad median_ns for {name}: {e}"))?;
            benchmarks.push(BenchRecord { name, median_ns });
            rest = &rest[open + close + 1..];
        }
        Ok(BenchFile {
            git_sha,
            quick,
            jobs,
            shards,
            result_cache,
            benchmarks,
        })
    }
}

/// The short git revision of the working tree, or `unknown`.
///
/// Resolved against the repository this crate lives in (via
/// `CARGO_MANIFEST_DIR`), not the process working directory, so perfsuite
/// names its artifact correctly when launched from a subdirectory — or from
/// anywhere else entirely. Falls back to a plain cwd-relative invocation
/// (for relocated builds where the compiled-in path no longer exists) before
/// giving up with `unknown`.
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

/// Times `routine` for `samples` iterations and returns the median
/// nanoseconds per iteration — the stand-in criterion's measurement, made
/// programmatic. `inner` repeats the routine per sample (use > 1 for
/// sub-microsecond routines so the clock resolution doesn't dominate).
pub fn time_median_ns<O>(samples: usize, inner: u32, mut routine: impl FnMut() -> O) -> f64 {
    assert!(samples >= 1 && inner >= 1);
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..inner {
                black_box(routine());
            }
            start.elapsed().as_secs_f64() * 1e9 / f64::from(inner)
        })
        .collect();
    times.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

/// Like [`time_median_ns`], but rebuilds the input per sample outside the
/// timed window (for consuming routines like `System::run`).
pub fn time_median_batched_ns<I, O>(
    samples: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) -> f64 {
    assert!(samples >= 1);
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    times.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

/// Compares `current` against `baseline` for every baseline benchmark whose
/// name starts with `prefix`; a benchmark regresses when its median exceeds
/// `factor` times the baseline median.
///
/// The gate never passes vacuously: comparing no benchmark under `prefix`
/// is an error, and so is a baseline benchmark the current run did not
/// measure — unless `partial` says the current run is a `--filter`ed
/// partial artifact, which may skip benchmarks.
///
/// When both files record their parallelism configuration (`jobs != 0`),
/// differing `jobs` or `shards` is itself an error: medians from a sharded
/// run and an in-process run (or from different worker counts) must never
/// be compared silently. The same guard covers the cache configuration —
/// a run against a warm result cache replays points where a cold run
/// simulates them, so a differing `result_cache` flag also refuses the
/// comparison. Files predating the
/// fields (`jobs == 0`) skip this guard, so committed baselines stay
/// usable.
///
/// # Errors
///
/// Returns one message per regressed or unmeasured benchmark plus one if
/// nothing was compared, or one per configuration mismatch (in which case
/// no medians are compared at all).
pub fn check_regression(
    current: &BenchFile,
    baseline: &BenchFile,
    prefix: &str,
    factor: f64,
    partial: bool,
) -> Result<usize, Vec<String>> {
    if current.jobs != 0 && baseline.jobs != 0 {
        let mut mismatches = Vec::new();
        if current.jobs != baseline.jobs {
            mismatches.push(format!(
                "configuration mismatch: current ran with jobs={} but baseline with jobs={} \
                 — medians are not comparable",
                current.jobs, baseline.jobs
            ));
        }
        if current.shards != baseline.shards {
            mismatches.push(format!(
                "configuration mismatch: current ran with shards={} but baseline with shards={} \
                 (0 = in-process) — medians are not comparable",
                current.shards, baseline.shards
            ));
        }
        if current.result_cache != baseline.result_cache {
            mismatches.push(format!(
                "configuration mismatch: current ran with result_cache={} but baseline with \
                 result_cache={} (1 = memo cache active) — memoized points skip simulation, \
                 so medians are not comparable",
                current.result_cache, baseline.result_cache
            ));
        }
        if !mismatches.is_empty() {
            return Err(mismatches);
        }
    }
    let mut checked = 0;
    let mut failures = Vec::new();
    for base in baseline
        .benchmarks
        .iter()
        .filter(|b| b.name.starts_with(prefix))
    {
        let Some(now) = current.median_of(&base.name) else {
            if !partial {
                failures.push(format!(
                    "{}: in the baseline but not measured by this run",
                    base.name
                ));
            }
            continue;
        };
        checked += 1;
        if now > base.median_ns * factor {
            failures.push(format!(
                "{}: {:.0} ns vs baseline {:.0} ns ({:.2}x > {factor}x allowed)",
                base.name,
                now,
                base.median_ns,
                now / base.median_ns
            ));
        }
    }
    if checked == 0 {
        failures.push(format!(
            "no {prefix} benchmark is in both files: the gate would compare nothing"
        ));
    }
    if failures.is_empty() {
        Ok(checked)
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file() -> BenchFile {
        BenchFile {
            git_sha: "abc123def456".to_string(),
            quick: true,
            jobs: 4,
            shards: 0,
            result_cache: 0,
            benchmarks: vec![
                BenchRecord {
                    name: "cyclesim/smoke_fft_skip".to_string(),
                    median_ns: 1234.5,
                },
                BenchRecord {
                    name: "kernel/fig4".to_string(),
                    median_ns: 99.0,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let file = sample_file();
        let parsed = BenchFile::from_json(&file.to_json()).expect("parse");
        // to_json rounds medians to 0.1 ns, which these values survive.
        assert_eq!(parsed, file);
    }

    #[test]
    fn parser_rejects_funny_names() {
        let text = sample_file()
            .to_json()
            .replace("kernel/fig4", "kernel\\\"fig4");
        assert!(BenchFile::from_json(&text).is_err());
    }

    #[test]
    fn regression_check_flags_only_prefix_matches() {
        let baseline = sample_file();
        let mut current = sample_file();
        current.benchmarks[0].median_ns = 10_000.0; // 8x the cyclesim baseline
        current.benchmarks[1].median_ns = 10_000.0; // kernel: not checked
        let err = check_regression(&current, &baseline, "cyclesim/", 2.0, false).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("cyclesim/smoke_fft_skip"));
        // Within the allowance, the same prefix passes and reports coverage.
        current.benchmarks[0].median_ns = 2000.0;
        assert_eq!(
            check_regression(&current, &baseline, "cyclesim/", 2.0, false),
            Ok(1)
        );
    }

    #[test]
    fn comparing_nothing_fails_the_gate() {
        let baseline = sample_file();
        let current = sample_file();
        // A prefix the baseline has no benchmark under compares nothing.
        let err = check_regression(&current, &baseline, "sweep/", 2.0, false).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("no sweep/ benchmark"), "{err:?}");
        // So does a prefix only the current run measures, partial or not.
        let mut current = sample_file();
        current.benchmarks.push(BenchRecord {
            name: "sweep/grid_cold".to_string(),
            median_ns: 1.0,
        });
        for partial in [false, true] {
            let err = check_regression(&current, &baseline, "sweep/", 2.0, partial).unwrap_err();
            assert!(err[0].contains("compare nothing"), "{err:?}");
        }
    }

    #[test]
    fn unmeasured_baseline_benchmarks_fail_a_full_run() {
        let mut baseline = sample_file();
        baseline.benchmarks.push(BenchRecord {
            name: "kernel/fig6_phm".to_string(),
            median_ns: 50.0,
        });
        let current = sample_file();
        let err = check_regression(&current, &baseline, "kernel/", 2.0, false).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("kernel/fig6_phm"), "{err:?}");
        // A filtered run is a partial artifact: the benchmark it measured
        // is compared, the one it skipped is not an error.
        assert_eq!(
            check_regression(&current, &baseline, "kernel/", 2.0, true),
            Ok(1)
        );
    }

    #[test]
    fn config_mismatch_refuses_comparison() {
        let baseline = sample_file();
        // Differing shards (sharded current vs in-process baseline) is an
        // error even with identical medians.
        let mut current = sample_file();
        current.shards = 3;
        let err = check_regression(&current, &baseline, "cyclesim/", 2.0, false).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("shards=3"), "{err:?}");
        // Differing jobs too.
        let mut current = sample_file();
        current.jobs = 16;
        let err = check_regression(&current, &baseline, "cyclesim/", 2.0, false).unwrap_err();
        assert!(err[0].contains("jobs=16"), "{err:?}");
        // An old baseline with unrecorded configuration is still usable.
        let mut old = sample_file();
        old.jobs = 0;
        old.shards = 0;
        assert_eq!(
            check_regression(&current, &old, "cyclesim/", 2.0, false),
            Ok(1)
        );
        // And an old file parses with the sentinel zeros.
        let text = sample_file()
            .to_json()
            .replace("  \"jobs\": 4,\n", "")
            .replace("  \"shards\": 0,\n", "")
            .replace("  \"result_cache\": 0,\n", "");
        let parsed = BenchFile::from_json(&text).expect("pre-fabric file parses");
        assert_eq!((parsed.jobs, parsed.shards), (0, 0));
        assert_eq!(parsed.result_cache, 0);
        // Files written while the persistent trace store, the split-phase
        // planner switch and the sub-evaluation LRU knob existed carry
        // `trace_store`, `planner` and `subeval_lru` keys; they still parse
        // and the keys are ignored.
        for key in ["trace_store", "planner", "subeval_lru"] {
            for flag in [0, 1, 2] {
                let text = sample_file().to_json().replace(
                    "  \"benchmarks\"",
                    &format!("  \"{key}\": {flag},\n  \"benchmarks\""),
                );
                assert_eq!(BenchFile::from_json(&text), Ok(sample_file()), "{text}");
            }
        }
    }

    #[test]
    fn cache_config_mismatch_refuses_comparison() {
        // A run against a warm result cache is not comparable with a cold
        // baseline even with identical parallelism.
        let baseline = sample_file();
        let mut current = sample_file();
        current.result_cache = 1;
        let err = check_regression(&current, &baseline, "cyclesim/", 2.0, false).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("result_cache=1"), "{err:?}");
        // Baselines that predate the fields (jobs unrecorded) skip the
        // guard entirely, like the jobs/shards rule.
        let mut old = sample_file();
        old.jobs = 0;
        assert_eq!(
            check_regression(&current, &old, "cyclesim/", 2.0, false),
            Ok(1)
        );
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
    fn median_is_robust_to_one_outlier() {
        let mut calls = 0u64;
        let m = time_median_ns(5, 1, || {
            calls += 1;
            if calls == 1 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        });
        assert!(m < 5_000_000.0, "median {m} should not be the outlier");
    }
}
