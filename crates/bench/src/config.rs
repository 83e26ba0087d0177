//! # The run configuration: every `MESH_*` knob, parsed once
//!
//! The first call to [`config`] reads the environment into a typed
//! [`RunConfig`]. [`KNOBS`] lists every accepted `MESH_*` name. A name
//! outside it (a typo, or a removed knob), a value its knob cannot use
//! (`MESH_BENCH_JOBS=two`), and an on/off value outside `1|on|true|yes` and
//! `0|off|false|no|empty` (trimmed, any case) are errors: [`config`] names
//! every offending variable on stderr and exits with status 2, before the
//! sweep that asked has evaluated a point. Knobs choose how a run executes,
//! never what it computes.
//!
//! ```
//! use mesh_bench::RunConfig;
//!
//! let config = RunConfig::from_vars([("MESH_BENCH_JOBS", "2"), ("PATH", "/bin")]).unwrap();
//! assert_eq!((config.jobs, config.retries), (2, 1));
//! let problems = RunConfig::from_vars([("MESH_BENCH_JOB", "2")]).unwrap_err();
//! assert_eq!(problems, ["MESH_BENCH_JOB: unknown variable"]);
//! ```

use crate::checkpoint::SYNC_ENV;
use crate::fabric::{
    EXE_ENV, SHARDS_ENV, TIMEOUT_ENV, WORKER_LABEL_ENV, WORKER_OUT_ENV, WORKER_PLAN_ENV,
    WORKER_RESUME_ENV, WORKER_SHARD_ENV, WORKER_SKIP_ENV,
};
use crate::memo::RESULT_CACHE_ENV;
use crate::sweep::{CHECKPOINT_ENV, FAIL_POINT_ENV, JOBS_ENV, PROGRESS_ENV, RETRIES_ENV};
use std::collections::{HashMap, HashSet};
use std::ffi::OsString;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

/// Which part of the workspace reads a knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reader {
    /// mesh-bench, through [`RunConfig`].
    Bench,
    /// mesh-obs itself, since processes without mesh-bench use it too.
    Obs,
    /// A fabric worker; the fabric parent sets these (see [`crate::fabric`]).
    Worker,
    /// Test targets only: `mesh_worker`'s chaos and demo knobs, and the
    /// envelope test's golden dump.
    Test,
}

/// Every accepted `MESH_*` name and its reader.
pub const KNOBS: [(&str, Reader); 26] = [
    (JOBS_ENV, Reader::Bench),
    (RETRIES_ENV, Reader::Bench),
    (FAIL_POINT_ENV, Reader::Bench),
    (CHECKPOINT_ENV, Reader::Bench),
    (SYNC_ENV, Reader::Bench),
    (PROGRESS_ENV, Reader::Bench),
    (SHARDS_ENV, Reader::Bench),
    (TIMEOUT_ENV, Reader::Bench),
    (EXE_ENV, Reader::Bench),
    (RESULT_CACHE_ENV, Reader::Bench),
    (mesh_obs::OBS_ENV, Reader::Obs),
    (mesh_obs::TRACE_ENV, Reader::Obs),
    (mesh_obs::OUT_ENV, Reader::Obs),
    (mesh_obs::flightrec::FLIGHTREC_ENV, Reader::Obs),
    (WORKER_SHARD_ENV, Reader::Worker),
    (WORKER_LABEL_ENV, Reader::Worker),
    (WORKER_OUT_ENV, Reader::Worker),
    (WORKER_RESUME_ENV, Reader::Worker),
    (WORKER_PLAN_ENV, Reader::Worker),
    (WORKER_SKIP_ENV, Reader::Worker),
    ("MESH_CHAOS_ABORT", Reader::Test),
    ("MESH_CHAOS_HANG", Reader::Test),
    ("MESH_CHAOS_DIR", Reader::Test),
    ("MESH_WORKER_DEMO_POINTS", Reader::Test),
    ("MESH_WORKER_DEMO_DELAY_MS", Reader::Test),
    ("MESH_GOLDEN_DUMP", Reader::Test),
];

/// How a run executes: one typed field per mesh-bench knob.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Sweep worker threads, trace-compile threads, and the threads that
    /// fill one envelope point's schedule legs ([`JOBS_ENV`]; default:
    /// available parallelism).
    pub jobs: usize,
    /// Extra attempts per failing point ([`RETRIES_ENV`]; default 1).
    pub retries: u32,
    /// The injected failure ([`FAIL_POINT_ENV`]), if any: the targeted
    /// sweep label (`None` = every sweep) and the input index.
    pub fail_point: Option<(Option<String>, usize)>,
    /// The resumable sweep checkpoint ([`CHECKPOINT_ENV`]).
    pub checkpoint: Option<PathBuf>,
    /// Whether every checkpoint record is fsynced ([`SYNC_ENV`]).
    pub checkpoint_sync: bool,
    /// Whether progress goes to stderr even when it is not a terminal
    /// ([`PROGRESS_ENV`]).
    pub progress: bool,
    /// Worker processes of the sweep fabric ([`SHARDS_ENV`]); `None` keeps
    /// sweeps in process.
    pub shards: Option<usize>,
    /// The fabric's heartbeat timeout ([`TIMEOUT_ENV`]).
    pub timeout: Option<Duration>,
    /// The executable the fabric re-execs ([`EXE_ENV`]; default: this one).
    pub fabric_exe: Option<PathBuf>,
    /// The persistent result cache directory ([`RESULT_CACHE_ENV`]).
    pub result_cache: Option<PathBuf>,
    /// The fabric worker contract; `Some` makes this process a worker.
    pub worker: Option<WorkerConfig>,
}

/// The worker side of the fabric contract, parsed from the `MESH_WORKER_*`
/// variables the fabric parent sets.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    pub(crate) shard: usize,
    pub(crate) label: String,
    pub(crate) out: PathBuf,
    pub(crate) resume: Option<PathBuf>,
    pub(crate) plan: PathBuf,
    pub(crate) skip: HashSet<u64>,
}

impl RunConfig {
    /// Parses a configuration from `(name, value)` pairs, such as
    /// [`std::env::vars_os`]. Names outside `MESH_*` are ignored.
    ///
    /// # Errors
    ///
    /// Returns one line per unknown `MESH_*` name and per malformed value,
    /// sorted by variable name.
    pub fn from_vars<I, K, V>(vars: I) -> Result<RunConfig, Vec<String>>
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<OsString>,
        V: Into<OsString>,
    {
        let mut env = Vars::default();
        for (name, value) in vars {
            let name: OsString = name.into();
            let name = name.to_string_lossy();
            if !name.starts_with("MESH_") {
                continue;
            }
            match KNOBS.iter().find(|(known, _)| *known == name) {
                Some(&(known, _)) => {
                    env.values.insert(known, value.into());
                }
                None => env.problems.push(format!("{name}: unknown variable")),
            }
        }
        let config = RunConfig {
            jobs: env
                .parse(JOBS_ENV, "a positive integer", |v| {
                    v.parse().ok().filter(|&n| n >= 1)
                })
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
                }),
            retries: env
                .parse(RETRIES_ENV, "a non-negative integer", |v| v.parse().ok())
                .unwrap_or(1),
            fail_point: env.blank_unset(FAIL_POINT_ENV, "INDEX or LABEL:INDEX", |v| {
                match v.rsplit_once(':') {
                    Some((label, index)) => Some((Some(label.to_string()), index.parse().ok()?)),
                    None => Some((None, v.parse().ok()?)),
                }
            }),
            checkpoint: env.path(CHECKPOINT_ENV),
            checkpoint_sync: env.switch(SYNC_ENV),
            progress: env.switch(PROGRESS_ENV),
            shards: env
                .blank_unset(SHARDS_ENV, "a non-negative integer", |v| v.parse().ok())
                .filter(|&n| n >= 1),
            timeout: env.blank_unset(TIMEOUT_ENV, "positive seconds, e.g. 30 or 0.5", |v| {
                Duration::try_from_secs_f64(v.parse().ok().filter(|&s| s > 0.0)?).ok()
            }),
            fabric_exe: env.path(EXE_ENV),
            result_cache: env.path(RESULT_CACHE_ENV),
            worker: env.worker(),
        };
        env.switch(mesh_obs::OBS_ENV);
        env.switch(mesh_obs::flightrec::FLIGHTREC_ENV);
        if env.problems.is_empty() {
            Ok(config)
        } else {
            env.problems.sort();
            Err(env.problems)
        }
    }

    /// The input index [`RunConfig::fail_point`] targets in the sweep named
    /// `label`, if any: shared by the in-process runner and fabric workers,
    /// so fault injection behaves alike whether or not a sweep is sharded.
    pub(crate) fn injected_index(&self, label: &str) -> Option<usize> {
        match &self.fail_point {
            Some((None, index)) => Some(*index),
            Some((Some(l), index)) if l == label => Some(*index),
            _ => None,
        }
    }
}

/// The accepted `MESH_*` variables of one environment, and the problems
/// found in it so far.
#[derive(Default)]
struct Vars {
    values: HashMap<&'static str, OsString>,
    problems: Vec<String>,
}

impl Vars {
    /// A path knob; unset or empty is `None`.
    fn path(&self, name: &str) -> Option<PathBuf> {
        self.values
            .get(name)
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    }

    /// A knob `parse`d from its trimmed value; `None` when unset, and a
    /// recorded problem saying what was wanted when the value is not UTF-8
    /// or `parse` rejects it.
    fn parse<T>(
        &mut self,
        name: &str,
        want: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        let value = self.values.get(name)?;
        let parsed = value.to_str().and_then(|v| parse(v.trim()));
        if parsed.is_none() {
            self.problems.push(format!("{name}={value:?}: want {want}"));
        }
        parsed
    }

    /// As [`Vars::parse`], but a blank value is unset too.
    fn blank_unset<T>(
        &mut self,
        name: &str,
        want: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        self.parse(name, want, |v| {
            if v.is_empty() {
                Some(None)
            } else {
                parse(v).map(Some)
            }
        })
        .flatten()
    }

    /// An on/off knob; unset is off. `1|on|true|yes` is on and mesh-obs's
    /// off values ([`mesh_obs::is_off`]) are off, trimmed and in any case.
    fn switch(&mut self, name: &str) -> bool {
        let want = "1|on|true|yes or 0|off|false|no|empty";
        self.parse(name, want, |v| match v.to_ascii_lowercase().as_str() {
            "1" | "on" | "true" | "yes" => Some(true),
            v => mesh_obs::is_off(v).then_some(false),
        })
        .unwrap_or(false)
    }

    /// The worker contract: `None` unless [`WORKER_SHARD_ENV`] is set, and a
    /// problem when any of its required companions is missing.
    fn worker(&mut self) -> Option<WorkerConfig> {
        let shard = self.parse(WORKER_SHARD_ENV, "SHARD/SHARDS", |v| {
            let (shard, shards) = v.split_once('/')?;
            let shard: usize = shard.trim().parse().ok()?;
            (shard < shards.trim().parse().ok()?).then_some(shard)
        })?;
        let label = self.values.get(WORKER_LABEL_ENV).and_then(|v| v.to_str());
        let (Some(label), Some(out), Some(plan)) = (
            label.map(str::to_string),
            self.path(WORKER_OUT_ENV),
            self.path(WORKER_PLAN_ENV),
        ) else {
            self.problems.push(format!(
                "{WORKER_SHARD_ENV}: set without {WORKER_LABEL_ENV}, {WORKER_OUT_ENV} \
                 and {WORKER_PLAN_ENV} (the sweep fabric sets all four)"
            ));
            return None;
        };
        let skip = self.values.get(WORKER_SKIP_ENV).and_then(|v| v.to_str());
        Some(WorkerConfig {
            shard,
            label,
            out,
            resume: self.values.get(WORKER_RESUME_ENV).map(PathBuf::from),
            plan,
            skip: skip
                .into_iter()
                .flat_map(|v| v.split(','))
                .filter_map(|hash| u64::from_str_radix(hash.trim(), 16).ok())
                .collect(),
        })
    }
}

/// The process's run configuration, parsed from the environment on the
/// first call. That call also hands the job count to the trace compiler
/// ([`mesh_cyclesim::trace::set_compile_jobs`]), so trace compiles run on
/// [`JOBS_ENV`] threads like the sweeps.
///
/// On a misconfiguration (see the [module docs](self)) it prints every
/// problem to stderr and exits the process with status 2.
pub fn config() -> &'static RunConfig {
    static CONFIG: OnceLock<RunConfig> = OnceLock::new();
    CONFIG.get_or_init(|| match RunConfig::from_vars(std::env::vars_os()) {
        Ok(config) => {
            mesh_cyclesim::trace::set_compile_jobs(config.jobs);
            config
        }
        Err(problems) => {
            eprintln!(
                "mesh-bench: invalid MESH_* configuration, stopping before any point runs:\n  {}",
                problems.join("\n  ")
            );
            std::process::exit(2);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_obs::flightrec::FLIGHTREC_ENV;

    fn parsed(vars: &[(&str, &str)]) -> RunConfig {
        RunConfig::from_vars(vars.iter().copied()).expect("valid configuration")
    }

    fn problems(vars: &[(&str, &str)]) -> Vec<String> {
        RunConfig::from_vars(vars.iter().copied()).expect_err("invalid configuration")
    }

    #[test]
    fn unset_and_blank_knobs_take_their_defaults() {
        let unset = parsed(&[("HOME", "/root"), ("MESHY", "1")]);
        let defaults = format!(
            "RunConfig {{ jobs: {}, retries: 1, fail_point: None, checkpoint: None, \
             checkpoint_sync: false, progress: false, shards: None, timeout: None, \
             fabric_exe: None, result_cache: None, worker: None }}",
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        );
        assert_eq!(format!("{unset:?}"), defaults);
        for shards in ["", "0"] {
            let blank = parsed(&[
                (FAIL_POINT_ENV, " "),
                (CHECKPOINT_ENV, ""),
                (SYNC_ENV, ""),
                (PROGRESS_ENV, " "),
                (SHARDS_ENV, shards),
                (TIMEOUT_ENV, " "),
                (EXE_ENV, ""),
                (RESULT_CACHE_ENV, ""),
            ]);
            assert_eq!(format!("{blank:?}"), defaults);
        }
    }

    #[test]
    fn well_formed_values_keep_their_meaning() {
        let config = parsed(&[
            (JOBS_ENV, " 3 "),
            (RETRIES_ENV, "0"),
            (FAIL_POINT_ENV, "fig5:3"),
            (CHECKPOINT_ENV, "/tmp/run.ckpt"),
            (SHARDS_ENV, "2"),
            (TIMEOUT_ENV, "0.25"),
            (EXE_ENV, "/bin/true"),
            (RESULT_CACHE_ENV, "/tmp/memo"),
            (mesh_obs::TRACE_ENV, "trace.json"),
            ("MESH_CHAOS_HANG", "test targets parse their own knobs"),
        ]);
        assert_eq!(
            format!("{config:?}"),
            "RunConfig { jobs: 3, retries: 0, fail_point: Some((Some(\"fig5\"), 3)), \
             checkpoint: Some(\"/tmp/run.ckpt\"), checkpoint_sync: false, progress: false, \
             shards: Some(2), timeout: Some(250ms), fabric_exe: Some(\"/bin/true\"), \
             result_cache: Some(\"/tmp/memo\"), worker: None }"
        );
        let config = parsed(&[(FAIL_POINT_ENV, " 7 "), (TIMEOUT_ENV, " 30 ")]);
        assert_eq!(config.fail_point, Some((None, 7)));
        assert_eq!(config.timeout, Some(Duration::from_secs(30)));
    }

    #[test]
    fn switches_share_one_on_off_rule() {
        for name in [SYNC_ENV, PROGRESS_ENV, mesh_obs::OBS_ENV, FLIGHTREC_ENV] {
            let read = |value| {
                let config = parsed(&[(name, value)]);
                [config.checkpoint_sync, config.progress]
            };
            for on in ["1", "on", "ON", " true ", "yes", "Yes", " Yes "] {
                assert_eq!(read(on), [name == SYNC_ENV, name == PROGRESS_ENV], "{on:?}");
            }
            for off in ["", "0", "off", "OFF", " False ", " 0", "no", "No"] {
                assert_eq!(read(off), [false, false], "{name}={off:?}");
            }
            for bad in ["2", "y", "enable", "fsync", "-1", "maybe"] {
                let want = "want 1|on|true|yes or 0|off|false|no|empty";
                assert_eq!(
                    problems(&[(name, bad)]),
                    [format!("{name}={bad:?}: {want}")]
                );
            }
        }
    }

    #[test]
    fn malformed_values_are_errors() {
        for (name, bad) in [
            (JOBS_ENV, &["two", "0", "-2", ""][..]),
            (RETRIES_ENV, &["-1", "once"]),
            (FAIL_POINT_ENV, &["fig5:x", "third"]),
            (SHARDS_ENV, &["two", "-1"]),
            (
                TIMEOUT_ENV,
                &[
                    "0", "-3", "-30", "inf", "NaN", "abc", "soon", "30s", "1e300",
                ],
            ),
            (WORKER_SHARD_ENV, &["3/3", "1"]),
        ]
        .into_iter()
        .flat_map(|(name, bad)| bad.iter().map(move |bad| (name, *bad)))
        {
            let found = problems(&[(name, bad)]);
            assert_eq!(found.len(), 1, "{name}={bad:?}: {found:?}");
            assert!(
                found[0].starts_with(&format!("{name}={bad:?}: want ")),
                "{found:?}"
            );
        }
    }

    #[test]
    fn unknown_and_removed_names_are_errors() {
        let found = problems(&[
            ("MESH_TRACE_STORE", "/tmp/x"),
            ("MESH_BENCH_JOB", "2"),
            ("MESH_ADVERSARY", "off"),
            ("MESH_BENCH_RETRIES", "-1"),
            ("MESH_NOC_HOPS", "2"),
            ("MESH_NOC_OVERLAP", "0.5"),
            ("MESH_OBS_FLUSH_SECS", "1"),
            ("MESH_BENCH_JOBS", "2"),
        ]);
        assert_eq!(
            found,
            [
                "MESH_ADVERSARY: unknown variable",
                "MESH_BENCH_JOB: unknown variable",
                "MESH_BENCH_RETRIES=\"-1\": want a non-negative integer",
                "MESH_NOC_HOPS: unknown variable",
                "MESH_NOC_OVERLAP: unknown variable",
                "MESH_OBS_FLUSH_SECS: unknown variable",
                "MESH_TRACE_STORE: unknown variable",
            ]
        );
    }

    #[test]
    fn the_worker_contract_parses_as_the_fabric_writes_it() {
        let worker = parsed(&[
            (WORKER_SHARD_ENV, "1/3"),
            (WORKER_LABEL_ENV, "fig5"),
            (WORKER_OUT_ENV, "/tmp/shard-1.ckpt"),
            (WORKER_PLAN_ENV, "/tmp/plan.txt"),
            (WORKER_SKIP_ENV, "00000000000000ff,zz,1a"),
        ])
        .worker
        .expect("a worker");
        assert_eq!((worker.shard, worker.resume), (1, None));
        assert_eq!(worker.skip, HashSet::from([0xff, 0x1a]));
        // Companions without the shard spec do not make a worker; a shard
        // spec without its companions is an error.
        assert!(parsed(&[(WORKER_LABEL_ENV, "fig5")]).worker.is_none());
        let found = problems(&[(WORKER_SHARD_ENV, "0/2"), (WORKER_LABEL_ENV, "fig5")]);
        assert!(
            found[0].contains("the sweep fabric sets all four"),
            "{found:?}"
        );
    }

    #[test]
    fn trace_compiles_run_on_the_configured_job_count() {
        let jobs = config().jobs;
        assert_eq!(mesh_cyclesim::trace::compile_jobs(), jobs);
    }
}
