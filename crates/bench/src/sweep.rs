//! # Design-space sweeps
//!
//! Every experiment binary in this crate walks a grid of scenario points
//! (processor counts, bus delays, idle fractions, annotation policies, ...)
//! and evaluates each point independently — typically one hybrid kernel run
//! plus one cycle-accurate reference run per point. That makes the sweep
//! layer embarrassingly parallel, and on multi-core hosts the dominant
//! wall-clock cost of regenerating the paper's figures.
//!
//! Two public functions run a grid:
//!
//! * [`try_sweep_labeled`] — a grid of independent points;
//! * [`crate::eval::sweep_with_references`] — a grid whose points share
//!   expensive reference sub-evaluations, which it runs first.
//!
//! Both go through one dispatch, which reads the process's
//! [`RunConfig`] first, so a misconfigured environment exits before any
//! point runs. Inside a [`crate::fabric`] worker process it evaluates the
//! worker's shard; with `MESH_BENCH_SHARDS` set it runs the grid on
//! supervised worker processes; otherwise it runs the grid on threads of
//! this process. Every path shares these properties:
//!
//! * **Deterministic ordering.** Results come back in input order, so a
//!   binary's stdout is byte-identical whatever the thread or shard count.
//!   `MESH_BENCH_JOBS=1` restores strictly serial evaluation (same thread,
//!   same order) for timing-faithful runs. Threads work-steal from a shared
//!   atomic index ([`std::thread::scope`]; pure `std`, no unsafe code).
//! * **Deduplication.** Points with equal keys are evaluated once per grid.
//!   Floating-point parameters are not `Hash`; wrap them in [`FBits`].
//! * **Crash isolation.** In process, each point is evaluated inside
//!   [`std::panic::catch_unwind`] with a bounded retry ([`RETRIES_ENV`]) and
//!   linear backoff. A panicking point never takes down the sweep: every
//!   other point still completes, and the failure is reported as a
//!   [`PointFailure`] in [`SweepError::Points`], carrying the point's grid
//!   coordinates and the panic payload. The fabric does the same for points
//!   that kill their worker process.
//! * **Checkpoint/resume.** With [`CHECKPOINT_ENV`] set to a file path,
//!   every finished point is appended (and flushed) to an on-disk
//!   [`Checkpoint`]; a re-run after a crash or kill reloads the finished
//!   points and evaluates only the remainder. Values are encoded losslessly
//!   ([`Checkpointable`]), so a resumed run's output is byte-identical to an
//!   uninterrupted one.
//! * **Coarse progress.** When more than one worker runs and stderr is a
//!   terminal (or [`PROGRESS_ENV`] is set), completion counts are reported to
//!   stderr; stdout is never touched.
//!
//! ## Environment knobs
//!
//! | Variable | Effect |
//! |---|---|
//! | `MESH_BENCH_JOBS` | worker count (default: available parallelism) |
//! | `MESH_BENCH_PROGRESS` | on/off: force progress lines to stderr |
//! | `MESH_BENCH_CHECKPOINT` | checkpoint file path enabling resume |
//! | `MESH_BENCH_RETRIES` | extra attempts per panicking point (default 1) |
//! | `MESH_BENCH_FAIL_POINT` | inject a panic at `index` or `label:index` |
//! | `MESH_BENCH_SHARDS` | run on the multi-process [`crate::fabric`] instead |
//!
//! The knobs are read once per process, in [`crate::config()`]; an unknown
//! `MESH_*` name or a malformed value exits with status 2.
//!
//! ```bash
//! MESH_BENCH_JOBS=8 cargo run -p mesh-bench --bin fig6 --release
//! MESH_BENCH_JOBS=1 cargo run -p mesh-bench --bin table1 --release  # serial
//! MESH_BENCH_CHECKPOINT=/tmp/fig5.ckpt cargo run -p mesh-bench --bin fig5 --release
//! ```
//!
//! ## Example
//!
//! ```
//! use mesh_bench::sweep::{try_sweep_labeled, FBits};
//!
//! let squares = try_sweep_labeled("squares", &[1u64, 2, 3, 4], |&n| n * n).unwrap();
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // Float parameters are keyed by bit pattern; a repeated key is
//! // evaluated once and returned at every position it occupies.
//! let grid = [FBits::new(0.5), FBits::new(1.25), FBits::new(0.5)];
//! let doubled = try_sweep_labeled("doubled", &grid, |m| m.get() * 2.0).unwrap();
//! assert_eq!(doubled, vec![1.0, 2.5, 1.0]);
//! ```

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::io::IsTerminal as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

pub use crate::checkpoint::{stable_key_hash, Checkpoint, Checkpointable};
use crate::config::RunConfig;

/// Environment variable selecting the sweep worker count (a positive
/// integer; default: the host's available parallelism). `1` restores serial
/// evaluation.
pub const JOBS_ENV: &str = "MESH_BENCH_JOBS";

/// Environment variable forcing progress reporting to stderr even when
/// stderr is not a terminal (an on/off switch, see [`mod@crate::config`]).
pub const PROGRESS_ENV: &str = "MESH_BENCH_PROGRESS";

/// Environment variable naming the checkpoint file for resumable sweeps.
///
/// When set, every finished point is appended to the file, and a re-run
/// (after a crash, a kill, or a reported point failure) skips the points
/// already on disk. See [`crate::checkpoint`] for the format.
pub const CHECKPOINT_ENV: &str = "MESH_BENCH_CHECKPOINT";

/// Environment variable bounding the retries of a panicking point
/// (non-negative integer; default 1 — one retry after the first failure).
pub const RETRIES_ENV: &str = "MESH_BENCH_RETRIES";

/// Environment variable injecting a deterministic panic at one grid point,
/// for exercising the crash-isolation path end to end: either a bare input
/// index (`3`) or `label:index` (`fig5:3`) to target one sweep of a
/// multi-sweep binary.
pub const FAIL_POINT_ENV: &str = "MESH_BENCH_FAIL_POINT";

/// Base delay between in-process attempts of a failing point; attempt `n`
/// waits about `n * RETRY_BACKOFF`.
const RETRY_BACKOFF: Duration = Duration::from_millis(25);

/// An `f64` sweep parameter keyed by its bit pattern, so grids over
/// floating-point knobs (idle fractions, minimum timeslices, ...) can be
/// hashed for deduplication and checkpoint records.
///
/// Equality is bitwise: `-0.0 != 0.0` and `NaN == NaN` as keys, which is
/// exactly what a memoization key wants.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FBits(u64);

impl FBits {
    /// Wraps a float as a hashable sweep key.
    pub fn new(value: f64) -> FBits {
        FBits(value.to_bits())
    }

    /// The wrapped float.
    pub fn get(self) -> f64 {
        f64::from_bits(self.0)
    }
}

impl From<f64> for FBits {
    fn from(value: f64) -> FBits {
        FBits::new(value)
    }
}

/// One grid point that kept failing after every allowed attempt.
///
/// Carries everything needed to reproduce the failure from the command
/// line: the sweep label, the point's input-order index, its coordinates
/// (the `Debug` rendering of the grid key) and the panic payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointFailure {
    /// Label of the sweep the point belongs to.
    pub label: String,
    /// Input-order index of the point within the grid.
    pub index: usize,
    /// `Debug` rendering of the grid key — the point's coordinates.
    pub coordinates: String,
    /// Text of the panic payload from the last attempt.
    pub payload: String,
    /// Attempts made (1 + retries).
    pub attempts: u32,
    /// Path of the flight-recorder dump covering the failure, when the
    /// recorder was on (`MESH_OBS_FLIGHTREC`) — the black-box postmortem
    /// for this point, written by the failing process itself (in-process
    /// and panicking-worker failures) or salvaged by the fabric supervisor
    /// (SIGKILLed workers).
    pub flight_record: Option<String>,
}

impl fmt::Display for PointFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "point #{} {} of sweep '{}' panicked after {} attempt(s): {}",
            self.index, self.coordinates, self.label, self.attempts, self.payload
        )?;
        if let Some(rec) = &self.flight_record {
            write!(f, " [flight record: {rec}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for PointFailure {}

/// A failed sweep: either grid points that panicked (everything else still
/// completed), or an unusable checkpoint file.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum SweepError {
    /// One or more points panicked on every attempt.
    Points {
        /// Label of the sweep.
        label: String,
        /// Total points in the grid.
        total: usize,
        /// Points that produced a value (directly or via checkpoint).
        completed: usize,
        /// The failed points, in input order.
        failures: Vec<PointFailure>,
    },
    /// The checkpoint file requested via [`CHECKPOINT_ENV`] could not be
    /// opened or created.
    Checkpoint {
        /// The offending path.
        path: PathBuf,
        /// The underlying I/O error, rendered.
        error: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Points {
                label,
                total,
                completed,
                failures,
            } => {
                writeln!(
                    f,
                    "sweep '{label}' failed at {} of {total} points ({completed} completed):",
                    failures.len()
                )?;
                for failure in failures {
                    writeln!(f, "  {failure}")?;
                }
                write!(
                    f,
                    "  (set {CHECKPOINT_ENV}=<path> to keep finished points across re-runs)"
                )
            }
            SweepError::Checkpoint { path, error } => {
                write!(f, "cannot open checkpoint {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Crash-isolated, resumable sweep of a grid of independent points — the
/// entry point the experiment binaries use.
///
/// Configuration comes from the environment (see the [module docs](self));
/// if [`CHECKPOINT_ENV`] names a file, finished points are persisted there
/// and a re-run resumes from it. On failure, every healthy point has still
/// been evaluated (and checkpointed), and the error lists each failed
/// point's grid coordinates. `eval` must be a pure function of the point:
/// a key identifies its result.
///
/// With [`crate::fabric::SHARDS_ENV`] (`MESH_BENCH_SHARDS`) set, the sweep
/// runs on the multi-process [`crate::fabric`] — supervised worker processes
/// with heartbeats, timeouts and poison-point recovery — with output
/// byte-identical to the in-process path at any shard count. Inside a fabric
/// worker process this same function *is* the worker entrypoint: it
/// evaluates the worker's assigned shard and exits.
///
/// # Examples
///
/// ```
/// use mesh_bench::sweep::{try_sweep_labeled, SweepError};
///
/// let cubes = try_sweep_labeled("cubes", &[1u64, 2, 3], |&n| n * n * n).unwrap();
/// assert_eq!(cubes, vec![1, 8, 27]);
///
/// // A point that panics on every attempt is reported with its
/// // coordinates; the other points still complete.
/// let err = try_sweep_labeled("fragile", &[1u64, 2, 3], |&n| {
///     assert!(n != 2, "bad point");
///     n
/// })
/// .unwrap_err();
/// match err {
///     SweepError::Points { completed, failures, .. } => {
///         assert_eq!(completed, 2);
///         assert_eq!(failures[0].coordinates, "2");
///     }
///     other => panic!("unexpected {other}"),
/// }
/// ```
pub fn try_sweep_labeled<K, V, F>(label: &str, points: &[K], eval: F) -> Result<Vec<V>, SweepError>
where
    K: Hash + Eq + Clone + Sync + fmt::Debug,
    V: Clone + Send + Checkpointable,
    F: Fn(&K) -> V + Sync,
{
    dispatch(label, points, None, eval)
}

/// The shared-reference plan of a grid run through
/// [`crate::eval::sweep_with_references`].
pub(crate) struct References<'a, K> {
    /// The fingerprint of the reference a point shares; points with equal
    /// fingerprints form one group.
    pub(crate) key: &'a dyn Fn(&K) -> u128,
    /// Computes (and thereby caches) one point's reference.
    pub(crate) run: &'a (dyn Fn(&K) + Sync),
}

/// The one dispatch behind both public entry points: a fabric worker
/// evaluates its shard; otherwise a planned grid runs its reference phase,
/// and the grid runs on the fabric (with the reference groups as
/// co-location hints) or on the in-process runner.
pub(crate) fn dispatch<K, V, F>(
    label: &str,
    points: &[K],
    references: Option<References<'_, K>>,
    eval: F,
) -> Result<Vec<V>, SweepError>
where
    K: Hash + Sync + fmt::Debug,
    V: Clone + Send + Checkpointable,
    F: Fn(&K) -> V + Sync,
{
    let config = crate::config();
    if let Some(worker) = &config.worker {
        // The parent already planned this worker's assignment.
        return crate::fabric::worker_sweep(worker, label, points, eval);
    }
    let groups = references.map(|refs| crate::eval::reference_phase(label, points, &refs, config));
    let checkpoint = match &config.checkpoint {
        // A set but unusable path is an error: silently dropping the
        // resumability the user asked for would be worse than failing.
        Some(path) => Some(Checkpoint::open(path).map_err(|e| SweepError::Checkpoint {
            path: path.clone(),
            error: e.to_string(),
        })?),
        None => None,
    };
    match config.shards {
        Some(shards) => crate::fabric::run_sharded(
            label,
            points,
            checkpoint.as_ref(),
            shards,
            groups.as_deref(),
            config,
            eval,
        ),
        None => run_points(label, points, checkpoint.as_ref(), config, eval),
    }
}

/// The first occurrence of every distinct key still to evaluate, as
/// (input index, key, [`stable_key_hash`]).
pub(crate) type Todo<'a, K> = Vec<(usize, &'a K, u64)>;

/// Dedupes `points` by [`stable_key_hash`] and resolves every key that
/// `checkpoint` already holds. Returns the resolved values by key hash and
/// the points still to evaluate — the first step of both the in-process
/// runner and the fabric supervisor.
pub(crate) fn prefill<'a, K: Hash, V: Checkpointable>(
    label: &str,
    points: &'a [K],
    checkpoint: Option<&Checkpoint>,
) -> (HashMap<u64, V>, Todo<'a, K>) {
    let mut done = HashMap::new();
    let mut todo = Vec::new();
    let mut seen = HashSet::new();
    for (index, key) in points.iter().enumerate() {
        let hash = stable_key_hash(key);
        if !seen.insert(hash) {
            continue;
        }
        // Finished by a previous (possibly killed) run: resume from the
        // checkpoint record instead of re-evaluating.
        match checkpoint.and_then(|ck| ck.lookup::<V>(label, hash)) {
            Some(value) => {
                done.insert(hash, value);
            }
            None => todo.push((index, key, hash)),
        }
    }
    (done, todo)
}

/// Reassembles the input-ordered result vector from the finished values by
/// key hash — or, when any point failed, the [`SweepError::Points`] report
/// (failures in input order). The last step of both the in-process runner
/// and the fabric supervisor.
pub(crate) fn assemble<K, V>(
    label: &str,
    points: &[K],
    done: &HashMap<u64, V>,
    mut failures: Vec<PointFailure>,
) -> Result<Vec<V>, SweepError>
where
    K: Hash,
    V: Clone,
{
    if !failures.is_empty() {
        failures.sort_by_key(|f| f.index);
        let completed = points
            .iter()
            .filter(|key| done.contains_key(&stable_key_hash(key)))
            .count();
        return Err(SweepError::Points {
            label: label.to_string(),
            total: points.len(),
            completed,
            failures,
        });
    }
    Ok(points
        .iter()
        .map(|key| {
            done.get(&stable_key_hash(key))
                .cloned()
                .expect("every non-failed point finished")
        })
        .collect())
}

/// Runs a grid on `config.jobs` threads of this process: [`prefill`],
/// crash-isolated parallel evaluation of the remaining points (each
/// appended to `checkpoint` as it finishes), then [`assemble`].
pub(crate) fn run_points<K, V, F>(
    label: &str,
    points: &[K],
    checkpoint: Option<&Checkpoint>,
    config: &RunConfig,
    eval: F,
) -> Result<Vec<V>, SweepError>
where
    K: Hash + Sync + fmt::Debug,
    V: Clone + Send + Checkpointable,
    F: Fn(&K) -> V + Sync,
{
    let (mut done, todo) = prefill(label, points, checkpoint);
    let obs_on = mesh_obs::enabled();
    if obs_on {
        mesh_obs::gauge("sweep.points_total").set(points.len() as u64);
        mesh_obs::gauge("sweep.points_done").set((points.len() - todo.len()) as u64);
    }
    let mut failures: Vec<PointFailure> = Vec::new();
    if !todo.is_empty() {
        let total = todo.len();
        let prefilled = points.len() - total;
        let sweep_start = std::time::Instant::now();
        let done_count = AtomicUsize::new(0);
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<Result<V, PointFailure>>>> =
            todo.iter().map(|_| Mutex::new(None)).collect();
        let workers = config.jobs.min(total);
        let progress = workers > 1 && (config.progress || std::io::stderr().is_terminal());
        let fail_index = config.injected_index(label);
        let worker = || loop {
            let claim = next.fetch_add(1, Ordering::Relaxed);
            if claim >= total {
                break;
            }
            let (index, key, hash) = todo[claim];
            let outcome = {
                let _point_span = obs_on
                    .then(|| mesh_obs::span_labeled("sweep.point_ns", format!("{label}[{index}]")));
                eval_isolated(
                    label,
                    index,
                    key,
                    &eval,
                    config.retries,
                    fail_index == Some(index),
                )
            };
            if let (Ok(value), Some(ck)) = (&outcome, checkpoint) {
                // Persist before reporting progress: a kill right after
                // this line loses at most the in-flight points.
                if let Err(e) = ck.record(label, hash, value) {
                    eprintln!(
                        "mesh-bench: checkpoint write to {} failed: {e}",
                        ck.path().display()
                    );
                }
            }
            *results[claim].lock().expect("sweep slot poisoned") = Some(outcome);
            let finished = done_count.fetch_add(1, Ordering::Relaxed) + 1;
            if obs_on {
                mesh_obs::gauge("sweep.points_done").set((prefilled + finished) as u64);
            }
            if progress {
                let elapsed = sweep_start.elapsed().as_secs_f64();
                let eta = elapsed / finished as f64 * (total - finished) as f64;
                eprintln!(
                    "mesh-bench {label}: {finished}/{total} points \
                     ({elapsed:.1}s elapsed, eta {eta:.1}s)"
                );
            }
        };
        if workers == 1 {
            // Serial: same thread, same order, no pool overhead.
            worker();
        } else {
            let worker = &worker;
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            });
        }
        for (&(_, _, hash), result) in todo.iter().zip(results) {
            match result
                .into_inner()
                .expect("sweep slot poisoned")
                .expect("sweep worker completed every claimed point")
            {
                Ok(value) => {
                    done.insert(hash, value);
                }
                Err(failure) => failures.push(failure),
            }
        }
    }
    assemble(label, points, &done, failures)
}

/// Evaluates one point inside `catch_unwind`, retrying with linear backoff
/// plus deterministic jitter up to the budget.
///
/// The jitter ([`mesh_core::Backoff`]) is seeded by the sweep label and the
/// point's input index, so each point's retry schedule is deterministic
/// across runs while distinct points retrying concurrently (a systemic
/// transient knocking out many points at once) do not stampede in lockstep.
fn eval_isolated<K, V, F>(
    label: &str,
    index: usize,
    key: &K,
    eval: &F,
    retries: u32,
    injected: bool,
) -> Result<V, PointFailure>
where
    K: fmt::Debug,
    F: Fn(&K) -> V + Sync,
{
    let attempts = retries + 1;
    let delays = mesh_core::Backoff::linear(RETRY_BACKOFF, RETRY_BACKOFF.saturating_mul(attempts))
        .with_seed(stable_key_hash(label) ^ index as u64);
    let mut payload = String::new();
    for attempt in 1..=attempts {
        let result = catch_unwind(AssertUnwindSafe(|| {
            if injected {
                panic!("injected failure ({FAIL_POINT_ENV})");
            }
            eval(key)
        }));
        match result {
            Ok(value) => return Ok(value),
            Err(p) => {
                payload = payload_text(p.as_ref());
                if attempt < attempts {
                    if attempt == 1 {
                        // One warning per point, however many retries follow
                        // — per-attempt lines turned retry storms into
                        // unreadable stderr.
                        eprintln!(
                            "mesh-bench: point #{index} {key:?} of sweep '{label}' panicked \
                             ({payload}); retrying up to {retries} time(s)"
                        );
                    }
                    if mesh_obs::enabled() {
                        mesh_obs::counter("sweep.retries").inc();
                    }
                    if mesh_obs::flightrec::enabled() {
                        mesh_obs::flightrec::event(
                            mesh_obs::flightrec::EventKind::Retry,
                            label,
                            index as u64,
                            u64::from(attempt),
                        );
                    }
                    std::thread::sleep(delays.delay(attempt));
                }
            }
        }
    }
    Err(PointFailure {
        label: label.to_string(),
        index,
        coordinates: format!("{key:?}"),
        payload,
        attempts,
        flight_record: dump_flight_record(label, index),
    })
}

/// Dumps the flight-recorder ring for an exhausted point, returning the
/// file path for the [`PointFailure`] — the in-process analogue of the
/// fabric salvaging a dead worker's `flightrec-<shard>` file. The dump
/// lands in the `MESH_OBS_OUT` directory when set, in a stable per-process
/// temp directory otherwise; `None` when the recorder is off or the write
/// fails (a postmortem must never turn a reported failure into a panic).
fn dump_flight_record(label: &str, index: usize) -> Option<String> {
    if !mesh_obs::flightrec::enabled() {
        return None;
    }
    let dir = match mesh_obs::report::out_dir() {
        Some(d) => d.to_path_buf(),
        None => std::env::temp_dir().join(format!("mesh-flightrec-{}", std::process::id())),
    };
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!(
        "flightrec-inproc-{}-{index}.json",
        crate::checkpoint::sanitize(label)
    ));
    mesh_obs::flightrec::write_file(&path).ok()?;
    Some(path.display().to_string())
}

/// Renders a panic payload as text (panics carry `&str` or `String` in
/// practice; anything else is reported as opaque).
fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// The process's configuration with `jobs` threads, no retries, no
    /// fault injection and no forced progress output.
    fn settings(jobs: usize) -> RunConfig {
        RunConfig {
            jobs,
            retries: 0,
            fail_point: None,
            progress: false,
            ..crate::config().clone()
        }
    }

    #[test]
    fn parallel_results_match_serial_order() {
        // A fig5-style sweep: one result per (idle, bus delay, seed) point.
        let mut points = Vec::new();
        for idle in [0u64, 15, 30, 45, 60, 75, 90] {
            for delay in [2u64, 4, 8, 12, 16] {
                for seed in [1u64, 2, 3] {
                    points.push((idle, delay, seed));
                }
            }
        }
        let eval = |&(idle, delay, seed): &(u64, u64, u64)| {
            // Deterministic but non-trivial work.
            let mut acc = idle.wrapping_mul(31) ^ delay.wrapping_mul(17) ^ seed;
            for _ in 0..1000 {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            acc
        };
        let serial = run_points("order", &points, None, &settings(1), eval).unwrap();
        let parallel = run_points("order", &points, None, &settings(4), eval).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn duplicate_keys_within_one_grid_evaluate_once() {
        let evals = AtomicU64::new(0);
        let results = run_points("dupes", &[7u64, 7, 8, 7, 8], None, &settings(3), |&k| {
            evals.fetch_add(1, Ordering::Relaxed);
            k * 2
        })
        .unwrap();
        assert_eq!(results, vec![14, 14, 16, 14, 16]);
        assert_eq!(evals.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn fbits_keys_round_trip_and_distinguish_payloads() {
        assert_eq!(FBits::new(1.5).get(), 1.5);
        assert_eq!(FBits::new(0.0), FBits::from(0.0));
        assert_ne!(FBits::new(0.0), FBits::new(-0.0));
        let grid = [FBits::new(0.25), FBits::new(0.5)];
        let out = run_points("fbits", &grid, None, &settings(2), |m| m.get().to_bits()).unwrap();
        assert_eq!(out, vec![0.25f64.to_bits(), 0.5f64.to_bits()]);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<u64> = run_points("empty", &[] as &[u64], None, &settings(4), |&k| k).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_uses_calling_thread() {
        let caller = std::thread::current().id();
        let out = run_points("serial", &[1u64, 2, 3], None, &settings(1), |&k| {
            assert_eq!(std::thread::current().id(), caller);
            k + 10
        })
        .unwrap();
        assert_eq!(out, vec![11, 12, 13]);
    }

    #[test]
    fn panicking_point_is_isolated_and_named() {
        let grid = [(1u64, 10u64), (2, 20), (3, 30), (4, 40)];
        let err = run_points("grid", &grid, None, &settings(3), |&(a, b)| {
            if a == 3 {
                panic!("bad point {b}");
            }
            b + 1
        })
        .unwrap_err();
        let message = err.to_string();
        for part in ["sweep 'grid'", "(3, 30)", "bad point 30"] {
            assert!(message.contains(part), "{part:?} missing: {message}");
        }
        match err {
            SweepError::Points {
                total,
                completed,
                failures,
                ..
            } => {
                assert_eq!(total, 4);
                assert_eq!(completed, 3, "every healthy point still evaluated");
                assert_eq!(failures.len(), 1);
                assert_eq!(failures[0].index, 2);
                assert_eq!(failures[0].coordinates, "(3, 30)");
                assert_eq!(failures[0].attempts, 1);
            }
            other => panic!("expected point failure, got {other:?}"),
        }
    }

    #[test]
    fn retry_recovers_a_flaky_point() {
        let attempts = AtomicU64::new(0);
        let retrying = RunConfig {
            retries: 2,
            ..settings(1)
        };
        let out = run_points("flaky", &[5u64], None, &retrying, |&k| {
            if attempts.fetch_add(1, Ordering::Relaxed) < 2 {
                panic!("transient");
            }
            k * 2
        })
        .unwrap();
        assert_eq!(out, vec![10]);
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn retry_recomputes_a_memoized_leg_that_panicked() {
        // A fingerprint no other test uses: the memo is process-global.
        const FP: u128 = 0x51F1_0000_0000_0000_0000_0000_0000_0004;
        let attempts = AtomicU64::new(0);
        let retrying = RunConfig {
            retries: 1,
            ..settings(1)
        };
        let out = run_points("memo-retry", &[3u64], None, &retrying, |&k| {
            let (value, _) = crate::memo::memoize_flagged(FP, || {
                if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("transient");
                }
                k * 2
            });
            value
        })
        .unwrap();
        assert_eq!(out, vec![6]);
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn injected_fail_point_reports_its_coordinates() {
        let injecting = RunConfig {
            fail_point: Some((None, 1)),
            ..settings(2)
        };
        let err = run_points("inject", &[100u64, 200, 300], None, &injecting, |&k| k).unwrap_err();
        match err {
            SweepError::Points {
                completed,
                failures,
                ..
            } => {
                assert_eq!(completed, 2);
                assert_eq!(failures[0].coordinates, "200");
                assert!(failures[0].payload.contains(FAIL_POINT_ENV));
            }
            other => panic!("expected point failure, got {other:?}"),
        }
        // A labeled fail point leaves other sweeps alone.
        let elsewhere = RunConfig {
            fail_point: Some((Some("other".to_string()), 1)),
            ..settings(2)
        };
        assert!(run_points("inject", &[100u64, 200], None, &elsewhere, |&k| k).is_ok());
    }

    #[test]
    fn assemble_orders_results_and_reports_failures() {
        let points = vec![3u64, 1, 3, 2];
        let mut done = HashMap::new();
        for &p in &points {
            done.insert(stable_key_hash(&p), p * 10);
        }
        let out = assemble("t", &points, &done, Vec::new()).unwrap();
        assert_eq!(out, vec![30, 10, 30, 20], "input order incl. duplicates");

        let failures = vec![PointFailure {
            label: "t".into(),
            index: 1,
            coordinates: "1".into(),
            payload: "poisoned: worker died".into(),
            attempts: 2,
            flight_record: None,
        }];
        done.remove(&stable_key_hash(&1u64));
        let err = assemble("t", &points, &done, failures).unwrap_err();
        match err {
            SweepError::Points {
                total, completed, ..
            } => {
                assert_eq!(total, 4);
                assert_eq!(completed, 3, "both duplicates of 3, plus 2");
            }
            other => panic!("expected Points, got {other:?}"),
        }
    }

    fn temp_checkpoint(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mesh-sweep-test-{}-{}",
            std::process::id(),
            stable_key_hash(name)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("sweep.ckpt")
    }

    #[test]
    fn interrupted_sweep_resumes_byte_identical() {
        let path = temp_checkpoint("resume");
        let _ = std::fs::remove_file(&path);
        let points: Vec<u64> = (0..8).collect();
        let eval = |&k: &u64| (k as f64) * 1.5 + 0.1;

        // Uninterrupted reference run, no checkpoint.
        let reference: Vec<f64> = run_points("resume", &points, None, &settings(2), eval).unwrap();

        // First run "crashes" at point 5 (retries exhausted); the other
        // points are on disk.
        {
            let ck = Checkpoint::open(&path).unwrap();
            let crashing = RunConfig {
                fail_point: Some((None, 5)),
                ..settings(2)
            };
            let err = run_points("resume", &points, Some(&ck), &crashing, eval).unwrap_err();
            assert!(matches!(err, SweepError::Points { completed: 7, .. }));
        }

        // Second run resumes: only the failed point is evaluated.
        let evals = AtomicU64::new(0);
        let ck = Checkpoint::open(&path).unwrap();
        assert_eq!(ck.loaded(), 7);
        let resumed = run_points("resume", &points, Some(&ck), &settings(2), |k| {
            evals.fetch_add(1, Ordering::Relaxed);
            eval(k)
        })
        .unwrap();
        assert_eq!(evals.load(Ordering::Relaxed), 1, "only point 5 re-ran");
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&resumed), bits(&reference), "byte-identical resume");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn checkpoint_distinguishes_labels() {
        let path = temp_checkpoint("labels");
        let _ = std::fs::remove_file(&path);
        let ck = Checkpoint::open(&path).unwrap();
        let a = run_points("grid-a", &[1u64, 2], Some(&ck), &settings(1), |&k| k * 10).unwrap();
        assert_eq!(a, vec![10, 20]);

        // Same keys under another label must not hit grid-a's records.
        let ck = Checkpoint::open(&path).unwrap();
        let evals = AtomicU64::new(0);
        let b = run_points("grid-b", &[1u64, 2], Some(&ck), &settings(1), |&k| {
            evals.fetch_add(1, Ordering::Relaxed);
            k * 100
        })
        .unwrap();
        assert_eq!(b, vec![100, 200]);
        assert_eq!(evals.load(Ordering::Relaxed), 2);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
