//! # The sweep fabric: supervised multi-process sharded sweeps
//!
//! [`crate::sweep`] runs a grid on `std::thread::scope` threads inside one
//! process, and its `catch_unwind` retry layer contains *panics* — but a
//! grid point that dies by signal (SIGSEGV in native code, an OOM kill), or
//! that livelocks inside a model evaluation, still takes the whole process
//! with it. The fabric removes that failure mode by moving point evaluation
//! into **supervised worker OS processes**:
//!
//! * **Opt-in sharding.** With [`SHARDS_ENV`] (`MESH_BENCH_SHARDS=n`) set,
//!   both sweep entry points ([`crate::sweep::try_sweep_labeled`] and
//!   [`crate::sweep::sweep_with_references`]) shard the grid's unresolved
//!   points across `n` workers: round-robin, or — for a grid with a
//!   reference key — one shard per reference group (`group % n`), so a
//!   shared reference is computed by one worker only. This co-location is
//!   the reference key's only job. Each worker is a **re-exec of the
//!   current binary** (same executable, same argv) with
//!   [`WORKER_SHARD_ENV`] set; the sweep dispatch recognizes the variable,
//!   evaluates only the worker's assigned points, and exits — the worker
//!   never reaches the binary's printing code. Deduplication, checkpoint
//!   prefill and the final input-order assembly are the in-process
//!   runner's own steps, shared.
//! * **Checkpoint records as the transport.** Each worker appends finished
//!   points to its own [`Checkpoint`] file ([`WORKER_OUT_ENV`]) with the
//!   same lossless encoding used for crash/resume. The parent tails these
//!   files, so every flushed record doubles as a **heartbeat**.
//! * **A deterministic last-wins merge.** The parent merges worker records
//!   into input order. Because [`Checkpointable`] encodings are lossless and
//!   the merge keeps the last record per point, the sweep's result — and
//!   therefore the binary's stdout — is **byte-identical to the
//!   single-process engine at any shard count**, including after worker
//!   kills, restarts and duplicated records.
//! * **Supervision.** A worker that dies (any signal, abort, panic, nonzero
//!   exit) is restarted with capped exponential backoff plus deterministic
//!   jitter ([`mesh_core::Backoff`]) and resumes from its own checkpoint —
//!   finished points are never re-evaluated. With [`TIMEOUT_ENV`]
//!   (`MESH_BENCH_TIMEOUT`, seconds) set, a worker that produces no record
//!   for that long while points remain is killed and treated the same — the
//!   knob that finally makes hung or livelocked points killable.
//! * **Poison points.** Each worker death strikes the point the worker was
//!   evaluating (its first unfinished planned point — workers evaluate in
//!   plan order, so the culprit is known exactly). A point struck
//!   `MESH_BENCH_RETRIES + 1` times is **poisoned**: recorded as a
//!   [`PointFailure`] with its grid coordinates, excluded from further
//!   restarts via [`WORKER_SKIP_ENV`], and reported through the normal
//!   [`SweepError::Points`] path (nonzero exit) — a permanently crashing
//!   point can never wedge the sweep in a restart loop.
//! * **Graceful degradation.** If spawning a worker fails — a sandbox that
//!   forbids `fork`/`exec`, a missing executable — the fabric drains
//!   whatever the workers already produced and finishes the sweep on the
//!   in-process runner, with a warning instead of an error.
//! * **Cross-process telemetry.** With observability on, each worker
//!   embeds its cumulative [`mesh_obs`] snapshot (wire-encoded, see
//!   [`mesh_obs::wire`]) in the *same atomic append* as every point record,
//!   and the parent folds the latest embedded snapshot per shard into the
//!   unified `MESH_OBS_OUT` report — merged counters account for exactly
//!   the point records the parent accepted, even under SIGKILL. Workers
//!   also write per-shard Chrome traces the parent merges into one
//!   timeline (one process track per shard), and — with
//!   `MESH_OBS_FLIGHTREC` — a flight-recorder ring whose latest dump is
//!   salvaged and attached to the [`PointFailure`] when a point is
//!   poisoned.
//!
//! The supervision state machine per worker shard:
//!
//! ```text
//!             spawn ok                 record flushed (heartbeat)
//!   [idle] ----------> [running] <------------------------------.
//!      ^  \               |  |___________________________________|
//!      |   \ spawn err    | exit(0) & all planned points done
//!      |    '----------> fallback to in-process runner
//!      |                  |
//!      |                  | death (signal/panic/nonzero) or timeout kill
//!      |                  v
//!      |           strike in-flight point
//!      |                  |\
//!      | backoff(jitter)  | \ strikes > retries: poison point (skip list)
//!      '------------------'  '-> PointFailure in SweepError::Points
//! ```
//!
//! ## Environment knobs
//!
//! | Variable | Effect |
//! |---|---|
//! | `MESH_BENCH_SHARDS` | worker process count; unset/0 keeps the in-process runner |
//! | `MESH_BENCH_TIMEOUT` | per-point wall-clock seconds before a silent worker is killed |
//! | `MESH_BENCH_RETRIES` | strike budget per point (shared with the in-process retry layer) |
//! | `MESH_BENCH_CHECKPOINT` | resume file; also the session store workers read prior sweeps from |
//! | `MESH_FABRIC_EXE` | override the re-exec'd executable (tests; default `current_exe`) |
//!
//! They are read once per process, in [`crate::config()`], where a
//! malformed value is an error (exit status 2). The `MESH_WORKER_*`
//! variables are the parent→worker contract and are set by the fabric
//! itself; they are documented on their constants below.
//!
//! ```bash
//! # 4 supervised worker processes, hung points killed after 30 s:
//! MESH_BENCH_SHARDS=4 MESH_BENCH_TIMEOUT=30 \
//!     cargo run -p mesh-bench --bin fig4 --release
//! ```
//!
//! A binary needs no fabric-specific code: the same call runs on threads
//! by default and on worker processes under `MESH_BENCH_SHARDS`, with the
//! same result.
//!
//! ```
//! use mesh_bench::sweep::try_sweep_labeled;
//!
//! let grid: Vec<u64> = (1..=6).collect();
//! let values = try_sweep_labeled("doc-fabric", &grid, |&n| n * 100).unwrap();
//! assert_eq!(values, vec![100, 200, 300, 400, 500, 600]);
//! ```

use crate::checkpoint::{sanitize, split_record, stable_key_hash, Checkpoint, Checkpointable};
use crate::config::{RunConfig, WorkerConfig};
use crate::sweep::{self, PointFailure, SweepError, Todo, FAIL_POINT_ENV};
use mesh_core::Backoff;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::io::{IsTerminal as _, Read as _, Seek as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Environment variable selecting the worker-process count (the fabric's
/// opt-in). Unset, empty or `0` keeps the in-process runner.
pub const SHARDS_ENV: &str = "MESH_BENCH_SHARDS";

/// Environment variable bounding the wall-clock seconds a worker may go
/// without flushing a finished-point record while points remain (fractions
/// allowed). On expiry the worker is killed, the in-flight point is struck,
/// and the worker restarts from its checkpoint. Unset or empty disables the
/// timeout; any other value must be positive seconds. Only effective in
/// fabric mode — an in-process sweep cannot kill a hung evaluation thread.
pub const TIMEOUT_ENV: &str = "MESH_BENCH_TIMEOUT";

/// Environment variable overriding the executable the fabric re-execs as a
/// worker (default: [`std::env::current_exe`]). Exists for tests — pointing
/// it at a nonexistent path exercises the in-process fallback.
pub const EXE_ENV: &str = "MESH_FABRIC_EXE";

/// Parent→worker: `shard/shards` (e.g. `2/4`). Its presence is what turns a
/// process into a worker — the sweep entry points check it first. A
/// malformed worker environment exits with status 2, never runs as a parent.
pub const WORKER_SHARD_ENV: &str = "MESH_WORKER_SHARD";

/// Parent→worker: the (sanitized) label of the sweep the worker shards.
/// Sweeps with other labels encountered while replaying the binary are
/// resolved from [`WORKER_RESUME_ENV`] instead of evaluated.
pub const WORKER_LABEL_ENV: &str = "MESH_WORKER_LABEL";

/// Parent→worker: the worker's own checkpoint file. Finished points are
/// appended (and flushed) here — the result transport and heartbeat — and
/// reloaded after a restart so a worker never re-evaluates its own work.
pub const WORKER_OUT_ENV: &str = "MESH_WORKER_OUT";

/// Parent→worker: the parent's session checkpoint, holding the merged
/// results of every sweep completed earlier in the parent run (and any
/// user-provided resume records). Read-only from the worker's perspective.
pub const WORKER_RESUME_ENV: &str = "MESH_WORKER_RESUME";

/// Parent→worker: the plan file mapping shard index to assigned point-key
/// hashes (one `<shard> <hash>` line per point, in grid order). Written
/// once per sweep before any worker spawns and never mutated, so parent and
/// restarted workers always agree on the assignment.
pub const WORKER_PLAN_ENV: &str = "MESH_WORKER_PLAN";

/// Parent→worker: comma-separated hex hashes of poisoned points the worker
/// must skip. Grows across restarts as points exhaust their strike budget.
pub const WORKER_SKIP_ENV: &str = "MESH_WORKER_SKIP";

/// Worker exit code meaning "the plan references points this binary run
/// does not have" — possible when a binary reuses one sweep label for two
/// different grids. The parent reacts by falling back to the in-process
/// engine rather than restarting the worker.
const PLAN_MISMATCH_EXIT: i32 = 86;

/// Supervision pacing: polling period for worker output and liveness.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Restart pacing: capped exponential backoff base and cap.
const RESTART_BACKOFF_BASE: Duration = Duration::from_millis(50);
const RESTART_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Consecutive spawn failures on one shard before the fabric gives up and
/// falls back to the in-process engine.
const MAX_SPAWN_FAILURES: u32 = 3;

/// Checkpoint-record label reserved for a worker's embedded telemetry
/// snapshot (key hash = the shard index, payload = hex-encoded
/// [`mesh_obs::wire`] bytes). Sweep labels are user strings, but a
/// collision would require a sweep literally named like this — documented
/// rather than defended against.
const OBS_RECORD_LABEL: &str = "__mesh-obs__";

/// How often a worker rewrites its standalone telemetry files (snapshot
/// sidecar and flight record) between points. The snapshot embedded in
/// every checkpoint record is not throttled: it rides the record's write.
const FLUSH_CADENCE: Duration = Duration::from_secs(1);

/// Grace period a worker whose assignment is complete gets to flush its
/// final telemetry snapshot and timeline and exit on its own before the
/// parent kills it.
const EXIT_GRACE: Duration = Duration::from_secs(2);

/// The worker entrypoint, reached through the ordinary sweep entry points
/// when the [`RunConfig`](crate::RunConfig) holds a worker contract.
///
/// For the **target sweep** (label matches [`WORKER_LABEL_ENV`]) the worker
/// evaluates its planned points in plan order, appending each to its
/// checkpoint, then exits the process with status 0 — the rest of the
/// binary never runs in a worker. Points already in the worker's checkpoint
/// (a restart) or on the skip list (poisoned) are not evaluated.
///
/// Any **other sweep** (one the binary runs before the target) is resolved
/// from the session checkpoint the parent provides; missing records — which
/// only happens if a prior sweep was not itself run through the fabric —
/// are evaluated in-process, serially.
pub(crate) fn worker_sweep<K, V, F>(
    cfg: &WorkerConfig,
    label: &str,
    points: &[K],
    eval: F,
) -> Result<Vec<V>, SweepError>
where
    K: Hash + fmt::Debug,
    V: Checkpointable,
    F: Fn(&K) -> V,
{
    if sanitize(label) != cfg.label {
        // A sweep the binary runs before the target one: serve it from the
        // parent's session store so the binary can proceed to the target.
        let resume = cfg.resume.as_deref().and_then(|p| Checkpoint::open(p).ok());
        return Ok(points
            .iter()
            .map(|key| {
                resume
                    .as_ref()
                    .and_then(|ck| ck.lookup::<V>(label, stable_key_hash(key)))
                    .unwrap_or_else(|| eval(key))
            })
            .collect());
    }

    let mine = match read_plan(&cfg.plan, cfg.shard) {
        Ok(mine) => mine,
        Err(e) => {
            eprintln!("mesh-worker: cannot read plan {}: {e}", cfg.plan.display());
            std::process::exit(PLAN_MISMATCH_EXIT);
        }
    };
    let out = match Checkpoint::open(&cfg.out) {
        Ok(out) => out,
        Err(e) => {
            eprintln!(
                "mesh-worker: cannot open checkpoint {}: {e}",
                cfg.out.display()
            );
            std::process::exit(1);
        }
    };
    // ---- Telemetry plumbing -------------------------------------------
    // The baseline is the cumulative snapshot a previous incarnation of
    // this worker embedded in the checkpoint (empty on a first spawn).
    // Every point record carries `baseline ⊕ live registry` in the same
    // atomic append, so the parent's merge accounts for exactly the points
    // whose records it accepts — a kill mid-point discards that point's
    // partial counter bumps along with its missing record, and the restart
    // re-evaluates it exactly once.
    let obs_on = mesh_obs::enabled();
    let flightrec_on = mesh_obs::flightrec::enabled();
    let obs_baseline: mesh_obs::Snapshot = out
        .lookup_raw(OBS_RECORD_LABEL, cfg.shard as u64)
        .and_then(hex_decode)
        .and_then(|bytes| mesh_obs::wire::decode(&bytes).ok())
        .unwrap_or_default();
    let obs_path = obs_sidecar_path(&cfg.out);
    let flightrec_path = cfg
        .out
        .with_file_name(format!("flightrec-{}.json", cfg.shard));
    if flightrec_on {
        mesh_obs::flightrec::install_panic_dump(flightrec_path.clone());
    }
    let mut last_flush = Instant::now();
    let flush_telemetry = |baseline: &mesh_obs::Snapshot| {
        if obs_on {
            let mut total = baseline.clone();
            total.merge(&mesh_obs::snapshot());
            if let Err(e) = mesh_obs::wire::write_file(&obs_path, &total) {
                eprintln!(
                    "mesh-worker: telemetry flush to {} failed: {e}",
                    obs_path.display()
                );
            }
        }
        if flightrec_on {
            let _ = mesh_obs::flightrec::write_file(&flightrec_path);
        }
    };
    // First occurrence of every distinct key, by stable hash — the parent's
    // own dedupe step, so the worker resolves exactly the planned keys.
    let (_, firsts) = sweep::prefill::<K, V>(label, points, None);
    let by_hash: HashMap<u64, (usize, &K)> = firsts
        .into_iter()
        .map(|(index, key, hash)| (hash, (index, key)))
        .collect();
    let fail_index = crate::config().injected_index(label);
    for hash in mine {
        if cfg.skip.contains(&hash) || out.contains(label, hash) {
            continue;
        }
        let Some(&(index, key)) = by_hash.get(&hash) else {
            eprintln!(
                "mesh-worker: plan for sweep '{label}' names point {hash:016x} \
                 not present in this run's grid"
            );
            std::process::exit(PLAN_MISMATCH_EXIT);
        };
        if flightrec_on {
            mesh_obs::flightrec::event(
                mesh_obs::flightrec::EventKind::Point,
                label,
                index as u64,
                hash,
            );
            // Persist the ring *before* evaluating: a death inside the
            // point (SIGKILL, abort — no panic hook runs) must leave a
            // dump that already names the fatal point, or the supervisor
            // would salvage a record that stops one point short.
            let _ = mesh_obs::flightrec::write_file(&flightrec_path);
        }
        if fail_index == Some(index) {
            panic!("injected failure ({FAIL_POINT_ENV})");
        }
        let value = {
            let _point_span = obs_on
                .then(|| mesh_obs::span_labeled("sweep.point_ns", format!("{label}[{index}]")));
            eval(key)
        };
        let written = if obs_on {
            let mut total = obs_baseline.clone();
            total.merge(&mesh_obs::snapshot());
            out.record_with_sidecar(
                label,
                hash,
                &value.encode(),
                OBS_RECORD_LABEL,
                cfg.shard as u64,
                &hex_encode(&mesh_obs::wire::encode(&total)),
            )
        } else {
            out.record(label, hash, &value)
        };
        if let Err(e) = written {
            eprintln!(
                "mesh-worker: checkpoint write to {} failed: {e}",
                cfg.out.display()
            );
            std::process::exit(1);
        }
        if (obs_on || flightrec_on) && last_flush.elapsed() >= FLUSH_CADENCE {
            flush_telemetry(&obs_baseline);
            last_flush = Instant::now();
        }
    }
    // Shard complete: flush the standalone telemetry files one final time
    // (the parent's fallback when a shard produced no point records) and
    // the per-shard timeline, then exit. Exiting here keeps the worker
    // from replaying the rest of the binary (whose stdout is already
    // nulled, but whose later sweeps would waste work).
    if obs_on || flightrec_on {
        flush_telemetry(&obs_baseline);
    }
    mesh_obs::finish();
    std::process::exit(0);
}

/// Parses the plan file, returning the hashes assigned to `shard`, in plan
/// (= grid) order.
fn read_plan(path: &Path, shard: usize) -> std::io::Result<Vec<u64>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text
        .lines()
        .filter_map(|line| {
            let (s, h) = line.split_once(' ')?;
            let s: usize = s.parse().ok()?;
            let h = u64::from_str_radix(h, 16).ok()?;
            (s == shard).then_some(h)
        })
        .collect())
}

/// Monotonic per-process sweep counter, disambiguating the scratch
/// directories of successive sharded sweeps (including repeated labels).
static SWEEP_SEQ: AtomicUsize = AtomicUsize::new(0);

/// This process's scratch directory: sweep directories, the default
/// session store, and flight records salvaged with no `MESH_OBS_OUT`.
fn fabric_dir() -> PathBuf {
    std::env::temp_dir().join(format!("mesh-fabric-{}", std::process::id()))
}

/// Deletes a sweep's scratch directory when dropped, so every exit path of
/// [`run_sharded`] cleans up: the finished sweep, each fallback to the
/// in-process runner, and an unwind.
struct SweepScratch(PathBuf);

impl Drop for SweepScratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Deletes what sharded sweeps leave behind once the run ends: the default
/// session store, then the per-process scratch directory if that is now
/// empty. A flight record salvaged there for a failed point keeps the
/// directory. The store's path names this process, so it is never a user's
/// `MESH_BENCH_CHECKPOINT` file. Called by [`crate::obs_finish`] and on
/// [`crate::or_exit`]'s error exit.
pub(crate) fn remove_scratch() {
    let _ = std::fs::remove_file(fabric_dir().join("session.ckpt"));
    let _ = std::fs::remove_dir(fabric_dir());
}

/// One supervised worker shard: its assignment, its child process and the
/// incremental state of tailing its checkpoint.
struct Shard {
    index: usize,
    /// Assigned points as (todo index, key hash), in plan order.
    planned: Vec<(usize, u64)>,
    out_path: PathBuf,
    child: Option<Child>,
    /// Bytes of the worker checkpoint consumed so far.
    offset: u64,
    /// Trailing partial line (a record mid-flush) kept for the next poll.
    partial: String,
    /// Last heartbeat: spawn time or last new checkpoint bytes.
    last_beat: Instant,
    restarts: u32,
    spawn_failures: u32,
    backoff_until: Option<Instant>,
    finished: bool,
    /// Latest embedded telemetry snapshot (hex wire bytes) tailed from the
    /// worker checkpoint; rides every point record, so it is exact for the
    /// records the parent accepted.
    obs_line: Option<String>,
    /// Per-shard Chrome-trace file the worker writes on clean exit;
    /// `None` when the parent's timeline exporter is off.
    trace_path: Option<PathBuf>,
    /// When the shard's assignment first became complete while its worker
    /// was still running — starts the [`EXIT_GRACE`] clock.
    done_since: Option<Instant>,
}

impl Shard {
    /// When the shard may respawn after its `attempt`-th consecutive
    /// failure: capped exponential backoff with per-shard jitter.
    fn backoff(&self, attempt: u32) -> Instant {
        Instant::now()
            + Backoff::exponential(RESTART_BACKOFF_BASE, RESTART_BACKOFF_CAP)
                .with_seed(self.index as u64)
                .delay(attempt)
    }

    /// Counts a worker death and schedules the respawn.
    fn schedule_restart(&mut self, obs_on: bool) {
        self.restarts += 1;
        if obs_on {
            mesh_obs::counter("fabric.workers_restarted").inc();
        }
        self.backoff_until = Some(self.backoff(self.restarts));
    }
}

/// Lowercase-hex encodes arbitrary bytes for embedding in a single-line
/// checkpoint record.
fn hex_encode(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// Inverse of [`hex_encode`]; `None` on odd length or non-hex input (a
/// torn or foreign record).
fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    s.as_bytes()
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).ok()?, 16).ok())
        .collect()
}

/// The standalone telemetry-snapshot file a worker writes next to its
/// checkpoint (`shard-0.ckpt` → `shard-0.obs`) at the flush cadence and on
/// clean exit — the parent's fallback when a shard embedded no snapshot.
fn obs_sidecar_path(out_path: &Path) -> PathBuf {
    out_path.with_extension("obs")
}

/// Kills and reaps every still-running worker; called on every exit path
/// from the supervision loop (success, poison-failure and fallback alike).
fn reap(shards: &mut [Shard]) {
    for shard in shards.iter_mut() {
        if let Some(mut child) = shard.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Each point's reference group: points with equal `reference_key`
/// fingerprints share a group, and groups are numbered in first-occurrence
/// order, so the assignment is deterministic.
fn group_by_reference<K>(points: &[K], reference_key: &dyn Fn(&K) -> u128) -> Vec<u64> {
    let mut group_of_fp: HashMap<u128, u64> = HashMap::new();
    points
        .iter()
        .map(|key| {
            let next = group_of_fp.len() as u64;
            *group_of_fp.entry(reference_key(key)).or_insert(next)
        })
        .collect()
}

/// The parent entrypoint: shards `points` across `shards` supervised worker
/// processes and performs the deterministic last-wins merge. See the
/// [module docs](self) for the protocol; on any spawn failure the sweep
/// completes on the in-process runner instead of erroring.
///
/// `reference_key`, when given, is the reference key of
/// [`crate::sweep::sweep_with_references`]: each point's group (see
/// [`group_by_reference`]) lands on shard `group % shards`, so a
/// sub-evaluation a group shares (an ISS reference) is computed once per
/// *sweep* rather than once per *shard*. Without a key the points are dealt
/// round-robin.
pub(crate) fn run_sharded<K, V, F>(
    label: &str,
    points: &[K],
    user_ck: Option<&Checkpoint>,
    shards: usize,
    reference_key: Option<&dyn Fn(&K) -> u128>,
    config: &RunConfig,
    eval: F,
) -> Result<Vec<V>, SweepError>
where
    K: Hash + Sync + fmt::Debug,
    V: Checkpointable + Clone + Send,
    F: Fn(&K) -> V + Sync,
{
    let slabel = sanitize(label);
    let obs_on = mesh_obs::enabled();

    // `merged` maps key hash -> finished value; everything resolvable from
    // the user checkpoint starts there, and worker records land there too.
    let (mut merged, todo) = sweep::prefill::<K, V>(label, points, user_ck);
    let unique = merged.len() + todo.len();
    if obs_on {
        mesh_obs::gauge("sweep.points_total").set(points.len() as u64);
        mesh_obs::gauge("fabric.shards").set(shards as u64);
    }

    if todo.is_empty() {
        return sweep::assemble(label, points, &merged, Vec::new());
    }

    // ---- Scratch: plan file, worker checkpoints, session store --------
    let seq = SWEEP_SEQ.fetch_add(1, Ordering::Relaxed);
    let fabric_dir = fabric_dir();
    let sweep_dir = fabric_dir.join(format!("{slabel}-{seq}"));
    let _scratch = SweepScratch(sweep_dir.clone());
    let session_own: Checkpoint;
    let session: &Checkpoint;
    let session_path: PathBuf;
    let plan_path = sweep_dir.join("plan.txt");
    // The shard of each `todo` entry. Both the plan file and the
    // supervision state derive from this one vector, so parent and workers
    // always agree.
    let groups = reference_key.map(|key| group_by_reference(points, key));
    let assignment: Vec<usize> = todo
        .iter()
        .enumerate()
        .map(|(j, &(index, _, _))| match &groups {
            Some(groups) => (groups[index] % shards as u64) as usize,
            None => j % shards,
        })
        .collect();
    {
        let prepared: std::io::Result<()> = (|| {
            std::fs::create_dir_all(&sweep_dir)?;
            let plan: String = todo
                .iter()
                .enumerate()
                .map(|(j, &(_, _, hash))| format!("{} {hash:016x}\n", assignment[j]))
                .collect();
            std::fs::write(&plan_path, plan)
        })();
        if let Err(e) = prepared {
            eprintln!(
                "mesh-bench: fabric scratch dir {} unusable ({e}); \
                 falling back to the in-process engine",
                sweep_dir.display()
            );
            return fallback(label, points, user_ck, config, merged, eval);
        }
    }
    match user_ck {
        Some(ck) => {
            session = ck;
            session_path = ck.path().to_path_buf();
        }
        None => {
            session_path = fabric_dir.join("session.ckpt");
            match Checkpoint::open(&session_path) {
                Ok(ck) => {
                    session_own = ck;
                    session = &session_own;
                }
                Err(e) => {
                    eprintln!(
                        "mesh-bench: fabric session store {} unusable ({e}); \
                         falling back to the in-process engine",
                        session_path.display()
                    );
                    return fallback(label, points, user_ck, config, merged, eval);
                }
            }
        }
    }

    // ---- Supervision state --------------------------------------------
    let timeline_on = mesh_obs::chrome::timeline_enabled();
    let mut worker_shards: Vec<Shard> = (0..shards)
        .map(|i| Shard {
            index: i,
            planned: todo
                .iter()
                .enumerate()
                .filter(|&(j, _)| assignment[j] == i)
                .map(|(j, &(_, _, hash))| (j, hash))
                .collect(),
            out_path: sweep_dir.join(format!("shard-{i}.ckpt")),
            child: None,
            offset: 0,
            partial: String::new(),
            last_beat: Instant::now(),
            restarts: 0,
            spawn_failures: 0,
            backoff_until: None,
            finished: false,
            obs_line: None,
            trace_path: timeline_on.then(|| sweep_dir.join(format!("trace-shard-{i}.json"))),
            done_since: None,
        })
        .collect();
    let max_attempts = config.retries + 1;
    let progress = config.progress || std::io::stderr().is_terminal();
    let sweep_start = Instant::now();
    let mut strikes: HashMap<u64, u32> = HashMap::new();
    let mut poisoned: HashSet<u64> = HashSet::new();
    let mut failures: Vec<PointFailure> = Vec::new();
    let mut reported = merged.len();

    // ---- Supervision loop ---------------------------------------------
    loop {
        let mut all_finished = true;
        for s in 0..worker_shards.len() {
            let shard = &mut worker_shards[s];
            if shard.finished {
                continue;
            }
            // Drain new records first, so a death right after a flush still
            // credits the finished point before the strike is assessed.
            let drained = drain_records(shard, &slabel);
            if !drained.is_empty() {
                shard.last_beat = Instant::now();
                for (hash, encoded) in drained {
                    accept_record::<V>(
                        &slabel,
                        hash,
                        &encoded,
                        &todo,
                        &mut merged,
                        session,
                        obs_on,
                    );
                }
                if obs_on {
                    let done = worker_shards[s]
                        .planned
                        .iter()
                        .filter(|(_, h)| merged.contains_key(h))
                        .count();
                    mesh_obs::gauge(&format!("fabric.shard{s}.done")).set(done as u64);
                }
            }
            let shard = &mut worker_shards[s];
            let pending: Vec<(usize, u64)> = shard
                .planned
                .iter()
                .filter(|(_, h)| !merged.contains_key(h) && !poisoned.contains(h))
                .copied()
                .collect();
            if pending.is_empty() {
                // Assignment complete. A still-running worker gets a short
                // grace period to flush its final telemetry snapshot and
                // per-shard timeline and exit on its own; only an
                // overstaying worker (e.g. one whose last point was
                // poisoned, so it never reaches its own exit) is killed.
                let running = shard
                    .child
                    .as_mut()
                    .is_some_and(|c| matches!(c.try_wait(), Ok(None)));
                if running {
                    let since = *shard.done_since.get_or_insert_with(Instant::now);
                    if since.elapsed() < EXIT_GRACE {
                        all_finished = false;
                        continue;
                    }
                }
                if let Some(mut child) = shard.child.take() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                shard.finished = true;
                continue;
            }
            all_finished = false;

            match shard.child.as_mut().map(|c| c.try_wait()) {
                // No worker running: (re)spawn once any backoff has elapsed.
                None => {
                    if shard
                        .backoff_until
                        .is_some_and(|until| Instant::now() < until)
                    {
                        continue;
                    }
                    let skip_csv = poisoned
                        .iter()
                        .map(|h| format!("{h:016x}"))
                        .collect::<Vec<_>>()
                        .join(",");
                    match spawn_worker(
                        shard.index,
                        shards,
                        &slabel,
                        &shard.out_path,
                        &plan_path,
                        &session_path,
                        &skip_csv,
                        shard.trace_path.as_deref(),
                    ) {
                        Ok(child) => {
                            shard.child = Some(child);
                            shard.last_beat = Instant::now();
                            shard.backoff_until = None;
                            shard.spawn_failures = 0;
                            if obs_on {
                                mesh_obs::counter("fabric.workers_spawned").inc();
                            }
                        }
                        Err(e) => {
                            shard.spawn_failures += 1;
                            if shard.spawn_failures >= MAX_SPAWN_FAILURES {
                                eprintln!(
                                    "mesh-bench: cannot spawn fabric worker for sweep \
                                     '{label}' ({e}); falling back to the in-process engine"
                                );
                                reap(&mut worker_shards);
                                absorb_workers(&mut worker_shards, &slabel);
                                return fallback(label, points, user_ck, config, merged, eval);
                            }
                            shard.backoff_until = Some(shard.backoff(shard.spawn_failures));
                        }
                    }
                }
                // Worker exited: credit, then strike the in-flight point.
                Some(Ok(Some(status))) => {
                    let _ = shard.child.take().map(|mut c| c.wait());
                    if status.code() == Some(PLAN_MISMATCH_EXIT) {
                        eprintln!(
                            "mesh-bench: fabric worker reported a plan mismatch for sweep \
                             '{label}'; falling back to the in-process engine"
                        );
                        reap(&mut worker_shards);
                        absorb_workers(&mut worker_shards, &slabel);
                        return fallback(label, points, user_ck, config, merged, eval);
                    }
                    // A clean exit with points still pending means the
                    // worker believed it was done (it skipped them) or died
                    // between points; both are strikes on the first pending
                    // point, like any other death.
                    let (todo_idx, hash) = pending[0];
                    let reason = if status.success() {
                        "worker exited without recording the point".to_string()
                    } else {
                        format!("worker died ({status})")
                    };
                    let flight = salvage_flight_record(&sweep_dir, &slabel, seq, s);
                    strike(
                        label,
                        &todo[todo_idx],
                        hash,
                        reason,
                        flight,
                        max_attempts,
                        &mut strikes,
                        &mut poisoned,
                        &mut failures,
                        obs_on,
                    );
                    shard.schedule_restart(obs_on);
                }
                // Worker running: enforce the heartbeat timeout.
                Some(Ok(None)) => {
                    if let Some(limit) = config.timeout {
                        if shard.last_beat.elapsed() > limit {
                            if let Some(mut child) = shard.child.take() {
                                let _ = child.kill();
                                let _ = child.wait();
                            }
                            // One final drain: the kill may have raced a
                            // flush, and a credited point must not be
                            // struck.
                            for (hash, encoded) in drain_records(&mut worker_shards[s], &slabel) {
                                accept_record::<V>(
                                    &slabel,
                                    hash,
                                    &encoded,
                                    &todo,
                                    &mut merged,
                                    session,
                                    obs_on,
                                );
                            }
                            let shard = &mut worker_shards[s];
                            if let Some(&(todo_idx, hash)) =
                                pending.iter().find(|(_, h)| !merged.contains_key(h))
                            {
                                if obs_on {
                                    mesh_obs::counter("fabric.points_timed_out").inc();
                                }
                                let flight = salvage_flight_record(&sweep_dir, &slabel, seq, s);
                                strike(
                                    label,
                                    &todo[todo_idx],
                                    hash,
                                    format!(
                                        "no heartbeat for {:.1}s ({TIMEOUT_ENV}={:.1}s); worker killed",
                                        shard.last_beat.elapsed().as_secs_f64(),
                                        limit.as_secs_f64()
                                    ),
                                    flight,
                                    max_attempts,
                                    &mut strikes,
                                    &mut poisoned,
                                    &mut failures,
                                    obs_on,
                                );
                            }
                            shard.schedule_restart(obs_on);
                        }
                    }
                }
                Some(Err(_)) => {
                    // try_wait failed — treat as a death.
                    let _ = shard.child.take().map(|mut c| {
                        let _ = c.kill();
                        c.wait()
                    });
                }
            }
        }

        if obs_on {
            mesh_obs::gauge("sweep.points_done").set((merged.len().min(points.len())) as u64);
        }
        if progress && merged.len() != reported {
            reported = merged.len();
            let elapsed = sweep_start.elapsed().as_secs_f64();
            eprintln!(
                "mesh-bench {label}: {reported}/{unique} unique points \
                 (fabric: {shards} shards, {elapsed:.1}s elapsed)"
            );
        }
        if all_finished {
            break;
        }
        std::thread::sleep(POLL_INTERVAL);
    }
    reap(&mut worker_shards);
    absorb_workers(&mut worker_shards, &slabel);
    sweep::assemble(label, points, &merged, failures)
}

/// Accepts one record tailed from a worker checkpoint: decode, merge
/// (last-wins) and append to the session store the first time the point
/// completes.
fn accept_record<V: Checkpointable>(
    slabel: &str,
    hash: u64,
    encoded: &str,
    todo: &Todo<'_, impl fmt::Debug>,
    merged: &mut HashMap<u64, V>,
    session: &Checkpoint,
    obs_on: bool,
) {
    if !todo.iter().any(|&(_, _, h)| h == hash) {
        return;
    }
    let Some(value) = V::decode(encoded) else {
        return; // torn or foreign bytes; the point stays pending
    };
    let fresh = merged.insert(hash, value).is_none();
    if fresh {
        if let Err(e) = session.record_raw(slabel, hash, encoded) {
            eprintln!(
                "mesh-bench: session checkpoint write to {} failed: {e}",
                session.path().display()
            );
        }
        if obs_on {
            mesh_obs::counter("fabric.records_merged").inc();
        }
    }
}

/// Folds every worker's telemetry into this process's exporters: the
/// latest embedded snapshot per shard (or the standalone `.obs` sidecar
/// file when a shard embedded none) into the merged `MESH_OBS_OUT` report,
/// and each per-shard Chrome trace into the unified timeline as its own
/// process track. Called on every exit path from the supervision loop,
/// after reaping and before the scratch directory is removed. Best-effort
/// throughout — a shard killed before its first flush simply contributes
/// nothing.
fn absorb_workers(shards: &mut [Shard], slabel: &str) {
    let obs_on = mesh_obs::enabled();
    let timeline_on = mesh_obs::chrome::timeline_enabled();
    if !obs_on && !timeline_on {
        return;
    }
    for shard in shards.iter_mut() {
        // One last tail: a final flush may have landed between the loop's
        // last poll and the reap.
        let _ = drain_records(shard, slabel);
        if obs_on {
            let embedded = shard
                .obs_line
                .as_deref()
                .and_then(hex_decode)
                .and_then(|bytes| mesh_obs::wire::decode(&bytes).ok());
            let absorbed = match embedded {
                Some(snap) => Some((format!("shard {} (embedded)", shard.index), snap)),
                None => mesh_obs::wire::read_file(&obs_sidecar_path(&shard.out_path))
                    .ok()
                    .map(|snap| (format!("shard {} (file)", shard.index), snap)),
            };
            if let Some((origin, snap)) = absorbed {
                mesh_obs::report::absorb_worker(origin, snap);
            }
        }
        if let Some(trace_path) = &shard.trace_path {
            // Missing or torn traces (a worker killed before its exit
            // flush) are expected; the merged timeline just lacks that
            // shard's incarnation.
            let _ = mesh_obs::chrome::absorb_file(&format!("shard {}", shard.index), trace_path);
        }
    }
}

/// Copies a dead worker's flight-recorder dump out of the (soon-deleted)
/// sweep scratch directory, returning the preserved path: into the
/// `MESH_OBS_OUT` directory when set, next to the scratch (the per-process
/// fabric directory, which [`remove_scratch`] then keeps) otherwise.
/// `None` when the worker never flushed a ring — e.g. the recorder is off.
fn salvage_flight_record(
    sweep_dir: &Path,
    slabel: &str,
    seq: usize,
    shard: usize,
) -> Option<String> {
    let src = sweep_dir.join(format!("flightrec-{shard}.json"));
    if !src.exists() {
        return None;
    }
    let dest_dir = match mesh_obs::report::out_dir() {
        Some(dir) => dir.to_path_buf(),
        None => sweep_dir.parent()?.to_path_buf(),
    };
    std::fs::create_dir_all(&dest_dir).ok()?;
    let dest = dest_dir.join(format!("flightrec-{slabel}-{seq}-shard{shard}.json"));
    std::fs::copy(&src, &dest).ok()?;
    Some(dest.display().to_string())
}

/// Registers one strike against a point; on budget exhaustion the point is
/// poisoned and converted to a [`PointFailure`] carrying the salvaged
/// flight-recorder dump, when one exists.
#[allow(clippy::too_many_arguments)]
fn strike<K: fmt::Debug>(
    label: &str,
    point: &(usize, &K, u64),
    hash: u64,
    reason: String,
    flight_record: Option<String>,
    max_attempts: u32,
    strikes: &mut HashMap<u64, u32>,
    poisoned: &mut HashSet<u64>,
    failures: &mut Vec<PointFailure>,
    obs_on: bool,
) {
    let count = strikes.entry(hash).or_insert(0);
    *count += 1;
    let &(index, key, _) = point;
    if *count >= max_attempts {
        poisoned.insert(hash);
        if obs_on {
            mesh_obs::counter("fabric.points_poisoned").inc();
        }
        eprintln!(
            "mesh-bench: poisoning point #{index} {key:?} of sweep '{label}' \
             after {count} attempt(s): {reason}"
        );
        if let Some(rec) = &flight_record {
            eprintln!("mesh-bench: flight record for point #{index}: {rec}");
        }
        failures.push(PointFailure {
            label: label.to_string(),
            index,
            coordinates: format!("{key:?}"),
            payload: format!("poisoned: {reason}"),
            attempts: *count,
            flight_record,
        });
    } else {
        eprintln!(
            "mesh-bench: point #{index} {key:?} of sweep '{label}' killed its worker \
             ({reason}); retrying on a fresh worker \
             (attempt {count} of {max_attempts})"
        );
    }
}

/// Spawns one worker: a re-exec of the current binary (or [`EXE_ENV`]) with
/// the same argv, stdout nulled (the parent owns the sweep's output), and
/// the `MESH_WORKER_*` contract in the environment.
#[allow(clippy::too_many_arguments)]
fn spawn_worker(
    shard: usize,
    shards: usize,
    slabel: &str,
    out_path: &Path,
    plan_path: &Path,
    session_path: &Path,
    skip_csv: &str,
    trace_path: Option<&Path>,
) -> std::io::Result<Child> {
    let exe = match &crate::config().fabric_exe {
        Some(exe) => exe.clone(),
        None => std::env::current_exe()?,
    };
    let mut cmd = Command::new(exe);
    cmd.args(std::env::args_os().skip(1))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .env(WORKER_SHARD_ENV, format!("{shard}/{shards}"))
        .env(WORKER_LABEL_ENV, slabel)
        .env(WORKER_OUT_ENV, out_path)
        .env(WORKER_PLAN_ENV, plan_path)
        .env(WORKER_RESUME_ENV, session_path)
        .env(WORKER_SKIP_ENV, skip_csv)
        // The worker must neither re-enter the fabric nor append to the
        // user's checkpoint: its own out-file is its checkpoint.
        .env_remove(SHARDS_ENV)
        .env_remove(crate::sweep::CHECKPOINT_ENV)
        // The parent owns the unified metrics report; workers feed it
        // through their checkpoint sidecars and `.obs` files instead.
        .env_remove(mesh_obs::OUT_ENV);
    if mesh_obs::enabled() {
        cmd.env(mesh_obs::OBS_ENV, "1");
    }
    match trace_path {
        // Per-shard timeline the parent merges; overrides any inherited
        // parent trace path (all workers writing one file would race).
        Some(path) => {
            cmd.env(mesh_obs::TRACE_ENV, path);
        }
        None => {
            cmd.env_remove(mesh_obs::TRACE_ENV);
        }
    }
    cmd.spawn()
}

/// Tails a worker checkpoint: returns every *complete* new line's record
/// for `slabel`, keeping a trailing partial line for the next poll.
/// Embedded telemetry-snapshot lines ([`OBS_RECORD_LABEL`]) are captured
/// into the shard state (latest wins) rather than returned.
fn drain_records(shard: &mut Shard, slabel: &str) -> Vec<(u64, String)> {
    let Ok(mut file) = std::fs::File::open(&shard.out_path) else {
        return Vec::new(); // not created yet
    };
    if file.seek(std::io::SeekFrom::Start(shard.offset)).is_err() {
        return Vec::new();
    }
    let mut new_bytes = String::new();
    let Ok(read) = file.read_to_string(&mut new_bytes) else {
        return Vec::new(); // invalid UTF-8 mid-flush: retry next poll
    };
    shard.offset += read as u64;
    shard.partial.push_str(&new_bytes);
    let mut records = Vec::new();
    while let Some(nl) = shard.partial.find('\n') {
        let line: String = shard.partial.drain(..=nl).collect();
        if let Some((label, hash, encoded)) = split_record(line.trim_end()) {
            if label == slabel {
                records.push((hash, encoded.to_string()));
            } else if label == OBS_RECORD_LABEL && hash == shard.index as u64 {
                shard.obs_line = Some(encoded.to_string());
            }
        }
    }
    records
}

/// Finishes the sweep on the in-process runner, reusing everything the
/// workers already produced — the graceful-degradation path for
/// environments where process spawning is unavailable.
fn fallback<K, V, F>(
    label: &str,
    points: &[K],
    user_ck: Option<&Checkpoint>,
    config: &RunConfig,
    merged: HashMap<u64, V>,
    eval: F,
) -> Result<Vec<V>, SweepError>
where
    K: Hash + Sync + fmt::Debug,
    V: Checkpointable + Clone + Send,
    F: Fn(&K) -> V + Sync,
{
    if mesh_obs::enabled() {
        mesh_obs::counter("fabric.fallbacks").inc();
    }
    // A Mutex (rather than a shared map) keeps `V: Sync` out of the sweep
    // entry points' bounds; the runner evaluates each unique key once, so
    // `remove` hands the worker's value over without cloning.
    let merged = Mutex::new(merged);
    sweep::run_points(label, points, user_ck, config, |key| {
        let salvaged = merged
            .lock()
            .expect("fabric fallback map poisoned")
            .remove(&stable_key_hash(key));
        salvaged.unwrap_or_else(|| eval(key))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_is_deterministic_and_first_occurrence_ordered() {
        let points = vec![(0u64, 0u64), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)];
        let groups = group_by_reference(&points, &|&(machine, _)| u128::from(machine + 7));
        assert_eq!(groups, vec![0, 0, 1, 0, 1, 2]);
    }

    #[test]
    fn plan_round_trips_and_filters_by_shard() {
        let dir = std::env::temp_dir().join(format!("mesh-fabric-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.txt");
        let hashes: Vec<u64> = (0..10).map(|i| stable_key_hash(&(i as u64))).collect();
        let plan: String = hashes
            .iter()
            .enumerate()
            .map(|(j, h)| format!("{} {h:016x}\n", j % 3))
            .collect();
        std::fs::write(&path, plan).unwrap();
        for shard in 0..3 {
            let mine = read_plan(&path, shard).unwrap();
            let expect: Vec<u64> = hashes
                .iter()
                .enumerate()
                .filter(|(j, _)| j % 3 == shard)
                .map(|(_, &h)| h)
                .collect();
            assert_eq!(mine, expect, "shard {shard} assignment in plan order");
        }
        // Shards beyond the plan are empty, and garbage lines are ignored.
        assert!(read_plan(&path, 7).unwrap().is_empty());
        std::fs::write(&path, "not a plan\n1 zzzz\n2 00000000000000ff\n").unwrap();
        assert_eq!(read_plan(&path, 2).unwrap(), vec![0xff]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
