//! End-to-end identity checks for the caching tiers: a comparison point
//! must produce the same simulated numbers with the result cache off and
//! populating; a result-memo replay (from disk or from the in-process memo)
//! must reproduce the populating point *exactly* (recorded wall clocks
//! included); a shared-reference sweep's stdout must be byte-identical
//! across {sub-memo cold, sub-memo warm, sharded over a warm memo}, and a
//! cold sharded run must agree on every simulated column and simulate the
//! shared reference once; the four shared-reference binaries must walk
//! each task's cache once, in process and sharded; distinct hybrid knob
//! settings must never collide within the hybrid leg's domain; the workload
//! fingerprint, which keys the trace cache a profile is read from, must
//! cover every input a profile depends on and no bus or I/O timing; the
//! `multi_resource` binary must print the same bytes with and
//! without a cache and replay a warm one without simulating, and compile
//! each distinct trace once at any worker count; and the keys of the
//! cycle-accurate and hybrid legs — whose callers include every
//! `multi_resource` point, every `noc_sweep` schedule and every
//! `ablation_models` row — must separate every input that changes them.
//!
//! `compare` must also store its legs under the keys earlier builds pinned,
//! `compare_each` must equal `compare` on each of its machines, a leg
//! replayed from disk must read back in process as the stored value,
//! a single flipped bit in any integer field of a workload must move every
//! key over it, a cold `fig6` must make the same number of key passes at
//! any worker count and a warm one a single pass per workload row,
//! `fig6` must resume a failed row byte-identically, and `noc_sweep` must
//! fill each distinct adversarial schedule once, cold and warm, at any
//! worker count.
//!
//! The in-process tests that set the process-global cache configuration
//! or empty the in-process memo hold one lock and run in sequence; the
//! stdout legs spawn `subeval_demo`, `multi_resource` and the other
//! binaries, so each gets a pristine process.

use mesh_annotate::AnnotationPolicy;
use mesh_arch::{Arbitration, BusConfig, CacheConfig, IoConfig, MachineConfig, ProcConfig};
use mesh_bench::memo::Origin;
use mesh_bench::{
    ablation_models, compare, compare_each, fft_machine, hybrid_fp, iss_reference_fp, memo,
    ComparisonPoint, HybridOptions, IssRef, FFT_BUS_DELAY,
};
use mesh_core::model::ContentionModel;
use mesh_cyclesim::{workload_fingerprint, Pacing};
use mesh_models::{ChenLinBus, Md1Queue, Mm1Queue};
use mesh_workloads::fft::{self, FftConfig};
use mesh_workloads::{MemPattern, Segment, SegmentKind, TaskProgram, Workload};
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// A `mesh-cache-identity-*` directory in the temp directory, emptied when
/// made and removed when dropped: after a test's last assertion, and also
/// when an assertion fails or the test otherwise unwinds.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("mesh-cache-identity-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Serializes the tests that set the process-global result cache or empty
/// the in-process memo.
fn global_cache() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The simulation-determined fields — everything except the two measured
/// wall clocks, which legitimately differ run to run. Floats are compared
/// as bit patterns: the caches must be bit-exact, not merely close.
fn deterministic_fields(p: &ComparisonPoint) -> [u64; 9] {
    [
        p.iss_pct.to_bits(),
        p.mesh_pct.to_bits(),
        p.analytical_pct.to_bits(),
        p.iss_cycles,
        p.mesh_cycles.to_bits(),
        p.mesh_regions,
        p.mesh_slices,
        p.work_cycles,
        p.misses,
    ]
}

fn point() -> ComparisonPoint {
    let workload = fft::build(&FftConfig::with_threads(2));
    let machine = fft_machine(2, 8 * 1024, 4);
    compare(&workload, &machine, HybridOptions::default())
}

#[test]
fn results_identical_across_cache_configurations() {
    let _global = global_cache();
    let tmp = TempDir::new("memo");
    let memo_dir = tmp.path();

    // Leg 1: no memo — the plain in-process baseline. The in-process memo
    // is cleared so this process actually simulates.
    memo::set_result_cache(None);
    mesh_cyclesim::trace::clear_cache();
    memo::clear_subeval_lru();
    let baseline = point();
    assert!(!baseline.replayed, "cold compare is not a replay");

    // Leg 2: result memo — the populating run computes and stores its
    // sub-evaluations, the replay must be the recorded point verbatim, wall
    // clocks included.
    memo::set_result_cache(Some(memo_dir));
    memo::clear_subeval_lru();
    let populate = point();
    assert!(!populate.replayed, "populating run computed its legs");
    memo::clear_subeval_lru();
    let hits_before = memo::stats().hits;
    let replay = point();
    assert!(
        memo::stats().hits > hits_before,
        "second memo run must hit the persistent result cache"
    );
    assert!(replay.replayed, "disk replay carries the provenance flag");
    assert_eq!(replay, populate, "memo replay must be the recorded point");
    assert_eq!(
        replay.iss_wall, populate.iss_wall,
        "replayed wall clocks are the recorded ones"
    );
    assert_eq!(replay.mesh_wall, populate.mesh_wall);
    assert_eq!(
        deterministic_fields(&populate),
        deterministic_fields(&baseline),
        "memoized run diverged from the uncached baseline"
    );

    // Leg 3: in-process memo — with the memo left warm, the point is served
    // without touching disk.
    let lru_before = memo::stats().lru_hits;
    let lru = point();
    assert!(
        memo::stats().lru_hits > lru_before,
        "warm-LRU run must hit the in-process tier"
    );
    assert!(lru.replayed);
    assert_eq!(lru, populate, "LRU replay must be the recorded point");

    memo::set_result_cache(None);
}

/// `compare_each` is `compare` on each machine in turn. The row and the
/// single points each run over an emptied in-process memo with no result
/// cache, so neither side reads a leg the other computed.
#[test]
fn compare_each_is_compare_on_each_machine() {
    let workload = fft::build(&FftConfig {
        points: 4096,
        threads: 2,
        ..FftConfig::default()
    });
    let machines = [fft_machine(2, 8 * 1024, 4), fft_machine(2, 8 * 1024, 9)];
    let options = HybridOptions::default();
    let _global = global_cache();
    memo::set_result_cache(None);
    memo::clear_subeval_lru();
    let row = compare_each(&workload, &machines, options);
    memo::clear_subeval_lru();
    let lru_before = memo::stats().lru_hits;
    let points: Vec<ComparisonPoint> = machines
        .iter()
        .map(|machine| compare(&workload, machine, options))
        .collect();
    assert_eq!(memo::stats().lru_hits, lru_before, "every leg computed");
    assert_eq!(row.len(), machines.len());
    for (at, (got, want)) in row.iter().zip(&points).enumerate() {
        assert_eq!(
            deterministic_fields(got),
            deterministic_fields(want),
            "{at}"
        );
    }
    assert_ne!(row[0].iss_pct, row[1].iss_pct, "the bus delay mattered");
    assert!(compare_each(&workload, &[], options).is_empty());
}

/// A leg replayed from the result cache fills its in-process cell, and a
/// later read in the process decodes that cell to the stored value.
#[test]
fn a_replayed_leg_reads_back_in_process() {
    const FP: u128 = 0x51F1_0000_0000_0000_0000_0000_0000_0200;
    let stored = IssRef {
        pct: 12.345,
        wall: Duration::new(1, 234_567_891),
        cycles: 98_765,
        bus_queuing: 4_321,
        io_queuing: 0,
    };
    let replays = || -> IssRef { panic!("the leg replays") };
    let _global = global_cache();
    let tmp = TempDir::new("replayed-leg");
    memo::set_result_cache(Some(tmp.path()));
    memo::clear_subeval_lru();
    assert_eq!(
        memo::memoize_flagged(FP, || stored),
        (stored, Origin::Computed)
    );
    memo::clear_subeval_lru();
    let before = memo::stats();
    assert_eq!(
        memo::memoize_flagged(FP, replays),
        (stored, Origin::Persisted)
    );
    assert_eq!(
        memo::memoize_flagged(FP, replays),
        (stored, Origin::Persisted)
    );
    let after = memo::stats();
    assert_eq!(after.hits - before.hits, 1, "one read from disk");
    assert_eq!(after.lru_hits - before.lru_hits, 1, "one read in process");
    memo::set_result_cache(None);
}

/// A persistent result cache written by an earlier build keeps replaying
/// only while every key stays bit-identical. These are one small
/// scenario's keys as earlier builds computed them, read back as the names
/// of the entries `compare` itself stores, so editing the arguments of any
/// of its legs fails here. The public keys name the same entries. The pins
/// were re-taken when the keys moved from byte-wise FNV-1a to the
/// word-at-a-time [`mesh_cyclesim::KeyHasher`]: every key covers the same
/// inputs as before, but caches written by earlier builds no longer replay.
/// The annotation profile the hybrid and analytical legs fold is read from
/// the trace cache and stores no entry of its own.
#[test]
fn memo_keys_stay_pinned() {
    const ISS: u128 = 0x3e28b4f4f06e98d18ec23874ada7f585;
    const HYBRID: u128 = 0x7fc08fac3a1fedab93c83b493ff693a1;
    const ANALYTICAL: u128 = 0x228553ddda66cb2cea1a3f37870121e1;
    let workload = fft::build(&FftConfig {
        points: 1024,
        threads: 2,
        ..FftConfig::default()
    });
    let machine = fft_machine(2, 8 * 1024, 4);
    let options = HybridOptions {
        policy: AnnotationPolicy::EverySegments(3),
        min_timeslice: 250.0,
    };
    assert_eq!(iss_reference_fp(&workload, &machine), ISS);
    let chen_lin = ChenLinBus::new();
    assert_eq!(
        hybrid_fp(&workload, &machine, &chen_lin, None, options, &[]),
        HYBRID
    );

    let _global = global_cache();
    let tmp = TempDir::new("pins");
    let memo_dir = tmp.path();
    memo::set_result_cache(Some(memo_dir));
    memo::clear_subeval_lru();
    compare(&workload, &machine, options);
    memo::set_result_cache(None);
    let mut stored: Vec<String> = std::fs::read_dir(memo_dir)
        .expect("read the result cache")
        .map(|e| e.expect("list the result cache").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .collect();
    stored.sort();
    let mut pinned: Vec<String> = [ISS, HYBRID, ANALYTICAL]
        .iter()
        .map(|fp| format!("{fp:032x}.res"))
        .collect();
    pinned.sort();
    assert_eq!(stored, pinned, "compare stored its legs under other keys");
}

/// Two tasks exercising every segment and pattern field.
fn profile_workload() -> Workload {
    let mut w = Workload::new();
    let bar = w.add_barrier(2);
    for t in 0..2u64 {
        w.add_task(
            TaskProgram::new(format!("t{t}"))
                .with_segment(
                    Segment::work(100)
                        .with_pattern(MemPattern::Strided {
                            base: t << 20,
                            stride: 32,
                            count: 16,
                        })
                        .with_pattern(MemPattern::Random {
                            base: 1 << 24,
                            span: 4096,
                            count: 8,
                            seed: t,
                        })
                        .with_io(2)
                        .with_barrier(bar),
                )
                .with_segment(Segment::idle(50))
                .with_segment(Segment::work(30)),
        );
    }
    w
}

fn profile_machine() -> MachineConfig {
    let cache = CacheConfig::new(8 * 1024, 32, 4).unwrap();
    MachineConfig::homogeneous(2, ProcConfig::new(cache), BusConfig::new(4))
}

/// A named, single-field edit of a workload.
type Edit = (String, Box<dyn Fn(&mut Workload)>);

/// Every way to edit one field of one segment or pattern of task `t`.
fn segment_edits(t: usize) -> Vec<Edit> {
    fn edit(name: &str, t: usize, f: impl Fn(&mut Vec<Segment>) + 'static) -> Edit {
        (
            format!("task {t}: {name}"),
            Box::new(move |w: &mut Workload| f(&mut w.tasks[t].segments)),
        )
    }
    fn strided(segs: &mut [Segment]) -> (&mut u64, &mut u64, &mut u64) {
        match &mut segs[0].mem[0] {
            MemPattern::Strided {
                base,
                stride,
                count,
            } => (base, stride, count),
            MemPattern::Random { .. } => unreachable!(),
        }
    }
    fn random(segs: &mut [Segment]) -> (&mut u64, &mut u64, &mut u64, &mut u64) {
        match &mut segs[0].mem[1] {
            MemPattern::Random {
                base,
                span,
                count,
                seed,
            } => (base, span, count, seed),
            MemPattern::Strided { .. } => unreachable!(),
        }
    }
    vec![
        edit("kind", t, |s| s[1].kind = SegmentKind::Work),
        edit("compute_ops", t, |s| s[2].compute_ops += 1),
        edit("idle cycles", t, |s| s[1].compute_ops += 1),
        edit("io_ops", t, |s| s[0].io_ops += 1),
        edit("barrier", t, |s| s[2].barrier = Some(0)),
        edit("pattern added", t, |s| {
            s[2].mem.push(MemPattern::Strided {
                base: 0,
                stride: 32,
                count: 1,
            })
        }),
        edit("pattern order", t, |s| s[0].mem.swap(0, 1)),
        edit("segment added", t, |s| s.push(Segment::work(1))),
        edit("strided base", t, |s| *strided(s).0 += 32),
        edit("strided stride", t, |s| *strided(s).1 += 32),
        edit("strided count", t, |s| *strided(s).2 += 1),
        edit("random base", t, |s| *random(s).0 += 32),
        edit("random span", t, |s| *random(s).1 += 32),
        edit("random count", t, |s| *random(s).2 += 1),
        edit("random seed", t, |s| *random(s).3 += 1),
    ]
}

/// The workload fingerprint keys the compiled traces an annotation profile
/// is read from, so it must cover every input a cache profile depends on —
/// each field of each segment and pattern, the task count, each processor's
/// cache geometry — while bus delay and arbitration, the I/O device and
/// task names leave it unchanged, so profiles are shared across them.
/// Processor power and hit cost are inputs of the trace key by design (they
/// time the trace's steps), so a profile is not shared across them. The
/// annotation policy, minimum timeslice and contention model are not
/// inputs at all (`subeval.rs` shows one compile serving a policy ×
/// timeslice grid and a second model).
#[test]
fn workload_fingerprint_covers_its_inputs() {
    let w = profile_workload();
    let m = profile_machine();
    let fp = |w: &Workload, m: &MachineConfig| workload_fingerprint(w, m, Pacing::default());
    let base = fp(&w, &m);
    assert_eq!(base, fp(&w.clone(), &m.clone()));

    let mut seen = HashSet::from([base]);
    for t in 0..w.tasks.len() {
        for (name, apply) in segment_edits(t) {
            let mut edited = w.clone();
            apply(&mut edited);
            assert_ne!(edited, w, "{name} must edit the workload");
            assert!(
                seen.insert(fp(&edited, &m)),
                "{name} left the workload fingerprint unchanged"
            );
        }
    }
    let mut fewer = w.clone();
    fewer.tasks.pop();
    assert!(seen.insert(fp(&fewer, &m)), "task count");

    let geometries = [(16 * 1024, 32, 4), (8 * 1024, 64, 4), (8 * 1024, 32, 2)];
    for p in 0..m.procs.len() {
        for (size, line, ways) in geometries {
            let mut edited = m.clone();
            edited.procs[p].cache = CacheConfig::new(size, line, ways).unwrap();
            assert!(
                seen.insert(fp(&w, &edited)),
                "proc {p} cache {size}/{line}/{ways} left the workload fingerprint unchanged"
            );
        }
    }

    let mut renamed = w.clone();
    renamed.tasks[0].name = "renamed".to_string();
    let timing_only: Vec<MachineConfig> = vec![
        MachineConfig::new(m.procs.clone(), BusConfig::new(16)),
        MachineConfig::new(
            m.procs.clone(),
            m.bus.with_arbitration(Arbitration::FixedPriority),
        ),
        m.clone().with_io(IoConfig::new(8)),
    ];
    assert_eq!(fp(&renamed, &m), base, "task name");
    for machine in &timing_only {
        assert_eq!(
            fp(&w, machine),
            base,
            "{machine:?} changes no compiled trace"
        );
    }
}

/// Calls `f` on every integer field of every segment and pattern of `w`,
/// in order: each segment's operations, I/O operations and barrier index
/// (when it has one), then each of its patterns' fields.
fn visit_integers(w: &mut Workload, f: &mut dyn FnMut(&mut u64)) {
    for seg in w.tasks.iter_mut().flat_map(|t| &mut t.segments) {
        f(&mut seg.compute_ops);
        f(&mut seg.io_ops);
        if let Some(barrier) = &mut seg.barrier {
            let mut word = *barrier as u64;
            f(&mut word);
            *barrier = word as usize;
        }
        for pattern in &mut seg.mem {
            match pattern {
                MemPattern::Strided {
                    base,
                    stride,
                    count,
                } => [base, stride, count].into_iter().for_each(&mut *f),
                MemPattern::Random {
                    base,
                    span,
                    count,
                    seed,
                } => [base, span, count, seed].into_iter().for_each(&mut *f),
            }
        }
    }
}

/// A single flipped bit anywhere in a workload's integer fields moves every
/// key over it: the workload fingerprint (the trace layer's, under every
/// result-memo key and beside each trace a profile is read from) and the
/// cycle-accurate leg's key each differ from the base for every variant,
/// and no two variants share a key.
#[test]
fn every_flipped_bit_moves_every_key() {
    let w = profile_workload();
    let m = profile_machine();
    let keys = |w: &Workload| {
        [
            workload_fingerprint(w, &m, Pacing::default()),
            iss_reference_fp(w, &m),
        ]
    };
    let mut fields = 0;
    visit_integers(&mut w.clone(), &mut |_| fields += 1);
    assert_eq!(fields, 28, "two tasks of 14 integer fields");

    let mut seen: [HashSet<u128>; 2] = keys(&w).map(|key| HashSet::from([key]));
    for field in 0..fields {
        for bit in 0..64 {
            let mut flipped = w.clone();
            let mut at = 0;
            visit_integers(&mut flipped, &mut |x| {
                if at == field {
                    *x ^= 1 << bit;
                }
                at += 1;
            });
            for (kind, (key, seen)) in keys(&flipped).into_iter().zip(&mut seen).enumerate() {
                assert!(
                    seen.insert(key),
                    "key {kind}: field {field} bit {bit} collides with the base or another flip"
                );
            }
        }
    }
}

const DEMO_EXE: &str = env!("CARGO_BIN_EXE_subeval_demo");
const MULTI_RESOURCE_EXE: &str = env!("CARGO_BIN_EXE_multi_resource");

const FIG6_EXE: &str = env!("CARGO_BIN_EXE_fig6");

const NOC_SWEEP_EXE: &str = env!("CARGO_BIN_EXE_noc_sweep");

/// Runs `exe` under `envs` with every inherited `MESH_*` variable removed,
/// so the ambient environment can neither steer nor invalidate a leg.
fn bin_run(exe: &str, envs: &[(&str, String)]) -> Output {
    let mut cmd = Command::new(exe);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MESH_") {
            cmd.env_remove(key);
        }
    }
    for (key, value) in envs {
        cmd.env(key, value);
    }
    cmd.output().expect("spawning the binary must work")
}

/// [`bin_run`]'s stdout and stderr, of a run that must succeed.
fn bin_output(exe: &str, envs: &[(&str, String)]) -> (String, String) {
    let out = bin_run(exe, envs);
    assert!(out.status.success(), "{exe} failed: {out:?}");
    (
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        String::from_utf8(out.stderr).expect("stderr is UTF-8"),
    )
}

fn bin_stdout(exe: &str, envs: &[(&str, String)]) -> String {
    bin_output(exe, envs).0
}

fn demo_stdout(envs: &[(&str, String)]) -> String {
    bin_stdout(DEMO_EXE, envs)
}

/// A counter's value in a `metrics.txt` snapshot; counters that were never
/// bumped are not listed and read as zero.
fn counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields[..] {
                ["counter", n, "=", value] if n == name => value.parse().ok(),
                _ => None,
            }
        })
        .unwrap_or(0)
}

/// A histogram's sample count in a `metrics.txt` snapshot; histograms that
/// were never recorded are not listed and read as zero.
fn histogram_count(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields[..] {
                ["histogram", n, count, ..] if n == name => {
                    count.strip_prefix("count=")?.parse().ok()
                }
                _ => None,
            }
        })
        .unwrap_or(0)
}

/// The demo's stdout without its two wall-clock columns (`hybrid_us`,
/// `iss_us`): every line minus its last two whitespace-separated fields.
fn simulated_columns(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            fields[..fields.len().saturating_sub(2)].join(" ")
        })
        .collect()
}

/// The tentpole invariant, end to end: the same sweep's stdout — wall-clock
/// columns included — is byte-identical whether the sub-evaluation memo is
/// cold or warm, and whether the sweep runs in-process or sharded across
/// worker processes. The first (cold) leg records the timings; every warm
/// leg replays them exactly, and a cold sharded leg agrees on every
/// simulated column.
#[test]
fn sweep_stdout_byte_identical_across_memo_and_sharding() {
    let tmp = TempDir::new("stdout");
    let memo_env = (
        "MESH_RESULT_CACHE",
        tmp.path().join("memo").display().to_string(),
    );

    // Leg 1: sub-memo cold — populates the shared cache.
    let cold = demo_stdout(std::slice::from_ref(&memo_env));
    assert!(
        cold.contains("min_ts"),
        "demo printed its table header: {cold}"
    );

    // Leg 2: memo warm.
    let warm = demo_stdout(std::slice::from_ref(&memo_env));
    assert_eq!(warm, cold, "memo-warm replay diverged");

    // Leg 3: sharded across two worker processes, memo warm.
    let sharded = demo_stdout(&[memo_env.clone(), ("MESH_BENCH_SHARDS", "2".into())]);
    assert_eq!(sharded, cold, "sharded run diverged");

    // Leg 4: sharded with no result cache. The reference key co-locates
    // the grid on one worker, which computes everything afresh: its own
    // wall clocks, but every simulated column must match the cold
    // in-process leg, and the merged counters show the shared reference
    // simulated once, not once per worker.
    let obs_dir = tmp.path().join("obs");
    let sharded_cold = demo_stdout(&[
        ("MESH_BENCH_SHARDS", "2".into()),
        ("MESH_OBS_OUT", obs_dir.display().to_string()),
    ]);
    assert_eq!(
        simulated_columns(&sharded_cold),
        simulated_columns(&cold),
        "cold sharded run diverged on a simulated column"
    );
    let metrics = std::fs::read_to_string(obs_dir.join("metrics.txt"))
        .expect("the sharded run wrote its merged metrics");
    assert_eq!(
        counter(&metrics, "cyclesim.sim.runs"),
        1,
        "the reference group was split across workers:\n{metrics}"
    );
}

/// The four binaries whose grids share references walk each task's private
/// cache once, in its trace compile: every annotation profile is read from
/// a compiled trace, with no fallback walk, and each distinct trace
/// compiles once per process — 8 for the 8-processor FFT of
/// `ablation_minslice` and `ablation_models`, 2 for `ablation_granularity`'s
/// PHM pair, and 8 for `noc_sweep`'s 2-, 4- and 8-task uniform scenarios,
/// whose smaller workloads reuse the larger one's first traces. Each shared
/// reference is simulated once (`noc_sweep`'s three sets of distinct
/// adversarial schedules are 2, 5 and 9 simulations). Both hold in process
/// and sharded with no result
/// cache, where the reference key keeps each group on one worker process;
/// each worker compiles its own groups' traces, so `noc_sweep`'s shared
/// traces compile in both workers (12).
#[test]
fn shared_reference_binaries_walk_each_scenario_once() {
    let tmp = TempDir::new("shared-references");
    let base = tmp.path();
    // (name, executable, compiles in process and sharded, simulations)
    let binaries = [
        (
            "ablation_minslice",
            env!("CARGO_BIN_EXE_ablation_minslice"),
            [8, 8],
            1,
        ),
        (
            "ablation_granularity",
            env!("CARGO_BIN_EXE_ablation_granularity"),
            [2, 2],
            1,
        ),
        (
            "ablation_models",
            env!("CARGO_BIN_EXE_ablation_models"),
            [8, 8],
            1,
        ),
        ("noc_sweep", NOC_SWEEP_EXE, [8, 12], 16),
    ];
    let legs: [(&str, &[(&str, &str)]); 2] = [
        ("in-process", &[("MESH_BENCH_JOBS", "2")]),
        (
            "sharded",
            &[("MESH_BENCH_SHARDS", "2"), ("MESH_BENCH_JOBS", "1")],
        ),
    ];
    for (name, exe, compiles, sim_runs) in binaries {
        for ((leg, knobs), compiles) in legs.into_iter().zip(compiles) {
            let obs = base.join(format!("{name}-{leg}"));
            let mut envs: Vec<(&str, String)> =
                knobs.iter().map(|&(k, v)| (k, v.to_string())).collect();
            envs.push(("MESH_OBS_OUT", obs.display().to_string()));
            bin_stdout(exe, &envs);
            let metrics = std::fs::read_to_string(obs.join("metrics.txt"))
                .expect("the run wrote its metrics");
            assert_eq!(
                counter(&metrics, "cyclesim.trace.compiles"),
                compiles,
                "{name} {leg}: a trace compiled twice in one process:\n{metrics}"
            );
            assert_eq!(
                counter(&metrics, "cyclesim.trace_cache.fallbacks"),
                0,
                "{name} {leg}: a profile walked a cache past the step cap:\n{metrics}"
            );
            assert_eq!(
                counter(&metrics, "cyclesim.sim.runs"),
                sim_runs,
                "{name} {leg}: a shared reference was simulated twice:\n{metrics}"
            );
        }
    }
}

/// `noc_sweep` fills each distinct adversarial schedule once, at any
/// worker count. A cold run over an empty result cache misses 25 legs (16
/// schedules and 9 hybrid legs) and serves the other 32 of its 48 schedule
/// lookups in process. Its warm rerun reads the 25 entries from disk and
/// serves every schedule and hybrid lookup from a cache, with no
/// simulation or trace compile, and prints the cold run's stdout.
#[test]
fn noc_sweep_fills_each_distinct_schedule_once() {
    let tmp = TempDir::new("noc-sweep");
    for jobs in ["1", "2"] {
        let cache = tmp.path().join(format!("memo-{jobs}"));
        let run = |leg: &str| {
            let obs = tmp.path().join(format!("{leg}-jobs-{jobs}"));
            let stdout = bin_stdout(
                NOC_SWEEP_EXE,
                &[
                    ("MESH_BENCH_JOBS", jobs.to_string()),
                    ("MESH_RESULT_CACHE", cache.display().to_string()),
                    ("MESH_OBS_OUT", obs.display().to_string()),
                ],
            );
            let metrics = std::fs::read_to_string(obs.join("metrics.txt"))
                .expect("the run wrote its metrics");
            (stdout, metrics)
        };
        let counts = |metrics: &str, names: &[&str]| -> Vec<u64> {
            names.iter().map(|name| counter(metrics, name)).collect()
        };
        let (cold, metrics) = run("cold");
        assert_eq!(
            counts(
                &metrics,
                &[
                    "bench.result_cache.misses",
                    "bench.result_cache.stores",
                    "bench.subeval.reference_shared",
                    "cyclesim.sim.runs",
                ]
            ),
            [25, 25, 32, 16],
            "{jobs} jobs, cold:\n{metrics}"
        );
        let (warm, metrics) = run("warm");
        assert_eq!(
            counts(
                &metrics,
                &[
                    "bench.result_cache.hits",
                    "bench.result_cache.misses",
                    "bench.subeval.reference_shared",
                    "bench.subeval.hybrid_shared",
                    "cyclesim.sim.runs",
                    "cyclesim.trace.compiles",
                ]
            ),
            [25, 0, 48, 9, 0, 0],
            "{jobs} jobs, warm:\n{metrics}"
        );
        assert_eq!(warm, cold, "{jobs} jobs: the warm replay diverged");
    }
}

/// The stderr replay note tells a cold run from a warm one. The demo's
/// points share one reference leg in process; that sharing is no replay, so
/// a cold run, with no cache or with an empty cache directory, prints no
/// note. A warm re-run reads every row's legs from the result cache and
/// flags all five, and its stdout is the populating run's byte for byte.
#[test]
fn replay_note_flags_only_rows_from_the_result_cache() {
    const NOTE: &str = "rows replayed from the result cache";
    let tmp = TempDir::new("note");
    let memo_dir = tmp.path();
    std::fs::create_dir_all(memo_dir).expect("create the empty cache directory");
    let memo_env = ("MESH_RESULT_CACHE", memo_dir.display().to_string());

    let (uncached, uncached_err) = bin_output(DEMO_EXE, &[]);
    assert!(
        !uncached_err.contains(NOTE),
        "cold run, no cache: {uncached_err}"
    );
    let (cold, cold_err) = bin_output(DEMO_EXE, std::slice::from_ref(&memo_env));
    assert!(
        !cold_err.contains(NOTE),
        "cold run, empty cache: {cold_err}"
    );
    assert_eq!(simulated_columns(&cold), simulated_columns(&uncached));

    let (warm, warm_err) = bin_output(DEMO_EXE, std::slice::from_ref(&memo_env));
    assert!(
        warm_err.contains(&format!("subeval-demo: 5/5 {NOTE}")),
        "warm run flags every row: {warm_err}"
    );
    assert_eq!(warm, cold, "warm replay diverged");
}

/// `multi_resource` end to end: its stdout is byte-identical with no
/// cache, while populating one, warm, and sharded over the warm cache. The
/// populating run makes one cache pass for its four I/O delays: the first
/// simulation compiles both tasks' traces, and the other three and all four
/// hybrid legs' profile reads hit them. The warm run replays every point
/// without a simulation or a kernel run.
#[test]
fn multi_resource_replays_a_warm_cache_byte_identically() {
    let tmp = TempDir::new("multi-resource");
    let base = tmp.path();
    let memo_env = ("MESH_RESULT_CACHE", base.join("memo").display().to_string());
    let (cold_obs, warm_obs) = (base.join("cold-obs"), base.join("warm-obs"));
    let metrics = |dir: &std::path::Path| {
        std::fs::read_to_string(dir.join("metrics.txt")).expect("the run wrote its metrics")
    };

    let uncached = bin_stdout(MULTI_RESOURCE_EXE, &[]);
    assert!(uncached.contains("io q% ISS"), "table header: {uncached}");
    let populating = bin_stdout(
        MULTI_RESOURCE_EXE,
        &[
            memo_env.clone(),
            ("MESH_OBS_OUT", cold_obs.display().to_string()),
        ],
    );
    assert_eq!(populating, uncached, "populating run diverged");
    let cold_metrics = metrics(&cold_obs);
    assert_eq!(
        counter(&cold_metrics, "cyclesim.sim.runs"),
        4,
        "{cold_metrics}"
    );
    assert_eq!(
        [
            counter(&cold_metrics, "cyclesim.trace_cache.misses"),
            counter(&cold_metrics, "cyclesim.trace_cache.hits"),
        ],
        [2, 3 * 2 + 4 * 2],
        "the four I/O delays share one cache pass:\n{cold_metrics}"
    );
    let warm = bin_stdout(
        MULTI_RESOURCE_EXE,
        &[
            memo_env.clone(),
            ("MESH_OBS_OUT", warm_obs.display().to_string()),
        ],
    );
    assert_eq!(warm, uncached, "warm replay diverged");
    let sharded = bin_stdout(
        MULTI_RESOURCE_EXE,
        &[memo_env, ("MESH_BENCH_SHARDS", "2".into())],
    );
    assert_eq!(sharded, uncached, "sharded warm replay diverged");

    let warm_metrics = metrics(&warm_obs);
    assert!(
        counter(&warm_metrics, "bench.result_cache.hits") >= 4,
        "every I/O delay replays from disk:\n{warm_metrics}"
    );
    for name in ["cyclesim.sim.runs", "kernel.runs"] {
        assert_eq!(counter(&warm_metrics, name), 0, "warm run counted {name}");
    }
}

/// A cold `multi_resource` run compiles each distinct trace once at any
/// worker count: its four I/O delays share the two tasks' traces, and a
/// point that finds a trace being compiled by another worker waits for it
/// instead of compiling it again. The worker count leaves stdout alone.
#[test]
fn multi_resource_compiles_each_trace_once_at_any_job_count() {
    let tmp = TempDir::new("multi-resource-jobs");
    let base = tmp.path();
    let run = |jobs: &str| {
        let obs = base.join(format!("jobs-{jobs}"));
        let stdout = bin_stdout(
            MULTI_RESOURCE_EXE,
            &[
                ("MESH_BENCH_JOBS", jobs.to_string()),
                ("MESH_OBS_OUT", obs.display().to_string()),
            ],
        );
        let metrics =
            std::fs::read_to_string(obs.join("metrics.txt")).expect("the run wrote its metrics");
        (stdout, metrics)
    };
    let (serial, serial_metrics) = run("1");
    let (parallel, parallel_metrics) = run("2");
    assert_eq!(parallel, serial, "the worker count changed stdout");
    let compiles = |metrics: &str| counter(metrics, "cyclesim.trace.compiles");
    assert_eq!(compiles(&serial_metrics), 2, "{serial_metrics}");
    assert_eq!(
        compiles(&parallel_metrics),
        compiles(&serial_metrics),
        "concurrent points compiled a shared trace twice:\n{parallel_metrics}"
    );
}

/// The key layer's span counts one sample per pass over a workload's
/// segments: `cyclesim.trace_keys_ns` per trace-key pass (each row's
/// workload fingerprint, each cycle-accurate fill's trace lookup, and each
/// hybrid and analytical fill's profile read from the trace cache). A cold
/// `fig6` of 21 workload rows × 5 bus delays makes 21 + 105 + 210 = 336 at
/// any worker count: the passes follow single-flight fills. A warm re-run
/// over the result cache the cold run wrote replays every leg and makes
/// the 21 fingerprints alone; one per point would read 105.
#[test]
fn fig6_key_passes_are_the_same_at_any_job_count() {
    let tmp = TempDir::new("key-passes");
    let cache = (
        "MESH_RESULT_CACHE",
        tmp.path().join("memo").display().to_string(),
    );
    for jobs in ["1", "2"] {
        let run = |leg: &str| {
            let obs = tmp.path().join(format!("{leg}-jobs-{jobs}"));
            let stdout = bin_stdout(
                FIG6_EXE,
                &[
                    ("MESH_BENCH_JOBS", jobs.to_string()),
                    ("MESH_OBS_OUT", obs.display().to_string()),
                    cache.clone(),
                ],
            );
            let metrics = std::fs::read_to_string(obs.join("metrics.txt"))
                .expect("the run wrote its metrics");
            let passes = histogram_count(&metrics, "cyclesim.trace_keys_ns");
            (stdout, passes, metrics)
        };
        let _ = std::fs::remove_dir_all(tmp.path().join("memo"));
        let (cold, cold_passes, metrics) = run("cold");
        assert_eq!(cold_passes, 336, "{jobs} jobs, cold:\n{metrics}");
        let (warm, warm_passes, metrics) = run("warm");
        assert_eq!(warm_passes, 21, "{jobs} jobs, warm:\n{metrics}");
        assert_eq!(counter(&metrics, "bench.result_cache.misses"), 0);
        assert_eq!(warm, cold, "{jobs} jobs: the warm replay diverged");
    }
}

/// `fig6`'s checkpoint records name its 21 rows. A run with row 4 failing
/// exits nonzero and leaves the other 20 rows on disk; the resumed run
/// evaluates row 4 alone, its five bus delays, and prints the
/// uninterrupted run's stdout.
#[test]
fn fig6_resumes_a_failed_row_byte_identically() {
    let tmp = TempDir::new("fig6-resume");
    std::fs::create_dir_all(tmp.path()).expect("create the test directory");
    let checkpoint = tmp.path().join("fig6.ckpt");
    let checkpoint_env = ("MESH_BENCH_CHECKPOINT", checkpoint.display().to_string());
    let uninterrupted = bin_stdout(FIG6_EXE, &[]);

    let failed = bin_run(
        FIG6_EXE,
        &[
            checkpoint_env.clone(),
            ("MESH_BENCH_FAIL_POINT", "fig6:4".into()),
            ("MESH_BENCH_RETRIES", "0".into()),
        ],
    );
    let stderr = String::from_utf8_lossy(&failed.stderr);
    assert!(!failed.status.success(), "the failed row went unreported");
    assert!(
        stderr.contains("point #4") && stderr.contains("20 completed"),
        "{stderr}"
    );
    let records = std::fs::read_to_string(&checkpoint).expect("the run wrote its checkpoint");
    assert_eq!(records.lines().count(), 20, "{records}");

    let obs = tmp.path().join("obs");
    let resumed = bin_stdout(
        FIG6_EXE,
        &[checkpoint_env, ("MESH_OBS_OUT", obs.display().to_string())],
    );
    assert_eq!(resumed, uninterrupted, "the resumed run diverged");
    let metrics = std::fs::read_to_string(obs.join("metrics.txt")).expect("metrics");
    assert_eq!(
        counter(&metrics, "cyclesim.sim.runs"),
        5,
        "the resume re-ran more than row 4:\n{metrics}"
    );
}

/// The cycle-accurate key covers the machine the simulator runs: each of
/// the `2 + n` adversarial arbitration schedules of an `n`-processor
/// machine has a key of its own, none equal to the base machine's, and the
/// I/O delay, the device's presence and each segment's I/O operations move
/// the key too.
#[test]
fn iss_fingerprint_covers_its_inputs() {
    let w = profile_workload();
    let machine = |io_delay| profile_machine().with_io(IoConfig::new(io_delay));
    let m = machine(8);
    let base = iss_reference_fp(&w, &m);
    assert_eq!(base, iss_reference_fp(&w.clone(), &m.clone()));

    let mut seen = HashSet::from([base]);
    let victims = (0..m.procs.len()).map(Arbitration::VictimLast);
    for arbitration in [Arbitration::FixedPriority, Arbitration::ReversePriority]
        .into_iter()
        .chain(victims)
    {
        let mut schedule = m.clone();
        schedule.bus = schedule.bus.with_arbitration(arbitration);
        assert!(
            seen.insert(iss_reference_fp(&w, &schedule)),
            "{arbitration:?} left the key unchanged"
        );
    }
    assert_eq!(seen.len(), 1 + 2 + m.procs.len());
    for io_delay in [4, 16, 32] {
        assert!(
            seen.insert(iss_reference_fp(&w, &machine(io_delay))),
            "I/O delay {io_delay} left the key unchanged"
        );
    }
    assert!(
        seen.insert(iss_reference_fp(&w, &profile_machine())),
        "dropping the I/O device left the key unchanged"
    );
    for t in 0..w.tasks.len() {
        for s in 0..w.tasks[t].segments.len() {
            let mut edited = w.clone();
            edited.tasks[t].segments[s].io_ops += 1;
            assert!(
                seen.insert(iss_reference_fp(&edited, &m)),
                "task {t} segment {s} io_ops left the key unchanged"
            );
        }
    }
}

/// The hybrid key covers every input of a hybrid leg: the I/O delay, each
/// segment's I/O operations, the bus model, the I/O model's presence and
/// identity (bus and I/O models are not interchangeable in the key), the
/// annotation policy, the minimum timeslice and the priorities. It never
/// equals the cycle-accurate key of the same scenario.
#[test]
fn hybrid_fingerprint_covers_its_inputs() {
    let w = profile_workload();
    let machine = |io_delay| profile_machine().with_io(IoConfig::new(io_delay));
    let m = machine(8);
    let (chen_lin, md1, mm1) = (ChenLinBus::new(), Md1Queue::new(), Mm1Queue::new());
    let options = HybridOptions::default();
    let fp = |w: &Workload,
              m: &MachineConfig,
              bus: &dyn ContentionModel,
              io: Option<&dyn ContentionModel>,
              options: HybridOptions,
              priorities: &[u32]| hybrid_fp(w, m, bus, io, options, priorities);
    let base = fp(&w, &m, &chen_lin, Some(&md1), options, &[]);
    assert_eq!(
        base,
        fp(&w.clone(), &m.clone(), &chen_lin, Some(&md1), options, &[])
    );

    let mut seen = HashSet::from([base]);
    for io_delay in [4, 16, 32] {
        assert!(
            seen.insert(fp(
                &w,
                &machine(io_delay),
                &chen_lin,
                Some(&md1),
                options,
                &[]
            )),
            "I/O delay {io_delay} left the key unchanged"
        );
    }
    for t in 0..w.tasks.len() {
        for s in 0..w.tasks[t].segments.len() {
            let mut edited = w.clone();
            edited.tasks[t].segments[s].io_ops += 1;
            assert!(
                seen.insert(fp(&edited, &m, &chen_lin, Some(&md1), options, &[])),
                "task {t} segment {s} io_ops left the key unchanged"
            );
        }
    }
    let models: [(&str, &dyn ContentionModel, Option<&dyn ContentionModel>); 4] = [
        ("I/O model md1 -> mm1", &chen_lin, Some(&mm1)),
        ("bus model chen-lin -> mm1", &mm1, Some(&md1)),
        ("models swapped", &md1, Some(&chen_lin)),
        ("no I/O model", &chen_lin, None),
    ];
    for (name, bus, io) in models {
        assert!(seen.insert(fp(&w, &m, bus, io, options, &[])), "{name}");
    }
    for policy in [
        AnnotationPolicy::AtBarriers,
        AnnotationPolicy::EverySegments(2),
        AnnotationPolicy::EverySegments(3),
    ] {
        let options = HybridOptions { policy, ..options };
        assert!(
            seen.insert(fp(&w, &m, &chen_lin, Some(&md1), options, &[])),
            "{policy:?} left the key unchanged"
        );
    }
    for min_timeslice in [1.0, 250.0, 1e6] {
        let options = HybridOptions {
            min_timeslice,
            ..options
        };
        assert!(
            seen.insert(fp(&w, &m, &chen_lin, Some(&md1), options, &[])),
            "minimum timeslice {min_timeslice} left the key unchanged"
        );
    }
    for priorities in [&[1, 2][..], &[2, 1], &[1]] {
        assert!(
            seen.insert(fp(&w, &m, &chen_lin, Some(&md1), options, priorities)),
            "priorities {priorities:?} left the key unchanged"
        );
    }
    assert!(
        !seen.contains(&iss_reference_fp(&w, &m)),
        "the hybrid domain collided with the cycle-accurate domain"
    );
}

/// Every row of `ablation_models` replays its own hybrid leg: the ten
/// models give ten distinct keys on the binary's scenario.
#[test]
fn ablation_models_have_distinct_hybrid_keys() {
    let workload = fft::build(&FftConfig::with_threads(8));
    let machine = fft_machine(8, 512 * 1024, FFT_BUS_DELAY);
    let options = HybridOptions {
        policy: AnnotationPolicy::AtBarriers,
        min_timeslice: 0.0,
    };
    let models = ablation_models();
    assert_eq!(models.len(), 10);
    let keys: HashSet<u128> = models
        .iter()
        .map(|(_, model)| hybrid_fp(&workload, &machine, model.as_ref(), None, options, &[]))
        .collect();
    assert_eq!(keys.len(), models.len(), "two ablation models share a key");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hybrid keys for distinct (policy, min_timeslice) knob settings never
    /// collide, and the cycle-accurate key never collides with a hybrid key
    /// on the same scenario.
    #[test]
    fn hybrid_fingerprints_never_collide(
        raw_timeslices in proptest::collection::vec(0u64..1_000_000, 1..8),
        seg in 1usize..64,
    ) {
        let timeslices: HashSet<u64> = raw_timeslices.into_iter().collect();
        let workload = fft::build(&FftConfig {
            points: 1024,
            threads: 2,
            ..FftConfig::default()
        });
        let machine = fft_machine(2, 8 * 1024, 4);
        let policies = [
            AnnotationPolicy::AtBarriers,
            AnnotationPolicy::PerSegment,
            AnnotationPolicy::EverySegments(seg),
        ];
        let mut seen: HashSet<u128> = HashSet::new();
        for policy in policies {
            for &ts in &timeslices {
                let options = HybridOptions { policy, min_timeslice: ts as f64 };
                let fp = hybrid_fp(&workload, &machine, &ChenLinBus::new(), None, options, &[]);
                prop_assert!(
                    seen.insert(fp),
                    "fingerprint collision at policy {policy:?} ts {ts}"
                );
            }
        }
        // Cross-domain: the reference key never aliases a hybrid key.
        prop_assert!(
            !seen.contains(&iss_reference_fp(&workload, &machine)),
            "reference domain collided with hybrid domain"
        );
    }

    /// Distinct contention-model identities (name or digest) produce
    /// distinct fingerprints under an otherwise identical scenario chain.
    #[test]
    fn model_identity_separates_fingerprints(
        ia in 0usize..4,
        ib in 0usize..4,
        da in 0u64..1000,
        db in 0u64..1000,
    ) {
        const NAMES: [&str; 4] = ["chen-lin-bus", "fair-share", "priority-noc", "mm1-bus"];
        let (a, b) = (NAMES[ia], NAMES[ib]);
        if a == b && da == db {
            return; // identical identities legitimately collide
        }
        let fp = |name: &str, digest: u64| {
            memo::ScenarioFp::new("hybrid-leg")
                .wide(0xFEED)
                .text(name)
                .words(&[digest])
                .finish()
        };
        prop_assert_ne!(fp(a, da), fp(b, db));
    }
}
