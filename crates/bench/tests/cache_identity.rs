//! End-to-end identity checks for the caching tiers: a comparison point
//! must produce the same simulated numbers with the result cache off and
//! populating; a result-memo replay (from disk or from the in-process memo)
//! must reproduce the populating point *exactly* (recorded wall clocks
//! included); a planner-driven sweep's stdout must be byte-identical
//! across {sub-memo cold, sub-memo warm, sharded over a warm memo}, and a
//! cold sharded run must agree on every simulated column; distinct hybrid
//! knob settings must never collide within a sub-evaluation
//! fingerprint domain; the annotation-profile key must cover exactly
//! the inputs a profile depends on; the `multi_resource` binary must print
//! the same bytes with and without a cache and replay a warm one without
//! simulating, and compile each distinct trace once at any worker count;
//! and the keys of its points and of the `ablation_models` rows must
//! separate every input that changes them.
//!
//! The in-process leg test mutates process-global cache configuration, so
//! its legs run in sequence inside one test function; the stdout legs spawn
//! the `subeval_demo` and `multi_resource` binaries, so each gets a
//! pristine process.

use mesh_annotate::AnnotationPolicy;
use mesh_arch::{Arbitration, BusConfig, CacheConfig, IoConfig, MachineConfig, ProcConfig};
use mesh_bench::{
    ablation_models, annotation_profile_fp, compare, fft_machine, hybrid_run_fp, memo,
    resource_point_fp, ComparisonPoint, HybridOptions, FFT_BUS_DELAY,
};
use mesh_core::model::ContentionModel;
use mesh_models::{ChenLinBus, Md1Queue, Mm1Queue};
use mesh_workloads::fft::{self, FftConfig};
use mesh_workloads::{MemPattern, Segment, SegmentKind, TaskProgram, Workload};
use proptest::prelude::*;
use std::collections::HashSet;
use std::process::Command;

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
    let unique = format!("mesh-cache-identity-{}", std::process::id());
    let memo_dir = std::env::temp_dir().join(format!("{unique}-memo"));
    let _ = std::fs::remove_dir_all(&memo_dir);

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
    memo::set_result_cache(Some(&memo_dir));
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
    let _ = std::fs::remove_dir_all(&memo_dir);
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

/// The `subeval-annotate` key covers every input a cache profile depends on
/// — each field of each segment and pattern, the task count, each
/// processor's cache geometry — and nothing else: bus delay and
/// arbitration, the I/O device, processor power and hit cost, and task
/// names leave it unchanged, so profiles are shared across them. The
/// annotation policy, minimum timeslice and contention model are not
/// inputs of the key at all (`subeval.rs` shows one profile serving a
/// policy × timeslice grid and a second model).
#[test]
fn annotation_profile_fingerprint_covers_its_inputs() {
    let w = profile_workload();
    let m = profile_machine();
    let base = annotation_profile_fp(&w, &m);
    assert_eq!(base, annotation_profile_fp(&w.clone(), &m.clone()));

    let mut seen = HashSet::from([base]);
    for t in 0..w.tasks.len() {
        for (name, apply) in segment_edits(t) {
            let mut edited = w.clone();
            apply(&mut edited);
            assert_ne!(edited, w, "{name} must edit the workload");
            let fp = annotation_profile_fp(&edited, &m);
            assert!(seen.insert(fp), "{name} left the profile key unchanged");
        }
    }
    let mut fewer = w.clone();
    fewer.tasks.pop();
    assert!(seen.insert(annotation_profile_fp(&fewer, &m)), "task count");

    let geometries = [(16 * 1024, 32, 4), (8 * 1024, 64, 4), (8 * 1024, 32, 2)];
    for p in 0..m.procs.len() {
        for (size, line, ways) in geometries {
            let mut edited = m.clone();
            edited.procs[p].cache = CacheConfig::new(size, line, ways).unwrap();
            assert!(
                seen.insert(annotation_profile_fp(&w, &edited)),
                "proc {p} cache {size}/{line}/{ways} left the profile key unchanged"
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
        MachineConfig::new(
            vec![m.procs[0], m.procs[1].with_power(0.8).with_hit_cycles(3)],
            m.bus,
        ),
    ];
    assert_eq!(annotation_profile_fp(&renamed, &m), base, "task name");
    for machine in &timing_only {
        assert_eq!(
            annotation_profile_fp(&w, machine),
            base,
            "{machine:?} changes no cache profile"
        );
    }
}

const DEMO_EXE: &str = env!("CARGO_BIN_EXE_subeval_demo");
const MULTI_RESOURCE_EXE: &str = env!("CARGO_BIN_EXE_multi_resource");

/// Runs `exe` under `envs` with every inherited `MESH_*` variable removed,
/// so the ambient environment can neither steer nor invalidate a leg, and
/// returns its stdout and stderr.
fn bin_output(exe: &str, envs: &[(&str, String)]) -> (String, String) {
    let mut cmd = Command::new(exe);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MESH_") {
            cmd.env_remove(key);
        }
    }
    for (key, value) in envs {
        cmd.env(key, value);
    }
    let out = cmd.output().expect("spawning the binary must work");
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
    let memo_dir = std::env::temp_dir().join(format!(
        "mesh-cache-identity-stdout-{}-memo",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&memo_dir);
    let memo_env = ("MESH_RESULT_CACHE", memo_dir.display().to_string());

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

    // Leg 4: sharded with no result cache. The reference phase is skipped
    // and the planner's reference groups co-locate the grid on one worker,
    // which computes everything afresh: its own wall clocks, but every
    // simulated column must match the cold in-process leg.
    let sharded_cold = demo_stdout(&[("MESH_BENCH_SHARDS", "2".into())]);
    assert_eq!(
        simulated_columns(&sharded_cold),
        simulated_columns(&cold),
        "cold sharded run diverged on a simulated column"
    );

    let _ = std::fs::remove_dir_all(&memo_dir);
}

/// The stderr replay note tells a cold run from a warm one. The demo's
/// points share one reference leg in process; that sharing is no replay, so
/// a cold run, with no cache or with an empty cache directory, prints no
/// note. A warm re-run reads every row's legs from the result cache and
/// flags all five, and its stdout is the populating run's byte for byte.
#[test]
fn replay_note_flags_only_rows_from_the_result_cache() {
    const NOTE: &str = "rows replayed from the result cache";
    let memo_dir = std::env::temp_dir().join(format!(
        "mesh-cache-identity-note-{}-memo",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&memo_dir);
    std::fs::create_dir_all(&memo_dir).expect("create the empty cache directory");
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

    let _ = std::fs::remove_dir_all(&memo_dir);
}

/// `multi_resource` end to end: its stdout is byte-identical with no
/// cache, while populating one, warm, and sharded over the warm cache. The
/// populating run makes one cache pass for its four I/O delays, and the
/// warm run replays every point without a simulation or a kernel run.
#[test]
fn multi_resource_replays_a_warm_cache_byte_identically() {
    let base = std::env::temp_dir().join(format!(
        "mesh-cache-identity-multi-resource-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&base);
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
        counter(&cold_metrics, "bench.subeval.annotation_shared"),
        3,
        "the four I/O delays share one annotation profile:\n{cold_metrics}"
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
    let _ = std::fs::remove_dir_all(&base);
}

/// A cold `multi_resource` run compiles each distinct trace once at any
/// worker count: its four I/O delays share the two tasks' traces, and a
/// point that finds a trace being compiled by another worker waits for it
/// instead of compiling it again. The worker count leaves stdout alone.
#[test]
fn multi_resource_compiles_each_trace_once_at_any_job_count() {
    let base = std::env::temp_dir().join(format!(
        "mesh-cache-identity-multi-resource-jobs-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&base);
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
    let _ = std::fs::remove_dir_all(&base);
}

/// The `multi-resource` key covers what a point depends on: the I/O delay,
/// each segment's I/O operations, either resource's model (bus and I/O
/// models are not interchangeable in the key) and the annotation policy.
#[test]
fn resource_point_fingerprint_covers_its_inputs() {
    let w = profile_workload();
    let machine = |io_delay| profile_machine().with_io(IoConfig::new(io_delay));
    let m = machine(8);
    let (chen_lin, md1, mm1) = (ChenLinBus::new(), Md1Queue::new(), Mm1Queue::new());
    let fp = |w: &Workload,
              m: &MachineConfig,
              bus: &dyn ContentionModel,
              io: &dyn ContentionModel,
              policy| resource_point_fp(w, m, bus, io, policy);
    let policy = AnnotationPolicy::PerSegment;
    let base = fp(&w, &m, &chen_lin, &md1, policy);
    assert_eq!(base, fp(&w.clone(), &m.clone(), &chen_lin, &md1, policy));

    let mut seen = HashSet::from([base]);
    for io_delay in [4, 16, 32] {
        assert!(
            seen.insert(fp(&w, &machine(io_delay), &chen_lin, &md1, policy)),
            "I/O delay {io_delay} left the key unchanged"
        );
    }
    for t in 0..w.tasks.len() {
        for s in 0..w.tasks[t].segments.len() {
            let mut edited = w.clone();
            edited.tasks[t].segments[s].io_ops += 1;
            assert!(
                seen.insert(fp(&edited, &m, &chen_lin, &md1, policy)),
                "task {t} segment {s} io_ops left the key unchanged"
            );
        }
    }
    let models: [(&str, &dyn ContentionModel, &dyn ContentionModel); 3] = [
        ("I/O model md1 -> mm1", &chen_lin, &mm1),
        ("bus model chen-lin -> mm1", &mm1, &md1),
        ("models swapped", &md1, &chen_lin),
    ];
    for (name, bus, io) in models {
        assert!(seen.insert(fp(&w, &m, bus, io, policy)), "{name}");
    }
    for policy in [
        AnnotationPolicy::AtBarriers,
        AnnotationPolicy::EverySegments(2),
        AnnotationPolicy::EverySegments(3),
    ] {
        assert!(
            seen.insert(fp(&w, &m, &chen_lin, &md1, policy)),
            "{policy:?} left the key unchanged"
        );
    }
    assert!(
        !seen.contains(&mesh_bench::iss_reference_fp(&w, &m)),
        "the multi-resource domain collided with the reference domain"
    );
}

/// Every row of `ablation_models` replays its own hybrid run: the ten
/// models give ten distinct keys on the binary's scenario.
#[test]
fn ablation_models_have_distinct_hybrid_run_keys() {
    let workload = fft::build(&FftConfig::with_threads(8));
    let machine = fft_machine(8, 512 * 1024, FFT_BUS_DELAY);
    let models = ablation_models();
    assert_eq!(models.len(), 10);
    let keys: HashSet<u128> = models
        .iter()
        .map(|(_, model)| hybrid_run_fp(&workload, &machine, model.as_ref(), &[]))
        .collect();
    assert_eq!(keys.len(), models.len(), "two ablation models share a key");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sub-evaluation fingerprints for distinct (policy, min_timeslice)
    /// knob settings never collide within the hybrid domain, and the
    /// reference domain never collides with the hybrid domain on the same
    /// scenario.
    #[test]
    fn hybrid_subeval_fingerprints_never_collide(
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
                let fp = mesh_bench::hybrid_subeval_fp(
                    &workload,
                    &machine,
                    HybridOptions { policy, min_timeslice: ts as f64 },
                );
                prop_assert!(
                    seen.insert(fp),
                    "fingerprint collision at policy {policy:?} ts {ts}"
                );
            }
        }
        // Cross-domain: the reference key never aliases a hybrid key.
        prop_assert!(
            !seen.contains(&mesh_bench::iss_reference_fp(&workload, &machine)),
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
            memo::ScenarioFp::new("subeval-hybrid")
                .wide(0xFEED)
                .text(name)
                .words(&[digest])
                .finish()
        };
        prop_assert_ne!(fp(a, da), fp(b, db));
    }
}
