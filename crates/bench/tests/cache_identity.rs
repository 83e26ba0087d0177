//! End-to-end identity checks for the caching tiers: a comparison point
//! must produce the same simulated numbers with the result cache off and
//! populating; a result-memo replay (from disk or from the in-process LRU)
//! must reproduce the populating point *exactly* (recorded wall clocks
//! included); a planner-driven sweep's stdout must be byte-identical
//! across {sub-memo cold, sub-memo warm, sharded over a warm memo}, and a
//! cold sharded run must agree on every simulated column; distinct hybrid
//! knob settings must never collide within a sub-evaluation
//! fingerprint domain; and the annotation-profile key must cover exactly
//! the inputs a profile depends on.
//!
//! The in-process leg test mutates process-global cache configuration, so
//! its legs run in sequence inside one test function; the stdout legs spawn
//! the `subeval_demo` binary, so each gets a pristine process.

use mesh_annotate::AnnotationPolicy;
use mesh_arch::{Arbitration, BusConfig, CacheConfig, IoConfig, MachineConfig, ProcConfig};
use mesh_bench::{
    annotation_profile_fp, compare, fft_machine, memo, ComparisonPoint, HybridOptions,
};
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

    // Leg 1: no memo — the plain in-process baseline. The sub-evaluation
    // LRU is cleared so this process actually simulates.
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

    // Leg 3: in-process LRU — with the LRU left warm, the point is served
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

/// Cache/fabric variables that must not leak into the spawned legs.
const SCRUB: &[&str] = &[
    "MESH_RESULT_CACHE",
    "MESH_BENCH_SHARDS",
    "MESH_BENCH_CHECKPOINT",
    "MESH_BENCH_PROGRESS",
    "MESH_OBS",
    "MESH_OBS_OUT",
    "MESH_OBS_TRACE",
];

fn demo_stdout(envs: &[(&str, String)]) -> String {
    let mut cmd = Command::new(DEMO_EXE);
    for var in SCRUB {
        cmd.env_remove(var);
    }
    for (key, value) in envs {
        cmd.env(key, value);
    }
    let out = cmd.output().expect("spawning subeval_demo must work");
    assert!(out.status.success(), "subeval_demo failed: {out:?}");
    String::from_utf8(out.stdout).expect("subeval_demo stdout is UTF-8")
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
