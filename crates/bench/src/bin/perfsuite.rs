//! **perfsuite** — the repository's perf-trajectory benchmark suite.
//!
//! Times the hot paths (hybrid kernel, annotation pass, contention-model
//! `evaluate`s, and the cycle-accurate simulator in both engines) on the
//! FFT, MiBench/PHM and uniform workloads, and writes the measurements to
//! `BENCH_<sha>.json` so every commit's performance is a recorded,
//! comparable artifact.
//!
//! ```bash
//! cargo run -p mesh-bench --release --bin perfsuite            # full suite
//! cargo run -p mesh-bench --release --bin perfsuite -- --quick # CI smoke
//! cargo run -p mesh-bench --release --bin perfsuite -- \
//!     --quick --out BENCH_ci.json --check BENCH_baseline.json  # perf gate
//! ```
//!
//! Each cyclesim workload is timed four ways: `_skip` and `_tick` (both
//! engines, fed by compiled traces — the defaults), `_skip_cursor` (the
//! skip engine on the on-the-fly cursor path) and `_compile` (the cold
//! trace-compile cost, cache bypassed) — the compile/consume split of the
//! trace pipeline.
//!
//! The `annotate/` rows time the hybrid's annotation pass on the FFT and
//! PHM scenarios of `kernel/` and `cyclesim/smoke_*`, in two parts (see
//! `bench_hybrid`).
//!
//! The `store/` section prices the result memo: `store/phm_keys` is the
//! memo-key pass over a Figure-6 PHM workload, and `store/memo_hit`
//! is a full comparison point served from a result cache in a throwaway
//! directory. The section restores the process-wide cache configuration
//! afterwards, so the other benchmarks are unaffected by it.
//!
//! The `sweep/` section times an end-to-end ablation grid through the
//! split-phase evaluation tiers: `sweep/grid_cold` (the in-process memo
//! cleared before every point — every point pays its own reference),
//! `sweep/grid_shared` (the grid shares one reference through the memo)
//! and `sweep/grid_memo_warm` (persistent result cache replay). The printed
//! cold/shared ratio is the headline reference-sharing win.
//!
//! `--filter SUBSTR` runs only the benchmarks whose name contains SUBSTR —
//! the skipped ones are neither timed nor recorded, so a filtered file is
//! a partial artifact (`--check` then gates only the prefixes the filter
//! measured, and only the benchmarks it measured under them).
//!
//! `--check FILE` exits nonzero if any benchmark under a gated prefix
//! (`kernel/`, `annotate/`, `model/`, `cyclesim/`, `obs/`, `store/`,
//! `sweep/`) regressed by more than `--factor` times (default 2x), after
//! checking every prefix and printing each failure. It never passes
//! vacuously: a gated prefix with no benchmark in both files fails, and so
//! does a benchmark that only one file has, when the run is unfiltered. It
//! refuses outright when the two files recorded different parallelism or
//! cache configurations. Beside its verdicts it prints the ungated
//! `host/reference` (see `HOST_ROW`) over the baseline's.
//!
//! After a run the suite prints the cyclesim speedups (tick/skip per
//! workload, trace-vs-cursor, and the compile cost) and each scenario's
//! MESH-versus-ISS curve with annotation included ([`SpeedupCurve`]), so
//! BENCH deltas are readable without hand-diffing JSON. See
//! `docs/PERFORMANCE.md`.

use mesh_annotate::{profile_task, AnnotationPolicy, ProfiledWorkload, SegmentProfile};
use mesh_arch::MachineConfig;
use mesh_bench::perf::{
    check_regression, host_reference, time_median_batched_ns, time_median_ns, BenchFile,
    BenchRecord, SpeedupCurve, DEFAULT_FACTOR, GATED_PREFIXES,
};
use mesh_bench::{
    fft_machine, phm_machine, FFT_BUS_DELAY, FFT_CACHES, FFT_PROC_SWEEP, FIG5_BUS_DELAYS,
    FIG6_IDLE_SWEEP, FIG6_SEEDS,
};
use mesh_core::model::{ContentionModel, Slice, SliceRequest};
use mesh_core::{SharedId, SimTime, System, ThreadId};
use mesh_cyclesim::{simulate_with_options, Pacing, SimOptions, TraceMode};
use mesh_models::{ChenLinBus, Md1Queue, Mm1Queue, PriorityBus, RoundRobinBus};
use mesh_workloads::fft::{self, FftConfig};
use mesh_workloads::scenario::{self, PhmConfig};
use mesh_workloads::uniform::{self, UniformConfig};
use mesh_workloads::Workload;

struct Args {
    quick: bool,
    out: Option<String>,
    check: Option<String>,
    filter: Option<String>,
    factor: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        out: None,
        check: None,
        filter: None,
        factor: DEFAULT_FACTOR,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = it.next(),
            "--check" => args.check = it.next(),
            "--filter" => args.filter = it.next(),
            "--factor" => {
                args.factor = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--factor needs a number"))
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    args
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: perfsuite [--quick] [--filter SUBSTR] [--out FILE] [--check BASELINE] \
         [--factor FACTOR]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Collects measurements while echoing each one as it lands; `--filter`
/// lives here so every section can skip unwanted benchmarks before paying
/// for them.
struct Suite {
    filter: Option<String>,
    records: Vec<BenchRecord>,
}

impl Suite {
    /// Whether `--filter` selects this benchmark name (no filter = all).
    fn wants(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    fn record(&mut self, name: &str, median_ns: f64) {
        println!("{name:<44} median {:>14.1} ns/iter", median_ns);
        self.records.push(BenchRecord {
            name: name.to_string(),
            median_ns,
        });
    }
}

/// Times one cyclesim configuration across the trace pipeline's
/// compile/consume split and records four entries:
///
/// * `<name>_skip` / `<name>_tick` — both engines fed by compiled traces
///   (the default mode), measured with the cross-sweep cache warm so they
///   time pure consumption;
/// * `<name>_skip_cursor` — the skip engine on the on-the-fly cursor path,
///   the pre-trace-pipeline hot loop;
/// * `<name>_compile` — the cold per-workload trace-compile cost, cache
///   bypassed.
fn bench_cyclesim(
    suite: &mut Suite,
    name: &str,
    workload: &Workload,
    machine: &MachineConfig,
    samples: usize,
) {
    let variants = [
        ("skip", false, TraceMode::Compiled),
        ("tick", true, TraceMode::Compiled),
        ("skip_cursor", false, TraceMode::OnTheFly),
    ];
    let any_sim = variants
        .iter()
        .any(|(suffix, ..)| suite.wants(&format!("{name}_{suffix}")));
    if any_sim {
        // Warm the trace cache (the default feed is compiled) so the
        // `_skip`/`_tick` medians below price consumption only; `_compile`
        // prices the compile side separately.
        simulate_with_options(workload, machine, SimOptions::default()).expect("cyclesim warmup");
    }
    for (suffix, reference_ticker, trace) in variants {
        let full = format!("{name}_{suffix}");
        if !suite.wants(&full) {
            continue;
        }
        let options = SimOptions {
            reference_ticker,
            trace,
            ..SimOptions::default()
        };
        let median = time_median_ns(samples, 1, || {
            simulate_with_options(workload, machine, options).expect("cyclesim run")
        });
        suite.record(&full, median);
    }
    let compile_name = format!("{name}_compile");
    if suite.wants(&compile_name) {
        let median = time_median_ns(samples, 1, || {
            mesh_cyclesim::trace::compile_uncached(workload, machine, Pacing::default())
        });
        suite.record(&compile_name, median);
    }
}

/// Times the observability layer itself: the same cyclesim smoke workload
/// with the mesh-obs registry disabled (the default no-op path) and
/// force-enabled, so the BENCH file records the instrumentation overhead
/// commit over commit and `--check` can gate it like any other benchmark.
///
/// Also prices the cross-process merge machinery the fabric parent pays
/// per shard: `obs/wire_roundtrip` (encode + checksum-verify + decode of a
/// populated snapshot — one worker's embedded telemetry line) and
/// `obs/shard_merge` (folding four worker snapshots into the unified
/// report). Both sit under the `obs/` prefix, so `--check` gates them
/// against the baseline automatically.
fn bench_obs(suite: &mut Suite, workload: &Workload, machine: &MachineConfig, samples: usize) {
    let wants_overhead =
        suite.wants("obs/smoke_fft_disabled") || suite.wants("obs/smoke_fft_enabled");
    let wants_wire = suite.wants("obs/wire_roundtrip");
    let wants_merge = suite.wants("obs/shard_merge");
    if !wants_overhead && !wants_wire && !wants_merge {
        return;
    }
    let options = SimOptions {
        trace: TraceMode::Compiled,
        ..SimOptions::default()
    };
    simulate_with_options(workload, machine, options).expect("obs warmup");
    let was_enabled = mesh_obs::enabled();
    if wants_overhead {
        mesh_obs::set_enabled(false);
        let off = time_median_ns(samples, 1, || {
            simulate_with_options(workload, machine, options).expect("cyclesim run")
        });
        mesh_obs::set_enabled(true);
        let on = time_median_ns(samples, 1, || {
            simulate_with_options(workload, machine, options).expect("cyclesim run")
        });
        mesh_obs::set_enabled(was_enabled);
        suite.record("obs/smoke_fft_disabled", off);
        suite.record("obs/smoke_fft_enabled", on);
        println!("obs overhead (enabled/disabled): {:.3}x", on / off);
    }
    if wants_wire || wants_merge {
        // A realistic payload: whatever the warmup and overhead runs left
        // in the registry (cyclesim counters, histograms, fingerprint).
        let snap = mesh_obs::snapshot();
        if wants_wire {
            let median = time_median_ns(samples, 64, || {
                let bytes = mesh_obs::wire::encode(&snap);
                mesh_obs::wire::decode(&bytes).expect("wire round trip")
            });
            suite.record("obs/wire_roundtrip", median);
        }
        if wants_merge {
            let workers: Vec<mesh_obs::Snapshot> = (0..4).map(|_| snap.clone()).collect();
            let median = time_median_ns(samples, 64, || {
                let mut merged = snap.clone();
                for worker in &workers {
                    merged.merge(worker);
                }
                merged
            });
            suite.record("obs/shard_merge", median);
        }
    }
}

/// Samples behind every `kernel/`, `annotate/` and `model/` median, in
/// both modes. A kernel run takes about 15 µs, so one preemption on a
/// shared host moves it 2x: a median of five samples failed the 2x gate on
/// noise alone.
const MICRO_SAMPLES: usize = 51;

/// A scenario that the `kernel/`, `annotate/` and `cyclesim/` sections all
/// time, so the summary can chain their medians into one MESH-versus-ISS
/// curve (see [`SpeedupCurve`]).
struct Scenario {
    /// Row name under `kernel/` and `annotate/`.
    name: &'static str,
    /// Row stem under `cyclesim/`.
    sim: &'static str,
    workload: Workload,
    machine: MachineConfig,
    policy: AnnotationPolicy,
}

impl Scenario {
    /// Every task's cache walk: what production reads from the trace cache.
    fn profile(&self) -> Vec<Vec<SegmentProfile>> {
        self.workload
            .tasks
            .iter()
            .zip(&self.machine.procs)
            .map(|(task, proc)| profile_task(task, proc.cache))
            .collect()
    }

    /// One design point's kernel system, folded from the scenario's profile.
    fn fold_build(&self, profiles: &[Vec<SegmentProfile>]) -> System {
        ProfiledWorkload::new(&self.workload, &self.machine, profiles)
            .and_then(|profiled| profiled.assemble(ChenLinBus::new(), self.policy))
            .expect("assemble")
            .builder
            .build()
            .expect("build")
    }
}

/// The two scenarios, each built once per run.
fn scenarios() -> [Scenario; 2] {
    [
        // A Figure-4 FFT point: barrier-grained annotations, few large
        // slices.
        Scenario {
            name: "fig4_fft",
            sim: "cyclesim/smoke_fft",
            workload: fft::build(&FftConfig {
                points: 16_384,
                threads: 4,
                ..FftConfig::default()
            }),
            machine: fft_machine(4, 8 * 1024, FFT_BUS_DELAY),
            policy: AnnotationPolicy::AtBarriers,
        },
        // A Figure-6 PHM point: per-segment annotations, many small slices
        // — the commit-rate stress case.
        Scenario {
            name: "fig6_phm",
            sim: "cyclesim/smoke_mibench_phm",
            workload: scenario::build(&PhmConfig {
                target_ops: 300_000,
                ..PhmConfig::with_second_idle(0.45)
            }),
            machine: phm_machine(8),
            policy: AnnotationPolicy::PerSegment,
        },
    ]
}

/// Times the hybrid on each scenario: `kernel/<name>` runs a built system;
/// `annotate/<name>_profile` walks every task's cache, which production
/// reads from the trace cache and so pays once per scenario; and
/// `annotate/<name>_fold_build` folds that profile and builds the system,
/// which every design point pays.
fn bench_hybrid(suite: &mut Suite, scenarios: &[Scenario]) {
    for s in scenarios {
        let profiles = s.profile();
        let kernel = format!("kernel/{}", s.name);
        if suite.wants(&kernel) {
            let run = |system: System| system.run().expect("hybrid run");
            let median = time_median_batched_ns(MICRO_SAMPLES, || s.fold_build(&profiles), run);
            suite.record(&kernel, median);
        }
        let profile = format!("annotate/{}_profile", s.name);
        if suite.wants(&profile) {
            suite.record(&profile, time_median_ns(MICRO_SAMPLES, 1, || s.profile()));
        }
        let fold_build = format!("annotate/{}_fold_build", s.name);
        if suite.wants(&fold_build) {
            let median = time_median_ns(MICRO_SAMPLES, 1, || s.fold_build(&profiles));
            suite.record(&fold_build, median);
        }
    }
}

fn bench_models(suite: &mut Suite, samples: usize) {
    // A representative contended slice: eight threads with uneven demand.
    let slice = Slice {
        start: SimTime::ZERO,
        duration: SimTime::from_cycles(10_000.0),
        service_time: SimTime::from_cycles(4.0),
        shared: SharedId::from_index(0),
    };
    let requests: Vec<SliceRequest> = (0..8)
        .map(|t| SliceRequest {
            thread: ThreadId::from_index(t),
            accesses: 50.0 + 37.0 * t as f64,
            priority: (t % 3) as u32,
        })
        .collect();
    let models: Vec<(&str, Box<dyn ContentionModel>)> = vec![
        ("chen_lin", Box::new(ChenLinBus::new())),
        ("md1_queue", Box::new(Md1Queue::new())),
        ("mm1_queue", Box::new(Mm1Queue::new())),
        ("round_robin", Box::new(RoundRobinBus::new())),
        ("priority", Box::new(PriorityBus::new())),
    ];
    for (name, model) in &models {
        let full = format!("model/{name}");
        if !suite.wants(&full) {
            continue;
        }
        let median = time_median_ns(samples, 512, || model.penalties(&slice, &requests));
        suite.record(&full, median);
    }
}

/// Prices the keys of one PHM point: `store/phm_keys` is one
/// [`workload_fingerprint`](mesh_cyclesim::workload_fingerprint) on Figure
/// 6's first workload (idle 0, its first seed), the one pass over its 443
/// segments that all of a point's memo keys derive from. A byte-wise hash
/// of the same words is about 4x slower, which the 2x gate sees.
fn bench_keys(suite: &mut Suite) {
    if !suite.wants("store/phm_keys") {
        return;
    }
    let workload = mesh_bench::phm_workload(FIG6_IDLE_SWEEP[0], FIG6_SEEDS[0]);
    let machine = phm_machine(FIG5_BUS_DELAYS[0]);
    let median = time_median_ns(MICRO_SAMPLES, 8, || {
        mesh_cyclesim::workload_fingerprint(&workload, &machine, Pacing::default())
    });
    suite.record("store/phm_keys", median);
}

/// Prices the persistent result cache on the smoke FFT workload against a
/// throwaway directory: `store/memo_hit` is a full `run_fft_point` served
/// from a warm result cache (a repeated sweep point).
///
/// Runs last and restores the environment-driven cache configuration
/// afterwards, so no other section sees the temporary directory.
fn bench_store(suite: &mut Suite, samples: usize) {
    if !suite.wants("store/memo_hit") {
        return;
    }
    let memo_dir = std::env::temp_dir().join(format!("mesh-perfsuite-{}-memo", std::process::id()));
    mesh_bench::memo::set_result_cache(Some(&memo_dir));
    let populate = mesh_bench::run_fft_point(4, 8 * 1024, FFT_BUS_DELAY);
    let median = time_median_ns(samples, 1, || {
        let hit = mesh_bench::run_fft_point(4, 8 * 1024, FFT_BUS_DELAY);
        assert_eq!(hit.iss_pct, populate.iss_pct, "memo must replay the point");
        hit
    });
    suite.record("store/memo_hit", median);

    // Back to whatever the environment configured, then drop the tempdir.
    mesh_bench::memo::set_result_cache(mesh_bench::config().result_cache.as_deref());
    let _ = std::fs::remove_dir_all(&memo_dir);
}

/// Prices the split-phase evaluation tiers on an end-to-end ablation grid
/// (a min-timeslice sweep over one FFT scenario, the `ablation_minslice`
/// shape at smoke size):
///
/// * `sweep/grid_cold` — the in-process memo cleared before every point:
///   every grid point pays its own cycle-accurate reference (the
///   pre-split-phase behaviour);
/// * `sweep/grid_shared` — the memo cleared per sample: the whole grid
///   shares one reference through the in-process tier;
/// * `sweep/grid_memo_warm` — persistent result cache populated, memo
///   cleared per sample: every point replays from disk.
///
/// Prints the cold/shared ratio — the headline split-phase win (the ≥ 2x
/// figure tracked in docs/PERFORMANCE.md). Runs alongside `store/` at the
/// end of the suite and restores the environment-driven configuration.
fn bench_sweep(suite: &mut Suite, fft: &Scenario, samples: usize) {
    let wants_cold = suite.wants("sweep/grid_cold");
    let wants_shared = suite.wants("sweep/grid_shared");
    let wants_memo = suite.wants("sweep/grid_memo_warm");
    if !wants_cold && !wants_shared && !wants_memo {
        return;
    }
    let memo_dir =
        std::env::temp_dir().join(format!("mesh-perfsuite-{}-sweep", std::process::id()));
    let (workload, machine) = (&fft.workload, &fft.machine);
    let grid = [0.0, 50.0, 200.0, 1_000.0, 5_000.0];
    // `isolated` clears the in-process memo before every point, so no
    // point shares another's sub-evaluations.
    let run_grid = |isolated: bool| {
        for ts in grid {
            if isolated {
                mesh_bench::memo::clear_subeval_lru();
            }
            mesh_bench::compare(
                workload,
                machine,
                mesh_bench::HybridOptions {
                    policy: AnnotationPolicy::AtBarriers,
                    min_timeslice: ts,
                },
            );
        }
    };

    mesh_bench::memo::set_result_cache(None);
    let mut cold = None;
    if wants_cold {
        let median = time_median_batched_ns(samples, mesh_bench::memo::clear_subeval_lru, |()| {
            run_grid(true)
        });
        suite.record("sweep/grid_cold", median);
        cold = Some(median);
    }
    let mut shared = None;
    if wants_shared {
        let median = time_median_batched_ns(samples, mesh_bench::memo::clear_subeval_lru, |()| {
            run_grid(false)
        });
        suite.record("sweep/grid_shared", median);
        shared = Some(median);
    }
    if let (Some(cold), Some(shared)) = (cold, shared) {
        println!(
            "split-phase reference sharing (cold/shared): {:.2}x",
            cold / shared
        );
    }
    if wants_memo {
        mesh_bench::memo::set_result_cache(Some(&memo_dir));
        run_grid(false); // populate the persistent tier once
        let median = time_median_batched_ns(samples, mesh_bench::memo::clear_subeval_lru, |()| {
            run_grid(false)
        });
        suite.record("sweep/grid_memo_warm", median);
    }

    // Back to whatever the environment configured, then drop the tempdir.
    mesh_bench::memo::clear_subeval_lru();
    mesh_bench::memo::set_result_cache(mesh_bench::config().result_cache.as_deref());
    let _ = std::fs::remove_dir_all(&memo_dir);
}

/// The ungated row that records host speed, which no code change moves:
/// the median time of [`host_reference`] over [`HOST_SAMPLES`] samples at
/// the start of a run and as many at its end, averaged. Timed in every run,
/// filtered or not.
const HOST_ROW: &str = "host/reference";
/// References per host-reference sample: about 7.5 ms on a 2-vCPU Xeon VM.
const HOST_REFS: u64 = 1_000_000;
const HOST_SAMPLES: usize = 5;

/// Prints each scenario's MESH-versus-ISS curve (see [`SpeedupCurve`])
/// from the medians the run recorded, skipping a scenario a `--filter`
/// left incomplete.
fn print_curves(file: &BenchFile, scenarios: &[Scenario]) {
    println!(
        "\n{:<40} {:>9} {:>9} {:>9} {:>10}",
        "MESH vs ISS speedup(N), annotation in", "N = 1", "N = 64", "limit", "100x at N"
    );
    let median = |name: String| file.median_of(&name);
    for s in scenarios {
        let (Some(compile), Some(consume), Some(profile), Some(fold_build), Some(run)) = (
            median(format!("{}_compile", s.sim)),
            median(format!("{}_skip", s.sim)),
            median(format!("annotate/{}_profile", s.name)),
            median(format!("annotate/{}_fold_build", s.name)),
            median(format!("kernel/{}", s.name)),
        ) else {
            continue;
        };
        let curve = SpeedupCurve {
            compile,
            consume,
            profile,
            fold_build,
            run,
        };
        let n = curve
            .break_even(100.0)
            .map_or("never".into(), |n| n.to_string());
        println!(
            "{:<40} {:>8.1}x {:>8.1}x {:>8.1}x {n:>10}",
            s.name,
            curve.at(1.0),
            curve.at(64.0),
            curve.limit()
        );
    }
}

fn main() {
    let args = parse_args();
    let sha = mesh_obs::report::git_sha();
    let mode = if args.quick { "quick" } else { "full" };
    println!("perfsuite ({mode}) at {sha}\n");
    // Read before the first section, so the cyclesim timings compile traces
    // on MESH_BENCH_JOBS threads. The artifact records this configuration,
    // which every section except store/ and sweep/ runs under.
    let config = mesh_bench::config();
    let mut suite = Suite {
        filter: args.filter.clone(),
        records: Vec::new(),
    };
    // Sample counts. Quick mode keeps CI short, except where the gate needs
    // more: a `sweep/` median of three samples spread nearly 2x across
    // runs of one build, so the 2x gate could not see a regression under it.
    let (s_sim, s_sweep) = if args.quick { (3, 9) } else { (7, 15) };
    let time_host = || time_median_ns(HOST_SAMPLES, 1, || host_reference(HOST_REFS));
    let host_start = time_host();

    let scenarios = scenarios();
    bench_hybrid(&mut suite, &scenarios);
    bench_models(&mut suite, MICRO_SAMPLES);

    // Smoke-grid cyclesim runs exist in both modes so a quick CI run is
    // always comparable against a committed full baseline.
    for s in &scenarios {
        bench_cyclesim(&mut suite, s.sim, &s.workload, &s.machine, s_sim);
    }
    let [fft, _] = &scenarios;
    let smoke_uniform = uniform::build(&UniformConfig::with_threads(4));
    bench_cyclesim(
        &mut suite,
        "cyclesim/smoke_uniform",
        &smoke_uniform,
        &fft.machine,
        s_sim,
    );

    // Observability overhead, after the cyclesim benches so the forced
    // enable cannot perturb them.
    bench_obs(&mut suite, &fft.workload, &fft.machine, s_sim);

    if !args.quick {
        // The Figure-4 grid: processor sweep x both cache configurations.
        for procs in FFT_PROC_SWEEP {
            let workload = fft::build(&FftConfig::with_threads(procs));
            for (cache_bytes, label) in FFT_CACHES {
                bench_cyclesim(
                    &mut suite,
                    &format!("cyclesim/fig4_p{procs}_{label}"),
                    &workload,
                    &fft_machine(procs, cache_bytes, FFT_BUS_DELAY),
                    s_sim,
                );
            }
        }
        // The Figure-5 bus-delay sweep on the PHM scenario.
        for delay in FIG5_BUS_DELAYS {
            let workload = scenario::build(&PhmConfig::with_second_idle(0.45));
            bench_cyclesim(
                &mut suite,
                &format!("cyclesim/fig5_d{delay}"),
                &workload,
                &phm_machine(delay),
                s_sim,
            );
        }
    }

    // The result memo (its keys, then the cache) and the split-phase sweep
    // grid, last so their config juggling and cache clearing cannot perturb
    // any other section.
    bench_keys(&mut suite);
    bench_store(&mut suite, s_sim);
    bench_sweep(&mut suite, fft, s_sweep);
    let host_end = time_host();
    println!(
        "host reference at start {:.2} ms, at end {:.2} ms",
        host_start / 1e6,
        host_end / 1e6
    );
    suite.record(HOST_ROW, (host_start + host_end) / 2.0);

    let file = BenchFile {
        git_sha: sha.clone(),
        quick: args.quick,
        // Recorded so the perf gate can refuse to compare medians across
        // different parallelism or cache configurations (threads, fabric
        // shards, result memo cache).
        jobs: config.jobs,
        shards: config.shards.unwrap_or(0),
        result_cache: usize::from(config.result_cache.is_some()),
        benchmarks: suite.records,
    };

    // Speedup summary from the recorded medians: tick/skip is the
    // event-skipping win, cursor/trace the trace-pipeline win on the skip
    // engine, and compile the one-off per-workload trace build cost that
    // the cross-sweep cache amortizes away.
    println!(
        "\n{:<40} {:>10} {:>13} {:>12}",
        "cyclesim speedup", "tick/skip", "cursor/trace", "compile(ms)"
    );
    let mut fig4_range: Option<(f64, f64)> = None;
    for b in &file.benchmarks {
        let Some(base) = b.name.strip_suffix("_skip") else {
            continue;
        };
        let Some(tick) = file.median_of(&format!("{base}_tick")) else {
            continue;
        };
        let speedup = tick / b.median_ns;
        if base.starts_with("cyclesim/fig4") {
            let (lo, hi) = fig4_range.unwrap_or((speedup, speedup));
            fig4_range = Some((lo.min(speedup), hi.max(speedup)));
        }
        let cursor = file
            .median_of(&format!("{base}_skip_cursor"))
            .map(|c| format!("{:.1}x", c / b.median_ns))
            .unwrap_or_else(|| "-".into());
        let compile = file
            .median_of(&format!("{base}_compile"))
            .map(|c| format!("{:.2}", c / 1.0e6))
            .unwrap_or_else(|| "-".into());
        println!("{base:<40} {:>9.1}x {cursor:>13} {compile:>12}", speedup);
    }
    if let Some((lo, hi)) = fig4_range {
        // Speedup is contention-dependent (see docs/PERFORMANCE.md): the
        // coarse-grained points set the ceiling, the miss-dense points are
        // floor-bound by the per-reference work both engines share.
        println!("fig4 grid speedup range (tick/skip): {lo:.1}x - {hi:.1}x");
    }
    print_curves(&file, &scenarios);

    let out = args.out.unwrap_or_else(|| format!("BENCH_{sha}.json"));
    std::fs::write(&out, file.to_json()).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!("\nwrote {out}");

    if let Some(baseline_path) = args.check {
        let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            eprintln!("error: cannot read baseline {baseline_path}: {e}");
            std::process::exit(1);
        });
        let baseline = BenchFile::from_json(&text).unwrap_or_else(|e| {
            eprintln!("error: malformed baseline {baseline_path}: {e}");
            std::process::exit(1);
        });
        if let Some(base) = baseline.median_of(HOST_ROW) {
            let now = file.median_of(HOST_ROW).expect("every run times the host");
            println!(
                "host reference: {:.2}x the baseline's ({:.2} vs {:.2} ms); \
                 the gate compares raw medians",
                now / base,
                now / 1e6,
                base / 1e6
            );
        }
        let partial = args.filter.is_some();
        let mut failed = false;
        for prefix in GATED_PREFIXES {
            if partial && !file.benchmarks.iter().any(|b| b.name.starts_with(prefix)) {
                println!("perf check skipped: the filter measured no {prefix} benchmark");
                continue;
            }
            match check_regression(&file, &baseline, prefix, args.factor, partial) {
                Ok(checked) => {
                    println!(
                        "perf check OK: {checked} {prefix} benchmarks within {:.1}x of {} ({})",
                        args.factor, baseline_path, baseline.git_sha
                    );
                }
                Err(failures) => {
                    eprintln!(
                        "perf check FAILED vs {baseline_path} ({}):",
                        baseline.git_sha
                    );
                    for f in failures {
                        eprintln!("  {f}");
                    }
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
    mesh_bench::obs_finish();
}
