//! # mesh-bench — experiment runners for regenerating the paper's results
//!
//! Shared machinery behind the figure/table binaries (`fig4`, `table1`,
//! `fig5`, `fig6`, `ablation_minslice`, `ablation_granularity`) and the
//! repository's integration tests: each experiment runs the *same workload*
//! through three estimators and collects comparable queuing-cycle
//! percentages:
//!
//! 1. **ISS** — the cycle-accurate reference (`mesh-cyclesim`), the ground
//!    truth;
//! 2. **MESH** — the hybrid kernel with the Chen–Lin-style model evaluated
//!    piecewise per timeslice;
//! 3. **Analytical** — the identical model applied once over the whole
//!    program (`mesh_models::AnalyticalEstimator`).
//!
//! All three report queuing cycles as a percentage of contention-free work
//! cycles, so errors are directly comparable with the paper's Figures 4–6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod eval;
pub mod fabric;
pub mod memo;
pub mod perf;
pub mod sweep;

use mesh_annotate::{
    profile_task, AnnotationPolicy, HybridSetup, ProfiledWorkload, SegmentProfile,
};
use mesh_arch::{Arbitration, BusConfig, CacheConfig, MachineConfig, ProcConfig};
use mesh_core::model::ContentionModel;
use mesh_cyclesim::CycleReport;
use mesh_metrics::abs_percent_error;
use mesh_models::{AnalyticalEstimator, ChenLinBus, ThreadProfile};
use mesh_workloads::fft::{self, FftConfig};
use mesh_workloads::scenario::{self, PhmConfig};
use mesh_workloads::Workload;
use std::time::Duration;

/// One comparison of the three estimators on one workload/machine point.
#[derive(Clone, Debug)]
pub struct ComparisonPoint {
    /// Queuing percentage measured by the cycle-accurate reference.
    pub iss_pct: f64,
    /// Queuing percentage predicted by the hybrid MESH kernel.
    pub mesh_pct: f64,
    /// Queuing percentage predicted by the whole-program analytical model.
    pub analytical_pct: f64,
    /// Wall-clock time of the cycle-accurate run.
    pub iss_wall: Duration,
    /// Wall-clock time of the hybrid run.
    pub mesh_wall: Duration,
    /// Simulated cycles of the reference run.
    pub iss_cycles: u64,
    /// Total simulated time of the hybrid run, in cycles.
    pub mesh_cycles: f64,
    /// Annotation regions committed by the hybrid run.
    pub mesh_regions: u64,
    /// Timeslices analyzed by the hybrid run.
    pub mesh_slices: u64,
    /// Contention-free work cycles (the percentage denominator).
    pub work_cycles: u64,
    /// Shared bus accesses (cache misses).
    pub misses: u64,
    /// Whether either timed leg (ISS reference or hybrid run) was replayed
    /// from a cache, in which case `iss_wall`/`mesh_wall` are *recorded*
    /// timings from the run that populated it, not this process's clock.
    /// Provenance only — excluded from equality, checkpoints decode its
    /// absence as `false`.
    pub replayed: bool,
}

/// Equality over the measured fields; `replayed` is provenance, not a
/// result, so a cached replay compares equal to the run that populated it.
impl PartialEq for ComparisonPoint {
    fn eq(&self, other: &ComparisonPoint) -> bool {
        self.iss_pct == other.iss_pct
            && self.mesh_pct == other.mesh_pct
            && self.analytical_pct == other.analytical_pct
            && self.iss_wall == other.iss_wall
            && self.mesh_wall == other.mesh_wall
            && self.iss_cycles == other.iss_cycles
            && self.mesh_cycles == other.mesh_cycles
            && self.mesh_regions == other.mesh_regions
            && self.mesh_slices == other.mesh_slices
            && self.work_cycles == other.work_cycles
            && self.misses == other.misses
    }
}

/// Unwraps a result in an experiment binary's main path.
///
/// On error the message — for [`sweep::SweepError`], including every failed
/// point's grid coordinates — is printed to stderr and the process exits
/// with status 1, so scripted pipelines observe a clean failure instead of a
/// panic backtrace. `context` names the failing stage (usually the sweep
/// label or setup step).
pub fn or_exit<T, E: std::fmt::Display>(context: &str, result: Result<T, E>) -> T {
    match result {
        Ok(value) => value,
        Err(e) => {
            eprintln!("{context}: {e}");
            std::process::exit(1);
        }
    }
}

/// End-of-run observability epilogue, called by every experiment binary just
/// before it exits:
///
/// * with `MESH_BENCH_PROGRESS` set, a one-line cross-sweep trace-cache
///   summary goes to stderr (stdout is never touched);
/// * [`mesh_obs::finish`] writes the metrics snapshot (`MESH_OBS_OUT`) and
///   the Chrome-trace timeline (`MESH_OBS_TRACE`) if those were requested.
///
/// A complete no-op when neither progress reporting nor observability is
/// enabled.
pub fn obs_finish() {
    if std::env::var_os(sweep::PROGRESS_ENV).is_some_and(|v| !v.is_empty()) {
        let s = mesh_cyclesim::cache_stats();
        eprintln!(
            "mesh-bench trace-cache: {} hits, {} misses, {} evictions, {} fallbacks \
             ({} entries, {} steps resident, {} compiles)",
            s.hits, s.misses, s.evictions, s.fallbacks, s.entries, s.resident_steps, s.compiles
        );
        if mesh_cyclesim::store_enabled() {
            let s = mesh_cyclesim::store_stats();
            eprintln!(
                "mesh-bench trace-store: {} hits, {} misses, {} publishes, {} quarantined, \
                 {} gc-removed, {} claim-waits",
                s.hits, s.misses, s.publishes, s.quarantined, s.gc_removed, s.claim_waits
            );
        }
        let s = memo::stats();
        if memo::enabled() || s.lru_hits > 0 {
            eprintln!(
                "mesh-bench result-cache: {} hits, {} misses, {} stores, {} quarantined, \
                 {} lru-hits",
                s.hits, s.misses, s.stores, s.quarantined, s.lru_hits
            );
        }
    }
    mesh_obs::finish();
}

impl crate::checkpoint::Checkpointable for ComparisonPoint {
    fn encode(&self) -> String {
        [
            self.iss_pct.encode(),
            self.mesh_pct.encode(),
            self.analytical_pct.encode(),
            self.iss_wall.encode(),
            self.mesh_wall.encode(),
            self.iss_cycles.encode(),
            self.mesh_cycles.encode(),
            self.mesh_regions.encode(),
            self.mesh_slices.encode(),
            self.work_cycles.encode(),
            self.misses.encode(),
            u64::from(self.replayed).encode(),
        ]
        .join(" ")
    }

    fn decode(s: &str) -> Option<ComparisonPoint> {
        let mut it = s.split_whitespace();
        let mut point = ComparisonPoint {
            iss_pct: f64::decode(it.next()?)?,
            mesh_pct: f64::decode(it.next()?)?,
            analytical_pct: f64::decode(it.next()?)?,
            iss_wall: Duration::decode(it.next()?)?,
            mesh_wall: Duration::decode(it.next()?)?,
            iss_cycles: u64::decode(it.next()?)?,
            mesh_cycles: f64::decode(it.next()?)?,
            mesh_regions: u64::decode(it.next()?)?,
            mesh_slices: u64::decode(it.next()?)?,
            work_cycles: u64::decode(it.next()?)?,
            misses: u64::decode(it.next()?)?,
            replayed: false,
        };
        // The replay flag is a later addition: records written before it
        // carry 11 tokens and decode as not-replayed.
        if let Some(flag) = it.next() {
            point.replayed = match u64::decode(flag)? {
                0 => false,
                1 => true,
                _ => return None,
            };
        }
        if it.next().is_some() {
            return None;
        }
        Some(point)
    }
}

impl ComparisonPoint {
    /// Absolute percent error of the hybrid prediction against the
    /// reference.
    pub fn mesh_error(&self) -> f64 {
        abs_percent_error(self.mesh_pct, self.iss_pct)
    }

    /// Absolute percent error of the whole-program analytical prediction
    /// against the reference.
    pub fn analytical_error(&self) -> f64 {
        abs_percent_error(self.analytical_pct, self.iss_pct)
    }

    /// Wall-clock speedup of the hybrid run over the cycle-accurate run.
    pub fn speedup(&self) -> f64 {
        let mesh = self.mesh_wall.as_secs_f64().max(1e-9);
        self.iss_wall.as_secs_f64() / mesh
    }
}

/// Experiment-wide knobs for the hybrid simulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HybridOptions {
    /// Annotation placement policy.
    pub policy: AnnotationPolicy,
    /// Minimum timeslice in cycles (paper §4.3); zero analyzes every slice.
    pub min_timeslice: f64,
}

impl Default for HybridOptions {
    fn default() -> HybridOptions {
        HybridOptions {
            policy: AnnotationPolicy::PerSegment,
            min_timeslice: 0.0,
        }
    }
}

/// Starts a scenario fingerprint covering everything a workload/machine
/// pair contributes to an evaluation: the trace layer's 128-bit workload
/// fingerprint (segment content, per-processor timing, pacing) plus the
/// machine's own digest (bus arbitration and the I/O device are not part of
/// the trace key, so they are folded in here). Evaluation-specific knobs
/// are appended by the caller before
/// [`finish`](memo::ScenarioFp::finish)ing.
///
/// # Panics
///
/// Panics if the workload is invalid for the machine.
pub fn scenario_fp(domain: &str, workload: &Workload, machine: &MachineConfig) -> memo::ScenarioFp {
    memo::ScenarioFp::new(domain)
        .wide(mesh_cyclesim::workload_fingerprint(
            workload,
            machine,
            mesh_cyclesim::Pacing::default(),
        ))
        .words(&machine.digest_words())
}

fn policy_words(policy: AnnotationPolicy) -> [u64; 2] {
    match policy {
        AnnotationPolicy::AtBarriers => [0, 0],
        AnnotationPolicy::PerSegment => [1, 0],
        AnnotationPolicy::EverySegments(n) => [2, n as u64],
    }
}

fn bump_subeval(name: &str) {
    if mesh_obs::enabled() {
        mesh_obs::counter(name).inc();
    }
}

/// The memoized product of the annotation sub-evaluation: every task's
/// per-segment cache profile ([`profile_task`] on its processor's cache).
struct Profiles(Vec<Vec<SegmentProfile>>);

/// Encoded as `<tasks>`, then per task `<segments>` followed by each
/// segment's `<hits> <misses>`.
impl crate::checkpoint::Checkpointable for Profiles {
    fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.0.len().to_string();
        for task in &self.0 {
            let _ = write!(out, " {}", task.len());
            for seg in task {
                let _ = write!(out, " {} {}", seg.hits, seg.misses);
            }
        }
        out
    }

    fn decode(s: &str) -> Option<Profiles> {
        let mut it = s.split_whitespace().map(|t| t.parse::<u64>().ok());
        let mut next = || it.next().flatten();
        let tasks = next()?;
        let mut profiles = Vec::new();
        for _ in 0..tasks {
            let segments = next()?;
            let mut task = Vec::new();
            for _ in 0..segments {
                task.push(SegmentProfile {
                    hits: next()?,
                    misses: next()?,
                });
            }
            profiles.push(task);
        }
        if it.next().is_some() {
            return None;
        }
        Some(Profiles(profiles))
    }
}

/// The sub-evaluation fingerprint of a scenario's annotation profile: the
/// content of every task's segments plus the cache geometry of the
/// processor it runs on. Nothing else determines a profile, so the key
/// deliberately leaves out the annotation policy, minimum timeslice,
/// contention model, bus and I/O timing, and processor power and hit cost —
/// every point of a sweep over those shares one profile.
pub fn annotation_profile_fp(workload: &Workload, machine: &MachineConfig) -> u128 {
    let mut fp = memo::ScenarioFp::new("subeval-annotate").word(workload.tasks.len() as u64);
    for (task, proc) in workload.tasks.iter().zip(&machine.procs) {
        fp = fp
            .hashed(&task.segments)
            .words(&proc.cache.geometry_words());
    }
    fp.finish()
}

/// Computes (or replays) the scenario's annotation profile, memoized under
/// [`annotation_profile_fp`] like the other sub-evaluations. Callers request
/// it inside their own leg's memo closure, so a replayed leg never asks.
fn annotation_profiles(workload: &Workload, machine: &MachineConfig) -> Vec<Vec<SegmentProfile>> {
    let fp = annotation_profile_fp(workload, machine);
    let (profiles, shared) = memo::memoize_flagged(fp, || {
        Profiles(
            workload
                .tasks
                .iter()
                .zip(&machine.procs)
                .map(|(task, proc)| profile_task(task, proc.cache))
                .collect(),
        )
    });
    if shared {
        bump_subeval("bench.subeval.annotation_shared");
    }
    profiles.0
}

/// As [`mesh_annotate::assemble`], but folding the scenario's memoized
/// annotation profile (see [`annotation_profile_fp`]): however many
/// policies and models are assembled on one scenario, its cache pass runs
/// once per process, or not at all once the persistent result cache holds
/// it.
///
/// # Panics
///
/// Panics if the workload is invalid for the machine or the machine has an
/// I/O device.
pub fn assemble_memoized<M: ContentionModel + 'static>(
    workload: &Workload,
    machine: &MachineConfig,
    model: M,
    policy: AnnotationPolicy,
) -> HybridSetup {
    let profiles = annotation_profiles(workload, machine);
    ProfiledWorkload::new(workload, machine, &profiles)
        .and_then(|profiled| profiled.assemble(model, policy))
        .expect("hybrid assembly failed")
}

/// The memoized product of the cycle-accurate reference sub-evaluation: the
/// ground-truth queuing percentage plus the recorded wall clock and
/// simulated-cycle count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IssRef {
    /// Queuing percentage measured by the reference.
    pub pct: f64,
    /// Wall-clock time of the run that populated this value.
    pub wall: Duration,
    /// Simulated cycles of the reference run.
    pub cycles: u64,
}

impl crate::checkpoint::Checkpointable for IssRef {
    fn encode(&self) -> String {
        [self.pct.encode(), self.wall.encode(), self.cycles.encode()].join(" ")
    }

    fn decode(s: &str) -> Option<IssRef> {
        let mut it = s.split_whitespace();
        let v = IssRef {
            pct: f64::decode(it.next()?)?,
            wall: Duration::decode(it.next()?)?,
            cycles: u64::decode(it.next()?)?,
        };
        if it.next().is_some() {
            return None;
        }
        Some(v)
    }
}

/// The memoized product of the hybrid sub-evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
struct HybridLeg {
    pct: f64,
    wall: Duration,
    cycles: f64,
    regions: u64,
    slices: u64,
    work_cycles: u64,
    misses: u64,
}

impl crate::checkpoint::Checkpointable for HybridLeg {
    fn encode(&self) -> String {
        [
            self.pct.encode(),
            self.wall.encode(),
            self.cycles.encode(),
            self.regions.encode(),
            self.slices.encode(),
            self.work_cycles.encode(),
            self.misses.encode(),
        ]
        .join(" ")
    }

    fn decode(s: &str) -> Option<HybridLeg> {
        let mut it = s.split_whitespace();
        let v = HybridLeg {
            pct: f64::decode(it.next()?)?,
            wall: Duration::decode(it.next()?)?,
            cycles: f64::decode(it.next()?)?,
            regions: u64::decode(it.next()?)?,
            slices: u64::decode(it.next()?)?,
            work_cycles: u64::decode(it.next()?)?,
            misses: u64::decode(it.next()?)?,
        };
        if it.next().is_some() {
            return None;
        }
        Some(v)
    }
}

/// The sub-evaluation fingerprint of the cycle-accurate reference for a
/// workload/machine pair: the key [`iss_reference`] memoizes under, and the
/// grouping key the [`eval`] planner co-locates sweep points by. Depends
/// only on the scenario — never on hybrid knobs — so every point of an
/// ablation grid over one machine shares it.
///
/// # Panics
///
/// Panics if the workload is invalid for the machine.
pub fn iss_reference_fp(workload: &Workload, machine: &MachineConfig) -> u128 {
    scenario_fp("subeval-iss", workload, machine).finish()
}

/// Runs (or replays) the cycle-accurate reference for a workload/machine
/// pair, memoized under [`iss_reference_fp`] in the in-process
/// sub-evaluation LRU and — with `MESH_RESULT_CACHE` set — the persistent
/// result cache. Every sweep point sharing the scenario shares one
/// simulation; concurrent callers are single-flighted.
///
/// # Panics
///
/// Panics if the workload is invalid for the machine.
pub fn iss_reference(workload: &Workload, machine: &MachineConfig) -> IssRef {
    iss_reference_flagged(workload, machine).0
}

fn iss_reference_flagged(workload: &Workload, machine: &MachineConfig) -> (IssRef, bool) {
    let fp = iss_reference_fp(workload, machine);
    let (iss, shared) = memo::memoize_flagged(fp, || {
        let iss: CycleReport =
            mesh_cyclesim::simulate(workload, machine).expect("cycle-accurate simulation failed");
        IssRef {
            pct: iss.queuing_percent(),
            wall: iss.wall_clock,
            cycles: iss.total_cycles,
        }
    });
    if shared {
        bump_subeval("bench.subeval.reference_shared");
    }
    (iss, shared)
}

/// The sub-evaluation fingerprint of the hybrid leg for a scenario and knob
/// setting: scenario plus annotation policy, minimum timeslice and the
/// contention model's identity. Exposed so the cache-identity tests can
/// prove distinct knob settings never collide within the domain.
///
/// # Panics
///
/// Panics if the workload is invalid for the machine.
pub fn hybrid_subeval_fp(
    workload: &Workload,
    machine: &MachineConfig,
    options: HybridOptions,
) -> u128 {
    let model = ChenLinBus::new();
    let [ptag, parg] = policy_words(options.policy);
    scenario_fp("subeval-hybrid", workload, machine)
        .word(ptag)
        .word(parg)
        .word(options.min_timeslice.to_bits())
        .text(model.name())
        .words(&model.digest_words())
        .finish()
}

fn hybrid_leg_flagged(
    workload: &Workload,
    machine: &MachineConfig,
    options: HybridOptions,
) -> (HybridLeg, bool) {
    let fp = hybrid_subeval_fp(workload, machine, options);
    let (leg, shared) = memo::memoize_flagged(fp, || {
        let setup = assemble_memoized(workload, machine, ChenLinBus::new(), options.policy);
        let work_cycles = setup.work_total();
        let misses = setup.misses_total();
        let mut builder = setup.builder;
        builder.set_min_timeslice(mesh_core::SimTime::from_cycles(options.min_timeslice));
        let outcome = builder
            .build()
            .expect("hybrid build failed")
            .run()
            .expect("hybrid run failed");
        let queuing = outcome.report.queuing_total().as_cycles();
        let pct = if work_cycles == 0 {
            0.0
        } else {
            100.0 * queuing / work_cycles as f64
        };
        HybridLeg {
            pct,
            wall: outcome.report.wall_clock,
            cycles: outcome.report.total_time.as_cycles(),
            regions: outcome.report.commits,
            slices: outcome.report.slices_analyzed,
            work_cycles,
            misses,
        }
    });
    if shared {
        bump_subeval("bench.subeval.hybrid_shared");
    }
    (leg, shared)
}

fn analytical_leg(workload: &Workload, machine: &MachineConfig, policy: AnnotationPolicy) -> f64 {
    let model = ChenLinBus::new();
    let [ptag, parg] = policy_words(policy);
    // The whole-program estimator ignores the minimum timeslice, so it is
    // *not* part of this key — but the annotation policy is: regions
    // accumulate operations before cycle conversion, so with non-unit
    // processor powers the rounded work totals can differ per policy.
    let fp = scenario_fp("subeval-analytical", workload, machine)
        .word(ptag)
        .word(parg)
        .text(model.name())
        .words(&model.digest_words())
        .finish();
    let (pct, shared) = memo::memoize_flagged(fp, || {
        // Totals folded from the scenario's memoized annotation profile; no
        // kernel system is built.
        let cache_profiles = annotation_profiles(workload, machine);
        let profiles: Vec<ThreadProfile> =
            ProfiledWorkload::new(workload, machine, &cache_profiles)
                .expect("hybrid assembly failed")
                .task_stats(policy)
                .iter()
                .map(|t| {
                    ThreadProfile::new(
                        mesh_core::SimTime::from_cycles(t.work_cycles as f64),
                        t.misses as f64,
                    )
                })
                .collect();
        let estimator = AnalyticalEstimator::new(
            ChenLinBus::new(),
            mesh_core::SimTime::from_cycles(machine.bus.delay_cycles as f64),
        );
        estimator.estimate(&profiles).queuing_percent()
    });
    if shared {
        bump_subeval("bench.subeval.analytical_shared");
    }
    pct
}

/// Runs all three estimators on a workload/machine pair as independently
/// memoized **sub-evaluations** — cycle-accurate reference, hybrid run, and
/// whole-program analytical estimate — each cached in the in-process
/// sub-evaluation LRU and (with `MESH_RESULT_CACHE` set) the persistent
/// result cache under its own fingerprint domain. A sweep that varies only
/// hybrid knobs therefore runs the expensive reference **once per distinct
/// (workload, machine)** instead of once per point.
///
/// Cached legs replay their *recorded* wall-clock times, so replayed output
/// is byte-identical to the run that populated the cache; the returned
/// point's [`replayed`](ComparisonPoint::replayed) flag reports whether
/// either timed leg came from a cache (see [`note_replayed`]).
///
/// # Panics
///
/// Panics if the workload is invalid for the machine (the experiment
/// definitions in this crate always produce matching pairs).
pub fn compare(
    workload: &Workload,
    machine: &MachineConfig,
    options: HybridOptions,
) -> ComparisonPoint {
    let (iss, iss_shared) = iss_reference_flagged(workload, machine);
    let (hybrid, hybrid_shared) = hybrid_leg_flagged(workload, machine, options);
    let analytical_pct = analytical_leg(workload, machine, options.policy);

    ComparisonPoint {
        iss_pct: iss.pct,
        mesh_pct: hybrid.pct,
        analytical_pct,
        iss_wall: iss.wall,
        mesh_wall: hybrid.wall,
        iss_cycles: iss.cycles,
        mesh_cycles: hybrid.cycles,
        mesh_regions: hybrid.regions,
        mesh_slices: hybrid.slices,
        work_cycles: hybrid.work_cycles,
        misses: hybrid.misses,
        replayed: iss_shared || hybrid_shared,
    }
}

/// Prints a stderr provenance note when any point of a finished sweep was
/// replayed from a cache: its wall-clock and speedup columns reflect the
/// *recorded* timings of the runs that populated the cache, not this
/// process. Stdout is never touched, so replayed output stays byte-identical
/// to the populating run.
pub fn note_replayed(label: &str, points: &[ComparisonPoint]) {
    let rows: Vec<usize> = points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.replayed)
        .map(|(i, _)| i)
        .collect();
    if rows.is_empty() {
        return;
    }
    let rows_text = rows
        .iter()
        .map(|r| r.to_string())
        .collect::<Vec<_>>()
        .join(",");
    eprintln!(
        "{label}: {}/{} rows replayed from the result cache (rows {rows_text}); \
         wall-clock and speedup columns are recorded timings",
        rows.len(),
        points.len(),
    );
}

/// The machine of the §5.1 FFT experiment: `n` unit-power processors with
/// private caches of `cache_bytes` (4-way, 32-byte lines) on a shared bus.
pub fn fft_machine(procs: usize, cache_bytes: u64, bus_delay: u64) -> MachineConfig {
    let cache = CacheConfig::new(cache_bytes, 32, 4).expect("valid cache geometry");
    MachineConfig::homogeneous(procs, ProcConfig::new(cache), BusConfig::new(bus_delay))
}

/// The heterogeneous two-processor PHM SoC of §5.2: an ARM-like unit-power
/// core and a slower M32R-like core, 8 KB private caches, shared bus.
pub fn phm_machine(bus_delay: u64) -> MachineConfig {
    let cache = CacheConfig::new(8 * 1024, 32, 4).expect("valid cache geometry");
    MachineConfig::new(
        vec![
            ProcConfig::new(cache),                 // ARM-like
            ProcConfig::new(cache).with_power(0.8), // M32R-like
        ],
        BusConfig::new(bus_delay),
    )
}

/// Runs one Figure-4 point: the FFT on `procs` processors with the given
/// cache size. Annotations at barriers, exactly as in the paper.
pub fn run_fft_point(procs: usize, cache_bytes: u64, bus_delay: u64) -> ComparisonPoint {
    let workload = fft::build(&FftConfig::with_threads(procs));
    let machine = fft_machine(procs, cache_bytes, bus_delay);
    compare(
        &workload,
        &machine,
        HybridOptions {
            policy: AnnotationPolicy::AtBarriers,
            min_timeslice: 0.0,
        },
    )
}

/// Runs one Figure-5/6 point: the sporadic PHM scenario with the second
/// processor idle for the given fraction, at the given bus delay.
pub fn run_phm_point(idle1: f64, bus_delay: u64, seed: u64) -> ComparisonPoint {
    let workload = scenario::build(&PhmConfig {
        seed,
        ..PhmConfig::with_second_idle(idle1)
    });
    let machine = phm_machine(bus_delay);
    compare(&workload, &machine, HybridOptions::default())
}

/// Pre-warms the persistent trace store for one Figure-4/Table-1 point:
/// compiles (or claims) every trace the point's cycle-accurate runs will
/// need and publishes it, without running any simulation or keeping the
/// traces in this process's memory (already-published traces are skipped
/// outright). A no-op unless `MESH_TRACE_STORE` is configured. The sweep
/// fabric calls this in the *parent* before spawning shard workers, so N
/// workers load shared traces instead of compiling the same workload N
/// times.
pub fn prewarm_fft_point(procs: usize, cache_bytes: u64, bus_delay: u64) {
    let workload = fft::build(&FftConfig::with_threads(procs));
    let machine = fft_machine(procs, cache_bytes, bus_delay);
    mesh_cyclesim::ensure_stored(&workload, &machine, mesh_cyclesim::Pacing::default());
}

/// Pre-warms the persistent trace store for one Figure-5/6 point; see
/// [`prewarm_fft_point`].
pub fn prewarm_phm_point(idle1: f64, bus_delay: u64, seed: u64) {
    let workload = scenario::build(&PhmConfig {
        seed,
        ..PhmConfig::with_second_idle(idle1)
    });
    let machine = phm_machine(bus_delay);
    mesh_cyclesim::ensure_stored(&workload, &machine, mesh_cyclesim::Pacing::default());
}

/// Selects the adversarial-schedule set for envelope validation, honouring
/// the `MESH_ADVERSARY` environment knob:
///
/// * `full` (default) — fixed priority, reverse priority, and victim-last
///   for every processor: `2 + n` schedules;
/// * `quick` — fixed and reverse priority only;
/// * `off` — no adversarial schedules (validation is skipped).
///
/// Each is a deterministic work-conserving bus arbitration of the
/// cycle-accurate simulator chosen to starve some processor; the hybrid
/// kernel's worst-case [`Envelope`](mesh_core::Envelope) must dominate the
/// queuing of all of them.
pub fn adversarial_arbitrations(n_procs: usize) -> Vec<Arbitration> {
    let mode = std::env::var("MESH_ADVERSARY").unwrap_or_default();
    match mode.as_str() {
        "off" => Vec::new(),
        "quick" => vec![Arbitration::FixedPriority, Arbitration::ReversePriority],
        _ => {
            let mut all = vec![Arbitration::FixedPriority, Arbitration::ReversePriority];
            all.extend((0..n_procs).map(Arbitration::VictimLast));
            all
        }
    }
}

/// Runs the cycle-accurate simulator under every schedule of
/// [`adversarial_arbitrations`] and returns the **maximum** observed bus
/// queuing, in cycles — the adversarial ground truth a worst-case envelope
/// must dominate. Returns zero when `MESH_ADVERSARY=off` empties the set.
///
/// The maximum is memoized per scenario in the in-process sub-evaluation
/// LRU and — with `MESH_RESULT_CACHE` set — on disk; the raw
/// `MESH_ADVERSARY` value is part of the key, so changing the schedule set
/// never serves a stale maximum.
///
/// # Panics
///
/// Panics if the workload is invalid for the machine.
pub fn adversarial_bus_queuing_max(workload: &Workload, machine: &MachineConfig) -> u64 {
    let fp = adversarial_max_fp(workload, machine);
    let (max, shared) = memo::memoize_flagged(fp, || {
        adversarial_bus_queuing_max_uncached(workload, machine)
    });
    if shared {
        bump_subeval("bench.subeval.reference_shared");
    }
    max
}

/// The sub-evaluation fingerprint of the adversarial-schedule maximum for a
/// workload/machine pair — the grouping key `noc_sweep` hands the [`eval`]
/// planner, so envelope points differing only in contention model share one
/// adversarial ISS sweep.
///
/// # Panics
///
/// Panics if the workload is invalid for the machine.
pub fn adversarial_max_fp(workload: &Workload, machine: &MachineConfig) -> u128 {
    let mode = std::env::var("MESH_ADVERSARY").unwrap_or_default();
    scenario_fp("adversarial-max", workload, machine)
        .text(&mode)
        .finish()
}

fn adversarial_bus_queuing_max_uncached(workload: &Workload, machine: &MachineConfig) -> u64 {
    adversarial_arbitrations(machine.procs.len())
        .into_iter()
        .map(|arb| {
            let mut m = machine.clone();
            m.bus = m.bus.with_arbitration(arb);
            mesh_cyclesim::simulate(workload, &m)
                .expect("adversarial cycle-accurate simulation failed")
                .bus_queuing_total()
        })
        .max()
        .unwrap_or(0)
}

/// One envelope-validation point: the hybrid kernel's mean and worst-case
/// queuing for a given model, against the adversarial ISS maximum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnvelopePoint {
    /// Hybrid mean queuing as a percentage of work cycles.
    pub mean_pct: f64,
    /// Hybrid worst-case envelope as a percentage of work cycles.
    pub worst_pct: f64,
    /// Maximum adversarial-schedule ISS queuing as a percentage of work
    /// cycles (zero when `MESH_ADVERSARY=off`).
    pub adversarial_pct: f64,
    /// Contention-free work cycles (the percentage denominator).
    pub work_cycles: u64,
}

impl EnvelopePoint {
    /// Whether the envelope dominates the adversarial observation — the
    /// property the `noc_sweep` binary and the proptests check.
    pub fn envelope_holds(&self) -> bool {
        self.worst_pct + 1e-9 >= self.adversarial_pct
    }
}

impl crate::checkpoint::Checkpointable for EnvelopePoint {
    fn encode(&self) -> String {
        [
            self.mean_pct.encode(),
            self.worst_pct.encode(),
            self.adversarial_pct.encode(),
            self.work_cycles.encode(),
        ]
        .join(" ")
    }

    fn decode(s: &str) -> Option<EnvelopePoint> {
        let mut it = s.split_whitespace();
        let point = EnvelopePoint {
            mean_pct: f64::decode(it.next()?)?,
            worst_pct: f64::decode(it.next()?)?,
            adversarial_pct: f64::decode(it.next()?)?,
            work_cycles: u64::decode(it.next()?)?,
        };
        if it.next().is_some() {
            return None;
        }
        Some(point)
    }
}

/// The memoizable product of one hybrid envelope run: the work-cycle
/// denominator plus the kernel's full [`Report`](mesh_core::Report),
/// round-tripped losslessly through the report's record encoding.
struct HybridRun {
    work_cycles: u64,
    report: mesh_core::Report,
}

impl crate::checkpoint::Checkpointable for HybridRun {
    fn encode(&self) -> String {
        format!("{} {}", self.work_cycles, self.report.to_record())
    }

    fn decode(s: &str) -> Option<HybridRun> {
        let (work, report) = s.split_once(' ')?;
        Some(HybridRun {
            work_cycles: work.parse().ok()?,
            report: mesh_core::Report::decode(report)?,
        })
    }
}

fn hybrid_envelope_run<M: ContentionModel + 'static>(
    workload: &Workload,
    machine: &MachineConfig,
    model: M,
    priorities: &[u32],
) -> HybridRun {
    let mut setup = assemble_memoized(workload, machine, model, AnnotationPolicy::AtBarriers);
    for (&thread, &priority) in setup.threads.iter().zip(priorities) {
        setup.builder.set_priority(thread, priority);
    }
    let work_cycles = setup.work_total();
    let report = setup
        .builder
        .build()
        .expect("hybrid build failed")
        .run()
        .expect("hybrid run failed")
        .report;
    HybridRun {
        work_cycles,
        report,
    }
}

/// Runs one envelope-validation point: the workload through the hybrid
/// kernel with `model` on the shared bus (annotations at barriers), and the
/// cycle-accurate simulator under every adversarial schedule.
///
/// `priorities` assigns arbitration priorities to the logical threads in
/// task order (higher = more important, consumed by priority-class models);
/// pass an empty slice to leave every thread at the default priority.
///
/// With `MESH_RESULT_CACHE` set, the hybrid leg is memoized under the
/// scenario plus the model's name,
/// [`digest_words`](ContentionModel::digest_words) and the priority
/// assignment; the adversarial leg is memoized separately (see
/// [`adversarial_bus_queuing_max`]), so changing `MESH_ADVERSARY` reuses
/// the hybrid result.
///
/// # Panics
///
/// Panics if the workload is invalid for the machine.
pub fn run_envelope_point<M: ContentionModel + 'static>(
    workload: &Workload,
    machine: &MachineConfig,
    model: M,
    priorities: &[u32],
) -> EnvelopePoint {
    // Read identity off the model before it moves into the closure.
    let fp = scenario_fp("envelope-hybrid", workload, machine)
        .text(model.name())
        .words(&model.digest_words())
        .words(
            &priorities
                .iter()
                .map(|&p| u64::from(p))
                .collect::<Vec<u64>>(),
        )
        .finish();
    let (run, _) = memo::memoize_flagged(fp, || {
        hybrid_envelope_run(workload, machine, model, priorities)
    });
    let work_cycles = run.work_cycles;
    let report = run.report;
    let adversarial = adversarial_bus_queuing_max(workload, machine);
    let pct = |cycles: f64| {
        if work_cycles == 0 {
            0.0
        } else {
            100.0 * cycles / work_cycles as f64
        }
    };
    EnvelopePoint {
        mean_pct: pct(report.envelope.mean.as_cycles()),
        worst_pct: pct(report.envelope.worst.as_cycles()),
        adversarial_pct: pct(adversarial as f64),
        work_cycles,
    }
}

/// The processor counts of the Figure 4 sweep.
pub const FFT_PROC_SWEEP: [usize; 4] = [2, 4, 8, 16];
/// The paper's two cache configurations (Figure 4 / Table 1).
pub const FFT_CACHES: [(u64, &str); 2] = [(512 * 1024, "512KB"), (8 * 1024, "8KB")];
/// The bus delays of the Figure 5 sweep, in cycles.
pub const FIG5_BUS_DELAYS: [u64; 5] = [2, 4, 8, 12, 16];
/// The idle fractions of the Figure 6 sweep.
pub const FIG6_IDLE_SWEEP: [f64; 7] = [0.0, 0.15, 0.30, 0.45, 0.60, 0.75, 0.90];
/// The bus delay used by the FFT experiments.
pub const FFT_BUS_DELAY: u64 = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_point_derived_metrics() {
        let p = ComparisonPoint {
            iss_pct: 10.0,
            mesh_pct: 11.0,
            analytical_pct: 17.0,
            iss_wall: Duration::from_millis(100),
            mesh_wall: Duration::from_millis(1),
            iss_cycles: 1000,
            mesh_cycles: 1000.0,
            mesh_regions: 10,
            mesh_slices: 9,
            work_cycles: 900,
            misses: 100,
            replayed: false,
        };
        assert!((p.mesh_error() - 10.0).abs() < 1e-9);
        assert!((p.analytical_error() - 70.0).abs() < 1e-9);
        assert!((p.speedup() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn machines_are_well_formed() {
        let m = fft_machine(4, 512 * 1024, 4);
        assert_eq!(m.procs.len(), 4);
        let m = phm_machine(8);
        assert_eq!(m.procs.len(), 2);
        assert!(m.procs[1].power < m.procs[0].power);
    }

    #[test]
    fn small_fft_comparison_runs() {
        // A tiny FFT so the test stays fast in debug builds.
        let cfg = FftConfig {
            points: 4096,
            threads: 2,
            ..FftConfig::default()
        };
        let workload = fft::build(&cfg);
        let machine = fft_machine(2, 8 * 1024, 4);
        let point = compare(
            &workload,
            &machine,
            HybridOptions {
                policy: AnnotationPolicy::AtBarriers,
                min_timeslice: 0.0,
            },
        );
        assert!(point.iss_pct > 0.0, "reference saw contention");
        assert!(point.mesh_pct > 0.0, "hybrid predicted contention");
        assert!(point.work_cycles > 0);
        assert!(point.misses > 0);
    }
}
