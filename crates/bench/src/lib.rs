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
pub mod config;
pub mod fabric;
pub mod memo;
pub mod perf;
pub mod sweep;

use mesh_annotate::{profile_task, AnnotationPolicy, ProfiledWorkload, SegmentProfile};
use mesh_arch::{Arbitration, BusConfig, CacheConfig, MachineConfig, ProcConfig};
use mesh_core::model::{ContentionModel, NoContention};
use mesh_cyclesim::CycleReport;
use mesh_metrics::abs_percent_error;
use mesh_models::{
    AnalyticalEstimator, ChenLinBus, FairShare, Md1Queue, Mm1Queue, MvaBus, PriorityBus,
    PriorityNoc, RoundRobinBus, ScaledModel, TableModel, ThreadProfile,
};
use mesh_workloads::fft::{self, FftConfig};
use mesh_workloads::scenario::{self, PhmConfig};
use mesh_workloads::Workload;
use std::time::Duration;

pub use config::{config, RunConfig};

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
    /// from the persistent result cache — directly, or through an
    /// in-process memo value an earlier call read from it — in which case
    /// `iss_wall`/`mesh_wall` are *recorded* timings from the run that
    /// populated it, not this process's clock. A leg shared in-process
    /// with a point measured earlier in the same run is not a replay.
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
            fabric::remove_scratch();
            std::process::exit(1);
        }
    }
}

/// End-of-run observability epilogue, called by every experiment binary just
/// before it exits:
///
/// * with `MESH_BENCH_PROGRESS` on, a one-line cross-sweep trace-cache
///   summary goes to stderr (stdout is never touched);
/// * [`mesh_obs::finish`] writes the metrics snapshot (`MESH_OBS_OUT`) and
///   the Chrome-trace timeline (`MESH_OBS_TRACE`) if those were requested;
/// * the scratch files of sharded sweeps (`MESH_BENCH_SHARDS`) are removed.
///
/// Prints and writes nothing when neither progress reporting nor
/// observability is enabled.
pub fn obs_finish() {
    if config().progress {
        let s = mesh_cyclesim::cache_stats();
        eprintln!(
            "mesh-bench trace-cache: {} hits, {} misses, {} evictions, {} fallbacks \
             ({} entries, {} steps resident, {} compiles)",
            s.hits, s.misses, s.evictions, s.fallbacks, s.entries, s.resident_steps, s.compiles
        );
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
    fabric::remove_scratch();
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

/// The trace layer's fingerprint of `workload` on `machine` — the one pass
/// over every segment a point's memo keys need. A point computes it once
/// (see [`Scenario`]) and derives each leg's key from it with
/// [`scenario_fp_of`].
///
/// # Panics
///
/// Panics if the workload is invalid for the machine.
fn workload_fp(workload: &Workload, machine: &MachineConfig) -> u128 {
    mesh_cyclesim::workload_fingerprint(workload, machine, mesh_cyclesim::Pacing::default())
}

/// Starts a scenario fingerprint covering everything a workload/machine
/// pair contributes to an evaluation: the trace layer's 128-bit workload
/// fingerprint (segment content, per-processor timing, pacing) plus the
/// machine's own digest (bus arbitration and the I/O device are not part of
/// the trace key, so they are folded in here). Evaluation-specific knobs
/// are appended by the caller before
/// [`finish`](memo::ScenarioFp::finish)ing.
fn scenario_fp_of(domain: &str, workload_fp: u128, machine: &MachineConfig) -> memo::ScenarioFp {
    memo::ScenarioFp::new(domain)
        .wide(workload_fp)
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

/// Every task's per-segment cache profile, read from the trace cache under
/// the cycle-accurate leg's pacing ([`mesh_cyclesim::profiles`]): the
/// traces the scenario's reference compiled, or compiled now for the
/// reference to reuse. Only a task past the trace step cap walks its cache
/// here, with [`profile_task`]. Callers read it inside their own leg's memo
/// closure, so a replayed leg never asks.
fn annotation_profiles(workload: &Workload, machine: &MachineConfig) -> Vec<Vec<SegmentProfile>> {
    mesh_cyclesim::profiles(workload, machine, mesh_cyclesim::Pacing::default())
        .into_iter()
        .zip(workload.tasks.iter().zip(&machine.procs))
        .map(|(profile, (task, proc))| profile.unwrap_or_else(|| profile_task(task, proc.cache)))
        .collect()
}

/// The memoized product of the cycle-accurate leg: the ground-truth
/// queuing percentage and per-resource queuing, plus the recorded wall
/// clock and simulated-cycle count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IssRef {
    /// Queuing percentage measured by the reference.
    pub pct: f64,
    /// Wall-clock time of the run that populated this value.
    pub wall: Duration,
    /// Simulated cycles of the reference run.
    pub cycles: u64,
    /// Bus queuing, in cycles
    /// ([`CycleReport::bus_queuing_total`]).
    pub bus_queuing: u64,
    /// I/O-device queuing, in cycles
    /// ([`CycleReport::io_queuing_total`]; zero with no device).
    pub io_queuing: u64,
}

impl crate::checkpoint::Checkpointable for IssRef {
    fn encode(&self) -> String {
        [
            self.pct.encode(),
            self.wall.encode(),
            self.cycles.encode(),
            self.bus_queuing.encode(),
            self.io_queuing.encode(),
        ]
        .join(" ")
    }

    fn decode(s: &str) -> Option<IssRef> {
        let mut it = s.split_whitespace();
        let v = IssRef {
            pct: f64::decode(it.next()?)?,
            wall: Duration::decode(it.next()?)?,
            cycles: u64::decode(it.next()?)?,
            bus_queuing: u64::decode(it.next()?)?,
            io_queuing: u64::decode(it.next()?)?,
        };
        if it.next().is_some() {
            return None;
        }
        Some(v)
    }
}

/// The memoized product of one hybrid run (see [`hybrid_run`]): the
/// annotation totals and the kernel's report, reduced to what the
/// experiments read. Times are in cycles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HybridLeg {
    /// Contention-free work cycles (the percentage denominator).
    pub work_cycles: u64,
    /// Shared bus accesses (cache misses).
    pub misses: u64,
    /// Wall-clock time of the kernel run that populated this value.
    pub wall: Duration,
    /// Total simulated time of the run.
    pub total_cycles: f64,
    /// Annotation regions committed.
    pub commits: u64,
    /// Timeslices analyzed.
    pub slices: u64,
    /// Total queuing, summed over threads.
    pub queuing: f64,
    /// Queuing the bus's model assigned.
    pub bus_queuing: f64,
    /// Queuing the I/O device's model assigned (zero with no device).
    pub io_queuing: f64,
    /// Mean of the run's queuing envelope.
    pub envelope_mean: f64,
    /// Worst case of the run's queuing envelope.
    pub envelope_worst: f64,
}

impl HybridLeg {
    /// `cycles` as a percentage of the run's work cycles (zero for a
    /// workload without work).
    pub fn percent(&self, cycles: f64) -> f64 {
        if self.work_cycles == 0 {
            0.0
        } else {
            100.0 * cycles / self.work_cycles as f64
        }
    }
}

impl crate::checkpoint::Checkpointable for HybridLeg {
    fn encode(&self) -> String {
        [
            self.work_cycles.encode(),
            self.misses.encode(),
            self.wall.encode(),
            self.total_cycles.encode(),
            self.commits.encode(),
            self.slices.encode(),
            self.queuing.encode(),
            self.bus_queuing.encode(),
            self.io_queuing.encode(),
            self.envelope_mean.encode(),
            self.envelope_worst.encode(),
        ]
        .join(" ")
    }

    fn decode(s: &str) -> Option<HybridLeg> {
        let mut it = s.split_whitespace();
        let v = HybridLeg {
            work_cycles: u64::decode(it.next()?)?,
            misses: u64::decode(it.next()?)?,
            wall: Duration::decode(it.next()?)?,
            total_cycles: f64::decode(it.next()?)?,
            commits: u64::decode(it.next()?)?,
            slices: u64::decode(it.next()?)?,
            queuing: f64::decode(it.next()?)?,
            bus_queuing: f64::decode(it.next()?)?,
            io_queuing: f64::decode(it.next()?)?,
            envelope_mean: f64::decode(it.next()?)?,
            envelope_worst: f64::decode(it.next()?)?,
        };
        if it.next().is_some() {
            return None;
        }
        Some(v)
    }
}

/// The memo key of the cycle-accurate leg for a workload/machine pair: the
/// key [`iss_reference`] memoizes under, and the reference key that
/// [`sweep::sweep_with_references`] co-locates a sharded grid's points by.
/// Depends only on the scenario — never on hybrid knobs — so every point of
/// an ablation grid over one machine shares it. The machine's digest folds
/// in the bus arbitration and the I/O device, so each adversarial schedule
/// and each I/O delay has a leg of its own.
///
/// # Panics
///
/// Panics if the workload is invalid for the machine.
pub fn iss_reference_fp(workload: &Workload, machine: &MachineConfig) -> u128 {
    iss_key(workload_fp(workload, machine), machine)
}

fn iss_key(workload_fp: u128, machine: &MachineConfig) -> u128 {
    scenario_fp_of("iss-leg", workload_fp, machine).finish()
}

/// The memo key of [`hybrid_run`]: the scenario, then the bus model's
/// identity, the I/O model's presence and identity, the annotation policy,
/// the minimum timeslice and the priority assignment. Exposed so the
/// cache-identity tests can prove every input moves it.
///
/// # Panics
///
/// Panics if the workload is invalid for the machine.
pub fn hybrid_fp(
    workload: &Workload,
    machine: &MachineConfig,
    bus_model: &dyn ContentionModel,
    io_model: Option<&dyn ContentionModel>,
    options: HybridOptions,
    priorities: &[u32],
) -> u128 {
    let fp = workload_fp(workload, machine);
    hybrid_key(fp, machine, bus_model, io_model, options, priorities)
}

fn hybrid_key(
    workload_fp: u128,
    machine: &MachineConfig,
    bus_model: &dyn ContentionModel,
    io_model: Option<&dyn ContentionModel>,
    options: HybridOptions,
    priorities: &[u32],
) -> u128 {
    let fp = scenario_fp_of("hybrid-leg", workload_fp, machine).model(bus_model);
    let fp = match io_model {
        None => fp.word(0),
        Some(io_model) => fp.word(1).model(io_model),
    };
    let [ptag, parg] = policy_words(options.policy);
    let priorities: Vec<u64> = priorities.iter().map(|&p| u64::from(p)).collect();
    fp.word(ptag)
        .word(parg)
        .word(options.min_timeslice.to_bits())
        .words(&priorities)
        .finish()
}

fn analytical_key(workload_fp: u128, machine: &MachineConfig, policy: AnnotationPolicy) -> u128 {
    let [ptag, parg] = policy_words(policy);
    // The whole-program estimator ignores the minimum timeslice, so it is
    // *not* part of this key — but the annotation policy is: regions
    // accumulate operations before cycle conversion, so with non-unit
    // processor powers the rounded work totals can differ per policy.
    scenario_fp_of("subeval-analytical", workload_fp, machine)
        .word(ptag)
        .word(parg)
        .model(&ChenLinBus::new())
        .finish()
}

/// A workload/machine pair and its [`workload_fp`], the one pass over the
/// workload's segments that every memoized leg of a point keys from.
#[derive(Clone, Copy)]
struct Scenario<'a> {
    workload: &'a Workload,
    machine: &'a MachineConfig,
    fp: u128,
}

impl<'a> Scenario<'a> {
    fn new(workload: &'a Workload, machine: &'a MachineConfig) -> Scenario<'a> {
        let fp = workload_fp(workload, machine);
        Scenario {
            workload,
            machine,
            fp,
        }
    }

    /// The scenario on `machine`, a variant of this one's whose processors
    /// match: the workload fingerprint leaves out the bus and the I/O
    /// device, so it carries over.
    fn on(self, machine: &'a MachineConfig) -> Scenario<'a> {
        Scenario { machine, ..self }
    }

    /// The cycle-accurate leg (see [`iss_reference`]).
    fn iss(self) -> (IssRef, memo::Origin) {
        let fp = iss_key(self.fp, self.machine);
        let (iss, origin) = memo::memoize_flagged(fp, || {
            let iss: CycleReport = mesh_cyclesim::simulate(self.workload, self.machine)
                .expect("cycle-accurate simulation failed");
            IssRef {
                pct: iss.queuing_percent(),
                wall: iss.wall_clock,
                cycles: iss.total_cycles,
                bus_queuing: iss.bus_queuing_total(),
                io_queuing: iss.io_queuing_total(),
            }
        });
        if origin.cached() {
            bump_subeval("bench.subeval.reference_shared");
        }
        (iss, origin)
    }

    /// The hybrid leg (see [`hybrid_run`]).
    fn hybrid<M, I>(
        self,
        bus_model: M,
        io_model: Option<I>,
        options: HybridOptions,
        priorities: &[u32],
    ) -> (HybridLeg, memo::Origin)
    where
        M: ContentionModel + 'static,
        I: ContentionModel + 'static,
    {
        let io = io_model.as_ref().map(|m| m as &dyn ContentionModel);
        let fp = hybrid_key(self.fp, self.machine, &bus_model, io, options, priorities);
        let (leg, origin) = memo::memoize_flagged(fp, || {
            let profiles = annotation_profiles(self.workload, self.machine);
            let mut setup = ProfiledWorkload::new(self.workload, self.machine, &profiles)
                .and_then(|profiled| match io_model {
                    None => profiled.assemble(bus_model, options.policy),
                    Some(io_model) => {
                        profiled.assemble_with_io(bus_model, io_model, options.policy)
                    }
                })
                .expect("hybrid assembly failed");
            for (&thread, &priority) in setup.threads.iter().zip(priorities) {
                setup.builder.set_priority(thread, priority);
            }
            setup
                .builder
                .set_min_timeslice(mesh_core::SimTime::from_cycles(options.min_timeslice));
            let (work_cycles, misses) = (setup.work_total(), setup.misses_total());
            let (bus, io) = (setup.bus, setup.io);
            let report = setup
                .builder
                .build()
                .expect("hybrid build failed")
                .run()
                .expect("hybrid run failed")
                .report;
            let queuing_at = |shared: mesh_core::SharedId| report.shared[shared.index()].queuing;
            HybridLeg {
                work_cycles,
                misses,
                wall: report.wall_clock,
                total_cycles: report.total_time.as_cycles(),
                commits: report.commits,
                slices: report.slices_analyzed,
                queuing: report.queuing_total().as_cycles(),
                bus_queuing: queuing_at(bus).as_cycles(),
                io_queuing: io.map_or(0.0, |io| queuing_at(io).as_cycles()),
                envelope_mean: report.envelope.mean.as_cycles(),
                envelope_worst: report.envelope.worst.as_cycles(),
            }
        });
        if origin.cached() {
            bump_subeval("bench.subeval.hybrid_shared");
        }
        (leg, origin)
    }

    /// The whole-program analytical estimate's queuing percentage.
    fn analytical(self, policy: AnnotationPolicy) -> f64 {
        let Scenario {
            workload, machine, ..
        } = self;
        let fp = analytical_key(self.fp, machine, policy);
        let (pct, origin) = memo::memoize_flagged(fp, || {
            // Totals folded from the scenario's annotation profile; no kernel
            // system is built.
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
        if origin.cached() {
            bump_subeval("bench.subeval.analytical_shared");
        }
        pct
    }
}

/// Runs (or replays) the cycle-accurate leg for a workload/machine pair,
/// memoized under [`iss_reference_fp`] in the in-process memo and — with
/// `MESH_RESULT_CACHE` set — the persistent result cache. Every sweep point
/// sharing the scenario shares one simulation; concurrent callers are
/// single-flighted.
///
/// # Panics
///
/// Panics if the workload is invalid for the machine.
pub fn iss_reference(workload: &Workload, machine: &MachineConfig) -> IssRef {
    Scenario::new(workload, machine).iss().0
}

/// Runs (or replays) the workload through the hybrid kernel, memoized under
/// [`hybrid_fp`] in the in-process memo and — with `MESH_RESULT_CACHE` set
/// — the persistent result cache. `bus_model` resolves contention on the
/// shared bus and `io_model` on the machine's I/O device (`None` for a
/// machine without one); `priorities` assigns arbitration priorities to the
/// logical threads in task order (higher = more important, consumed by
/// priority-class models; an empty slice leaves every thread at the
/// default). The run folds the annotation profile of the scenario's
/// compiled traces: however many policies, models and I/O delays run on
/// one scenario, and whichever of them or the scenario's cycle-accurate leg
/// comes first, each task's cache is walked once per process while its
/// trace stays resident, by the trace compile.
///
/// # Panics
///
/// Panics if the workload is invalid for the machine, or if `io_model` is
/// `None` for a machine with an I/O device or given for one without.
pub fn hybrid_run<M, I>(
    workload: &Workload,
    machine: &MachineConfig,
    bus_model: M,
    io_model: Option<I>,
    options: HybridOptions,
    priorities: &[u32],
) -> HybridLeg
where
    M: ContentionModel + 'static,
    I: ContentionModel + 'static,
{
    let scenario = Scenario::new(workload, machine);
    scenario.hybrid(bus_model, io_model, options, priorities).0
}

/// Runs all three estimators on a workload/machine pair as independently
/// memoized legs — the cycle-accurate leg ([`iss_reference`]), the hybrid
/// leg ([`hybrid_run`] with the Chen–Lin model on the bus) and the
/// whole-program analytical estimate — each cached in the in-process memo
/// and (with `MESH_RESULT_CACHE` set) the persistent result cache under its
/// own fingerprint domain. A sweep that varies only
/// hybrid knobs therefore runs the expensive reference **once per distinct
/// (workload, machine)** instead of once per point. The three keys share
/// one pass over the workload's segments.
///
/// Cached legs replay their *recorded* wall-clock times, so replayed output
/// is byte-identical to the run that populated the cache; the returned
/// point's [`replayed`](ComparisonPoint::replayed) flag reports whether
/// either timed leg came from the persistent result cache (see
/// [`note_replayed`]).
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
    let scenario = Scenario::new(workload, machine);
    let (iss, iss_origin) = scenario.iss();
    let no_io = None::<NoContention>;
    let (hybrid, hybrid_origin) = scenario.hybrid(ChenLinBus::new(), no_io, options, &[]);
    let analytical_pct = scenario.analytical(options.policy);

    ComparisonPoint {
        iss_pct: iss.pct,
        mesh_pct: hybrid.percent(hybrid.queuing),
        analytical_pct,
        iss_wall: iss.wall,
        mesh_wall: hybrid.wall,
        iss_cycles: iss.cycles,
        mesh_cycles: hybrid.total_cycles,
        mesh_regions: hybrid.commits,
        mesh_slices: hybrid.slices,
        work_cycles: hybrid.work_cycles,
        misses: hybrid.misses,
        replayed: [iss_origin, hybrid_origin].contains(&memo::Origin::Persisted),
    }
}

/// Prints a stderr provenance note when any point of a finished sweep was
/// replayed from the persistent result cache: its wall-clock and speedup
/// columns reflect the *recorded* timings of the runs that populated the
/// cache, not this process. Stdout is never touched, so replayed output
/// stays byte-identical to the populating run.
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

/// One envelope-validation point: the hybrid kernel's mean and worst-case
/// queuing for a given model, against the adversarial ISS maximum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnvelopePoint {
    /// Hybrid mean queuing as a percentage of work cycles.
    pub mean_pct: f64,
    /// Hybrid worst-case envelope as a percentage of work cycles.
    pub worst_pct: f64,
    /// Maximum adversarial-schedule ISS queuing as a percentage of work
    /// cycles.
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

/// Runs one envelope-validation point: the workload through the hybrid
/// kernel with `model` on the shared bus (annotations at barriers), and the
/// cycle-accurate simulator under every adversarial schedule.
///
/// `priorities` assigns arbitration priorities to the logical threads in
/// task order (higher = more important, consumed by priority-class models);
/// pass an empty slice to leave every thread at the default priority.
///
/// The schedules are fixed priority, reverse priority, and victim-last for
/// every processor (`2 + n` schedules): deterministic work-conserving bus
/// arbitrations of the cycle-accurate simulator, each chosen to starve some
/// processor. Each is one cycle-accurate leg keyed by its machine (see
/// [`iss_reference_fp`]), and the largest bus queuing among them is the
/// ground truth the worst-case envelope must dominate. The hybrid leg is
/// [`hybrid_run`]'s. Every key shares one pass over the workload's
/// segments. The schedule legs run first: their simulations compile the
/// scenario's traces, and the hybrid leg's annotation profile is then read
/// from them instead of walking the caches again.
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
    let scenario = Scenario::new(workload, machine);
    let victims = (0..machine.procs.len()).map(Arbitration::VictimLast);
    let adversarial = [Arbitration::FixedPriority, Arbitration::ReversePriority]
        .into_iter()
        .chain(victims)
        .map(|arbitration| {
            let mut schedule = machine.clone();
            schedule.bus = schedule.bus.with_arbitration(arbitration);
            scenario.on(&schedule).iss().0.bus_queuing
        })
        .max()
        .unwrap_or(0);
    let options = HybridOptions {
        policy: AnnotationPolicy::AtBarriers,
        min_timeslice: 0.0,
    };
    let no_io = None::<NoContention>;
    let (run, _) = scenario.hybrid(model, no_io, options, priorities);
    EnvelopePoint {
        mean_pct: run.percent(run.envelope_mean),
        worst_pct: run.percent(run.envelope_worst),
        adversarial_pct: run.percent(adversarial as f64),
        work_cycles: run.work_cycles,
    }
}

/// Per-resource queuing of one multi-resource point (see
/// [`compare_resources`]): bus and I/O-device queuing as percentages of the
/// hybrid's work cycles, predicted by the hybrid kernel and measured by the
/// cycle-accurate reference.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResourcePoint {
    /// Hybrid bus queuing.
    pub mesh_bus_pct: f64,
    /// Reference bus queuing.
    pub iss_bus_pct: f64,
    /// Hybrid I/O-device queuing.
    pub mesh_io_pct: f64,
    /// Reference I/O-device queuing.
    pub iss_io_pct: f64,
}

impl crate::checkpoint::Checkpointable for ResourcePoint {
    fn encode(&self) -> String {
        (
            self.mesh_bus_pct,
            self.iss_bus_pct,
            self.mesh_io_pct,
            self.iss_io_pct,
        )
            .encode()
    }

    fn decode(s: &str) -> Option<ResourcePoint> {
        let (mesh_bus_pct, iss_bus_pct, mesh_io_pct, iss_io_pct) =
            <(f64, f64, f64, f64)>::decode(s)?;
        Some(ResourcePoint {
            mesh_bus_pct,
            iss_bus_pct,
            mesh_io_pct,
            iss_io_pct,
        })
    }
}

/// Runs (or replays) one multi-resource point: the cycle-accurate leg and
/// the hybrid leg with `bus_model` on the bus and `io_model` on the I/O
/// device, compared per resource. Both legs are the memoized ones every
/// other evaluation uses (see [`iss_reference`] and [`hybrid_run`]); the
/// cycle-accurate leg runs first, so the hybrid leg reads the scenario's
/// annotation profile from the traces it compiled.
///
/// # Panics
///
/// Panics if the workload is invalid for the machine or the machine has no
/// I/O device.
pub fn compare_resources<M1, M2>(
    workload: &Workload,
    machine: &MachineConfig,
    bus_model: M1,
    io_model: M2,
    policy: AnnotationPolicy,
) -> ResourcePoint
where
    M1: ContentionModel + 'static,
    M2: ContentionModel + 'static,
{
    let scenario = Scenario::new(workload, machine);
    let (iss, _) = scenario.iss();
    let options = HybridOptions {
        policy,
        min_timeslice: 0.0,
    };
    let (hybrid, _) = scenario.hybrid(bus_model, Some(io_model), options, &[]);
    ResourcePoint {
        mesh_bus_pct: hybrid.percent(hybrid.bus_queuing),
        iss_bus_pct: hybrid.percent(iss.bus_queuing as f64),
        mesh_io_pct: hybrid.percent(hybrid.io_queuing),
        iss_io_pct: hybrid.percent(iss.io_queuing as f64),
    }
}

/// The interchangeable contention models of the `ablation_models` table
/// (paper §2), in row order, each with its row label.
pub fn ablation_models() -> Vec<(&'static str, Box<dyn ContentionModel>)> {
    // A table measured to mimic M/D/1 at a few breakpoints.
    let measured = TableModel::new(vec![(0.25, 0.17), (0.50, 0.50), (0.75, 1.50), (0.95, 3.00)])
        .expect("valid table");
    vec![
        (
            "chen-lin (M/D/1 + blocking bound)",
            Box::new(ChenLinBus::new()),
        ),
        ("m/d/1", Box::new(Md1Queue::new())),
        ("m/m/1", Box::new(Mm1Queue::new())),
        ("round-robin (linear)", Box::new(RoundRobinBus::new())),
        ("mva (finite population)", Box::new(MvaBus::new())),
        ("priority (equal priorities)", Box::new(PriorityBus::new())),
        ("measured table", Box::new(measured)),
        (
            "chen-lin x0.9 (calibrated)",
            Box::new(ScaledModel::new(ChenLinBus::new(), 0.9)),
        ),
        (
            "priority-noc (1 hop, equal classes)",
            Box::new(PriorityNoc::new(1)),
        ),
        ("fair-share (processor sharing)", Box::new(FairShare::new())),
    ]
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

    /// A task whose trace passes the trace cache's step cap has no compiled
    /// profile: its annotation walks its cache with `profile_task`, counts a
    /// trace-cache fallback, and folds the same totals as a fresh
    /// annotation.
    #[test]
    fn a_task_past_the_step_cap_walks_its_cache() {
        use mesh_workloads::{MemPattern, Segment, TaskProgram};
        // Every reference misses (a new line each time), and every miss is
        // a trace step: 4.3 M steps, past the cap of 4 Mi.
        const REFS: u64 = 4_300_000;
        let mut workload = Workload::new();
        workload.add_task(TaskProgram::new("past-the-cap").with_segment(
            Segment::work(1000).with_pattern(MemPattern::Strided {
                base: 0,
                stride: 32,
                count: REFS,
            }),
        ));
        let machine = fft_machine(1, 8 * 1024, 4);
        let policy = AnnotationPolicy::PerSegment;
        let fallbacks = mesh_cyclesim::cache_stats().fallbacks;
        let profiles = annotation_profiles(&workload, &machine);
        assert!(
            mesh_cyclesim::cache_stats().fallbacks > fallbacks,
            "the capped task resolved to a trace"
        );
        let folded = ProfiledWorkload::new(&workload, &machine, &profiles)
            .expect("the profile matches the workload")
            .task_stats(policy);
        let walked = mesh_annotate::assemble(&workload, &machine, ChenLinBus::new(), policy)
            .expect("assembles");
        assert_eq!(folded, walked.tasks);
        assert_eq!(walked.misses_total(), REFS);
    }
}
