//! # mesh-annotate — from workloads to MESH annotation regions
//!
//! The bridge between the fidelity-neutral workload representation
//! (`mesh-workloads`) and the hybrid kernel (`mesh-core`): it *places
//! annotations*, the act the paper identifies as "the primary determinant of
//! simulation accuracy and run-time" (§3).
//!
//! Annotation runs in two steps, **profile, then fold**:
//!
//! 1. **Profile** — [`profile_task`] runs a task's reference streams, in
//!    order, through the very same [`Cache`] model the cycle-accurate
//!    simulator uses (the cache persists across the whole task, so warm-up
//!    and reuse behave identically in both fidelities) and records each
//!    segment's hit and miss counts. This is the only per-reference loop of
//!    the crate and the expensive step. Its result depends on nothing but
//!    the segments' reference streams and the processor's cache geometry —
//!    not on the annotation policy, the minimum timeslice, the contention
//!    model, the bus delay or the processor's power — so callers evaluating
//!    many of those settings on one scenario can compute it once (see
//!    [`ProfiledWorkload`]). The cycle-accurate simulator's trace compile
//!    walks the same references through the same cache and counts the same
//!    profile as it goes, so a caller can read the profile from a
//!    scenario's compiled traces ([`mesh_cyclesim::profiles`]), which the
//!    simulator's cross-sweep trace cache shares with its runs;
//!    `mesh-bench` does, and calls [`profile_task`] only for a task too
//!    long to compile.
//! 2. **Fold** — walks the segments with their profile, grouping them
//!    into annotation regions according to an [`AnnotationPolicy`], and
//!    resolves each region into the annotation tuple the kernel consumes:
//!    * **complexity** — chosen so the region's contention-free duration on
//!      its pinned processor equals exactly what the cycle-accurate simulator
//!      would take: compute cycles + cache-hit cycles + miss-service cycles.
//!      The shared `compute_cycles` helper guarantees identical rounding;
//!    * **accesses** — the region's cache-*miss* count;
//!    * **sync** — a barrier arrival when the region's last segment carries
//!      one.
//!
//! Idle gaps always become their own regions: merging them into work regions
//! would smear access density over time the processor was actually silent,
//! destroying precisely the unbalance the experiments study.
//!
//! [`assemble`] packages the whole thing: workload + machine + contention
//! model → a ready-to-run [`SystemBuilder`]; [`assemble_with_io`] adds a
//! second model for the machine's I/O device. Both profile, then call the
//! [`ProfiledWorkload`] method of the same name, which folds precomputed
//! profiles and also yields the per-task totals alone for whole-program
//! estimators that need no kernel system.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mesh_arch::{Cache, CacheConfig, MachineConfig, ProcConfig};
use mesh_core::model::ContentionModel;
use mesh_core::{
    Annotation, Complexity, Power, ProcId, SharedId, SimTime, SyncId, SyncOp, SystemBuilder,
    ThreadId, VecProgram,
};
use mesh_cyclesim::compute_cycles;
pub use mesh_cyclesim::SegmentProfile;
use mesh_workloads::{SegmentKind, TaskProgram, Workload};
use std::fmt;

/// How densely annotations are placed along a task.
///
/// Finer policies yield more regions — more timeslices, better accuracy,
/// longer hybrid run time; coarser policies the reverse. This is the paper's
/// central accuracy/cost knob, swept by the granularity ablation bench.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnnotationPolicy {
    /// One region per barrier-delimited phase — "annotations at every
    /// synchronization point", the paper's choice for the SPLASH-2 FFT
    /// (§5.1). Tasks without barriers collapse into a single region, which
    /// degenerates to the pure-analytical model.
    AtBarriers,
    /// One region per workload segment (the finest granularity a workload
    /// expresses).
    PerSegment,
    /// Group up to `n` consecutive work segments per region; barriers and
    /// idle gaps still force boundaries. `EverySegments(1)` is
    /// [`AnnotationPolicy::PerSegment`].
    EverySegments(usize),
}

/// Totals describing one annotated task, used to build analytical-baseline
/// profiles and experiment denominators.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskStats {
    /// Contention-free work cycles (compute + hits + miss service) on the
    /// task's processor. Excludes idle.
    pub work_cycles: u64,
    /// Idle cycles.
    pub idle_cycles: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses (= shared bus accesses).
    pub misses: u64,
    /// Shared-I/O operations issued.
    pub io_ops: u64,
    /// Annotation regions produced.
    pub regions: usize,
}

impl TaskStats {
    /// Total memory references.
    pub fn refs(&self) -> u64 {
        self.hits + self.misses
    }

    /// The task's bus-access rate while executing (misses per work cycle) —
    /// the steady-state characterization the pure-analytical baseline uses.
    pub fn active_miss_rate(&self) -> f64 {
        if self.work_cycles == 0 {
            0.0
        } else {
            self.misses as f64 / self.work_cycles as f64
        }
    }
}

/// The cache pass of annotation: runs the task's reference streams, in
/// order, through one private cache of geometry `cache` and returns each
/// segment's hit and miss counts, index-aligned with `task.segments`. Idle
/// segments issue no references and get `(0, 0)`.
///
/// The cache persists across the whole task, exactly as in the
/// cycle-accurate simulator. The result depends only on the segments'
/// reference streams and `cache` — every annotation policy, timing and
/// contention model folds the same profile (see [`ProfiledWorkload`]).
pub fn profile_task(task: &TaskProgram, cache: CacheConfig) -> Vec<SegmentProfile> {
    let mut cache = Cache::new(cache);
    task.segments
        .iter()
        .map(|seg| {
            let mut profile = SegmentProfile::default();
            if seg.kind == SegmentKind::Work {
                for addr in seg.refs() {
                    if cache.access(addr).is_miss() {
                        profile.misses += 1;
                    } else {
                        profile.hits += 1;
                    }
                }
            }
            profile
        })
        .collect()
}

/// One closed annotation region, before resource ids are attached.
struct Region {
    cycles: u64,
    misses: u64,
    io_ops: u64,
    barrier: Option<usize>,
}

impl Region {
    fn annotation(
        &self,
        power: f64,
        bus: SharedId,
        io: Option<SharedId>,
        barrier_ids: &[SyncId],
    ) -> Annotation {
        let mut ann = Annotation {
            // Complexity is pre-scaled by the processor's power so that the
            // kernel's resolution (complexity / power) lands on exactly
            // `cycles` — regions are pinned, so this is well-defined.
            complexity: Complexity::from_units(self.cycles as f64 * power),
            accesses: mesh_core::AccessSet::new(),
            sync: self.barrier.map(|b| SyncOp::Barrier(barrier_ids[b])),
        };
        if self.misses > 0 {
            ann.accesses.add(bus, self.misses as f64);
        }
        if let Some(io_sid) = io {
            if self.io_ops > 0 {
                ann.accesses.add(io_sid, self.io_ops as f64);
            }
        }
        ann
    }
}

#[derive(Default)]
struct RegionAcc {
    ops: u64,
    hits: u64,
    misses: u64,
    io_ops: u64,
    segments: usize,
}

impl RegionAcc {
    /// Closes the open work region, if any segment is in it.
    fn close(
        &mut self,
        proc: ProcConfig,
        bus_delay: u64,
        io_delay: Option<u64>,
        barrier: Option<usize>,
        stats: &mut TaskStats,
        emit: &mut impl FnMut(Region),
    ) {
        if self.segments == 0 {
            return;
        }
        let io_cycles = io_delay.map_or(0, |delay| self.io_ops * delay);
        let cycles = compute_cycles(self.ops, proc)
            + self.hits * proc.hit_cycles
            + self.misses * bus_delay
            + io_cycles;
        stats.work_cycles += cycles;
        stats.hits += self.hits;
        stats.misses += self.misses;
        stats.io_ops += self.io_ops;
        stats.regions += 1;
        emit(Region {
            cycles,
            misses: self.misses,
            io_ops: self.io_ops,
            barrier,
        });
        *self = RegionAcc::default();
    }
}

/// Groups a profiled task's segments into regions under `policy`, handing
/// each closed region to `emit`, and returns the task's totals.
fn fold_regions(
    task: &TaskProgram,
    profile: &[SegmentProfile],
    proc: ProcConfig,
    bus_delay: u64,
    io_delay: Option<u64>,
    policy: AnnotationPolicy,
    mut emit: impl FnMut(Region),
) -> TaskStats {
    assert_eq!(
        profile.len(),
        task.segments.len(),
        "the profile must cover every segment of the task"
    );
    let mut stats = TaskStats::default();
    let mut acc = RegionAcc::default();
    for (seg, counts) in task.segments.iter().zip(profile) {
        match seg.kind {
            SegmentKind::Idle => {
                // Close any open work region, then emit the idle region.
                acc.close(proc, bus_delay, io_delay, None, &mut stats, &mut emit);
                stats.idle_cycles += seg.compute_ops;
                stats.regions += 1;
                emit(Region {
                    cycles: seg.compute_ops,
                    misses: 0,
                    io_ops: 0,
                    barrier: seg.barrier,
                });
            }
            SegmentKind::Work => {
                acc.ops += seg.compute_ops;
                acc.hits += counts.hits;
                acc.misses += counts.misses;
                acc.io_ops += seg.io_ops;
                acc.segments += 1;
                let boundary = seg.barrier.is_some()
                    || match policy {
                        AnnotationPolicy::AtBarriers => false,
                        AnnotationPolicy::PerSegment => true,
                        AnnotationPolicy::EverySegments(n) => acc.segments >= n.max(1),
                    };
                if boundary {
                    acc.close(
                        proc,
                        bus_delay,
                        io_delay,
                        seg.barrier,
                        &mut stats,
                        &mut emit,
                    );
                }
            }
        }
    }
    acc.close(proc, bus_delay, io_delay, None, &mut stats, &mut emit);
    stats
}

/// The fold of annotation: turns a task's cache profile (from
/// [`profile_task`] on the same processor's cache) into the region list (a
/// ready [`VecProgram`] payload) and the task's totals under `policy`.
///
/// Arguments are those of [`annotate_task_with_io`]; folding one profile
/// under several policies gives exactly what annotating afresh under each
/// would.
///
/// # Panics
///
/// Panics if `profile` does not have one entry per segment, or if a segment
/// references a barrier index outside `barrier_ids`.
#[allow(clippy::too_many_arguments)]
fn fold_task(
    task: &TaskProgram,
    profile: &[SegmentProfile],
    proc: ProcConfig,
    bus_delay: u64,
    bus: SharedId,
    io: Option<(SharedId, u64)>,
    barrier_ids: &[SyncId],
    policy: AnnotationPolicy,
) -> (Vec<Annotation>, TaskStats) {
    let mut regions = Vec::new();
    let io_sid = io.map(|(sid, _)| sid);
    let stats = fold_regions(
        task,
        profile,
        proc,
        bus_delay,
        io.map(|(_, delay)| delay),
        policy,
        |region| regions.push(region.annotation(proc.power, bus, io_sid, barrier_ids)),
    );
    (regions, stats)
}

/// Annotates one task for the given processor: [`profile_task`], then
/// the fold.
///
/// Returns the region list (a ready [`VecProgram`] payload) and the task's
/// totals. `bus_delay` must match the machine's bus (miss service time);
/// `barrier_ids` maps workload barrier indices to kernel sync ids.
///
/// # Panics
///
/// Panics if a segment references a barrier index outside `barrier_ids` —
/// validate the workload first.
pub fn annotate_task(
    task: &TaskProgram,
    proc: ProcConfig,
    bus_delay: u64,
    bus: SharedId,
    barrier_ids: &[SyncId],
    policy: AnnotationPolicy,
) -> (Vec<Annotation>, TaskStats) {
    annotate_task_with_io(task, proc, bus_delay, bus, None, barrier_ids, policy)
}

/// As [`annotate_task`], additionally attributing each segment's I/O
/// operations to the shared resource in `io = (id, service_cycles)`.
#[allow(clippy::too_many_arguments)]
pub fn annotate_task_with_io(
    task: &TaskProgram,
    proc: ProcConfig,
    bus_delay: u64,
    bus: SharedId,
    io: Option<(SharedId, u64)>,
    barrier_ids: &[SyncId],
    policy: AnnotationPolicy,
) -> (Vec<Annotation>, TaskStats) {
    let profile = profile_task(task, proc.cache);
    fold_task(
        task,
        &profile,
        proc,
        bus_delay,
        bus,
        io,
        barrier_ids,
        policy,
    )
}

/// An error assembling a hybrid system from a workload and machine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AssembleError {
    /// More tasks than processors.
    TaskCountMismatch {
        /// Tasks in the workload.
        tasks: usize,
        /// Processors in the machine.
        procs: usize,
    },
    /// The workload failed validation.
    InvalidWorkload(String),
    /// The workload issues I/O operations but the machine has no I/O
    /// device, or the machine has one and no model was supplied for it
    /// (use [`assemble_with_io`]).
    IoConfiguration(String),
    /// Precomputed cache profiles do not match the workload: a different
    /// task count, a different segment count, or a segment whose hits and
    /// misses do not add up to its references.
    ProfileMismatch(String),
}

impl fmt::Display for AssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssembleError::TaskCountMismatch { tasks, procs } => {
                write!(f, "{tasks} tasks cannot be pinned onto {procs} processors")
            }
            AssembleError::InvalidWorkload(s) => write!(f, "invalid workload: {s}"),
            AssembleError::IoConfiguration(s) => write!(f, "I/O configuration: {s}"),
            AssembleError::ProfileMismatch(s) => write!(f, "profile mismatch: {s}"),
        }
    }
}

impl std::error::Error for AssembleError {}

/// A fully assembled hybrid system, ready to build and run, plus the ids and
/// per-task totals experiments need.
pub struct HybridSetup {
    /// The populated system builder (set a minimum timeslice or swap the
    /// scheduler before calling [`SystemBuilder::build`]).
    pub builder: SystemBuilder,
    /// The shared bus every miss is attributed to.
    pub bus: SharedId,
    /// The shared I/O device, when the machine has one.
    pub io: Option<SharedId>,
    /// Physical resources, index-aligned with the machine's processors.
    pub procs: Vec<ProcId>,
    /// Logical threads, index-aligned with the workload's tasks.
    pub threads: Vec<ThreadId>,
    /// Per-task totals from annotation.
    pub tasks: Vec<TaskStats>,
}

impl HybridSetup {
    /// Total work cycles across tasks (the experiment's percentage
    /// denominator).
    pub fn work_total(&self) -> u64 {
        self.tasks.iter().map(|t| t.work_cycles).sum()
    }

    /// Total bus accesses (misses) across tasks.
    pub fn misses_total(&self) -> u64 {
        self.tasks.iter().map(|t| t.misses).sum()
    }

    /// Total I/O operations across tasks.
    pub fn io_ops_total(&self) -> u64 {
        self.tasks.iter().map(|t| t.io_ops).sum()
    }
}

impl fmt::Debug for HybridSetup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HybridSetup")
            .field("threads", &self.threads.len())
            .field("procs", &self.procs.len())
            .field("tasks", &self.tasks)
            .finish_non_exhaustive()
    }
}

/// Assembles the complete hybrid system: machine processors, one shared bus
/// carrying `model`, kernel barriers mirroring the workload's, and one
/// pinned logical thread per task.
///
/// # Errors
///
/// Returns [`AssembleError`] if the workload has more tasks than the machine
/// has processors, or fails validation.
///
/// # Examples
///
/// ```
/// use mesh_annotate::{assemble, AnnotationPolicy};
/// use mesh_arch::{BusConfig, CacheConfig, MachineConfig, ProcConfig};
/// use mesh_models::ChenLinBus;
/// use mesh_workloads::fft::{build, FftConfig};
///
/// let workload = build(&FftConfig::with_threads(2));
/// let cache = CacheConfig::new(512 * 1024, 32, 4).unwrap();
/// let machine = MachineConfig::homogeneous(2, ProcConfig::new(cache), BusConfig::new(4));
/// let setup = assemble(&workload, &machine, ChenLinBus::new(), AnnotationPolicy::AtBarriers)
///     .unwrap();
/// let outcome = setup.builder.build().unwrap().run().unwrap();
/// assert!(outcome.report.total_time.as_cycles() > 0.0);
/// ```
pub fn assemble<M>(
    workload: &Workload,
    machine: &MachineConfig,
    model: M,
    policy: AnnotationPolicy,
) -> Result<HybridSetup, AssembleError>
where
    M: ContentionModel + 'static,
{
    check_io(machine, false)?;
    profile_then(workload, machine, |profiled| {
        profiled.assemble(model, policy)
    })
}

/// As [`assemble`], for machines with a shared I/O device: `bus_model` and
/// `io_model` may be different types — models are interchangeable *per
/// resource* (paper §2).
///
/// # Errors
///
/// As [`assemble`], plus [`AssembleError::IoConfiguration`] if the machine
/// has no I/O device.
pub fn assemble_with_io<M1, M2>(
    workload: &Workload,
    machine: &MachineConfig,
    bus_model: M1,
    io_model: M2,
    policy: AnnotationPolicy,
) -> Result<HybridSetup, AssembleError>
where
    M1: ContentionModel + 'static,
    M2: ContentionModel + 'static,
{
    check_io(machine, true)?;
    profile_then(workload, machine, |profiled| {
        profiled.assemble_with_io(bus_model, io_model, policy)
    })
}

/// Checks that the machine has an I/O device exactly when the caller
/// supplies a model for one.
fn check_io(machine: &MachineConfig, io_model: bool) -> Result<(), AssembleError> {
    match (machine.io.is_some(), io_model) {
        (true, false) => Err(AssembleError::IoConfiguration(
            "machine has an I/O device; use assemble_with_io to supply its model".to_string(),
        )),
        (false, true) => Err(AssembleError::IoConfiguration(
            "machine has no I/O device".to_string(),
        )),
        _ => Ok(()),
    }
}

/// Checks that the workload can run on the machine: it fits, validates,
/// and has an I/O device for any I/O it issues.
fn check_pairing(workload: &Workload, machine: &MachineConfig) -> Result<(), AssembleError> {
    if workload.tasks.len() > machine.procs.len() {
        return Err(AssembleError::TaskCountMismatch {
            tasks: workload.tasks.len(),
            procs: machine.procs.len(),
        });
    }
    workload
        .validate()
        .map_err(AssembleError::InvalidWorkload)?;
    let issues_io = workload
        .tasks
        .iter()
        .any(|t| t.segments.iter().any(|s| s.io_ops > 0));
    if issues_io && machine.io.is_none() {
        return Err(AssembleError::IoConfiguration(
            "workload issues I/O operations but the machine has no I/O device".to_string(),
        ));
    }
    Ok(())
}

/// Runs the cache pass of every task on its processor's cache, then hands
/// the profiled workload to `then`.
fn profile_then<R>(
    workload: &Workload,
    machine: &MachineConfig,
    then: impl FnOnce(&ProfiledWorkload<'_>) -> Result<R, AssembleError>,
) -> Result<R, AssembleError> {
    check_pairing(workload, machine)?;
    let profiles: Vec<Vec<SegmentProfile>> = workload
        .tasks
        .iter()
        .zip(&machine.procs)
        .map(|(task, proc)| profile_task(task, proc.cache))
        .collect();
    then(&ProfiledWorkload {
        workload,
        machine,
        profiles: &profiles,
    })
}

/// A workload paired with its machine and precomputed cache profiles — one
/// [`profile_task`] result per task, on the cache of the processor the task
/// is pinned to.
///
/// This is the entry point for callers that evaluate many annotation
/// policies, timeslices or contention models on one scenario: the profile
/// is computed (or fetched from a cache) once and folded per setting.
/// Folding is per segment, not per reference, so each fold is cheap.
#[derive(Clone, Copy, Debug)]
pub struct ProfiledWorkload<'a> {
    workload: &'a Workload,
    machine: &'a MachineConfig,
    profiles: &'a [Vec<SegmentProfile>],
}

impl<'a> ProfiledWorkload<'a> {
    /// Pairs a workload and machine with their profiles.
    ///
    /// # Errors
    ///
    /// As [`assemble`], plus [`AssembleError::ProfileMismatch`] if
    /// `profiles` does not have one entry per task and, per task, one entry
    /// per segment whose hits and misses add up to the segment's references.
    pub fn new(
        workload: &'a Workload,
        machine: &'a MachineConfig,
        profiles: &'a [Vec<SegmentProfile>],
    ) -> Result<ProfiledWorkload<'a>, AssembleError> {
        check_pairing(workload, machine)?;
        if profiles.len() != workload.tasks.len() {
            return Err(AssembleError::ProfileMismatch(format!(
                "{} task profiles for {} tasks",
                profiles.len(),
                workload.tasks.len()
            )));
        }
        for (ti, (task, profile)) in workload.tasks.iter().zip(profiles).enumerate() {
            if profile.len() != task.segments.len() {
                return Err(AssembleError::ProfileMismatch(format!(
                    "task {ti}: {} segment profiles for {} segments",
                    profile.len(),
                    task.segments.len()
                )));
            }
            for (si, (seg, counts)) in task.segments.iter().zip(profile).enumerate() {
                if counts.hits.checked_add(counts.misses) != Some(seg.total_refs()) {
                    return Err(AssembleError::ProfileMismatch(format!(
                        "task {ti} segment {si}: {} hits + {} misses for {} references",
                        counts.hits,
                        counts.misses,
                        seg.total_refs()
                    )));
                }
            }
        }
        Ok(ProfiledWorkload {
            workload,
            machine,
            profiles,
        })
    }

    /// Per-task totals under `policy`, without building a kernel system —
    /// all a whole-program analytical estimator needs. Equal to the
    /// [`HybridSetup::tasks`] that assembling under `policy` yields.
    pub fn task_stats(&self, policy: AnnotationPolicy) -> Vec<TaskStats> {
        let io_delay = self.machine.io.map(|io| io.delay_cycles);
        self.workload
            .tasks
            .iter()
            .zip(self.profiles)
            .zip(&self.machine.procs)
            .map(|((task, profile), &proc)| {
                fold_regions(
                    task,
                    profile,
                    proc,
                    self.machine.bus.delay_cycles,
                    io_delay,
                    policy,
                    |_| {},
                )
            })
            .collect()
    }

    /// Task `index`'s annotation regions (a ready [`VecProgram`] payload)
    /// and totals under `policy` — what [`annotate_task_with_io`] returns
    /// for the task on its processor, without the cache pass. Misses go to
    /// `bus`, I/O operations to `io` (served at the machine's I/O delay),
    /// and `barrier_ids` maps workload barrier indices to kernel sync ids.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a task of the workload, or if a segment
    /// references a barrier index outside `barrier_ids`.
    pub fn regions(
        &self,
        index: usize,
        bus: SharedId,
        io: Option<SharedId>,
        barrier_ids: &[SyncId],
        policy: AnnotationPolicy,
    ) -> (Vec<Annotation>, TaskStats) {
        fold_task(
            &self.workload.tasks[index],
            &self.profiles[index],
            self.machine.procs[index],
            self.machine.bus.delay_cycles,
            bus,
            io.zip(self.machine.io.map(|device| device.delay_cycles)),
            barrier_ids,
            policy,
        )
    }

    /// As [`assemble`], folding the precomputed profiles instead of running
    /// the cache pass.
    ///
    /// # Errors
    ///
    /// Returns [`AssembleError::IoConfiguration`] if the machine has an I/O
    /// device (use [`assemble_with_io`](ProfiledWorkload::assemble_with_io)).
    pub fn assemble<M>(
        &self,
        model: M,
        policy: AnnotationPolicy,
    ) -> Result<HybridSetup, AssembleError>
    where
        M: ContentionModel + 'static,
    {
        check_io(self.machine, false)?;
        Ok(self.build(Box::new(model), None, policy))
    }

    /// As [`assemble_with_io`], folding the precomputed profiles instead of
    /// running the cache pass.
    ///
    /// # Errors
    ///
    /// Returns [`AssembleError::IoConfiguration`] if the machine has no I/O
    /// device.
    pub fn assemble_with_io<M1, M2>(
        &self,
        bus_model: M1,
        io_model: M2,
        policy: AnnotationPolicy,
    ) -> Result<HybridSetup, AssembleError>
    where
        M1: ContentionModel + 'static,
        M2: ContentionModel + 'static,
    {
        check_io(self.machine, true)?;
        Ok(self.build(Box::new(bus_model), Some(Box::new(io_model)), policy))
    }

    fn build(
        &self,
        bus_model: Box<dyn ContentionModel>,
        io_model: Option<Box<dyn ContentionModel>>,
        policy: AnnotationPolicy,
    ) -> HybridSetup {
        let machine = self.machine;
        let mut builder = SystemBuilder::new();
        let procs: Vec<ProcId> = machine
            .procs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                builder.add_proc(format!("proc{i}"), Power::from_units_per_cycle(p.power))
            })
            .collect();
        let bus = builder.add_shared_resource(
            "bus",
            SimTime::from_cycles(machine.bus.delay_cycles as f64),
            bus_model,
        );
        let io = io_model.zip(machine.io).map(|(model, io)| {
            builder.add_shared_resource("io", SimTime::from_cycles(io.delay_cycles as f64), model)
        });
        let barrier_ids: Vec<SyncId> = self
            .workload
            .barriers
            .iter()
            .map(|&parties| builder.add_barrier(parties))
            .collect();

        let mut threads = Vec::new();
        let mut tasks = Vec::new();
        for (i, task) in self.workload.tasks.iter().enumerate() {
            let (regions, stats) = self.regions(i, bus, io, &barrier_ids, policy);
            let t = builder.add_thread(task.name.clone(), VecProgram::new(regions));
            builder.pin_thread(t, &[procs[i]]);
            threads.push(t);
            tasks.push(stats);
        }

        HybridSetup {
            builder,
            bus,
            io,
            procs,
            threads,
            tasks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_arch::{BusConfig, CacheConfig};
    use mesh_core::model::NoContention;
    use mesh_workloads::{MemPattern, Segment, Workload};

    fn proc() -> ProcConfig {
        ProcConfig::new(CacheConfig::direct_mapped(1024, 32).unwrap())
    }

    fn ids() -> (SharedId, Vec<SyncId>) {
        (SharedId::from_index(0), vec![SyncId::from_index(0)])
    }

    #[test]
    fn per_segment_policy_one_region_each() {
        let task = TaskProgram::new("t")
            .with_segment(Segment::work(100))
            .with_segment(Segment::work(200));
        let (regions, stats) = {
            let (bus, bars) = ids();
            annotate_task(&task, proc(), 4, bus, &bars, AnnotationPolicy::PerSegment)
        };
        assert_eq!(regions.len(), 2);
        assert_eq!(stats.regions, 2);
        assert_eq!(stats.work_cycles, 300);
        assert_eq!(regions[0].complexity.as_units(), 100.0);
    }

    #[test]
    fn at_barriers_groups_phases() {
        let task = TaskProgram::new("t")
            .with_segment(Segment::work(10))
            .with_segment(Segment::work(10).with_barrier(0))
            .with_segment(Segment::work(10))
            .with_segment(Segment::work(10));
        let (bus, bars) = ids();
        let (regions, _) =
            annotate_task(&task, proc(), 4, bus, &bars, AnnotationPolicy::AtBarriers);
        assert_eq!(regions.len(), 2);
        assert!(regions[0].sync.is_some());
        assert!(regions[1].sync.is_none());
        assert_eq!(regions[0].complexity.as_units(), 20.0);
    }

    #[test]
    fn every_n_groups_up_to_n() {
        let mut task = TaskProgram::new("t");
        for _ in 0..5 {
            task.push(Segment::work(10));
        }
        let (bus, bars) = ids();
        let (regions, _) = annotate_task(
            &task,
            proc(),
            4,
            bus,
            &bars,
            AnnotationPolicy::EverySegments(2),
        );
        assert_eq!(regions.len(), 3); // 2 + 2 + 1
    }

    #[test]
    fn idle_segments_break_regions_and_carry_no_accesses() {
        let task = TaskProgram::new("t")
            .with_segment(Segment::work(10).with_pattern(MemPattern::Strided {
                base: 0,
                stride: 32,
                count: 4,
            }))
            .with_segment(Segment::idle(50))
            .with_segment(Segment::work(10));
        let (bus, bars) = ids();
        let (regions, stats) =
            annotate_task(&task, proc(), 4, bus, &bars, AnnotationPolicy::AtBarriers);
        assert_eq!(regions.len(), 3);
        assert!(regions[1].accesses.is_empty());
        assert_eq!(regions[1].complexity.as_units(), 50.0);
        assert_eq!(stats.idle_cycles, 50);
        assert_eq!(stats.misses, 4);
    }

    #[test]
    fn region_cycles_match_cyclesim_cost_model() {
        // 4 refs on one line: 1 miss + 3 hits. cycles = 100 + 1*6 + 3*1.
        let task = TaskProgram::new("t").with_segment(Segment::work(100).with_pattern(
            MemPattern::Strided {
                base: 0,
                stride: 8,
                count: 4,
            },
        ));
        let (bus, bars) = ids();
        let (regions, stats) =
            annotate_task(&task, proc(), 6, bus, &bars, AnnotationPolicy::PerSegment);
        assert_eq!(stats.work_cycles, 109);
        assert_eq!(regions[0].complexity.as_units(), 109.0);
        assert_eq!(regions[0].accesses.count(bus), 1.0);
    }

    #[test]
    fn power_scales_complexity_but_not_duration() {
        let task = TaskProgram::new("t").with_segment(Segment::work(100));
        let (bus, bars) = ids();
        let slow = proc().with_power(0.5);
        let (regions, stats) =
            annotate_task(&task, slow, 4, bus, &bars, AnnotationPolicy::PerSegment);
        // 100 ops at 0.5 ops/cycle = 200 cycles; complexity pre-scaled so
        // that resolution on the 0.5-power resource gives 200 cycles.
        assert_eq!(stats.work_cycles, 200);
        let resolved = regions[0]
            .complexity
            .resolve(Power::from_units_per_cycle(0.5));
        assert_eq!(resolved.as_cycles(), 200.0);
    }

    #[test]
    fn cache_state_persists_across_regions() {
        // Same line touched in two segments: second segment hits.
        let seg = |_: u64| {
            Segment::work(10).with_pattern(MemPattern::Strided {
                base: 0,
                stride: 8,
                count: 2,
            })
        };
        let task = TaskProgram::new("t")
            .with_segment(seg(0))
            .with_segment(seg(1));
        let (bus, bars) = ids();
        let (_, stats) = annotate_task(&task, proc(), 4, bus, &bars, AnnotationPolicy::PerSegment);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn assemble_full_system_runs() {
        let mut w = Workload::new();
        let b = w.add_barrier(2);
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
                            .with_barrier(b),
                    )
                    .with_segment(Segment::work(50)),
            );
        }
        let machine = MachineConfig::homogeneous(2, proc(), BusConfig::new(4));
        let setup = assemble(&w, &machine, NoContention, AnnotationPolicy::PerSegment).unwrap();
        assert_eq!(setup.threads.len(), 2);
        assert_eq!(setup.misses_total(), 32);
        let outcome = setup.builder.build().unwrap().run().unwrap();
        assert_eq!(outcome.report.commits, 4);
    }

    #[test]
    fn assemble_rejects_oversized_workloads() {
        let mut w = Workload::new();
        w.add_task(TaskProgram::new("a").with_segment(Segment::work(1)));
        w.add_task(TaskProgram::new("b").with_segment(Segment::work(1)));
        let machine = MachineConfig::homogeneous(1, proc(), BusConfig::new(4));
        assert!(matches!(
            assemble(&w, &machine, NoContention, AnnotationPolicy::PerSegment),
            Err(AssembleError::TaskCountMismatch { .. })
        ));
    }

    #[test]
    fn active_miss_rate() {
        let s = TaskStats {
            work_cycles: 1000,
            misses: 50,
            ..TaskStats::default()
        };
        assert!((s.active_miss_rate() - 0.05).abs() < 1e-12);
        assert_eq!(TaskStats::default().active_miss_rate(), 0.0);
    }
}
