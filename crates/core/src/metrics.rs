//! Simulation reports: queuing cycles, utilization and run statistics.
//!
//! The paper's headline metric is the *percentage of queuing cycles* — cycles
//! spent waiting for a contended shared resource relative to the cycles spent
//! executing. The hybrid kernel produces queuing time as the sum of the
//! penalties assigned by the analytical models; the cycle-accurate reference
//! simulator counts the same quantity directly. [`Report`] exposes both the
//! raw totals and the derived percentage so the two simulators can be
//! compared on identical terms.

use crate::ids::{ProcId, ThreadId};
use crate::time::SimTime;

/// Per-logical-thread simulation statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ThreadReport {
    /// Annotation regions committed by the thread.
    pub regions: u64,
    /// Physical time spent executing annotated work (excludes penalties).
    pub busy: SimTime,
    /// Total contention penalty assigned to the thread — its queuing time.
    pub queuing: SimTime,
    /// Worst-case queuing bound for the thread: the sum of the per-window
    /// [`worst_case`](crate::model::ContentionModel::worst_case) bounds
    /// (each floored at the window's mean penalty), itself floored at the
    /// whole-run full-serialization bound. Always `>= queuing`; purely
    /// statistical — it never shifts the simulated timeline.
    pub queuing_worst: SimTime,
    /// Time spent blocked on synchronization primitives.
    pub blocked: SimTime,
    /// Time spent ready but waiting for a physical resource.
    pub ready_wait: SimTime,
    /// Shared-resource accesses issued across all regions.
    pub accesses: f64,
    /// Simulated time at which the thread finished, if it did.
    pub finished_at: Option<SimTime>,
}

impl ThreadReport {
    /// Busy time plus queuing time: the span the thread actually occupied a
    /// physical resource.
    pub fn occupancy(&self) -> SimTime {
        self.busy + self.queuing
    }
}

/// Per-physical-resource simulation statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProcReport {
    /// Time the resource was occupied by regions (including their penalty
    /// extensions, during which the resource is not yet released — paper
    /// §4.2).
    pub busy: SimTime,
    /// Regions committed on this resource.
    pub regions: u64,
}

/// Per-shared-resource simulation statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SharedReport {
    /// Total accesses analyzed at this resource.
    pub accesses: f64,
    /// Total penalty time the resource's model assigned.
    pub queuing: SimTime,
    /// Worst-case queuing bound at this resource (see
    /// [`ThreadReport::queuing_worst`]). Always `>= queuing`.
    pub queuing_worst: SimTime,
    /// Timeslices in which the resource saw contention (two or more
    /// contenders).
    pub contended_slices: u64,
}

/// A mean + worst-case pair for the run's total queuing time.
///
/// The paper's hybrid kernel reports the *expected* contention penalty; for
/// heterogeneous SoCs a mean alone is insufficient — schedulability
/// arguments need a WCET-style bound as well. Every [`Report`] therefore
/// carries an envelope: `mean` is the sum of the analytical models' assigned
/// penalties, and `worst` sums per-thread bounds that provably dominate any
/// work-conserving schedule of the same access counts (including the
/// cycle-accurate simulator's adversarial arbitration modes).
///
/// # Examples
///
/// ```
/// use mesh_core::metrics::Envelope;
/// use mesh_core::SimTime;
///
/// let e = Envelope {
///     mean: SimTime::from_cycles(40.0),
///     worst: SimTime::from_cycles(100.0),
/// };
/// assert_eq!(e.gap().as_cycles(), 60.0);
/// assert!((e.gap_percent() - 150.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Envelope {
    /// Expected queuing time: the sum of all assigned penalties.
    pub mean: SimTime,
    /// Worst-case queuing bound. Invariant: `worst >= mean`.
    pub worst: SimTime,
}

impl Envelope {
    /// Absolute slack between the bound and the mean.
    pub fn gap(&self) -> SimTime {
        self.worst - self.mean
    }

    /// The gap as a percentage of the mean (zero for a contention-free
    /// run): how pessimistic the bound is relative to the expectation.
    pub fn gap_percent(&self) -> f64 {
        let mean = self.mean.as_cycles();
        if mean == 0.0 {
            0.0
        } else {
            100.0 * self.gap().as_cycles() / mean
        }
    }
}

/// The complete result of a hybrid simulation run.
///
/// # Examples
///
/// ```
/// # use mesh_core::{Annotation, SystemBuilder, VecProgram, Power};
/// let mut b = SystemBuilder::new();
/// let p = b.add_proc("cpu0", Power::default());
/// let _t = b.add_thread("worker", VecProgram::new(vec![Annotation::compute(100.0)]));
/// let outcome = b.build().unwrap().run().unwrap();
/// let report = outcome.report;
/// assert_eq!(report.total_time.as_cycles(), 100.0);
/// assert_eq!(report.procs[p.index()].regions, 1);
/// assert_eq!(report.queuing_total().as_cycles(), 0.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// The simulated time at which the last region committed.
    pub total_time: SimTime,
    /// Per-thread statistics, indexed by [`ThreadId::index`].
    pub threads: Vec<ThreadReport>,
    /// Per-physical-resource statistics, indexed by [`ProcId::index`].
    pub procs: Vec<ProcReport>,
    /// Per-shared-resource statistics, indexed by [`SharedId::index`](crate::SharedId::index).
    pub shared: Vec<SharedReport>,
    /// Total annotation regions committed.
    pub commits: u64,
    /// Analysis windows (timeslices, merged by the minimum-timeslice rule)
    /// evaluated.
    pub slices_analyzed: u64,
    /// Heap operations performed by the kernel (a proxy for kernel work).
    pub kernel_steps: u64,
    /// Host wall-clock time the simulation took.
    pub wall_clock: std::time::Duration,
    /// Model-contract violations absorbed by a non-abort
    /// [`FaultPolicy`](crate::supervisor::FaultPolicy), in occurrence order.
    /// Empty under the default abort policy and on healthy runs.
    pub incidents: Vec<crate::supervisor::Incident>,
    /// Mean + worst-case envelope of the run's total queuing time.
    pub envelope: Envelope,
}

impl Report {
    /// Sum of all penalties assigned — the run's total queuing time.
    pub fn queuing_total(&self) -> SimTime {
        self.threads.iter().map(|t| t.queuing).sum()
    }

    /// Sum of all threads' worst-case queuing bounds — the worst leg of the
    /// run's [`Envelope`].
    pub fn queuing_worst_total(&self) -> SimTime {
        self.threads.iter().map(|t| t.queuing_worst).sum()
    }

    /// Worst-case queuing as a percentage of executed cycles — the
    /// envelope's counterpart to [`queuing_percent`](Report::queuing_percent).
    ///
    /// Returns zero for an empty run.
    pub fn queuing_worst_percent(&self) -> f64 {
        let busy = self.busy_total().as_cycles();
        if busy == 0.0 {
            0.0
        } else {
            100.0 * self.envelope.worst.as_cycles() / busy
        }
    }

    /// Sum of all threads' busy (annotated execution) time.
    pub fn busy_total(&self) -> SimTime {
        self.threads.iter().map(|t| t.busy).sum()
    }

    /// Queuing cycles as a percentage of executed cycles — the paper's
    /// y-axis in Figures 4 and 5.
    ///
    /// Returns zero for an empty run.
    pub fn queuing_percent(&self) -> f64 {
        let busy = self.busy_total().as_cycles();
        if busy == 0.0 {
            0.0
        } else {
            100.0 * self.queuing_total().as_cycles() / busy
        }
    }

    /// Queuing cycles for one thread as a percentage of its executed cycles.
    pub fn thread_queuing_percent(&self, thread: ThreadId) -> f64 {
        let t = &self.threads[thread.index()];
        if t.busy.is_zero() {
            0.0
        } else {
            100.0 * t.queuing.as_cycles() / t.busy.as_cycles()
        }
    }

    /// Utilization of a physical resource: busy time over total time.
    pub fn proc_utilization(&self, proc: ProcId) -> f64 {
        if self.total_time.is_zero() {
            0.0
        } else {
            self.procs[proc.index()].busy / self.total_time
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(busy: &[f64], queuing: &[f64]) -> Report {
        Report {
            total_time: SimTime::from_cycles(100.0),
            threads: busy
                .iter()
                .zip(queuing)
                .map(|(&b, &q)| ThreadReport {
                    busy: SimTime::from_cycles(b),
                    queuing: SimTime::from_cycles(q),
                    ..ThreadReport::default()
                })
                .collect(),
            procs: vec![ProcReport {
                busy: SimTime::from_cycles(50.0),
                regions: 1,
            }],
            ..Report::default()
        }
    }

    #[test]
    fn totals_and_percentages() {
        let r = report_with(&[80.0, 20.0], &[8.0, 2.0]);
        assert_eq!(r.busy_total().as_cycles(), 100.0);
        assert_eq!(r.queuing_total().as_cycles(), 10.0);
        assert!((r.queuing_percent() - 10.0).abs() < 1e-12);
        assert!((r.thread_queuing_percent(ThreadId(1)) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_has_zero_percent() {
        let r = Report::default();
        assert_eq!(r.queuing_percent(), 0.0);
    }

    #[test]
    fn proc_utilization_fraction() {
        let r = report_with(&[50.0], &[0.0]);
        assert!((r.proc_utilization(ProcId(0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn envelope_gap_and_percent() {
        let e = Envelope {
            mean: SimTime::from_cycles(20.0),
            worst: SimTime::from_cycles(30.0),
        };
        assert_eq!(e.gap().as_cycles(), 10.0);
        assert!((e.gap_percent() - 50.0).abs() < 1e-12);
        assert_eq!(Envelope::default().gap_percent(), 0.0);
    }

    #[test]
    fn worst_totals_sum_threads() {
        let mut r = report_with(&[80.0, 20.0], &[8.0, 2.0]);
        r.threads[0].queuing_worst = SimTime::from_cycles(16.0);
        r.threads[1].queuing_worst = SimTime::from_cycles(4.0);
        r.envelope = Envelope {
            mean: r.queuing_total(),
            worst: r.queuing_worst_total(),
        };
        assert_eq!(r.queuing_worst_total().as_cycles(), 20.0);
        assert!((r.queuing_worst_percent() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_includes_queuing() {
        let t = ThreadReport {
            busy: SimTime::from_cycles(10.0),
            queuing: SimTime::from_cycles(5.0),
            ..ThreadReport::default()
        };
        assert_eq!(t.occupancy().as_cycles(), 15.0);
    }
}
