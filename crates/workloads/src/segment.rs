//! Fidelity-neutral workload representation.
//!
//! Every experiment in this repository runs the *same* workload through two
//! simulators: the cycle-accurate reference (`mesh-cyclesim`) and the hybrid
//! MESH kernel (via `mesh-annotate`). The common currency is the
//! [`Workload`]: per-task lists of [`Segment`]s, each carrying compute
//! operations and parametric memory-reference [`MemPattern`]s, with optional
//! barrier synchronization between segments.
//!
//! Patterns are *generators*, not stored address lists: both fidelities
//! expand them with identical, seeded logic, so they observe identical
//! reference streams without materializing millions of addresses.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A parametric memory-reference stream.
///
/// Derives `Hash` (all fields are integers) so downstream consumers can
/// content-address workloads — `mesh-cyclesim` keys its cross-sweep trace
/// cache on the segments' hash.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum MemPattern {
    /// `count` addresses starting at `base`, `stride` bytes apart.
    Strided {
        /// First address.
        base: u64,
        /// Byte distance between consecutive references.
        stride: u64,
        /// Number of references.
        count: u64,
    },
    /// `count` uniformly random addresses in `[base, base + span)`,
    /// reproducibly drawn from `seed`.
    Random {
        /// Region start.
        base: u64,
        /// Region length in bytes.
        span: u64,
        /// Number of references.
        count: u64,
        /// RNG seed (every expansion yields the same stream).
        seed: u64,
    },
}

impl MemPattern {
    /// Number of references the pattern expands to.
    pub fn count(&self) -> u64 {
        match *self {
            MemPattern::Strided { count, .. } | MemPattern::Random { count, .. } => count,
        }
    }

    /// Expands the pattern into its address stream.
    pub fn iter(&self) -> PatternIter {
        match *self {
            MemPattern::Strided {
                base,
                stride,
                count,
            } => PatternIter::Strided {
                next: base,
                stride,
                remaining: count,
            },
            MemPattern::Random {
                base,
                span,
                count,
                seed,
            } => PatternIter::Random {
                base,
                span: span.max(1),
                remaining: count,
                rng: Box::new(SmallRng::seed_from_u64(seed)),
            },
        }
    }
}

/// Iterator over a [`MemPattern`]'s addresses.
#[derive(Debug)]
pub enum PatternIter {
    /// Expansion of [`MemPattern::Strided`].
    Strided {
        /// Next address to yield.
        next: u64,
        /// Stride in bytes.
        stride: u64,
        /// References left.
        remaining: u64,
    },
    /// Expansion of [`MemPattern::Random`].
    Random {
        /// Region start.
        base: u64,
        /// Region length.
        span: u64,
        /// References left.
        remaining: u64,
        /// Deterministic generator.
        rng: Box<SmallRng>,
    },
}

impl Iterator for PatternIter {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        match self {
            PatternIter::Strided {
                next,
                stride,
                remaining,
            } => {
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                let addr = *next;
                *next = next.wrapping_add(*stride);
                Some(addr)
            }
            PatternIter::Random {
                base,
                span,
                remaining,
                rng,
            } => {
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                Some(*base + rng.gen_range(0..*span))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            PatternIter::Strided { remaining, .. } | PatternIter::Random { remaining, .. } => {
                *remaining as usize
            }
        };
        (n, Some(n))
    }
}

/// Whether a segment represents useful work or an idle gap.
///
/// Idle gaps model data dependencies and user interactions between
/// application runs on a SoC (paper §5.2); they occupy wall-clock time but
/// no processor work and issue no bus traffic. Work is measured in
/// *operations* (scaled by processor power); idle is measured directly in
/// *cycles*.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SegmentKind {
    /// Executing instructions (ops scaled by processor power).
    #[default]
    Work,
    /// Idle wall-clock time (cycles, independent of processor power).
    Idle,
}

/// One contiguous piece of a task: compute plus interleaved memory traffic,
/// optionally issuing shared-I/O operations, optionally ending at a barrier.
///
/// `Hash` covers every field, so equal hashes of two segment lists mean (up
/// to collisions) identical micro-event streams — the property the
/// cycle-accurate simulator's trace cache relies on.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Work or idle.
    pub kind: SegmentKind,
    /// Operations (for [`SegmentKind::Work`]) or cycles (for
    /// [`SegmentKind::Idle`]).
    pub compute_ops: u64,
    /// Memory references issued uniformly across the segment.
    pub mem: Vec<MemPattern>,
    /// Shared-I/O device operations issued uniformly across the segment
    /// (paper §4.1: a thread can be associated with multiple shared
    /// resources — memory, communication medium, I/O devices).
    pub io_ops: u64,
    /// Barrier (index into [`Workload::barriers`]) the task arrives at when
    /// the segment completes.
    pub barrier: Option<usize>,
}

impl Segment {
    /// Creates a work segment of `ops` operations.
    pub fn work(ops: u64) -> Segment {
        Segment {
            kind: SegmentKind::Work,
            compute_ops: ops,
            mem: Vec::new(),
            io_ops: 0,
            barrier: None,
        }
    }

    /// Creates an idle gap of `cycles` cycles.
    pub fn idle(cycles: u64) -> Segment {
        Segment {
            kind: SegmentKind::Idle,
            compute_ops: cycles,
            mem: Vec::new(),
            io_ops: 0,
            barrier: None,
        }
    }

    /// Adds shared-I/O operations, spread uniformly across the segment
    /// (builder style).
    ///
    /// # Panics
    ///
    /// Panics if called on an idle segment.
    #[must_use]
    pub fn with_io(mut self, ops: u64) -> Segment {
        assert_eq!(self.kind, SegmentKind::Work, "idle segments issue no I/O");
        self.io_ops += ops;
        self
    }

    /// Adds a memory pattern (builder style).
    ///
    /// # Panics
    ///
    /// Panics if called on an idle segment — idle gaps issue no traffic.
    #[must_use]
    pub fn with_pattern(mut self, pattern: MemPattern) -> Segment {
        assert_eq!(
            self.kind,
            SegmentKind::Work,
            "idle segments have no memory traffic"
        );
        self.mem.push(pattern);
        self
    }

    /// Ends the segment at a barrier (builder style).
    #[must_use]
    pub fn with_barrier(mut self, barrier: usize) -> Segment {
        self.barrier = Some(barrier);
        self
    }

    /// Total memory references the segment issues.
    pub fn total_refs(&self) -> u64 {
        self.mem.iter().map(MemPattern::count).sum()
    }

    /// Iterates over all addresses the segment references, in order.
    pub fn refs(&self) -> impl Iterator<Item = u64> + '_ {
        self.mem.iter().flat_map(MemPattern::iter)
    }
}

/// One task: the program of one logical thread.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TaskProgram {
    /// Human-readable task name.
    pub name: String,
    /// The task's segments, executed in order.
    pub segments: Vec<Segment>,
}

impl TaskProgram {
    /// Creates an empty task.
    pub fn new(name: impl Into<String>) -> TaskProgram {
        TaskProgram {
            name: name.into(),
            segments: Vec::new(),
        }
    }

    /// Appends a segment (builder style).
    #[must_use]
    pub fn with_segment(mut self, segment: Segment) -> TaskProgram {
        self.segments.push(segment);
        self
    }

    /// Appends a segment.
    pub fn push(&mut self, segment: Segment) {
        self.segments.push(segment);
    }

    /// Total work operations (excludes idle).
    pub fn total_ops(&self) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.kind == SegmentKind::Work)
            .map(|s| s.compute_ops)
            .sum()
    }

    /// Total idle cycles.
    pub fn total_idle_cycles(&self) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.kind == SegmentKind::Idle)
            .map(|s| s.compute_ops)
            .sum()
    }

    /// Total memory references.
    pub fn total_refs(&self) -> u64 {
        self.segments.iter().map(Segment::total_refs).sum()
    }

    /// Total shared-I/O operations.
    pub fn total_io_ops(&self) -> u64 {
        self.segments.iter().map(|s| s.io_ops).sum()
    }
}

/// A complete multi-task workload plus its barrier table.
///
/// Task `i` runs on processor `i` of the machine it is paired with.
///
/// # Examples
///
/// ```
/// use mesh_workloads::{MemPattern, Segment, TaskProgram, Workload};
///
/// let mut w = Workload::new();
/// let bar = w.add_barrier(2);
/// for t in 0..2 {
///     w.add_task(
///         TaskProgram::new(format!("t{t}"))
///             .with_segment(
///                 Segment::work(10_000)
///                     .with_pattern(MemPattern::Strided { base: t * 4096, stride: 32, count: 128 })
///                     .with_barrier(bar),
///             )
///             .with_segment(Segment::work(5_000)),
///     );
/// }
/// assert_eq!(w.tasks.len(), 2);
/// assert_eq!(w.barriers[bar], 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Workload {
    /// The tasks, index-aligned with machine processors.
    pub tasks: Vec<TaskProgram>,
    /// Barrier party counts, indexed by the ids segments refer to.
    pub barriers: Vec<usize>,
}

impl Workload {
    /// Creates an empty workload.
    pub fn new() -> Workload {
        Workload::default()
    }

    /// Registers a barrier released when `parties` tasks arrive; returns its
    /// id for use in [`Segment::with_barrier`].
    pub fn add_barrier(&mut self, parties: usize) -> usize {
        self.barriers.push(parties);
        self.barriers.len() - 1
    }

    /// Appends a task; returns its index (= its processor).
    pub fn add_task(&mut self, task: TaskProgram) -> usize {
        self.tasks.push(task);
        self.tasks.len() - 1
    }

    /// Validates that every barrier referenced by a segment exists.
    pub fn validate(&self) -> Result<(), String> {
        for (ti, task) in self.tasks.iter().enumerate() {
            for (si, seg) in task.segments.iter().enumerate() {
                if let Some(b) = seg.barrier {
                    if b >= self.barriers.len() {
                        return Err(format!(
                            "task {ti} segment {si} references unknown barrier {b}"
                        ));
                    }
                }
                if seg.kind == SegmentKind::Idle && (!seg.mem.is_empty() || seg.io_ops > 0) {
                    return Err(format!("task {ti} segment {si} is idle but has traffic"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_pattern_expands_in_order() {
        let p = MemPattern::Strided {
            base: 100,
            stride: 32,
            count: 4,
        };
        let addrs: Vec<u64> = p.iter().collect();
        assert_eq!(addrs, vec![100, 132, 164, 196]);
        assert_eq!(p.count(), 4);
    }

    #[test]
    fn random_pattern_is_reproducible_and_bounded() {
        let p = MemPattern::Random {
            base: 1000,
            span: 512,
            count: 64,
            seed: 42,
        };
        let a: Vec<u64> = p.iter().collect();
        let b: Vec<u64> = p.iter().collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| (1000..1512).contains(&x)));
        // Different seeds differ.
        let q = MemPattern::Random {
            base: 1000,
            span: 512,
            count: 64,
            seed: 43,
        };
        assert_ne!(a, q.iter().collect::<Vec<u64>>());
    }

    #[test]
    fn segment_totals() {
        let s = Segment::work(1000)
            .with_pattern(MemPattern::Strided {
                base: 0,
                stride: 32,
                count: 10,
            })
            .with_pattern(MemPattern::Random {
                base: 0,
                span: 64,
                count: 5,
                seed: 1,
            });
        assert_eq!(s.total_refs(), 15);
        assert_eq!(s.refs().count(), 15);
    }

    #[test]
    #[should_panic(expected = "idle segments")]
    fn idle_segments_reject_traffic() {
        let _ = Segment::idle(100).with_pattern(MemPattern::Strided {
            base: 0,
            stride: 32,
            count: 1,
        });
    }

    #[test]
    fn task_totals_separate_work_and_idle() {
        let t = TaskProgram::new("t")
            .with_segment(Segment::work(500))
            .with_segment(Segment::idle(300))
            .with_segment(Segment::work(200));
        assert_eq!(t.total_ops(), 700);
        assert_eq!(t.total_idle_cycles(), 300);
    }

    #[test]
    fn workload_validation() {
        let mut w = Workload::new();
        w.add_task(TaskProgram::new("t").with_segment(Segment::work(1).with_barrier(0)));
        assert!(w.validate().is_err());
        let mut w2 = Workload::new();
        let b = w2.add_barrier(1);
        w2.add_task(TaskProgram::new("t").with_segment(Segment::work(1).with_barrier(b)));
        assert!(w2.validate().is_ok());
    }

    #[test]
    fn pattern_iter_size_hint() {
        let p = MemPattern::Strided {
            base: 0,
            stride: 1,
            count: 7,
        };
        assert_eq!(p.iter().size_hint(), (7, Some(7)));
    }
}
