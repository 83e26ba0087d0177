//! Lazily unrolls a task's segments into the micro-event stream the
//! cycle-accurate processor executes.
//!
//! A [`Segment`]'s memory references are spread across its compute
//! operations according to a [`Pacing`] policy. The total compute and the
//! reference stream are invariant under pacing — only the *placement in
//! time* changes — so the annotation bridge (which consumes totals and miss
//! counts only) is unaffected by the choice.
//!
//! The default pacing is [`Pacing::Poisson`]: exponential inter-reference
//! gaps, matching the irregular instruction-level timing of real programs.
//! Perfectly even pacing ([`Pacing::Even`]) is also available but beware its
//! artifact: deterministic periodic masters drift into non-colliding phase
//! alignment on a shared bus, suppressing queuing entirely — an artifact no
//! real workload exhibits.

use mesh_arch::ProcConfig;
use mesh_workloads::segment::{PatternIter, Segment, SegmentKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How memory references are placed among a segment's compute cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pacing {
    /// References are spread perfectly evenly (Bresenham). Deterministic,
    /// but periodic masters self-synchronize and under-report contention.
    Even,
    /// Exponentially distributed inter-reference gaps (Poisson-like
    /// arrivals), reproducibly derived from the given seed. The realistic
    /// default.
    Poisson(u64),
}

impl Default for Pacing {
    fn default() -> Pacing {
        Pacing::Poisson(0x5EED)
    }
}

/// The pacing policy processor `index` actually runs under: even pacing is
/// shared, Poisson seeds are decorrelated per processor (otherwise symmetric
/// tasks would artificially run in jitter lockstep). Both engines and the
/// trace compiler derive per-processor pacing through this one function, so
/// a compiled trace is guaranteed to replay the exact stream the on-the-fly
/// cursor would produce.
pub(crate) fn derived_pacing(pacing: Pacing, index: usize) -> Pacing {
    match pacing {
        Pacing::Even => Pacing::Even,
        Pacing::Poisson(seed) => {
            Pacing::Poisson(seed.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        }
    }
}

/// One micro-event of a task's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Item {
    /// Execute this many cycles of computation.
    Compute(u64),
    /// Issue a memory reference at this address.
    Ref(u64),
    /// Issue one shared-I/O operation.
    Io,
    /// Stay idle for this many cycles.
    Idle(u64),
    /// Arrive at the barrier with this workload-level id.
    Barrier(usize),
}

/// Cursor over one task's segments.
pub(crate) struct TaskCursor<'w> {
    segments: &'w [Segment],
    proc: ProcConfig,
    seg_idx: usize,
    rng: Option<SmallRng>,
    /// In-progress segment state.
    current: Option<SegmentCursor<'w>>,
}

struct SegmentCursor<'w> {
    segment: &'w Segment,
    /// Total compute cycles of the segment on this processor.
    compute_cycles: u64,
    /// Memory references plus I/O operations: the access events interleaved
    /// with the compute.
    total_events: u64,
    total_ios: u64,
    events_emitted: u64,
    ios_emitted: u64,
    compute_emitted: u64,
    /// Whether the gap preceding the next access event has been emitted.
    gap_emitted: bool,
    patterns: std::slice::Iter<'w, mesh_workloads::MemPattern>,
    pattern_iter: Option<PatternIter>,
    barrier_emitted: bool,
}

impl<'w> TaskCursor<'w> {
    pub(crate) fn new(segments: &'w [Segment], proc: ProcConfig, pacing: Pacing) -> TaskCursor<'w> {
        let rng = match pacing {
            Pacing::Even => None,
            Pacing::Poisson(seed) => Some(SmallRng::seed_from_u64(seed)),
        };
        TaskCursor {
            segments,
            proc,
            seg_idx: 0,
            rng,
            current: None,
        }
    }

    /// Produces the next micro-event, or `None` when the task is complete.
    pub(crate) fn next_item(&mut self) -> Option<Item> {
        loop {
            if self.current.is_none() {
                let segment = self.segments.get(self.seg_idx)?;
                self.seg_idx += 1;
                self.current = Some(SegmentCursor::new(segment, self.proc));
            }
            let cursor = self.current.as_mut().expect("just ensured");
            match cursor.next_item(self.rng.as_mut()) {
                Some(item) => return Some(item),
                None => self.current = None,
            }
        }
    }

    /// Index of the segment the last [`next_item`](TaskCursor::next_item)
    /// came from.
    pub(crate) fn segment(&self) -> usize {
        self.seg_idx - 1
    }
}

impl<'w> SegmentCursor<'w> {
    fn new(segment: &'w Segment, proc: ProcConfig) -> SegmentCursor<'w> {
        let compute_cycles = match segment.kind {
            SegmentKind::Work => compute_cycles(segment.compute_ops, proc),
            // Idle durations are wall-clock cycles, independent of power.
            SegmentKind::Idle => segment.compute_ops,
        };
        SegmentCursor {
            compute_cycles,
            total_events: segment.total_refs() + segment.io_ops,
            total_ios: segment.io_ops,
            events_emitted: 0,
            ios_emitted: 0,
            compute_emitted: 0,
            gap_emitted: false,
            patterns: segment.mem.iter(),
            pattern_iter: None,
            barrier_emitted: false,
            segment,
        }
    }

    fn next_ref(&mut self) -> Option<u64> {
        loop {
            if let Some(iter) = &mut self.pattern_iter {
                if let Some(addr) = iter.next() {
                    return Some(addr);
                }
            }
            self.pattern_iter = Some(self.patterns.next()?.iter());
        }
    }

    /// The compute chunk preceding access event `k` (1-based). Even pacing
    /// uses a Bresenham spread; Poisson pacing draws a truncated exponential
    /// gap, conserving the segment's total compute exactly.
    fn gap_before_event(&mut self, rng: Option<&mut SmallRng>) -> u64 {
        match rng {
            None => {
                let k = self.events_emitted + 1;
                let target = self.compute_cycles * k / self.total_events;
                target - self.compute_emitted
            }
            Some(rng) => {
                let remaining = self.compute_cycles - self.compute_emitted;
                let events_left = self.total_events - self.events_emitted;
                if remaining == 0 {
                    return 0;
                }
                let mean = remaining as f64 / events_left as f64;
                let u: f64 = rng.gen_range(0.0..1.0);
                let gap = (-mean * (1.0_f64 - u).ln()).round() as u64;
                gap.min(remaining)
            }
        }
    }

    /// Whether access event `k` (0-based) is an I/O operation, spreading the
    /// I/O operations evenly among the memory references (Bresenham).
    fn event_is_io(&self) -> bool {
        let k = self.events_emitted;
        (k + 1) * self.total_ios / self.total_events > k * self.total_ios / self.total_events
    }

    fn next_item(&mut self, rng: Option<&mut SmallRng>) -> Option<Item> {
        if self.segment.kind == SegmentKind::Idle {
            if self.compute_emitted < self.compute_cycles {
                self.compute_emitted = self.compute_cycles;
                return Some(Item::Idle(self.compute_cycles));
            }
        } else if self.events_emitted < self.total_events {
            if !self.gap_emitted {
                self.gap_emitted = true;
                let chunk = self.gap_before_event(rng);
                if chunk > 0 {
                    self.compute_emitted += chunk;
                    return Some(Item::Compute(chunk));
                }
            }
            self.gap_emitted = false;
            let is_io = self.event_is_io();
            self.events_emitted += 1;
            if is_io {
                self.ios_emitted += 1;
                return Some(Item::Io);
            }
            let addr = self.next_ref().expect("ref count mismatch");
            return Some(Item::Ref(addr));
        } else if self.compute_emitted < self.compute_cycles {
            // Pure-compute segment, or the remainder the gaps left behind.
            let chunk = self.compute_cycles - self.compute_emitted;
            self.compute_emitted = self.compute_cycles;
            return Some(Item::Compute(chunk));
        }
        if !self.barrier_emitted {
            self.barrier_emitted = true;
            if let Some(b) = self.segment.barrier {
                return Some(Item::Barrier(b));
            }
        }
        None
    }
}

/// Compute cycles `ops` operations take on `proc` — the shared definition
/// used by both the cycle-accurate simulator and the annotation bridge, so
/// rounding can never make the fidelities drift apart.
pub fn compute_cycles(ops: u64, proc: ProcConfig) -> u64 {
    (ops as f64 * proc.cycles_per_op()).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_arch::CacheConfig;
    use mesh_workloads::MemPattern;

    fn proc() -> ProcConfig {
        ProcConfig::new(CacheConfig::direct_mapped(1024, 32).unwrap())
    }

    fn drain(segments: &[Segment], proc: ProcConfig, pacing: Pacing) -> Vec<Item> {
        let mut c = TaskCursor::new(segments, proc, pacing);
        let mut items = Vec::new();
        while let Some(i) = c.next_item() {
            items.push(i);
        }
        items
    }

    fn total_compute(items: &[Item]) -> u64 {
        items
            .iter()
            .filter_map(|i| match i {
                Item::Compute(c) => Some(*c),
                _ => None,
            })
            .sum()
    }

    #[test]
    fn pure_compute_single_chunk() {
        let items = drain(&[Segment::work(100)], proc(), Pacing::Even);
        assert_eq!(items, vec![Item::Compute(100)]);
    }

    #[test]
    fn even_pacing_spreads_refs_evenly() {
        let seg = Segment::work(100).with_pattern(MemPattern::Strided {
            base: 0,
            stride: 64,
            count: 4,
        });
        let items = drain(&[seg], proc(), Pacing::Even);
        assert_eq!(
            items,
            vec![
                Item::Compute(25),
                Item::Ref(0),
                Item::Compute(25),
                Item::Ref(64),
                Item::Compute(25),
                Item::Ref(128),
                Item::Compute(25),
                Item::Ref(192),
            ]
        );
    }

    #[test]
    fn poisson_pacing_conserves_compute_and_refs() {
        let seg = Segment::work(1000).with_pattern(MemPattern::Strided {
            base: 0,
            stride: 64,
            count: 37,
        });
        let items = drain(std::slice::from_ref(&seg), proc(), Pacing::Poisson(7));
        assert_eq!(total_compute(&items), 1000);
        let refs: Vec<u64> = items
            .iter()
            .filter_map(|i| match i {
                Item::Ref(a) => Some(*a),
                _ => None,
            })
            .collect();
        assert_eq!(refs.len(), 37);
        // The address stream is pacing-independent.
        let even_refs: Vec<u64> = drain(&[seg], proc(), Pacing::Even)
            .iter()
            .filter_map(|i| match i {
                Item::Ref(a) => Some(*a),
                _ => None,
            })
            .collect();
        assert_eq!(refs, even_refs);
    }

    #[test]
    fn poisson_pacing_is_reproducible_and_seed_sensitive() {
        let seg = Segment::work(500).with_pattern(MemPattern::Strided {
            base: 0,
            stride: 32,
            count: 20,
        });
        let a = drain(std::slice::from_ref(&seg), proc(), Pacing::Poisson(1));
        let b = drain(std::slice::from_ref(&seg), proc(), Pacing::Poisson(1));
        let c = drain(&[seg], proc(), Pacing::Poisson(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn even_pacing_conserves_with_uneven_split() {
        let seg = Segment::work(10).with_pattern(MemPattern::Strided {
            base: 0,
            stride: 1,
            count: 3,
        });
        let items = drain(&[seg], proc(), Pacing::Even);
        assert_eq!(total_compute(&items), 10);
        let refs = items.iter().filter(|i| matches!(i, Item::Ref(_))).count();
        assert_eq!(refs, 3);
    }

    #[test]
    fn power_scales_compute() {
        let slow = proc().with_power(0.5);
        let items = drain(&[Segment::work(100)], slow, Pacing::Even);
        assert_eq!(items, vec![Item::Compute(200)]);
        assert_eq!(compute_cycles(100, slow), 200);
    }

    #[test]
    fn idle_is_power_independent_and_unjittered() {
        let slow = proc().with_power(0.5);
        let items = drain(&[Segment::idle(100)], slow, Pacing::Poisson(3));
        assert_eq!(items, vec![Item::Idle(100)]);
    }

    #[test]
    fn barrier_emitted_last() {
        let seg = Segment::work(10).with_barrier(2);
        let items = drain(&[seg], proc(), Pacing::Even);
        assert_eq!(items, vec![Item::Compute(10), Item::Barrier(2)]);
    }

    #[test]
    fn refs_only_segment() {
        let seg = Segment::work(0).with_pattern(MemPattern::Strided {
            base: 0,
            stride: 32,
            count: 2,
        });
        let items = drain(&[seg], proc(), Pacing::Poisson(5));
        assert_eq!(items, vec![Item::Ref(0), Item::Ref(32)]);
    }

    #[test]
    fn multiple_segments_in_order() {
        let items = drain(
            &[Segment::work(5), Segment::idle(7), Segment::work(3)],
            proc(),
            Pacing::Even,
        );
        assert_eq!(
            items,
            vec![Item::Compute(5), Item::Idle(7), Item::Compute(3)]
        );
    }
}
