//! Trace compilation: resolving each task's micro-event stream ahead of
//! time so the engines' hot loops merge pre-computed events.
//!
//! Caches are private per processor, so a task's address stream — and hence
//! its hit/miss sequence — is invariant under bus timing, I/O grants and
//! barrier stalls: nothing another processor does can change *which*
//! references miss, only *when* the misses are serviced. That makes the
//! expensive per-reference work (the segment cursor walk, the Poisson gap
//! draw, the LRU [`Cache::access`]) a pure function of
//! `(segments, ProcConfig, pacing)` and lets it run once, at *compile*
//! time, instead of once per reference per run:
//!
//! * a `TraceStep` is one run-length-encoded **macro-step**: the maximal
//!   contention-free run of compute chunks, cache hits and idle gaps —
//!   fused into closed-form busy/idle aggregates — followed by the
//!   shared-state event it runs into (miss, I/O, barrier, or task end).
//!   Idle gaps never interact with shared resources, so folding them into
//!   the span (super-step fusion) is observationally identical to stepping
//!   them apart, and halves the engines' event traffic on idle-heavy
//!   workloads on top of the compute/hit fusion;
//! * a `TaskTrace` stores each step in 8 bytes (`PackedStep`): the busy
//!   span and the fused hit count of a miss, I/O or finish step with no
//!   idle gap. The rare step that does not fit — a barrier, an absorbed
//!   idle gap, a span of 2^32 cycles or more, 2^30 hits or more — is kept
//!   whole in the trace's table of wide steps, and its packed slot holds
//!   the index there. Packed steps sit in fixed-size chunks, so compiling
//!   never needs one giant contiguous allocation and consuming streams
//!   through memory chunk by chunk;
//! * compilation of a workload's tasks is parallel ([`std::thread::scope`]
//!   workers over a shared atomic index, [`compile_jobs`] of them, which
//!   `mesh-bench` sets to its sweep worker count);
//! * compiled traces live in a process-wide **cross-sweep cache** keyed by
//!   a stable 128-bit content hash ([`KeyHasher`], one 64-bit word per
//!   step) of the segments, the processor's timing digest
//!   ([`mesh_arch::ProcConfig::digest_words`]) and the derived pacing seed.
//!   fig4/fig5-style grids that revisit the same per-processor streams
//!   (they vary cache size and processor count, not the programs) compile
//!   each distinct trace exactly once per process;
//! * the cache is **single-flight** per key: each key has one
//!   [`OnceLock`] cell, the first caller to need it compiles into it, and a
//!   caller that finds it being filled blocks on it and counts a hit, so
//!   concurrent sweep points sharing a trace compile it once. A compile
//!   that panics leaves the cell empty, and the next caller — or one that
//!   was waiting — compiles the trace itself;
//! * the compiler walks each task in one loop per segment with all state
//!   in locals: per access event it draws the pacing gap, places I/O
//!   operations by a Bresenham remainder, reads the next pattern address,
//!   accesses the cache and counts the hit or miss, and it packs a step at
//!   each miss, I/O operation, barrier and the end. It produces exactly the
//!   steps the on-the-fly cursor feed does, without the feed's
//!   item-by-item state machine, and rounds the Poisson gap inline;
//! * every trace also carries its task's **per-segment hit and miss
//!   counts**, counted during the same cache walk. [`profiles`] hands them
//!   out, so annotation (`mesh-annotate`'s profile) needs no second walk of
//!   any task under the step cap.
//!
//! Memory stays bounded: a single task's trace is capped at 4 Mi steps
//! (≈ 32 MiB plus 40 bytes per wide step; beyond it the engines fall back
//! to the on-the-fly cursor and the cap is negative-cached), and the cache
//! evicts oldest-first beyond a resident budget of 8 Mi steps (≈ 64 MiB
//! plus the wide steps) across all entries. A step goes wide only at a
//! barrier, after an idle gap or on overflow, so a trace holds at most its
//! task's segment count of wide steps plus its overflow steps.
//!
//! Exactness is proven the same way the event-skipping engine's is:
//! `tests/differential.rs` pins trace-fed runs of both engines to
//! field-identical [`CycleReport`](crate::CycleReport)s — and identical
//! errors — against the on-the-fly cursor reference across the whole
//! pacing/arbitration/barrier/I/O/error space, and this module's tests pin
//! compiled step streams, profiles and eviction counts to the cursor feed's
//! (on every task of the paper's Figure 4 and Figure 6 workloads in an
//! optimized build).

use crate::cursor::{compute_cycles, derived_pacing, Item, Pacing, TaskCursor};
use crate::key::KeyHasher;
use mesh_arch::{Cache, MachineConfig, ProcConfig};
use mesh_workloads::segment::SegmentKind;
use mesh_workloads::{Segment, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, OnceLock};

/// Cap on one task's compiled trace, in steps (≈ 32 MiB of packed steps).
/// Tasks beyond the cap fall back to the on-the-fly cursor; the verdict is
/// negative-cached so the compile cost is paid once.
const DEFAULT_MAX_STEPS: usize = 4 << 20;

/// Resident-step budget of the cross-sweep cache across all entries
/// (≈ 64 MiB of packed steps). Oldest entries are evicted first when an
/// insert would exceed it.
const DEFAULT_CACHE_STEPS: usize = 8 << 20;

/// Steps per storage chunk: large enough that chunk-boundary checks vanish
/// in the consume loop, small enough that a trace never over-allocates by
/// more than 64 KiB.
const CHUNK_STEPS: usize = 8192;

/// Which feed the engines draw micro-events from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// Compile each task's trace up front (through the cross-sweep cache)
    /// and feed both engines pre-resolved steps. The default.
    #[default]
    Compiled,
    /// Walk the segment cursor, draw pacing gaps and access the cache
    /// during the run — the original path, kept as the differential
    /// reference for the compiled feed.
    OnTheFly,
}

/// The shared-state event a macro-step runs into — what the processor does
/// once its fused compute/hit/idle occupancy completes. Every variant
/// touches state another processor can observe (a shared resource, a
/// barrier, or run termination); anything private fuses into the step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepEvent {
    /// A cache miss: request the shared bus.
    Miss,
    /// A shared-I/O operation: request the device.
    Io,
    /// Arrive at this barrier.
    Barrier(usize),
    /// The task is complete.
    Finish,
}

/// One run-length-encoded macro-step of a task: occupy the processor for
/// `busy` work cycles (compute fused with `hits` cache hits), sit idle for
/// `idle` cycles, then block on `event`. Both spans may be zero (e.g.
/// back-to-back misses); `hits` counts the hits fused into the span so
/// statistics can be accrued without replay. Interleavings of compute and
/// idle inside one contention-free run collapse to busy-then-idle: no
/// shared state is touched mid-span, so only the totals and the end cycle
/// are observable — all preserved exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TraceStep {
    pub(crate) busy: u64,
    pub(crate) idle: u64,
    pub(crate) hits: u64,
    pub(crate) event: StepEvent,
}

/// One segment's outcome in its processor's private cache: how many of its
/// references hit and how many missed (a miss is a shared-bus access).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentProfile {
    /// References served by the cache.
    pub hits: u64,
    /// References that missed.
    pub misses: u64,
}

/// An on-the-fly step producer: walks the segment cursor and the private
/// cache, fusing compute chunks and hits into the steps the trace compiler
/// produces. It is the engines' `OnTheFly` feed, their fallback for a task
/// past the step cap, and the reference the tests pin compiled traces to.
pub(crate) struct CursorFeed<'w> {
    pub(crate) cursor: TaskCursor<'w>,
    pub(crate) cache: Cache,
    pub(crate) hit_cycles: u64,
    /// Hits and misses so far, index-aligned with the segments.
    pub(crate) profile: Vec<SegmentProfile>,
}

impl<'w> CursorFeed<'w> {
    pub(crate) fn new(segments: &'w [Segment], proc: ProcConfig, pacing: Pacing) -> CursorFeed<'w> {
        CursorFeed {
            cursor: TaskCursor::new(segments, proc, pacing),
            cache: Cache::new(proc.cache),
            hit_cycles: proc.hit_cycles,
            profile: vec![SegmentProfile::default(); segments.len()],
        }
    }

    /// Produces the next macro-step: consumes items, accumulating compute
    /// chunks and hit costs into the busy span and idle gaps into the idle
    /// span, until a shared-state event (or the end of the task).
    /// Zero-length compute and idle items vanish, as the engines always
    /// have them.
    pub(crate) fn next_step(&mut self) -> TraceStep {
        let mut busy: u64 = 0;
        let mut idle: u64 = 0;
        let mut hits: u64 = 0;
        loop {
            let event = match self.cursor.next_item() {
                None => StepEvent::Finish,
                Some(Item::Compute(c)) => {
                    busy += c;
                    continue;
                }
                Some(Item::Idle(c)) => {
                    idle += c;
                    continue;
                }
                Some(Item::Ref(addr)) => {
                    let counts = &mut self.profile[self.cursor.segment()];
                    if self.cache.access(addr).is_miss() {
                        counts.misses += 1;
                        StepEvent::Miss
                    } else {
                        counts.hits += 1;
                        hits += 1;
                        busy += self.hit_cycles;
                        continue;
                    }
                }
                Some(Item::Io) => StepEvent::Io,
                Some(Item::Barrier(id)) => StepEvent::Barrier(id),
            };
            return TraceStep {
                busy,
                idle,
                hits,
                event,
            };
        }
    }
}

/// A [`TraceStep`] in 8 bytes: the busy span in `busy`, and in `meta` the
/// fused hit count above a two-bit kind. A step that does not fit — a
/// barrier, an absorbed idle gap, a span of 2^32 cycles or more, or 2^30
/// hits or more — is kept whole in its trace's wide table, and `busy`
/// holds its index there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PackedStep {
    busy: u32,
    meta: u32,
}

const _: () = assert!(std::mem::size_of::<PackedStep>() == 8);

/// Low bits of [`PackedStep::meta`] holding the kind; the hits sit above.
const KIND_BITS: u32 = 2;
const KIND_MASK: u32 = (1 << KIND_BITS) - 1;
const KIND_MISS: u32 = 0;
const KIND_IO: u32 = 1;
const KIND_FINISH: u32 = 2;
/// The step is the wide table's entry `busy`.
const KIND_WIDE: u32 = 3;

impl PackedStep {
    /// Packs `step`, first appending it to `wide` if it does not fit.
    fn pack(step: TraceStep, wide: &mut Vec<TraceStep>) -> PackedStep {
        let kind = match step.event {
            StepEvent::Miss => Some(KIND_MISS),
            StepEvent::Io => Some(KIND_IO),
            StepEvent::Finish => Some(KIND_FINISH),
            StepEvent::Barrier(_) => None,
        };
        let busy = u32::try_from(step.busy).ok();
        let hits = u32::try_from(step.hits)
            .ok()
            .filter(|&h| h < 1 << (32 - KIND_BITS));
        match (kind, busy, hits, step.idle) {
            (Some(kind), Some(busy), Some(hits), 0) => PackedStep {
                busy,
                meta: hits << KIND_BITS | kind,
            },
            _ => {
                wide.push(step);
                PackedStep {
                    busy: u32::try_from(wide.len() - 1).expect("wide-step index fits 32 bits"),
                    meta: KIND_WIDE,
                }
            }
        }
    }

    /// The step this packs; `wide` is its trace's wide table.
    #[inline]
    fn unpack(self, wide: &[TraceStep]) -> TraceStep {
        let event = match self.meta & KIND_MASK {
            KIND_MISS => StepEvent::Miss,
            KIND_IO => StepEvent::Io,
            KIND_FINISH => StepEvent::Finish,
            _ => return wide[self.busy as usize],
        };
        TraceStep {
            busy: u64::from(self.busy),
            idle: 0,
            hits: u64::from(self.meta >> KIND_BITS),
            event,
        }
    }
}

/// One task's compiled trace: the full step sequence, packed and chunked,
/// the steps too wide to pack, each segment's hits and misses from the
/// compile's cache walk, and that walk's private-cache evictions.
#[derive(Debug)]
pub(crate) struct TaskTrace {
    chunks: Vec<Box<[PackedStep]>>,
    wide: Vec<TraceStep>,
    steps: usize,
    profile: Vec<SegmentProfile>,
    cache_evictions: u64,
}

impl TaskTrace {
    pub(crate) fn steps(&self) -> usize {
        self.steps
    }

    /// Bytes of step storage: every packed step plus every wide step.
    fn bytes(&self) -> usize {
        self.steps * std::mem::size_of::<PackedStep>()
            + self.wide.len() * std::mem::size_of::<TraceStep>()
    }
}

/// A consuming position in a shared [`TaskTrace`]. Engines stop at
/// [`StepEvent::Finish`], which is always the last step, so the reader is
/// never advanced past the end.
pub(crate) struct TraceCursor {
    trace: Arc<TaskTrace>,
    chunk: usize,
    idx: usize,
}

impl TraceCursor {
    pub(crate) fn new(trace: Arc<TaskTrace>) -> TraceCursor {
        TraceCursor {
            trace,
            chunk: 0,
            idx: 0,
        }
    }

    pub(crate) fn next_step(&mut self) -> TraceStep {
        let chunk = &self.trace.chunks[self.chunk];
        let packed = chunk[self.idx];
        self.idx += 1;
        if self.idx == chunk.len() {
            self.chunk += 1;
            self.idx = 0;
        }
        packed.unpack(&self.trace.wide)
    }

    /// Private-cache evictions of the compile's walk of this task.
    pub(crate) fn cache_evictions(&self) -> u64 {
        self.trace.cache_evictions
    }
}

/// A trace under construction: packed steps in chunks, the wide table and
/// the step cap.
struct StepWriter {
    chunks: Vec<Box<[PackedStep]>>,
    current: Vec<PackedStep>,
    wide: Vec<TraceStep>,
    steps: usize,
    max_steps: usize,
    /// Steps whose span absorbed an idle gap.
    fused_idle: u64,
}

impl StepWriter {
    fn new(max_steps: usize) -> StepWriter {
        StepWriter {
            chunks: Vec::new(),
            current: Vec::with_capacity(CHUNK_STEPS.min(max_steps.max(1))),
            wide: Vec::new(),
            steps: 0,
            max_steps,
            fused_idle: 0,
        }
    }

    /// Appends `step`, or returns `None` if the trace already holds
    /// `max_steps` steps.
    #[inline(always)]
    fn push(&mut self, step: TraceStep) -> Option<()> {
        if self.steps >= self.max_steps {
            return None;
        }
        if step.idle > 0 {
            self.fused_idle += 1;
        }
        self.current.push(PackedStep::pack(step, &mut self.wide));
        self.steps += 1;
        if self.current.len() == CHUNK_STEPS {
            let full = std::mem::replace(&mut self.current, Vec::with_capacity(CHUNK_STEPS));
            self.chunks.push(full.into_boxed_slice());
        }
        Some(())
    }
}

/// In a segment of fewer compute cycles and fewer access events than this,
/// [`poisson_gap`] takes its short path: the counts left convert to `f64`
/// exactly through `i64`, the mean gap is below 2^52 and `-ln(1 - u)` at
/// most 52·ln 2 for a draw `u` in [0, 1 - 2^-52], so twice the unrounded
/// gap stays below 2^59, inside [`round_doubled`]'s domain.
const INLINE_ROUND_LIMIT: u64 = 1 << 52;

/// `x.round() as u64` for `x` in [0, 2^62) and for −0.0, given `2x`:
/// `⌊x + ½⌋ = ⌊(⌊2x⌋ + 1) / 2⌋`, and doubling and truncating a float are
/// both exact. That rounds half away from zero like [`f64::round`], in one
/// conversion and two integer operations instead of the library call
/// `f64::round` compiles to on targets without a rounding instruction.
#[inline]
fn round_doubled(two_x: f64) -> u64 {
    ((two_x as i64 + 1) >> 1) as u64
}

/// The compute cycles before the next access event of a Poisson-paced
/// segment with `remaining` cycles left for `events_left` events: the same
/// draw and float expression as the segment cursor's, which draws nothing
/// once the compute is used up. `short` says the segment is below
/// [`INLINE_ROUND_LIMIT`] in both counts. The short path rounds inline and
/// keeps the loop-carried chain from `remaining` to the gap short: the
/// logarithm, which does not depend on `remaining`, comes first and takes
/// the doubling along.
#[inline]
fn poisson_gap(remaining: u64, events_left: u64, short: bool, rng: &mut SmallRng) -> u64 {
    if remaining == 0 {
        return 0;
    }
    let u: f64 = rng.gen_range(0.0..1.0);
    let gap = if short {
        let minus_two_ln = -2.0 * (1.0_f64 - u).ln();
        let mean = remaining as i64 as f64 / events_left as i64 as f64;
        // Exactly twice `-mean * ln(1 - u)`: scaling by two commutes with
        // rounding short of overflow and underflow, which neither nears.
        round_doubled(mean * minus_two_ln)
    } else {
        let mean = remaining as f64 / events_left as f64;
        (-mean * (1.0_f64 - u).ln()).round() as u64
    };
    gap.min(remaining)
}

/// Walks `segments` through `cache` in one loop per segment, with the open
/// step's spans and hits in locals, writing a step at each miss, I/O
/// operation and barrier, and at the end. Each segment's hits and misses go
/// to `profile`. Produces exactly the steps [`CursorFeed`] does: the same
/// gaps (Even pacing's Bresenham target in `u128`, Poisson's draw), the
/// same even spread of I/O operations among the references (a Bresenham
/// remainder instead of two divisions per event), the same references.
/// Returns `None` once `out` refuses a step.
fn walk(
    segments: &[Segment],
    proc: ProcConfig,
    pacing: Pacing,
    cache: &mut Cache,
    profile: &mut [SegmentProfile],
    out: &mut StepWriter,
) -> Option<()> {
    let mut rng = match pacing {
        Pacing::Even => None,
        Pacing::Poisson(seed) => Some(SmallRng::seed_from_u64(seed)),
    };
    let (mut busy, mut idle, mut hits) = (0u64, 0u64, 0u64);
    for (segment, counts) in segments.iter().zip(profile) {
        if segment.kind == SegmentKind::Idle {
            // Idle durations are wall-clock cycles, independent of power.
            idle += segment.compute_ops;
        } else {
            let compute = compute_cycles(segment.compute_ops, proc);
            let (nrefs, ios) = (segment.total_refs(), segment.io_ops);
            let events = nrefs + ios;
            let short = compute < INLINE_ROUND_LIMIT && events < INLINE_ROUND_LIMIT;
            // Event `k` is an I/O operation when `(k + 1)·ios / events`
            // steps past `k·ios / events`; `phase` is `k·ios mod events`.
            let mut phase: u64 = 0;
            let mut placed: u64 = 0;
            let mut refs = segment.refs();
            for k in 0..events {
                let gap = match rng.as_mut() {
                    None => {
                        let target = u128::from(compute) * u128::from(k + 1) / u128::from(events);
                        target as u64 - placed
                    }
                    Some(rng) => poisson_gap(compute - placed, events - k, short, rng),
                };
                placed += gap;
                busy += gap;
                let event = if phase >= nrefs {
                    phase -= nrefs;
                    StepEvent::Io
                } else {
                    phase += ios;
                    let addr = refs.next().expect("ref count mismatch");
                    if cache.access(addr).is_miss() {
                        counts.misses += 1;
                        StepEvent::Miss
                    } else {
                        counts.hits += 1;
                        hits += 1;
                        busy += proc.hit_cycles;
                        continue;
                    }
                };
                out.push(TraceStep {
                    busy,
                    idle,
                    hits,
                    event,
                })?;
                (busy, idle, hits) = (0, 0, 0);
            }
            // Pure compute, or the remainder the gaps left behind.
            busy += compute - placed;
        }
        if let Some(id) = segment.barrier {
            out.push(TraceStep {
                busy,
                idle,
                hits,
                event: StepEvent::Barrier(id),
            })?;
            (busy, idle, hits) = (0, 0, 0);
        }
    }
    out.push(TraceStep {
        busy,
        idle,
        hits,
        event: StepEvent::Finish,
    })
}

/// Compiles one task into chunked storage (see [`walk`]). Returns `None`
/// when the trace would exceed `max_steps` (the caller falls back to the
/// on-the-fly cursor).
pub(crate) fn compile(
    segments: &[Segment],
    proc: ProcConfig,
    pacing: Pacing,
    max_steps: usize,
) -> Option<TaskTrace> {
    let mut cache = Cache::new(proc.cache);
    let mut profile = vec![SegmentProfile::default(); segments.len()];
    let mut out = StepWriter::new(max_steps);
    let complete = walk(segments, proc, pacing, &mut cache, &mut profile, &mut out);
    if mesh_obs::enabled() {
        // With `cyclesim.compile_ns`, the host time per reference walked.
        let refs = profile.iter().map(|c| c.hits + c.misses).sum();
        mesh_obs::counter("cyclesim.trace.refs").add(refs);
    }
    complete?;
    let StepWriter {
        mut chunks,
        current,
        mut wide,
        steps,
        fused_idle,
        ..
    } = out;
    if !current.is_empty() {
        chunks.push(current.into_boxed_slice());
    }
    if mesh_obs::enabled() {
        // Macro-steps whose span absorbed an idle gap: each would have been
        // (at least) one extra engine event before super-step fusion.
        mesh_obs::counter("cyclesim.trace.fused_idle_spans").add(fused_idle);
    }
    wide.shrink_to_fit();
    Some(TaskTrace {
        chunks,
        wide,
        steps,
        profile,
        cache_evictions: cache.stats().evictions,
    })
}

// ---------------------------------------------------------------------------
// Content keying.
// ---------------------------------------------------------------------------

/// The cross-sweep cache key: everything [`compile`] reads. The segments
/// hash through their derived `Hash` impls; the processor contributes its
/// timing digest words (power bits, cache geometry, hit cost); the pacing
/// is the *derived* per-processor policy, so two processors sharing a seed
/// base but differing in index key separately.
fn trace_key(segments: &[Segment], proc: ProcConfig, pacing: Pacing) -> u128 {
    let mut h = KeyHasher::default();
    segments.hash(&mut h);
    for w in proc.digest_words() {
        h.write_u64(w);
    }
    match pacing {
        Pacing::Even => h.write_u8(0),
        Pacing::Poisson(seed) => {
            h.write_u8(1);
            h.write_u64(seed);
        }
    }
    h.finish128()
}

/// Every task's [`trace_key`] on the processor it is pinned to, under its
/// derived pacing, timed as `cyclesim.trace_keys_ns`. The caller checks
/// that the workload fits the machine.
fn task_keys(workload: &Workload, machine: &MachineConfig, pacing: Pacing) -> Vec<u128> {
    let _span = mesh_obs::span("cyclesim.trace_keys_ns");
    workload
        .tasks
        .iter()
        .zip(&machine.procs)
        .enumerate()
        .map(|(i, (task, &proc))| trace_key(&task.segments, proc, derived_pacing(pacing, i)))
        .collect()
}

// ---------------------------------------------------------------------------
// The process-wide cross-sweep cache.
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum CacheEntry {
    Compiled(Arc<TaskTrace>),
    /// The task exceeded the step cap; don't retry the compile.
    TooLarge,
}

impl CacheEntry {
    fn steps(&self) -> usize {
        match self {
            CacheEntry::Compiled(t) => t.steps(),
            CacheEntry::TooLarge => 0,
        }
    }

    fn bytes(&self) -> usize {
        match self {
            CacheEntry::Compiled(t) => t.bytes(),
            CacheEntry::TooLarge => 0,
        }
    }
}

/// One key's entry, filled once: by the first caller that compiles it, or
/// by the next one if that compile panicked.
type Cell = Arc<OnceLock<CacheEntry>>;

#[derive(Default)]
struct TraceCache {
    /// Every key looked up and not evicted. A filled cell is resident; an
    /// empty one is being compiled, or its compile unwound.
    map: HashMap<u128, Cell>,
    /// Resident keys in insertion order, for oldest-first eviction.
    order: VecDeque<u128>,
    resident_steps: usize,
    /// Step storage of the resident traces ([`TaskTrace::bytes`]).
    resident_bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Lookups that resolved to a negative (too-large) entry, sending the
    /// engines to the on-the-fly cursor fallback.
    fallbacks: u64,
}

impl TraceCache {
    /// Makes `entry` the resident entry of `key` (replacing its cell),
    /// evicting oldest-first until the resident total fits `budget`. An
    /// entry larger than the whole budget is not retained at all — the
    /// caller still gets its `Arc`.
    fn insert(&mut self, key: u128, entry: CacheEntry, budget: usize) {
        if let Some(old) = self.map.remove(&key).as_deref().and_then(OnceLock::get) {
            self.resident_steps -= old.steps();
            self.resident_bytes -= old.bytes();
            self.order.retain(|k| *k != key);
        }
        let steps = entry.steps();
        if steps > budget {
            return;
        }
        while self.resident_steps + steps > budget {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if let Some(evicted) = self.map.remove(&oldest).as_deref().and_then(OnceLock::get) {
                self.resident_steps -= evicted.steps();
                self.resident_bytes -= evicted.bytes();
                self.evictions += 1;
            }
        }
        self.resident_steps += steps;
        self.resident_bytes += entry.bytes();
        self.order.push_back(key);
        self.map.insert(key, Arc::new(OnceLock::from(entry)));
    }
}

static CACHE: LazyLock<Mutex<TraceCache>> = LazyLock::new(Mutex::default);

fn global() -> MutexGuard<'static, TraceCache> {
    CACHE.lock().expect("trace cache poisoned")
}

/// Compile worker count set by [`set_compile_jobs`]; 0 until then.
static COMPILE_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets how many threads compile a workload's uncached traces. `mesh-bench`
/// hands over its sweep worker count when it reads its run configuration;
/// `0` restores the default, the host's available parallelism.
pub fn set_compile_jobs(jobs: usize) {
    COMPILE_JOBS.store(jobs, Ordering::Relaxed);
}

/// The number of threads that compile a workload's uncached traces (see
/// [`set_compile_jobs`]).
pub fn compile_jobs() -> usize {
    match COMPILE_JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        jobs => jobs,
    }
}

/// One distinct key of a [`compiled_for`] call.
struct Wanted {
    key: u128,
    cell: Cell,
    /// The first task with this key: the one compiled.
    task: usize,
    /// How many of the call's tasks have this key.
    tasks: u64,
}

/// Returns the compiled trace of every task (index-aligned), consulting and
/// populating the cross-sweep cache; `None` marks a task past the step cap
/// (the engines fall back to its on-the-fly cursor). Distinct uncached keys
/// compile in parallel. A key another caller is compiling is not compiled
/// again: this call blocks on that compile and counts a hit, or compiles
/// the key itself if that compile panicked.
pub(crate) fn compiled_for(
    workload: &Workload,
    machine: &MachineConfig,
    pacing: Pacing,
) -> Vec<Option<Arc<TaskTrace>>> {
    let keys = task_keys(workload, machine, pacing);
    let mut wanted: Vec<Wanted> = Vec::new();
    {
        let mut cache = global();
        for (task, &key) in keys.iter().enumerate() {
            match wanted.iter_mut().find(|w| w.key == key) {
                Some(w) => w.tasks += 1,
                None => wanted.push(Wanted {
                    key,
                    cell: Arc::clone(cache.map.entry(key).or_default()),
                    task,
                    tasks: 1,
                }),
            }
        }
    }

    // Fill the empty cells, spread over scoped worker threads claiming from
    // a shared atomic index. A cell another caller is filling blocks its
    // worker until that fill ends.
    let empty: Vec<&Wanted> = wanted.iter().filter(|w| w.cell.get().is_none()).collect();
    let next = AtomicUsize::new(0);
    let misses = AtomicU64::new(0);
    let worker = || {
        while let Some(w) = empty.get(next.fetch_add(1, Ordering::Relaxed)) {
            w.cell.get_or_init(|| {
                misses.fetch_add(w.tasks, Ordering::Relaxed);
                compile_into_cache(w, workload, machine, pacing)
            });
        }
    };
    match compile_jobs().min(empty.len()) {
        0 | 1 => worker(),
        jobs => std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(worker);
            }
        }),
    }

    let out: Vec<Option<Arc<TaskTrace>>> = keys
        .iter()
        .map(|&key| {
            let w = wanted
                .iter()
                .find(|w| w.key == key)
                .expect("every key is wanted");
            match w.cell.get().expect("every cell is filled") {
                CacheEntry::Compiled(t) => Some(Arc::clone(t)),
                CacheEntry::TooLarge => None,
            }
        })
        .collect();
    let misses = misses.into_inner();
    let hits = keys.len() as u64 - misses;
    let fallbacks = out.iter().filter(|t| t.is_none()).count() as u64;
    let mut cache = global();
    cache.hits += hits;
    cache.misses += misses;
    cache.fallbacks += fallbacks;
    drop(cache);
    // Mirrored into the mesh-obs registry after the lock drops, so the
    // observability flush never holds the cache mutex.
    if mesh_obs::enabled() && !keys.is_empty() {
        mesh_obs::counter("cyclesim.trace_cache.hits").add(hits);
        mesh_obs::counter("cyclesim.trace_cache.misses").add(misses);
        mesh_obs::counter("cyclesim.trace_cache.fallbacks").add(fallbacks);
    }
    out
}

/// Compiles `w`'s task, timed as `cyclesim.compile_ns`, and keeps the entry
/// resident unless a [`clear_cache`] dropped `w`'s cell meanwhile.
fn compile_into_cache(
    w: &Wanted,
    workload: &Workload,
    machine: &MachineConfig,
    pacing: Pacing,
) -> CacheEntry {
    let entry = {
        let _span = mesh_obs::span("cyclesim.compile_ns");
        COMPILES.fetch_add(1, Ordering::Relaxed);
        if mesh_obs::enabled() {
            mesh_obs::counter("cyclesim.trace.compiles").inc();
        }
        let trace = compile(
            &workload.tasks[w.task].segments,
            machine.procs[w.task],
            derived_pacing(pacing, w.task),
            DEFAULT_MAX_STEPS,
        );
        trace.map_or(CacheEntry::TooLarge, |t| CacheEntry::Compiled(Arc::new(t)))
    };
    let mut cache = global();
    let evictions_before = cache.evictions;
    // Another cell or none means a `clear_cache` ran during the compile:
    // the entry then goes to this cell's callers only.
    if cache
        .map
        .get(&w.key)
        .is_some_and(|c| Arc::ptr_eq(c, &w.cell))
    {
        cache.insert(w.key, entry.clone(), DEFAULT_CACHE_STEPS);
    }
    let (evictions, resident_bytes) = (cache.evictions - evictions_before, cache.resident_bytes);
    drop(cache);
    if mesh_obs::enabled() {
        mesh_obs::counter("cyclesim.trace_cache.evictions").add(evictions);
        mesh_obs::gauge("cyclesim.trace_cache.resident_bytes").set_max(resident_bytes as u64);
        // Fold freshly-compiled trace keys into the run manifest's workload
        // fingerprint (XOR fold: order-independent across parallel sweep
        // workers).
        mesh_obs::merge_fingerprint((w.key as u64) ^ ((w.key >> 64) as u64));
    }
    entry
}

/// Actual trace compiles performed by [`compiled_for`] since process start
/// (in-memory hits don't count). Mirrored into the
/// `cyclesim.trace.compiles` obs counter.
static COMPILES: AtomicU64 = AtomicU64::new(0);

// ---------------------------------------------------------------------------
// Public instrumentation surface (used by perfsuite and tests).
// ---------------------------------------------------------------------------

/// Counters of the process-wide cross-sweep trace cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Entries currently resident (including negative too-large markers).
    pub entries: usize,
    /// Total steps held by resident traces.
    pub resident_steps: usize,
    /// Bytes of step storage held by resident traces: 8 per packed step
    /// plus 40 per wide step (a barrier, an absorbed idle gap, or a span or
    /// hit count too large to pack).
    pub resident_bytes: usize,
    /// Per-task lookups served from the cache since process start,
    /// including lookups that waited for another caller's compile of the
    /// same key.
    pub hits: u64,
    /// Per-task lookups that required a compile by this caller since
    /// process start.
    pub misses: u64,
    /// Entries evicted oldest-first to stay within the resident budget.
    pub evictions: u64,
    /// Per-task lookups that resolved to a too-large verdict, sending the
    /// engines to the on-the-fly cursor fallback.
    pub fallbacks: u64,
    /// Actual compiles performed. Always ≤ `misses`: duplicate keys within
    /// one workload compile once, and concurrent callers wait for a key in
    /// flight instead of compiling it again, so without evictions (or a
    /// compile that unwound) it equals the number of distinct keys.
    pub compiles: u64,
}

/// Snapshot of the cross-sweep cache's counters.
pub fn cache_stats() -> TraceCacheStats {
    let cache = global();
    TraceCacheStats {
        entries: cache.order.len(),
        resident_steps: cache.resident_steps,
        resident_bytes: cache.resident_bytes,
        hits: cache.hits,
        misses: cache.misses,
        evictions: cache.evictions,
        fallbacks: cache.fallbacks,
        compiles: COMPILES.load(Ordering::Relaxed),
    }
}

/// Drops every cached trace (the hit/miss counters are kept). A compile in
/// flight still returns to its callers but is not kept. Intended for
/// benchmarks that need cold-compile timings.
pub fn clear_cache() {
    let mut cache = global();
    cache.map.clear();
    cache.order.clear();
    cache.resident_steps = 0;
    cache.resident_bytes = 0;
}

/// A stable 128-bit fingerprint of everything trace compilation reads for
/// this workload/machine/pacing triple: the [`KeyHasher`] fold of every
/// task's content key (segments + processor timing digest + derived
/// per-task pacing). This is the base ingredient of `mesh-bench`'s scenario
/// fingerprints (`MESH_RESULT_CACHE`): two scenarios with equal workload
/// fingerprints feed the kernel identical micro-event streams.
///
/// # Panics
///
/// Panics if the workload has more tasks than the machine has processors.
pub fn workload_fingerprint(workload: &Workload, machine: &MachineConfig, pacing: Pacing) -> u128 {
    assert!(
        workload.tasks.len() <= machine.procs.len(),
        "workload does not fit the machine"
    );
    let mut h = KeyHasher::default();
    for key in task_keys(workload, machine, pacing) {
        h.write_u128(key);
    }
    h.finish128()
}

/// Resolves every task trace of the workload into the cross-sweep cache —
/// a cache hit or a fresh compile — without running a simulation. Used to
/// price compile cost apart from the simulation that consumes the traces.
///
/// A workload/machine pair the simulator would reject (more tasks than
/// processors) is skipped silently — the real run reports the error.
pub fn prewarm(workload: &Workload, machine: &MachineConfig, pacing: Pacing) {
    if workload.tasks.len() > machine.procs.len() {
        return;
    }
    let _ = compiled_for(workload, machine, pacing);
}

/// Every task's per-segment hit and miss counts (index-aligned with the
/// tasks, then with each task's segments), read from its compiled trace in
/// the cross-sweep cache: a cache hit, or a compile on a miss, counted like
/// a simulation's lookups. `None` marks a task past the step cap, which has
/// no trace.
///
/// The counts come from the same cache walk that resolved the trace's hit
/// and miss events, so they equal a fresh walk of each task's references,
/// in order, through one private cache of its processor's geometry.
///
/// # Panics
///
/// Panics if the workload has more tasks than the machine has processors.
pub fn profiles(
    workload: &Workload,
    machine: &MachineConfig,
    pacing: Pacing,
) -> Vec<Option<Vec<SegmentProfile>>> {
    assert!(
        workload.tasks.len() <= machine.procs.len(),
        "workload does not fit the machine"
    );
    compiled_for(workload, machine, pacing)
        .iter()
        .map(|trace| trace.as_ref().map(|t| t.profile.clone()))
        .collect()
}

/// Compiles every task of the workload from scratch — bypassing the
/// cross-sweep cache entirely and ignoring the step cap — and returns the
/// total step count. This is the perfsuite's compile-cost probe: it prices
/// exactly the work a cold [`TraceMode::Compiled`] run pays up front.
///
/// # Panics
///
/// Panics if the workload has more tasks than the machine has processors.
pub fn compile_uncached(workload: &Workload, machine: &MachineConfig, pacing: Pacing) -> usize {
    assert!(
        workload.tasks.len() <= machine.procs.len(),
        "workload does not fit the machine"
    );
    (0..workload.tasks.len())
        .map(|i| {
            compile(
                &workload.tasks[i].segments,
                machine.procs[i],
                derived_pacing(pacing, i),
                usize::MAX,
            )
            .expect("uncapped compile cannot overflow")
            .steps()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_arch::{BusConfig, CacheConfig};
    use mesh_workloads::{MemPattern, TaskProgram};

    fn proc(cache_bytes: u64) -> ProcConfig {
        ProcConfig::new(CacheConfig::direct_mapped(cache_bytes, 32).unwrap())
    }

    fn thrash_segments(refs: u64) -> Vec<Segment> {
        // Stride one full (tiny) cache per reference: every access misses.
        vec![Segment::work(refs * 3).with_pattern(MemPattern::Strided {
            base: 0,
            stride: 1024,
            count: refs,
        })]
    }

    #[test]
    fn packing_round_trips_and_widens_exactly_what_does_not_fit() {
        use StepEvent::{Barrier, Finish, Io, Miss};
        let step = |busy, idle, hits, event| TraceStep {
            busy,
            idle,
            hits,
            event,
        };
        let (max_busy, max_hits) = (u64::from(u32::MAX), (1 << 30) - 1);
        // (step, whether it goes wide)
        let cases = [
            (step(7, 0, 3, Miss), false),
            (step(max_busy, 0, 3, Miss), false),
            (step(max_busy + 1, 0, 3, Miss), true),
            (step(7, 0, max_hits, Miss), false),
            (step(7, 0, max_hits + 1, Miss), true),
            (step(7, 0, u64::MAX, Miss), true),
            (step(7, 1, 3, Miss), true),
            (step(7, 0, 3, Barrier(0)), true),
            (step(7, 0, 3, Barrier(usize::MAX)), true),
            (step(7, 0, 3, Io), false),
            (step(7, 0, 3, Finish), false),
            (step(max_busy, 0, max_hits, Finish), false),
        ];
        // One table across every case, so wide indices past 0 round-trip.
        let mut wide = Vec::new();
        for (step, goes_wide) in cases {
            let before = wide.len();
            let packed = PackedStep::pack(step, &mut wide);
            assert_eq!(wide.len() - before, usize::from(goes_wide), "{step:?}");
            assert_eq!(packed.unpack(&wide), step);
        }
        assert_eq!(wide.len(), 6);
    }

    #[test]
    fn compiled_steps_are_packed_except_at_barriers_and_idle_gaps() {
        let segments = vec![
            Segment::idle(5),
            Segment::work(40).with_pattern(MemPattern::Strided {
                base: 0,
                stride: 1024,
                count: 10,
            }),
            Segment::idle(9),
            Segment::work(5).with_barrier(0),
        ];
        let trace = compile(&segments, proc(1024), Pacing::Even, usize::MAX).unwrap();
        // The first miss absorbed the leading idle gap, the barrier step
        // the second; the other nine misses and the finish pack.
        assert_eq!(trace.steps(), 12);
        assert_eq!(trace.wide.len(), 2);
        assert_eq!(trace.bytes(), 12 * 8 + 2 * 40);
    }

    fn drain(trace: &Arc<TaskTrace>) -> Vec<TraceStep> {
        let mut reader = TraceCursor::new(Arc::clone(trace));
        let mut steps = Vec::new();
        loop {
            let s = reader.next_step();
            steps.push(s);
            if s.event == StepEvent::Finish {
                return steps;
            }
        }
    }

    /// Compiles `segments` and asserts that the trace holds exactly what a
    /// [`CursorFeed`] produces: every step, each segment's hits and misses,
    /// and the cache walk's evictions. Returns the trace.
    fn assert_compile_matches_feed(
        segments: &[Segment],
        p: ProcConfig,
        pacing: Pacing,
    ) -> Arc<TaskTrace> {
        let trace = Arc::new(compile(segments, p, pacing, usize::MAX).expect("fits any cap"));
        let mut live = CursorFeed::new(segments, p, pacing);
        let mut reader = TraceCursor::new(Arc::clone(&trace));
        for i in 0..trace.steps() {
            let step = reader.next_step();
            assert_eq!(step, live.next_step(), "step {i} under {pacing:?}");
            assert_eq!(step.event == StepEvent::Finish, i + 1 == trace.steps());
        }
        assert_eq!(trace.profile, live.profile, "profile under {pacing:?}");
        assert_eq!(
            trace.cache_evictions,
            live.cache.stats().evictions,
            "evictions under {pacing:?}"
        );
        trace
    }

    #[test]
    fn compile_matches_cursor_feed() {
        let segments = vec![
            Segment::work(100).with_pattern(MemPattern::Random {
                base: 0,
                span: 8 * 1024,
                count: 40,
                seed: 7,
            }),
            Segment::idle(13),
            Segment::work(5).with_barrier(0),
            // Several patterns, interleaved I/O, and no compute to spread.
            Segment::work(0)
                .with_pattern(MemPattern::Strided {
                    base: 64,
                    stride: 96,
                    count: 9,
                })
                .with_pattern(MemPattern::Strided {
                    base: 0,
                    stride: 8,
                    count: 0,
                })
                .with_pattern(MemPattern::Random {
                    base: 4096,
                    span: 2048,
                    count: 11,
                    seed: 3,
                })
                .with_io(7),
            // I/O operations alone, then more of them than references.
            Segment::work(30).with_io(4).with_barrier(1),
            Segment::work(57)
                .with_pattern(MemPattern::Strided {
                    base: 0,
                    stride: 1024,
                    count: 3,
                })
                .with_io(8),
            Segment::idle(0),
        ];
        for pacing in [Pacing::Even, Pacing::Poisson(42), Pacing::Poisson(7)] {
            assert_compile_matches_feed(&segments, proc(1024), pacing);
            assert_compile_matches_feed(&segments, proc(1024).with_power(0.7), pacing);
            assert_compile_matches_feed(&segments, proc(1024).with_hit_cycles(0), pacing);
        }
    }

    #[test]
    fn inline_rounding_matches_f64_round_at_the_edges() {
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let mut cases = vec![
            -0.0,
            0.0,
            0.5,
            below(0.5),
            1.0,
            below(1.0),
            f64::MIN_POSITIVE,
            2.0_f64.powi(52) - 1.0,
            2.0_f64.powi(52),
            2.0_f64.powi(52) + 1.0,
            2.0_f64.powi(53) - 1.0,
            2.0_f64.powi(58) + 4096.0,
        ];
        for k in [
            0u64,
            1,
            2,
            3,
            1000,
            (1 << 32) + 7,
            (1 << 51) + 1,
            (1 << 52) - 1,
        ] {
            let half = k as f64 + 0.5;
            cases.extend([half, below(half), k as f64]);
        }
        for x in cases {
            assert_eq!(round_doubled(x + x), x.round() as u64, "{x:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// Every binade of [0, 2^53), subnormals included: a biased
        /// exponent below 1023 + 53 and any mantissa.
        #[test]
        fn inline_rounding_matches_f64_round(
            exponent in 0u64..1023 + 53,
            mantissa in 0u64..1 << 52,
        ) {
            let x = f64::from_bits(exponent << 52 | mantissa);
            proptest::prop_assert_eq!(round_doubled(x + x), x.round() as u64);
        }

        /// The short path's doubled gap is bit for bit twice the cursor's
        /// unrounded gap, and so rounds to the same cycle count.
        #[test]
        fn doubled_gap_is_twice_the_cursor_gap(
            remaining in 1u64..INLINE_ROUND_LIMIT,
            events_left in 1u64..INLINE_ROUND_LIMIT,
            u in 0.0f64..1.0,
        ) {
            let mean = remaining as f64 / events_left as f64;
            let x = -mean * (1.0_f64 - u).ln();
            let mean_i64 = remaining as i64 as f64 / events_left as i64 as f64;
            let two_x = mean_i64 * (-2.0 * (1.0_f64 - u).ln());
            proptest::prop_assert_eq!(two_x.to_bits(), (2.0 * x).to_bits());
            proptest::prop_assert_eq!(round_doubled(two_x), x.round() as u64);
        }
    }

    #[test]
    fn gaps_past_the_inline_rounding_limit_match_the_cursor() {
        // A segment of 2^53 cycles takes the `f64::round` path throughout;
        // the next, one cycle short of the limit, the short path.
        let segments = vec![
            Segment::work(1 << 53).with_pattern(MemPattern::Strided {
                base: 0,
                stride: 1024,
                count: 5,
            }),
            Segment::work(INLINE_ROUND_LIMIT - 1).with_pattern(MemPattern::Strided {
                base: 0,
                stride: 16,
                count: 6,
            }),
        ];
        let p = proc(1024);
        for pacing in [Pacing::Poisson(1), Pacing::Poisson(0x5EED), Pacing::Even] {
            let trace = assert_compile_matches_feed(&segments, p, pacing);
            let busy: u64 = drain(&trace).iter().map(|s| s.busy).sum();
            let hits: u64 = trace.profile.iter().map(|c| c.hits).sum();
            assert_eq!(hits, 3);
            assert_eq!(
                busy,
                (1 << 53) + INLINE_ROUND_LIMIT - 1 + hits * p.hit_cycles
            );
        }
    }

    #[test]
    fn even_pacing_spreads_a_segment_past_the_u64_product() {
        // `compute · k` passes 2^64 from the fourth of eight references;
        // each gap is still exactly an eighth of the compute.
        let segments = vec![Segment::work(1 << 62).with_pattern(MemPattern::Strided {
            base: 0,
            stride: 1024,
            count: 8,
        })];
        let trace = assert_compile_matches_feed(&segments, proc(1024), Pacing::Even);
        let steps = drain(&trace);
        assert_eq!(steps.len(), 9);
        assert!(steps[..8]
            .iter()
            .all(|s| s.busy == 1 << 59 && s.event == StepEvent::Miss));
        assert_eq!(steps[8].busy, 0);
    }

    /// The paper's two largest ISS workloads compile to exactly what the
    /// cursor feed walks: every task of Figure 4's eight FFT scenarios (64K
    /// points on 2–16 processors, 512 KB and 8 KB 4-way caches of 32-byte
    /// lines) and of Figure 6's 21 PHM workloads (seven idle fractions, three
    /// seeds, on the ARM-like and the slower M32R-like core with 8 KB 4-way
    /// caches), under the default pacing and under even pacing.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "needs an optimized build: cargo test --release"
    )]
    fn paper_workloads_compile_to_the_cursor_feed() {
        use mesh_arch::CacheConfig;
        use mesh_workloads::fft::{self, FftConfig};
        use mesh_workloads::scenario::{self, PhmConfig};
        let cache = |bytes| CacheConfig::new(bytes, 32, 4).unwrap();
        let mut scenarios: Vec<(Workload, Vec<ProcConfig>)> = Vec::new();
        for bytes in [512 * 1024, 8 * 1024] {
            for threads in [2, 4, 8, 16] {
                let procs = vec![ProcConfig::new(cache(bytes)); threads];
                scenarios.push((fft::build(&FftConfig::with_threads(threads)), procs));
            }
        }
        for idle in [0.0, 0.15, 0.30, 0.45, 0.60, 0.75, 0.90] {
            for seed in [0xC0FFEE, 0xBEEF, 0xF00D] {
                let phm = PhmConfig {
                    seed,
                    ..PhmConfig::with_second_idle(idle)
                };
                let procs = vec![
                    ProcConfig::new(cache(8 * 1024)),
                    ProcConfig::new(cache(8 * 1024)).with_power(0.8),
                ];
                scenarios.push((scenario::build(&phm), procs));
            }
        }
        assert_eq!(scenarios.len(), 8 + 21);
        for pacing in [Pacing::default(), Pacing::Even] {
            for (workload, procs) in &scenarios {
                for (i, task) in workload.tasks.iter().enumerate() {
                    let task_pacing = derived_pacing(pacing, i);
                    assert_compile_matches_feed(&task.segments, procs[i], task_pacing);
                }
            }
        }
    }

    #[test]
    fn chunk_boundaries_are_invisible() {
        // More miss events than one chunk holds.
        let refs = (CHUNK_STEPS + CHUNK_STEPS / 2) as u64;
        let segments = thrash_segments(refs);
        let p = proc(1024);
        let trace = Arc::new(compile(&segments, p, Pacing::Even, usize::MAX).unwrap());
        assert!(trace.chunks.len() > 1, "must span chunks");
        let steps = drain(&trace);
        assert_eq!(steps.len(), trace.steps());
        assert_eq!(
            steps.iter().filter(|s| s.event == StepEvent::Miss).count() as u64,
            refs
        );
        assert_eq!(steps.last().unwrap().event, StepEvent::Finish);
    }

    #[test]
    fn step_cap_rejects_large_tasks() {
        let segments = thrash_segments(100);
        assert!(compile(&segments, proc(1024), Pacing::Even, 8).is_none());
        assert!(compile(&segments, proc(1024), Pacing::Even, 200).is_some());
    }

    #[test]
    fn keys_are_content_sensitive() {
        let segments = thrash_segments(10);
        let base = trace_key(&segments, proc(1024), Pacing::Even);
        assert_eq!(base, trace_key(&segments, proc(1024), Pacing::Even));
        assert_ne!(base, trace_key(&segments, proc(2048), Pacing::Even));
        assert_ne!(base, trace_key(&segments, proc(1024), Pacing::Poisson(0)));
        assert_ne!(
            base,
            trace_key(&segments, proc(1024).with_hit_cycles(2), Pacing::Even)
        );
        assert_ne!(
            base,
            trace_key(&segments, proc(1024).with_power(0.5), Pacing::Even)
        );
        let other = thrash_segments(11);
        assert_ne!(base, trace_key(&other, proc(1024), Pacing::Even));
        assert_ne!(
            trace_key(&segments, proc(1024), Pacing::Poisson(1)),
            trace_key(&segments, proc(1024), Pacing::Poisson(2))
        );
    }

    #[test]
    fn cross_sweep_cache_reuses_compiles() {
        // A unique workload (so parallel tests can't collide on the key).
        let mut w = Workload::new();
        w.add_task(
            TaskProgram::new("t").with_segment(Segment::work(977_131).with_pattern(
                MemPattern::Strided {
                    base: 0xABCD_0000,
                    stride: 1024,
                    count: 17,
                },
            )),
        );
        let machine = MachineConfig::homogeneous(1, proc(1024), BusConfig::new(4));
        let first = compiled_for(&w, &machine, Pacing::Poisson(0x515));
        let second = compiled_for(&w, &machine, Pacing::Poisson(0x515));
        let (a, b) = (first[0].as_ref().unwrap(), second[0].as_ref().unwrap());
        assert!(Arc::ptr_eq(a, b), "second run must be served from cache");
        // A different pacing seed is a different stream: a fresh compile.
        let third = compiled_for(&w, &machine, Pacing::Poisson(0x516));
        assert!(!Arc::ptr_eq(a, third[0].as_ref().unwrap()));
    }

    #[test]
    fn concurrent_callers_share_one_compile() {
        // A fresh workload large enough that the first compile is still
        // running when the other threads look the key up.
        let mut w = Workload::new();
        w.add_task(
            TaskProgram::new("t").with_segment(Segment::work(3_141_593).with_pattern(
                MemPattern::Random {
                    base: 0x5EED_0000,
                    span: 64 * 1024,
                    count: 200_000,
                    seed: 0xF117,
                },
            )),
        );
        let machine = MachineConfig::homogeneous(1, proc(1024), BusConfig::new(4));
        let release = std::sync::Barrier::new(8);
        let traces: Vec<Arc<TaskTrace>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        release.wait();
                        compiled_for(&w, &machine, Pacing::Poisson(0xC0FFEE))
                            .pop()
                            .flatten()
                            .expect("fits the step cap")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for trace in &traces[1..] {
            assert!(
                Arc::ptr_eq(&traces[0], trace),
                "every caller shares one compile"
            );
        }
    }

    /// Whether `key`'s compiled trace is resident in the cross-sweep cache.
    fn resident(key: u128) -> bool {
        matches!(
            global().map.get(&key).and_then(|cell| cell.get()),
            Some(CacheEntry::Compiled(_))
        )
    }

    #[test]
    fn waiter_compiles_a_key_whose_compile_unwound() {
        // A compile that panics leaves its key's cell empty; a caller
        // blocked on that compile must then compile the key itself.
        let mut w = Workload::new();
        w.add_task(TaskProgram::new("t").with_segment(Segment::work(424_243)));
        let machine = MachineConfig::homogeneous(1, proc(1024), BusConfig::new(4));
        let key = task_keys(&w, &machine, Pacing::Even)[0];
        let cell = Arc::clone(global().map.entry(key).or_default());
        let (started, compiling) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let unwinding = s.spawn(move || {
                cell.get_or_init(|| {
                    started.send(()).unwrap();
                    // Unwind only once the waiter holds this cell (the map,
                    // this thread and the waiter); the pause makes it likely
                    // that the waiter is blocked on the compile by then, but
                    // either order must work.
                    while Arc::strong_count(&cell) < 3 {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("the compile unwinds");
                });
            });
            compiling.recv().unwrap();
            let waiter = s.spawn(|| compiled_for(&w, &machine, Pacing::Even));
            assert!(unwinding.join().is_err());
            assert!(waiter.join().unwrap()[0].is_some());
        });
        assert!(resident(key), "the waiter's compile is resident");
    }

    #[test]
    fn compile_whose_cell_was_cleared_is_not_kept() {
        // `clear_cache` during a compile drops the key's cell from the map
        // (removed by hand here: clearing the whole cache would race the
        // other tests). The compile still returns its entry, unkept.
        let mut w = Workload::new();
        w.add_task(TaskProgram::new("t").with_segment(Segment::work(271_829)));
        let machine = MachineConfig::homogeneous(1, proc(1024), BusConfig::new(4));
        let key = task_keys(&w, &machine, Pacing::Even)[0];
        let wanted = Wanted {
            key,
            cell: Arc::clone(global().map.entry(key).or_default()),
            task: 0,
            tasks: 1,
        };
        global().map.remove(&key);
        let entry = compile_into_cache(&wanted, &w, &machine, Pacing::Even);
        assert!(matches!(entry, CacheEntry::Compiled(_)));
        assert!(!global().map.contains_key(&key));
    }

    #[test]
    fn profiles_read_the_compile_counts() {
        let segments = vec![
            Segment::work(100).with_pattern(MemPattern::Strided {
                base: 0x7A11_0000,
                stride: 8,
                count: 16,
            }),
            Segment::idle(9),
            Segment::work(7),
            Segment::work(50).with_pattern(MemPattern::Strided {
                base: 0x7A11_0000,
                stride: 2048,
                count: 3,
            }),
        ];
        let mut w = Workload::new();
        w.add_task(
            segments
                .into_iter()
                .fold(TaskProgram::new("t"), TaskProgram::with_segment),
        );
        let machine = MachineConfig::homogeneous(1, proc(1024), BusConfig::new(4));
        let key = |pacing| task_keys(&w, &machine, pacing)[0];
        let counts = |hits, misses| SegmentProfile { hits, misses };
        let expected = vec![Some(vec![
            // 16 refs over 4 lines: 4 misses, 12 hits.
            counts(12, 4),
            counts(0, 0),
            counts(0, 0),
            // Line 0 is still cached; 2048 and 4096 map onto its set.
            counts(1, 2),
        ])];
        // A miss compiles the trace and leaves it resident for the engines.
        assert!(!resident(key(Pacing::Even)));
        assert_eq!(profiles(&w, &machine, Pacing::Even), expected);
        assert!(resident(key(Pacing::Even)));
        assert_eq!(profiles(&w, &machine, Pacing::Even), expected);
        // Another pacing is another key with the same counts: pacing moves
        // when a reference is made, never which references miss.
        assert!(!resident(key(Pacing::Poisson(3))));
        assert_eq!(profiles(&w, &machine, Pacing::Poisson(3)), expected);
    }

    #[test]
    fn eviction_respects_budget() {
        let mut cache = TraceCache::default();
        // `steps` steps of which one is wide: 8 bytes each, plus 40.
        let barrier = TraceStep {
            busy: 0,
            idle: 0,
            hits: 0,
            event: StepEvent::Barrier(0),
        };
        let trace = |steps: usize| {
            CacheEntry::Compiled(Arc::new(TaskTrace {
                chunks: Vec::new(),
                wide: vec![barrier],
                steps,
                profile: Vec::new(),
                cache_evictions: 0,
            }))
        };
        let bytes = |steps: usize| steps * 8 + 40;
        cache.insert(1, trace(60), 100);
        cache.insert(2, trace(30), 100);
        assert_eq!(cache.resident_steps, 90);
        assert_eq!(cache.resident_bytes, bytes(60) + bytes(30));
        // Inserting 50 evicts key 1 (oldest) but keeps key 2.
        cache.insert(3, trace(50), 100);
        assert!(!cache.map.contains_key(&1));
        assert!(cache.map.contains_key(&2));
        assert_eq!(cache.resident_steps, 80);
        assert_eq!(cache.resident_bytes, bytes(30) + bytes(50));
        // An entry larger than the whole budget is not retained.
        cache.insert(4, trace(1000), 100);
        assert!(!cache.map.contains_key(&4));
        // Re-inserting an existing key replaces it without double counting.
        cache.insert(2, trace(10), 100);
        assert_eq!(cache.resident_steps, 60);
        assert_eq!(cache.resident_bytes, bytes(50) + bytes(10));
        // A negative entry holds no steps.
        cache.insert(5, CacheEntry::TooLarge, 100);
        assert_eq!(cache.resident_bytes, bytes(50) + bytes(10));
    }

    #[test]
    fn compile_uncached_counts_steps() {
        let mut w = Workload::new();
        for t in 0..3 {
            w.add_task(TaskProgram::new(format!("t{t}")).with_segment(
                Segment::work(50).with_pattern(MemPattern::Strided {
                    base: t * 1024,
                    stride: 1024,
                    count: 5,
                }),
            ));
        }
        let machine = MachineConfig::homogeneous(3, proc(1024), BusConfig::new(4));
        let steps = compile_uncached(&w, &machine, Pacing::Even);
        // Per task: 5 miss steps plus the finishing step.
        assert_eq!(steps, 3 * 6);
    }
}
