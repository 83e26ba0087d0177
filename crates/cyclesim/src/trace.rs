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
//!   a stable content hash of the segments, the processor's timing digest
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
//! * every trace also carries its task's **per-segment hit and miss
//!   counts**, counted during the same cache walk.
//!   [`resident_profiles`] hands them out, so annotation (`mesh-annotate`'s
//!   profile) needs no second walk for a task whose trace is resident.
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
//! pacing/arbitration/barrier/I/O/error space.

use crate::cursor::{derived_pacing, Item, Pacing, TaskCursor};
use mesh_arch::{Cache, MachineConfig, ProcConfig};
use mesh_workloads::{Segment, Workload};
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
/// cache, fusing compute chunks and hits exactly like the trace compiler.
/// This is both the engines' `OnTheFly` feed and the compiler's input — one
/// fusion implementation, so the compiled and live paths cannot drift.
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

/// Compiles one task: drains a [`CursorFeed`] into chunked storage. Returns
/// `None` when the trace would exceed `max_steps` (the caller falls back to
/// the on-the-fly cursor).
pub(crate) fn compile(
    segments: &[Segment],
    proc: ProcConfig,
    pacing: Pacing,
    max_steps: usize,
) -> Option<TaskTrace> {
    let mut feed = CursorFeed::new(segments, proc, pacing);
    let mut chunks: Vec<Box<[PackedStep]>> = Vec::new();
    let mut current: Vec<PackedStep> = Vec::with_capacity(CHUNK_STEPS.min(max_steps.max(1)));
    let mut wide: Vec<TraceStep> = Vec::new();
    let mut steps: usize = 0;
    let mut fused_idle: u64 = 0;
    loop {
        let step = feed.next_step();
        if steps >= max_steps {
            return None;
        }
        if step.idle > 0 {
            fused_idle += 1;
        }
        current.push(PackedStep::pack(step, &mut wide));
        steps += 1;
        if current.len() == CHUNK_STEPS {
            chunks.push(std::mem::take(&mut current).into_boxed_slice());
            current = Vec::with_capacity(CHUNK_STEPS);
        }
        if step.event == StepEvent::Finish {
            break;
        }
    }
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
        profile: feed.profile,
        cache_evictions: feed.cache.stats().evictions,
    })
}

// ---------------------------------------------------------------------------
// Content keying.
// ---------------------------------------------------------------------------

/// 128-bit FNV-1a over the std `Hash` protocol: a stable, process-portable
/// content hash (std's default hasher is randomly keyed per process, which
/// would defeat deterministic keying). 128 bits make accidental collisions
/// across a sweep's handful of distinct workloads negligible.
struct Fnv128(u128);

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl Default for Fnv128 {
    fn default() -> Fnv128 {
        Fnv128(FNV128_OFFSET)
    }
}

impl Fnv128 {
    fn finish128(&self) -> u128 {
        self.0
    }
}

impl Hasher for Fnv128 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0 as u64
    }
}

/// The cross-sweep cache key: everything [`compile`] reads. The segments
/// hash through their derived `Hash` impls; the processor contributes its
/// timing digest words (power bits, cache geometry, hit cost); the pacing
/// is the *derived* per-processor policy, so two processors sharing a seed
/// base but differing in index key separately.
fn trace_key(segments: &[Segment], proc: ProcConfig, pacing: Pacing) -> u128 {
    let mut h = Fnv128::default();
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
/// derived pacing. The caller checks that the workload fits the machine.
fn task_keys(workload: &Workload, machine: &MachineConfig, pacing: Pacing) -> Vec<u128> {
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
/// this workload/machine/pacing triple: the FNV-1a fold of every task's
/// content key (segments + processor timing digest + derived per-task
/// pacing). This is the base ingredient of `mesh-bench`'s scenario
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
    let mut h = Fnv128::default();
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
/// tasks, then with each task's segments), read from the compiled traces
/// in the cross-sweep cache — or `None` unless every task's trace is
/// resident. A lookup only: it never compiles and moves none of the cache's
/// counters.
///
/// The counts come from the same cache walk that resolved the trace's hit
/// and miss events, so they equal a fresh walk of each task's references,
/// in order, through one private cache of its processor's geometry.
pub fn resident_profiles(
    workload: &Workload,
    machine: &MachineConfig,
    pacing: Pacing,
) -> Option<Vec<Vec<SegmentProfile>>> {
    if workload.tasks.len() > machine.procs.len() {
        return None;
    }
    let keys = task_keys(workload, machine, pacing);
    let traces: Vec<Arc<TaskTrace>> = {
        let cache = global();
        keys.iter()
            .map(|key| match cache.map.get(key).and_then(|cell| cell.get()) {
                Some(CacheEntry::Compiled(trace)) => Some(Arc::clone(trace)),
                _ => None,
            })
            .collect::<Option<_>>()?
    };
    Some(traces.iter().map(|t| t.profile.clone()).collect())
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
        ];
        let p = proc(1024);
        for pacing in [Pacing::Even, Pacing::Poisson(42)] {
            let trace = Arc::new(compile(&segments, p, pacing, usize::MAX).expect("fits any cap"));
            let mut live = CursorFeed::new(&segments, p, pacing);
            for step in drain(&trace) {
                assert_eq!(step, live.next_step());
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
        assert!(
            resident_profiles(&w, &machine, Pacing::Even).is_some(),
            "the waiter's compile is resident"
        );
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
    fn resident_profiles_read_the_compile_counts() {
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
        // A lookup never compiles: the traces stay absent until a prewarm.
        assert_eq!(resident_profiles(&w, &machine, Pacing::Even), None);
        assert_eq!(resident_profiles(&w, &machine, Pacing::Even), None);
        prewarm(&w, &machine, Pacing::Even);
        let counts = |hits, misses| SegmentProfile { hits, misses };
        assert_eq!(
            resident_profiles(&w, &machine, Pacing::Even),
            Some(vec![vec![
                // 16 refs over 4 lines: 4 misses, 12 hits.
                counts(12, 4),
                counts(0, 0),
                counts(0, 0),
                // Line 0 is still cached; 2048 and 4096 map onto its set.
                counts(1, 2),
            ]])
        );
        // Another pacing is another key: not resident.
        assert_eq!(resident_profiles(&w, &machine, Pacing::Poisson(3)), None);
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
