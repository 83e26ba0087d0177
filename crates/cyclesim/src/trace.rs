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
//! * a `TaskTrace` stores the steps in fixed-size chunks, so compiling
//!   never needs one giant contiguous allocation and consuming streams
//!   through memory chunk by chunk;
//! * compilation of a workload's tasks is parallel ([`std::thread::scope`]
//!   workers over a shared atomic index, worker count from the sweep
//!   engine's `MESH_BENCH_JOBS` convention);
//! * compiled traces live in a process-wide **cross-sweep cache** keyed by
//!   a stable content hash of the segments, the processor's timing digest
//!   ([`mesh_arch::ProcConfig::digest_words`]) and the derived pacing seed.
//!   fig4/fig5-style grids that revisit the same per-processor streams
//!   (they vary cache size and processor count, not the programs) compile
//!   each distinct trace exactly once per process;
//! * the cache is **single-flight** per key: a caller that finds its key
//!   being compiled by another waits for that compile and counts a hit, so
//!   concurrent sweep points sharing a trace compile it once. A compile
//!   that unwinds clears its in-flight marker on the way out, and a waiter
//!   that then finds no entry compiles the trace itself;
//! * every trace also carries its task's **per-segment hit and miss
//!   counts**, counted during the same cache walk.
//!   [`resident_profiles`] hands them out, so annotation (`mesh-annotate`'s
//!   profile) needs no second walk for a task whose trace is resident.
//!
//! Memory stays bounded: a single task's trace is capped at 4 Mi steps
//! (≈ 128 MiB; beyond it the engines fall back to the on-the-fly cursor and
//! the cap is negative-cached), and the cache evicts oldest-first beyond a
//! resident budget of 8 Mi steps (≈ 256 MiB) across all entries.
//!
//! Exactness is proven the same way the event-skipping engine's is:
//! `tests/differential.rs` pins trace-fed runs of both engines to
//! field-identical [`CycleReport`](crate::CycleReport)s — and identical
//! errors — against the on-the-fly cursor reference across the whole
//! pacing/arbitration/barrier/I/O/error space.

use crate::cursor::{derived_pacing, Item, Pacing, TaskCursor};
use mesh_arch::{Cache, MachineConfig, ProcConfig};
use mesh_workloads::{Segment, Workload};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Worker-count variable shared with `mesh_bench::sweep` (this crate cannot
/// depend on the bench harness, so the name is duplicated by convention).
const JOBS_ENV: &str = "MESH_BENCH_JOBS";

/// Cap on one task's compiled trace, in steps (≈ 128 MiB). Tasks beyond the
/// cap fall back to the on-the-fly cursor; the verdict is negative-cached so
/// the compile cost is paid once.
const DEFAULT_MAX_STEPS: usize = 4 << 20;

/// Resident-step budget of the cross-sweep cache across all entries
/// (≈ 256 MiB). Oldest entries are evicted first when an insert would
/// exceed it.
const DEFAULT_CACHE_STEPS: usize = 8 << 20;

/// Steps per storage chunk: large enough that chunk-boundary checks vanish
/// in the consume loop, small enough that a trace never over-allocates by
/// more than ~256 KiB.
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

/// One task's compiled trace: the full step sequence, chunked, plus each
/// segment's hits and misses from the compile's cache walk.
#[derive(Debug)]
pub(crate) struct TaskTrace {
    chunks: Vec<Box<[TraceStep]>>,
    steps: usize,
    profile: Vec<SegmentProfile>,
}

impl TaskTrace {
    pub(crate) fn steps(&self) -> usize {
        self.steps
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
        let step = chunk[self.idx];
        self.idx += 1;
        if self.idx == chunk.len() {
            self.chunk += 1;
            self.idx = 0;
        }
        step
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
    let mut chunks: Vec<Box<[TraceStep]>> = Vec::new();
    let mut current: Vec<TraceStep> = Vec::with_capacity(CHUNK_STEPS.min(max_steps.max(1)));
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
        current.push(step);
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
        // Compiled feeds replay hit/miss verdicts without a cache, so the
        // private cache's evictions are only observable here, at compile.
        mesh_obs::counter("cyclesim.cache.evictions").add(feed.cache.stats().evictions);
        // Macro-steps whose span absorbed an idle gap: each would have been
        // (at least) one extra engine event before super-step fusion.
        mesh_obs::counter("cyclesim.trace.fused_idle_spans").add(fused_idle);
    }
    Some(TaskTrace {
        chunks,
        steps,
        profile: feed.profile,
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
}

#[derive(Default)]
struct TraceCache {
    map: HashMap<u128, CacheEntry>,
    /// Keys some caller is compiling right now; other callers wait on
    /// [`Shared::compiled`] instead of compiling them again.
    in_flight: HashSet<u128>,
    /// Insertion order, for oldest-first eviction.
    order: VecDeque<u128>,
    resident_steps: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Lookups that resolved to a negative (too-large) entry, sending the
    /// engines to the on-the-fly cursor fallback.
    fallbacks: u64,
}

impl TraceCache {
    /// Inserts (or replaces) an entry, evicting oldest-first until the
    /// resident total fits `budget`. An entry larger than the whole budget
    /// is not retained at all — the caller still gets its `Arc`.
    fn insert(&mut self, key: u128, entry: CacheEntry, budget: usize) {
        if let Some(old) = self.map.remove(&key) {
            self.resident_steps -= old.steps();
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
            if let Some(evicted) = self.map.remove(&oldest) {
                self.resident_steps -= evicted.steps();
                self.evictions += 1;
            }
        }
        self.resident_steps += steps;
        self.order.push_back(key);
        self.map.insert(key, entry);
    }
}

/// The cache and the condition its waiters sleep on.
struct Shared {
    cache: Mutex<TraceCache>,
    /// Notified whenever a caller clears its in-flight markers.
    compiled: Condvar,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        cache: Mutex::new(TraceCache::default()),
        compiled: Condvar::new(),
    })
}

fn global() -> MutexGuard<'static, TraceCache> {
    shared().cache.lock().expect("trace cache poisoned")
}

/// One caller's claim on the keys it compiles. Dropping it — after the
/// compiled entries are inserted, or while unwinding from a panicking
/// compile — clears the in-flight markers and wakes every waiter, so no
/// waiter sleeps on a compile that is gone.
struct InFlight(Vec<u128>);

impl Drop for InFlight {
    fn drop(&mut self) {
        let shared = shared();
        // Never panic here: this may run during an unwind.
        let mut cache = shared.cache.lock().unwrap_or_else(PoisonError::into_inner);
        for key in &self.0 {
            cache.in_flight.remove(key);
        }
        drop(cache);
        shared.compiled.notify_all();
    }
}

/// Compile worker count: `MESH_BENCH_JOBS` if set to a positive integer,
/// else available parallelism — the sweep engine's convention.
fn jobs_from_env() -> usize {
    match std::env::var(JOBS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_jobs(),
        },
        Err(_) => default_jobs(),
    }
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Returns the compiled trace of every task (index-aligned), consulting and
/// populating the cross-sweep cache; `None` marks a task past the step cap
/// (the engines fall back to its on-the-fly cursor). Distinct uncached keys
/// compile in parallel. A key another caller is compiling is not compiled
/// again: this call waits for that compile and counts a hit, or compiles
/// the key itself if the other compile left no entry (it unwound, or its
/// entry was already evicted).
pub(crate) fn compiled_for(
    workload: &Workload,
    machine: &MachineConfig,
    pacing: Pacing,
) -> Vec<Option<Arc<TaskTrace>>> {
    let keys = task_keys(workload, machine, pacing);
    let mut out: Vec<Option<Arc<TaskTrace>>> = keys.iter().map(|_| None).collect();
    // Per-call deltas mirrored into the mesh-obs registry after the lock
    // drops, so the observability flush never holds the cache mutex.
    let (mut d_hits, mut d_misses, mut d_fallbacks, mut d_evictions) = (0u64, 0u64, 0u64, 0u64);
    // Tasks still to resolve: every task at first, then those whose key was
    // in flight elsewhere, looked up again once that compile is done.
    let mut pending: Vec<usize> = (0..keys.len()).collect();
    while !pending.is_empty() {
        // The first task per distinct key this call compiles, and the tasks
        // whose key another caller is compiling.
        let (mut missing, mut waiting) = (Vec::new(), Vec::new());
        {
            let mut cache = global();
            for &i in &pending {
                match cache.map.get(&keys[i]) {
                    Some(CacheEntry::Compiled(t)) => {
                        out[i] = Some(Arc::clone(t));
                        cache.hits += 1;
                        d_hits += 1;
                    }
                    Some(CacheEntry::TooLarge) => {
                        cache.hits += 1;
                        cache.fallbacks += 1;
                        d_hits += 1;
                        d_fallbacks += 1;
                    }
                    None => {
                        let ours = missing.iter().any(|&j| keys[j] == keys[i]);
                        if !ours && !cache.in_flight.insert(keys[i]) {
                            waiting.push(i);
                            continue;
                        }
                        if !ours {
                            missing.push(i);
                        }
                        cache.misses += 1;
                        d_misses += 1;
                    }
                }
            }
        }

        if !missing.is_empty() {
            let claim = InFlight(missing.iter().map(|&i| keys[i]).collect());
            let compiled = {
                let _span = mesh_obs::span("cyclesim.compile_ns");
                compile_parallel(&missing, workload, machine, pacing)
            };
            let mut cache = global();
            let evictions_before = cache.evictions;
            for (&i, trace) in missing.iter().zip(&compiled) {
                let entry = match trace {
                    Some(t) => CacheEntry::Compiled(Arc::clone(t)),
                    None => {
                        cache.fallbacks += 1;
                        d_fallbacks += 1;
                        CacheEntry::TooLarge
                    }
                };
                cache.insert(keys[i], entry, DEFAULT_CACHE_STEPS);
                if mesh_obs::enabled() {
                    // Fold freshly-compiled trace keys into the run
                    // manifest's workload fingerprint (XOR fold:
                    // order-independent across parallel sweep workers).
                    mesh_obs::merge_fingerprint((keys[i] as u64) ^ ((keys[i] >> 64) as u64));
                }
            }
            d_evictions += cache.evictions - evictions_before;
            drop(cache);
            drop(claim);
            // Fill this call's slots from the fresh compiles directly (an
            // insert may already have been evicted; the Arcs stay valid).
            for &i in &pending {
                if let Some(k) = missing.iter().position(|&j| keys[j] == keys[i]) {
                    out[i] = compiled[k].clone();
                }
            }
        }

        if !waiting.is_empty() {
            let _cache = shared()
                .compiled
                .wait_while(global(), |cache| {
                    waiting.iter().any(|&i| cache.in_flight.contains(&keys[i]))
                })
                .expect("trace cache poisoned");
        }
        pending = waiting;
    }
    flush_cache_obs(d_hits, d_misses, d_fallbacks, d_evictions);
    out
}

/// Mirrors one `compiled_for` call's trace-cache deltas into the mesh-obs
/// registry. A no-op when observability is disabled or nothing happened.
fn flush_cache_obs(hits: u64, misses: u64, fallbacks: u64, evictions: u64) {
    if !mesh_obs::enabled() || hits + misses + fallbacks + evictions == 0 {
        return;
    }
    mesh_obs::counter("cyclesim.trace_cache.hits").add(hits);
    mesh_obs::counter("cyclesim.trace_cache.misses").add(misses);
    mesh_obs::counter("cyclesim.trace_cache.fallbacks").add(fallbacks);
    mesh_obs::counter("cyclesim.trace_cache.evictions").add(evictions);
}

/// Actual trace compiles performed by [`compiled_for`] since process start
/// (in-memory hits don't count). Mirrored into the
/// `cyclesim.trace.compiles` obs counter.
static COMPILES: AtomicU64 = AtomicU64::new(0);

/// Resolves the given task indices (in-memory misses), spreading distinct
/// tasks over scoped worker threads claiming from a shared atomic index.
/// Tasks past [`DEFAULT_MAX_STEPS`] resolve to `None`.
fn compile_parallel(
    missing: &[usize],
    workload: &Workload,
    machine: &MachineConfig,
    pacing: Pacing,
) -> Vec<Option<Arc<TaskTrace>>> {
    let compile_one = |i: usize| {
        COMPILES.fetch_add(1, Ordering::Relaxed);
        if mesh_obs::enabled() {
            mesh_obs::counter("cyclesim.trace.compiles").inc();
        }
        compile(
            &workload.tasks[i].segments,
            machine.procs[i],
            derived_pacing(pacing, i),
            DEFAULT_MAX_STEPS,
        )
        .map(Arc::new)
    };
    let jobs = jobs_from_env().min(missing.len());
    if jobs <= 1 {
        return missing.iter().map(|&i| compile_one(i)).collect();
    }
    let slots: Vec<Mutex<Option<Option<Arc<TaskTrace>>>>> =
        (0..missing.len()).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= missing.len() {
                    break;
                }
                let result = compile_one(missing[k]);
                *slots[k].lock().expect("slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

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
    /// Per-task lookups served from the cache since process start,
    /// including lookups that waited for another caller's compile of the
    /// same key.
    pub hits: u64,
    /// Per-task lookups that required a compile by this caller since
    /// process start.
    pub misses: u64,
    /// Entries evicted oldest-first to stay within the resident budget.
    pub evictions: u64,
    /// Lookups (or fresh compiles) that resolved to a too-large verdict,
    /// sending the engines to the on-the-fly cursor fallback.
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
        entries: cache.map.len(),
        resident_steps: cache.resident_steps,
        hits: cache.hits,
        misses: cache.misses,
        evictions: cache.evictions,
        fallbacks: cache.fallbacks,
        compiles: COMPILES.load(Ordering::Relaxed),
    }
}

/// Drops every cached trace (the hit/miss counters and the markers of
/// compiles in flight are kept). Intended for benchmarks that need
/// cold-compile timings.
pub fn clear_cache() {
    let mut cache = global();
    cache.map.clear();
    cache.order.clear();
    cache.resident_steps = 0;
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
            .map(|key| match cache.map.get(key) {
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
        // A claim dropped without an entry, as when its compile panics, must
        // wake the waiter, which then compiles the key itself.
        let mut w = Workload::new();
        w.add_task(TaskProgram::new("t").with_segment(Segment::work(424_243)));
        let machine = MachineConfig::homogeneous(1, proc(1024), BusConfig::new(4));
        let key = task_keys(&w, &machine, Pacing::Even)[0];
        assert!(global().in_flight.insert(key));
        let claim = InFlight(vec![key]);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| compiled_for(&w, &machine, Pacing::Even));
            // Either order must work: the pause only makes it likely that
            // the waiter is already asleep on the marker when it clears.
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(claim);
            assert!(waiter.join().unwrap()[0].is_some());
        });
        assert!(!global().in_flight.contains(&key));
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
        let trace = |steps: usize| {
            CacheEntry::Compiled(Arc::new(TaskTrace {
                chunks: Vec::new(),
                steps,
                profile: Vec::new(),
            }))
        };
        cache.insert(1, trace(60), 100);
        cache.insert(2, trace(30), 100);
        assert_eq!(cache.resident_steps, 90);
        // Inserting 50 evicts key 1 (oldest) but keeps key 2.
        cache.insert(3, trace(50), 100);
        assert!(!cache.map.contains_key(&1));
        assert!(cache.map.contains_key(&2));
        assert_eq!(cache.resident_steps, 80);
        // An entry larger than the whole budget is not retained.
        cache.insert(4, trace(1000), 100);
        assert!(!cache.map.contains_key(&4));
        // Re-inserting an existing key replaces it without double counting.
        cache.insert(2, trace(10), 100);
        assert_eq!(cache.resident_steps, 60);
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
