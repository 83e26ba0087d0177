//! Tier-2 persistent cache: scenario-fingerprint → result memoization.
//!
//! Where the trace store (`mesh_cyclesim::store`) amortizes *compilation*,
//! this module amortizes whole evaluations: with `MESH_RESULT_CACHE=<dir>`
//! set, an experiment point whose complete scenario — workload content,
//! machine timing, contention model and parameters, hybrid knobs,
//! adversary mode — fingerprints identically to an earlier run is answered
//! from disk in microseconds, without entering either simulator. This is
//! the memo table a future `mesh-serve` daemon answers repeated scenario
//! queries from (see ROADMAP).
//!
//! **Keys.** A [`ScenarioFp`] is a 128-bit FNV-1a fold seeded with a format
//! version and a domain tag (e.g. `"compare"`), extended with the trace
//! layer's [`workload_fingerprint`](mesh_cyclesim::workload_fingerprint)
//! (everything that determines the micro-event streams), the machine's
//! [`digest_words`](mesh_arch::MachineConfig::digest_words), the model's
//! name and [`digest_words`](mesh_core::model::ContentionModel::digest_words),
//! and every knob the evaluation reads. Anything that can change a result
//! must be folded in; the version constant is bumped whenever evaluation
//! semantics change, so stale caches read as misses rather than serving
//! outdated results.
//!
//! **Entries** are one file per fingerprint: a header line
//! `mesh-result v1 <fp> <checksum>` followed by the value's
//! [`Checkpointable`] encoding (the same lossless token format the sweep
//! checkpoints use — floats travel as bit patterns, so a memoized result is
//! *byte-identical* to the computed one). Files are published with the
//! temp + rename pattern; a corrupt or mismatched entry is quarantined
//! (renamed to `<fp>.quarantined`) and recomputed. Most entries are a few
//! hundred bytes; an annotation profile (`subeval-annotate`, two counts per
//! workload segment) is a few KB. A scenario's entries therefore stay well
//! under a megabyte, so there is no GC tier — wipe the directory to reset.

use crate::checkpoint::Checkpointable;
use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Environment variable enabling result memoization: a directory path
/// (created if absent). Unset or empty disables the cache.
pub const RESULT_CACHE_ENV: &str = "MESH_RESULT_CACHE";

/// Environment variable sizing the in-process sub-evaluation LRU (entry
/// count, split over shards). `0` disables the tier; unset uses
/// [`DEFAULT_SUBEVAL_LRU`]; a malformed value warns on stderr and uses the
/// default too.
pub const SUBEVAL_LRU_ENV: &str = "MESH_SUBEVAL_LRU";

/// Default capacity (entries) of the in-process sub-evaluation LRU.
pub const DEFAULT_SUBEVAL_LRU: usize = 4096;

/// Bumped whenever the meaning of a memoized value changes (new estimator
/// semantics, changed percentage definitions, …): entries written by other
/// versions read as misses.
const MEMO_VERSION: u64 = 1;

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

// ---------------------------------------------------------------------------
// Scenario fingerprints.
// ---------------------------------------------------------------------------

/// A 128-bit scenario fingerprint under construction. Builder-style: fold
/// in every input the evaluation depends on, then [`finish`](ScenarioFp::finish).
#[derive(Clone, Copy, Debug)]
pub struct ScenarioFp(u128);

impl ScenarioFp {
    /// Starts a fingerprint for one evaluation domain (e.g. `"compare"`,
    /// `"envelope"`). Distinct domains never collide even on identical
    /// scenarios — they memoize different value types.
    pub fn new(domain: &str) -> ScenarioFp {
        ScenarioFp(FNV128_OFFSET).word(MEMO_VERSION).text(domain)
    }

    fn byte(mut self, b: u8) -> ScenarioFp {
        self.0 ^= u128::from(b);
        self.0 = self.0.wrapping_mul(FNV128_PRIME);
        self
    }

    /// Folds in one 64-bit word (counts, discriminants, float bit
    /// patterns).
    #[must_use]
    pub fn word(mut self, w: u64) -> ScenarioFp {
        for b in w.to_le_bytes() {
            self = self.byte(b);
        }
        self
    }

    /// Folds in a 128-bit word (nested fingerprints such as
    /// [`mesh_cyclesim::workload_fingerprint`]).
    #[must_use]
    pub fn wide(mut self, w: u128) -> ScenarioFp {
        for b in w.to_le_bytes() {
            self = self.byte(b);
        }
        self
    }

    /// Folds in a word sequence, length-prefixed so adjacent variable-width
    /// sequences cannot alias each other.
    #[must_use]
    pub fn words(mut self, ws: &[u64]) -> ScenarioFp {
        self = self.word(ws.len() as u64);
        for &w in ws {
            self = self.word(w);
        }
        self
    }

    /// Folds in any [`Hash`](std::hash::Hash) value through std's hashing
    /// protocol — e.g. workload segments, which derive `Hash` over every
    /// field.
    #[must_use]
    pub fn hashed<T: std::hash::Hash + ?Sized>(self, value: &T) -> ScenarioFp {
        struct Fold(ScenarioFp);
        impl std::hash::Hasher for Fold {
            fn write(&mut self, bytes: &[u8]) {
                for &b in bytes {
                    self.0 = self.0.byte(b);
                }
            }
            fn finish(&self) -> u64 {
                self.0 .0 as u64
            }
        }
        let mut fold = Fold(self);
        value.hash(&mut fold);
        fold.0
    }

    /// Folds in a string, length-prefixed.
    #[must_use]
    pub fn text(mut self, s: &str) -> ScenarioFp {
        self = self.word(s.len() as u64);
        for b in s.bytes() {
            self = self.byte(b);
        }
        self
    }

    /// The finished 128-bit fingerprint.
    pub fn finish(self) -> u128 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

/// `None` = unresolved; `Some(None)` = disabled; `Some(Some(dir))` = on.
fn config_cell() -> &'static Mutex<Option<Option<PathBuf>>> {
    static CELL: OnceLock<Mutex<Option<Option<PathBuf>>>> = OnceLock::new();
    CELL.get_or_init(|| Mutex::new(None))
}

fn dir() -> Option<PathBuf> {
    let mut cell = config_cell().lock().expect("memo config poisoned");
    if cell.is_none() {
        *cell = Some(dir_from_env());
    }
    cell.as_ref().expect("just resolved").clone()
}

fn dir_from_env() -> Option<PathBuf> {
    let dir = std::env::var_os(RESULT_CACHE_ENV)?;
    if dir.is_empty() {
        return None;
    }
    let dir = PathBuf::from(dir);
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!(
            "mesh-bench: {RESULT_CACHE_ENV}={} is unusable ({e}); result cache disabled",
            dir.display()
        );
        return None;
    }
    Some(dir)
}

/// Points the result cache at `dir` (created if needed) for the rest of the
/// process, overriding [`RESULT_CACHE_ENV`]; `None` disables it. Used by
/// perfsuite's memo-hit section and tests.
pub fn set_result_cache(dir: Option<&Path>) {
    let resolved = match dir {
        None => None,
        Some(d) => {
            if let Err(e) = fs::create_dir_all(d) {
                eprintln!(
                    "mesh-bench: result cache {} is unusable ({e}); disabled",
                    d.display()
                );
                None
            } else {
                Some(d.to_path_buf())
            }
        }
    };
    *config_cell().lock().expect("memo config poisoned") = Some(resolved);
}

/// Whether result memoization is active (via [`RESULT_CACHE_ENV`] or
/// [`set_result_cache`]).
pub fn enabled() -> bool {
    dir().is_some()
}

// ---------------------------------------------------------------------------
// Tier-1 in-process sub-evaluation LRU.
// ---------------------------------------------------------------------------

const LRU_SHARD_COUNT: usize = 16;

/// Sentinel meaning "capacity not resolved yet" in [`LRU_CAPACITY`].
const LRU_UNRESOLVED: usize = usize::MAX;

static LRU_CAPACITY: AtomicUsize = AtomicUsize::new(LRU_UNRESOLVED);

struct LruShard {
    /// fp → (last-touch stamp, encoded value).
    entries: HashMap<u128, (u64, String)>,
    clock: u64,
}

fn lru_shards() -> &'static [Mutex<LruShard>; LRU_SHARD_COUNT] {
    static SHARDS: OnceLock<[Mutex<LruShard>; LRU_SHARD_COUNT]> = OnceLock::new();
    SHARDS.get_or_init(|| {
        std::array::from_fn(|_| {
            Mutex::new(LruShard {
                entries: HashMap::new(),
                clock: 0,
            })
        })
    })
}

fn lru_capacity() -> usize {
    let cap = LRU_CAPACITY.load(Ordering::Relaxed);
    if cap != LRU_UNRESOLVED {
        return cap;
    }
    let resolved = match std::env::var(SUBEVAL_LRU_ENV) {
        Ok(value) if !value.is_empty() => parse_lru_capacity(&value).unwrap_or_else(|warning| {
            eprintln!("{warning}");
            DEFAULT_SUBEVAL_LRU
        }),
        _ => DEFAULT_SUBEVAL_LRU,
    }
    .min(LRU_UNRESOLVED - 1);
    LRU_CAPACITY.store(resolved, Ordering::Relaxed);
    resolved
}

/// Parses a [`SUBEVAL_LRU_ENV`] value; the error is the warning to print
/// before falling back to [`DEFAULT_SUBEVAL_LRU`].
fn parse_lru_capacity(value: &str) -> Result<usize, String> {
    value.trim().parse::<usize>().map_err(|_| {
        format!(
            "mesh-bench: ignoring invalid {SUBEVAL_LRU_ENV}={value:?} \
             (want a non-negative integer; using {DEFAULT_SUBEVAL_LRU})"
        )
    })
}

/// Sets the in-process sub-evaluation LRU capacity (entries; `0` disables
/// the tier), overriding [`SUBEVAL_LRU_ENV`]. Used by perfsuite's sweep
/// section and tests.
pub fn set_subeval_lru_capacity(entries: usize) {
    LRU_CAPACITY.store(entries.min(LRU_UNRESOLVED - 1), Ordering::Relaxed);
}

/// The in-process sub-evaluation LRU's current capacity in entries (`0` =
/// tier disabled), resolving [`SUBEVAL_LRU_ENV`] on first use.
pub fn subeval_lru_capacity() -> usize {
    lru_capacity()
}

/// Drops every entry of the in-process sub-evaluation LRU (capacity is
/// unchanged). Used to stage cold-start measurements.
pub fn clear_subeval_lru() {
    for shard in lru_shards() {
        let mut shard = shard.lock().expect("subeval LRU poisoned");
        shard.entries.clear();
        shard.clock = 0;
    }
}

fn lru_shard_index(fp: u128) -> usize {
    // The fingerprint is already a well-mixed FNV fold; the low bits shard.
    (fp as usize) % LRU_SHARD_COUNT
}

fn lru_get<V: Checkpointable>(fp: u128) -> Option<V> {
    if lru_capacity() == 0 {
        return None;
    }
    let mut shard = lru_shards()[lru_shard_index(fp)]
        .lock()
        .expect("subeval LRU poisoned");
    shard.clock += 1;
    let stamp = shard.clock;
    let entry = shard.entries.get_mut(&fp)?;
    entry.0 = stamp;
    let decoded = V::decode(&entry.1);
    if decoded.is_none() {
        // A decode failure means the slot was populated under a different
        // value type; drop it rather than serving it again.
        shard.entries.remove(&fp);
    }
    decoded
}

fn lru_put(fp: u128, encoded: String) {
    let capacity = lru_capacity();
    if capacity == 0 {
        return;
    }
    let per_shard = (capacity / LRU_SHARD_COUNT).max(1);
    let mut shard = lru_shards()[lru_shard_index(fp)]
        .lock()
        .expect("subeval LRU poisoned");
    shard.clock += 1;
    let stamp = shard.clock;
    if shard.entries.len() >= per_shard && !shard.entries.contains_key(&fp) {
        if let Some((&oldest, _)) = shard.entries.iter().min_by_key(|(_, (s, _))| *s) {
            shard.entries.remove(&oldest);
        }
    }
    shard.entries.insert(fp, (stamp, encoded));
}

// ---------------------------------------------------------------------------
// Single-flight: concurrent callers of one fingerprint compute once.
// ---------------------------------------------------------------------------

fn inflight() -> &'static Mutex<HashMap<u128, Arc<Mutex<()>>>> {
    static CELL: OnceLock<Mutex<HashMap<u128, Arc<Mutex<()>>>>> = OnceLock::new();
    CELL.get_or_init(|| Mutex::new(HashMap::new()))
}

fn inflight_gate(fp: u128) -> Arc<Mutex<()>> {
    let mut map = inflight().lock().expect("singleflight map poisoned");
    map.entry(fp).or_default().clone()
}

fn inflight_done(fp: u128) {
    let mut map = inflight().lock().expect("singleflight map poisoned");
    map.remove(&fp);
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static STORES: AtomicU64 = AtomicU64::new(0);
static QUARANTINED: AtomicU64 = AtomicU64::new(0);
static LRU_HITS: AtomicU64 = AtomicU64::new(0);

fn bump(counter: &AtomicU64, obs_name: &str) {
    counter.fetch_add(1, Ordering::Relaxed);
    if mesh_obs::enabled() {
        mesh_obs::counter(obs_name).inc();
    }
}

/// Counters of the result-memoization cache since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Evaluations answered from a valid cached entry.
    pub hits: u64,
    /// Lookups that found no (valid) entry and computed the value.
    pub misses: u64,
    /// Freshly computed values published to the cache.
    pub stores: u64,
    /// Corrupt entries renamed aside and recomputed.
    pub quarantined: u64,
    /// Sub-evaluations answered from the in-process LRU without touching
    /// disk.
    pub lru_hits: u64,
}

/// Snapshot of the result cache's counters.
pub fn stats() -> ResultCacheStats {
    ResultCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        stores: STORES.load(Ordering::Relaxed),
        quarantined: QUARANTINED.load(Ordering::Relaxed),
        lru_hits: LRU_HITS.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// Entry I/O.
// ---------------------------------------------------------------------------

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn entry_path(dir: &Path, fp: u128) -> PathBuf {
    dir.join(format!("{fp:032x}.res"))
}

fn read_entry<V: Checkpointable>(dir: &Path, fp: u128) -> Option<V> {
    let path = entry_path(dir, fp);
    let text = fs::read_to_string(&path).ok()?;
    let parsed = (|| {
        let (header, value) = text.split_once('\n')?;
        let mut h = header.split_whitespace();
        if h.next()? != "mesh-result" || h.next()? != "v1" {
            return None;
        }
        if u128::from_str_radix(h.next()?, 16).ok()? != fp {
            return None;
        }
        let sum = u64::from_str_radix(h.next()?, 16).ok()?;
        if h.next().is_some() {
            return None;
        }
        let value = value.strip_suffix('\n').unwrap_or(value);
        if fnv64(value.as_bytes()) != sum {
            return None;
        }
        V::decode(value)
    })();
    if parsed.is_none() {
        // Keep the bad entry for post-mortems, out of the lookup path.
        if fs::rename(&path, dir.join(format!("{fp:032x}.quarantined"))).is_err() {
            let _ = fs::remove_file(&path);
        }
        bump(&QUARANTINED, "bench.result_cache.quarantined");
    }
    parsed
}

fn write_entry(dir: &Path, fp: u128, encoded: &str) {
    let dest = entry_path(dir, fp);
    if dest.exists() {
        return; // First writer wins; entries for one fp are identical.
    }
    let tmp = dir.join(format!(".tmp-{}-{fp:032x}", std::process::id()));
    let body = format!(
        "mesh-result v1 {fp:032x} {:016x}\n{encoded}\n",
        fnv64(encoded.as_bytes())
    );
    let written = (|| -> std::io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(body.as_bytes())?;
        f.flush()
    })();
    if written.is_err() || dest.exists() || fs::rename(&tmp, &dest).is_err() {
        let _ = fs::remove_file(&tmp);
        return;
    }
    bump(&STORES, "bench.result_cache.stores");
}

/// Notes one memoized replay in the flight recorder (`a` = the low 64
/// fingerprint bits, `b` = 1 for an LRU hit, 0 for a disk hit), so a
/// postmortem shows which results near the failure were served from cache
/// rather than computed.
fn flightrec_replay(fp: u128, lru: bool) {
    if mesh_obs::flightrec::enabled() {
        mesh_obs::flightrec::event(
            mesh_obs::flightrec::EventKind::MemoReplay,
            if lru { "lru" } else { "disk" },
            fp as u64,
            u64::from(lru),
        );
    }
}

/// Returns the memoized value for `fp`, or computes it with `f` and
/// publishes the result. With the cache disabled this is exactly `f()`.
/// The encoding round-trips losslessly ([`Checkpointable`] floats travel as
/// bit patterns), so a cache hit is byte-identical to a fresh computation.
pub fn memoize<V: Checkpointable>(fp: u128, f: impl FnOnce() -> V) -> V {
    let Some(dir) = dir() else {
        return f();
    };
    {
        let _span = mesh_obs::span("bench.result_cache.lookup_ns");
        if let Some(v) = read_entry::<V>(&dir, fp) {
            bump(&HITS, "bench.result_cache.hits");
            flightrec_replay(fp, false);
            return v;
        }
    }
    bump(&MISSES, "bench.result_cache.misses");
    let value = f();
    write_entry(&dir, fp, &value.encode());
    value
}

/// Like [`memoize`], but layered over the in-process sub-evaluation LRU
/// (always on unless [`SUBEVAL_LRU_ENV`] is `0`) *and* the persistent tier
/// (when enabled), and reporting provenance: the second element is `true`
/// when the value was served from either cache rather than computed.
///
/// Concurrent callers of one fingerprint are single-flighted — losers block
/// on the winner's computation and then read it from the cache — so a
/// parallel sweep whose points share a sub-evaluation computes it exactly
/// once per process.
pub fn memoize_flagged<V: Checkpointable>(fp: u128, f: impl FnOnce() -> V) -> (V, bool) {
    if let Some(v) = lru_get::<V>(fp) {
        bump(&LRU_HITS, "bench.subeval.lru_hits");
        flightrec_replay(fp, true);
        return (v, true);
    }
    let gate = inflight_gate(fp);
    let guard = gate.lock().expect("singleflight gate poisoned");
    // A loser arriving here finds the winner's freshly published value.
    if let Some(v) = lru_get::<V>(fp) {
        bump(&LRU_HITS, "bench.subeval.lru_hits");
        flightrec_replay(fp, true);
        drop(guard);
        return (v, true);
    }
    if let Some(dir) = dir() {
        let _span = mesh_obs::span("bench.result_cache.lookup_ns");
        if let Some(v) = read_entry::<V>(&dir, fp) {
            bump(&HITS, "bench.result_cache.hits");
            flightrec_replay(fp, false);
            lru_put(fp, v.encode());
            drop(guard);
            inflight_done(fp);
            return (v, true);
        }
    }
    bump(&MISSES, "bench.result_cache.misses");
    let value = f();
    let encoded = value.encode();
    lru_put(fp, encoded.clone());
    if let Some(dir) = dir() {
        write_entry(&dir, fp, &encoded);
    }
    drop(guard);
    inflight_done(fp);
    (value, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mesh-memo-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp cache");
        dir
    }

    /// memoize() against an explicit directory, bypassing the process-global
    /// configuration (tests run in parallel within one process).
    fn memoize_in<V: Checkpointable>(dir: &Path, fp: u128, f: impl FnOnce() -> V) -> V {
        if let Some(v) = read_entry::<V>(dir, fp) {
            HITS.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        let value = f();
        write_entry(dir, fp, &value.encode());
        value
    }

    #[test]
    fn fingerprints_separate_every_ingredient() {
        let base = ScenarioFp::new("compare").word(1).text("chen-lin").finish();
        assert_eq!(
            base,
            ScenarioFp::new("compare").word(1).text("chen-lin").finish(),
            "fingerprints are deterministic"
        );
        assert_ne!(
            base,
            ScenarioFp::new("envelope")
                .word(1)
                .text("chen-lin")
                .finish()
        );
        assert_ne!(
            base,
            ScenarioFp::new("compare").word(2).text("chen-lin").finish()
        );
        assert_ne!(
            base,
            ScenarioFp::new("compare").word(1).text("mm1").finish()
        );
        // Length prefixing: shifting a byte between adjacent fields moves
        // the boundary but must not alias.
        assert_ne!(
            ScenarioFp::new("x").text("ab").text("c").finish(),
            ScenarioFp::new("x").text("a").text("bc").finish()
        );
        assert_ne!(
            ScenarioFp::new("x").words(&[1, 2]).words(&[]).finish(),
            ScenarioFp::new("x").words(&[1]).words(&[2]).finish()
        );
    }

    #[test]
    fn malformed_lru_capacity_warns_instead_of_passing_silently() {
        assert_eq!(parse_lru_capacity("256"), Ok(256));
        assert_eq!(parse_lru_capacity(" 0 "), Ok(0));
        for bad in ["4k", "-1", "1e3", "lots"] {
            let warning = parse_lru_capacity(bad).expect_err(bad);
            assert!(
                warning.contains(&format!("ignoring invalid {SUBEVAL_LRU_ENV}={bad:?}")),
                "{warning}"
            );
        }
    }

    #[test]
    fn memoize_round_trips_and_counts() {
        let dir = temp_cache("roundtrip");
        let value = (42u64, 2.5f64, 7usize);
        let first = memoize_in(&dir, 0xAB, || value);
        assert_eq!(first, value);
        let second =
            memoize_in::<(u64, f64, usize)>(&dir, 0xAB, || panic!("must be served from cache"));
        assert_eq!(second, value);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Serializes the tests that quarantine entries: the quarantine counter
    /// is process-global, so a concurrent quarantine would skew the exact
    /// count asserted below.
    static QUARANTINING: Mutex<()> = Mutex::new(());

    #[test]
    fn corrupt_entries_quarantine_and_recompute() {
        let _serial = QUARANTINING.lock().unwrap_or_else(|e| e.into_inner());
        let dir = temp_cache("corrupt");
        let _ = memoize_in(&dir, 0xCD, || 1234u64);
        let path = entry_path(&dir, 0xCD);
        // Flip a byte of the value line: the checksum must catch it.
        let mut text = fs::read_to_string(&path).unwrap();
        let flip = text.len() - 2;
        text.replace_range(flip..flip + 1, "X");
        fs::write(&path, text).unwrap();
        let before = stats().quarantined;
        let recomputed = memoize_in(&dir, 0xCD, || 1234u64);
        assert_eq!(recomputed, 1234);
        assert_eq!(stats().quarantined, before + 1);
        assert!(dir.join(format!("{:032x}.quarantined", 0xCD)).exists());
        // The recompute re-published a valid entry.
        assert_eq!(memoize_in::<u64>(&dir, 0xCD, || panic!("cached")), 1234);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_fingerprint_and_version_reject() {
        let _serial = QUARANTINING.lock().unwrap_or_else(|e| e.into_inner());
        let dir = temp_cache("foreign");
        let _ = memoize_in(&dir, 0xEF, || 5u64);
        // Copy the entry under a different fingerprint: key check rejects.
        fs::copy(entry_path(&dir, 0xEF), entry_path(&dir, 0xFF)).unwrap();
        assert_eq!(memoize_in(&dir, 0xFF, || 6u64), 6, "foreign key recomputes");
        // An entry from a future format version reads as corrupt.
        fs::write(
            entry_path(&dir, 0xAA),
            "mesh-result v9 000000000000000000000000000000aa 0000000000000000\n5\n",
        )
        .unwrap();
        assert_eq!(memoize_in(&dir, 0xAA, || 7u64), 7);
        let _ = fs::remove_dir_all(&dir);
    }
}
