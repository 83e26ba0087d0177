//! Persistent cache: scenario-fingerprint → result memoization.
//!
//! Where the in-process trace cache amortizes *compilation* within one
//! process, this module amortizes whole evaluations across processes: with
//! `MESH_RESULT_CACHE=<dir>` set, an experiment point whose complete
//! scenario — workload content,
//! machine timing, contention model and parameters, hybrid knobs —
//! fingerprints identically to an earlier run is answered from disk in
//! microseconds, without entering either simulator.
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
//!
//! **In process**, every fingerprint asked for has one [`OnceLock`] cell
//! holding the value's encoding. The first caller fills it (from the
//! persistent tier, or by computing), concurrent callers of the same
//! fingerprint block on that fill and read its value, and every later
//! caller reads it at once — so a sweep whose points share a
//! sub-evaluation computes it once per process. A fill that panics leaves
//! its cell empty, and the next caller, or one that was waiting, fills it.

use crate::checkpoint::{Checkpointable, Fnv1a};
use mesh_core::model::ContentionModel;
use std::collections::HashMap;
use std::fs;
use std::hash::Hasher as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, OnceLock};

/// Environment variable enabling result memoization: a directory path
/// (created if absent). Unset or empty disables the cache.
pub const RESULT_CACHE_ENV: &str = "MESH_RESULT_CACHE";

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

    /// Folds in a contention model's identity: its
    /// [`name`](ContentionModel::name), then its
    /// [`digest_words`](ContentionModel::digest_words).
    #[must_use]
    pub fn model(self, model: &dyn ContentionModel) -> ScenarioFp {
        self.text(model.name()).words(&model.digest_words())
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
static DIR: Mutex<Option<Option<PathBuf>>> = Mutex::new(None);

fn dir() -> Option<PathBuf> {
    // Read even when `set_result_cache` overrode the directory: the first
    // read hands the job count to the trace compiles a memoized evaluation
    // may run.
    let configured = crate::config().result_cache.as_deref();
    let mut cell = DIR.lock().expect("memo config poisoned");
    cell.get_or_insert_with(|| usable(configured)).clone()
}

/// `dir`, created if needed; `None` (with a warning) when it cannot be.
fn usable(dir: Option<&Path>) -> Option<PathBuf> {
    let dir = dir?;
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!(
            "mesh-bench: result cache {} is unusable ({e}); disabled",
            dir.display()
        );
        return None;
    }
    Some(dir.to_path_buf())
}

/// Points the result cache at `dir` (created if needed) for the rest of the
/// process, overriding [`RESULT_CACHE_ENV`]; `None` disables it. Used by
/// perfsuite's memo-hit section and tests.
pub fn set_result_cache(dir: Option<&Path>) {
    *DIR.lock().expect("memo config poisoned") = Some(usable(dir));
}

/// Whether result memoization is active (via [`RESULT_CACHE_ENV`] or
/// [`set_result_cache`]).
pub fn enabled() -> bool {
    dir().is_some()
}

// ---------------------------------------------------------------------------
// The in-process tier: one single-flight cell per fingerprint.
// ---------------------------------------------------------------------------

/// A fingerprint's value in this process: its encoding, and whether it was
/// read from the persistent tier.
type Cell = Arc<OnceLock<(String, bool)>>;

/// Every fingerprint asked for since the last [`clear_subeval_lru`]. An
/// empty cell is being filled, or its fill panicked.
static CELLS: LazyLock<Mutex<HashMap<u128, Cell>>> = LazyLock::new(Mutex::default);

fn cell(fp: u128) -> Cell {
    let mut cells = CELLS.lock().expect("memo cells poisoned");
    Arc::clone(cells.entry(fp).or_default())
}

/// Drops every value of the in-process memo. A fill in flight still
/// returns to its callers but is not kept. Used to stage cold-start
/// measurements.
pub fn clear_subeval_lru() {
    CELLS.lock().expect("memo cells poisoned").clear();
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
    /// Values served by the in-process memo: computed or read from disk
    /// by an earlier call in this process.
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

/// The checksum in an entry's header: 64-bit FNV-1a over the value line.
fn checksum(encoded: &str) -> u64 {
    let mut h = Fnv1a::default();
    h.write(encoded.as_bytes());
    h.finish()
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
        if checksum(value) != sum {
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
        checksum(encoded)
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
/// fingerprint bits, `b` = 1 and label `lru` for an in-process hit, 0 and
/// `disk` for a disk hit), so a postmortem shows which results near the
/// failure were served from cache rather than computed.
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

/// Where [`memoize_flagged`] found a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// Computed by this call.
    Computed,
    /// Computed earlier in this process, shared through the in-process memo.
    Shared,
    /// Read from the persistent result cache, by this call or by the
    /// earlier one whose in-process cell served it: recorded by another
    /// process.
    Persisted,
}

impl Origin {
    /// Whether the value was served from a cache rather than computed.
    pub fn cached(self) -> bool {
        self != Origin::Computed
    }
}

/// Returns the memoized value for `fp`, or computes it with `f` and
/// publishes the result, reporting its [`Origin`]. Two tiers are consulted
/// in order: the in-process memo and the persistent directory (when
/// enabled). The encoding round-trips losslessly ([`Checkpointable`] floats
/// travel as bit patterns), so a cache hit is byte-identical to a fresh
/// computation.
///
/// Concurrent callers of one fingerprint are single-flighted: they block
/// on the first caller's fill of the fingerprint's cell and read its value,
/// so a parallel sweep whose points share a sub-evaluation computes it once
/// per process. If `f` panics, the panic reaches this call's caller and the
/// cell stays empty: the next caller, or one that was waiting, fills it.
/// A cell filled with a value of another type is a miss, and is replaced.
pub fn memoize_flagged<V: Checkpointable>(fp: u128, f: impl FnOnce() -> V) -> (V, Origin) {
    let cell = cell(fp);
    let mut f = Some(f);
    let mut filled = None;
    let (encoded, persisted) = cell.get_or_init(|| {
        let (value, encoded, origin) = fill(fp, f.take().expect("a cell fills once"));
        filled = Some((value, origin));
        (encoded, origin == Origin::Persisted)
    });
    if let Some(filled) = filled {
        return filled;
    }
    let Some(value) = V::decode(encoded) else {
        // Filled under another value type: a miss. Drop the cell (unless
        // another caller already replaced it) and fill a fresh one.
        let mut cells = CELLS.lock().expect("memo cells poisoned");
        if cells.get(&fp).is_some_and(|c| Arc::ptr_eq(c, &cell)) {
            cells.remove(&fp);
        }
        drop(cells);
        return memoize_flagged(fp, f.expect("an unused closure"));
    };
    bump(&LRU_HITS, "bench.subeval.lru_hits");
    flightrec_replay(fp, true);
    let origin = if *persisted {
        Origin::Persisted
    } else {
        Origin::Shared
    };
    (value, origin)
}

/// Fills `fp`'s cell: the persistent tier's value when it holds a valid
/// entry, else `f()`, published there. Returns the value, its encoding and
/// its origin.
fn fill<V: Checkpointable>(fp: u128, f: impl FnOnce() -> V) -> (V, String, Origin) {
    if let Some(dir) = dir() {
        let _span = mesh_obs::span("bench.result_cache.lookup_ns");
        if let Some(v) = read_entry::<V>(&dir, fp) {
            bump(&HITS, "bench.result_cache.hits");
            flightrec_replay(fp, false);
            let encoded = v.encode();
            return (v, encoded, Origin::Persisted);
        }
    }
    bump(&MISSES, "bench.result_cache.misses");
    let value = f();
    let encoded = value.encode();
    if let Some(dir) = dir() {
        write_entry(&dir, fp, &encoded);
    }
    (value, encoded, Origin::Computed)
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

    /// The persistent tier of [`memoize_flagged`] against an explicit
    /// directory, bypassing the process-global configuration (tests run in
    /// parallel within one process).
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
    fn checksum_is_unchanged_fnv1a() {
        // The checksum result-cache entries have always carried for this
        // value: entries written by earlier builds still verify.
        let encoded = (42u64, 2.5f64, 7usize).encode();
        assert_eq!(checksum(&encoded), 0x7EDE_8B0C_91A8_567C);
    }

    // The in-process memo is process-global: the tests below use
    // fingerprints no other test uses.

    #[test]
    fn panicking_fill_leaves_its_fingerprint_computable() {
        const FP: u128 = 0x51F1_0000_0000_0000_0000_0000_0000_0001;
        let panicked = std::panic::catch_unwind(|| {
            memoize_flagged::<u64>(FP, || panic!("the first fill unwinds"))
        });
        assert!(panicked.is_err());
        assert_eq!(memoize_flagged(FP, || 7u64), (7, Origin::Computed));
        assert_eq!(memoize_flagged(FP, || 8u64), (7, Origin::Shared));
    }

    #[test]
    fn caller_waiting_on_a_panicking_fill_computes_the_value() {
        const FP: u128 = 0x51F1_0000_0000_0000_0000_0000_0000_0002;
        let holders = || CELLS.lock().unwrap().get(&FP).map_or(0, Arc::strong_count);
        let (started, filling) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let filler = s.spawn(move || {
                memoize_flagged::<u64>(FP, || {
                    started.send(()).unwrap();
                    // Unwind only once the waiter holds this cell (the map,
                    // this call and the waiter); the pause makes it likely
                    // that the waiter is blocked on the fill by then, but
                    // either order must work.
                    while holders() < 3 {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("the fill unwinds");
                })
            });
            filling.recv().unwrap();
            let waiter = s.spawn(|| memoize_flagged(FP, || 9u64));
            assert!(filler.join().is_err());
            assert_eq!(waiter.join().unwrap(), (9, Origin::Computed));
        });
    }

    #[test]
    fn value_of_another_type_is_a_miss() {
        const FP: u128 = 0x51F1_0000_0000_0000_0000_0000_0000_0003;
        assert_eq!(memoize_flagged(FP, || 5u64), (5, Origin::Computed));
        assert_eq!(
            memoize_flagged(FP, || (1u64, 2u64)),
            ((1, 2), Origin::Computed)
        );
        assert_eq!(
            memoize_flagged(FP, || (3u64, 4u64)),
            ((1, 2), Origin::Shared)
        );
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
