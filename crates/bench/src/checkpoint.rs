//! # Sweep checkpointing: crash-safe, resumable grid evaluation
//!
//! A [`Checkpoint`] is an append-only text file recording every finished
//! sweep point as one line. If a sweep process is killed — OOM, SIGKILL, a
//! power cut — a re-run with the same checkpoint path reloads the finished
//! points and evaluates only the remainder, and because values are encoded
//! *losslessly* (floats by bit pattern), the resumed run's final output is
//! byte-identical to an uninterrupted one.
//!
//! The file format is deliberately primitive — no serde, no binary framing:
//!
//! ```text
//! <label> <key-hash as 16 hex digits> <value tokens...>
//! ```
//!
//! * `label` is the sweep's label with whitespace replaced by `-`;
//! * `key-hash` is a stable FNV-1a hash of the grid point's [`Hash`]
//!   feed (the process-randomized default hasher would be useless across
//!   runs);
//! * the value tokens are produced by [`Checkpointable::encode`].
//!
//! Unparseable lines (a torn final write from the killed process) are
//! ignored on load, so a checkpoint is usable even if the process died
//! mid-append. Loading is **explicitly last-wins**: when the same
//! `(label, key-hash)` appears on several lines — a worker that was killed
//! mid-point and retried after restart appends a second record — the record
//! appearing *latest in the file* is the one served by
//! [`Checkpoint::lookup`]. Records are only ever appended after an
//! evaluation completed, so the latest record is always a complete,
//! decodable value and a retrying writer can never corrupt a resume.
//!
//! Enable checkpointing in the experiment binaries by setting
//! [`CHECKPOINT_ENV`](crate::sweep::CHECKPOINT_ENV) (`MESH_BENCH_CHECKPOINT`)
//! to a file path; see [`crate::sweep::try_sweep_labeled`]. With
//! [`SYNC_ENV`] (`MESH_BENCH_CHECKPOINT_SYNC=1`) every appended record is
//! additionally `fsync`ed, hardening the file against a host power cut at
//! the cost of one disk sync per point (an OS-level kill never loses flushed
//! records even without it).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::hash::{Hash, Hasher};
use std::io::{BufRead as _, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// Environment variable enabling per-record fsync
/// (`MESH_BENCH_CHECKPOINT_SYNC=1`): every appended checkpoint record is
/// synced to stable storage before the evaluation of the next point begins.
/// Off by default — flush-on-append already survives any process kill; the
/// knob additionally covers kernel panics and power loss. An on/off switch
/// (see [`mod@crate::config`]).
pub const SYNC_ENV: &str = "MESH_BENCH_CHECKPOINT_SYNC";

/// A value that can round-trip through a single checkpoint line.
///
/// `decode(&encode(v))` must reproduce `v` exactly — lossless to the bit for
/// floats — or resumed sweeps would not be byte-identical to clean ones.
/// Encodings must be single-line and, for types composed by the tuple
/// implementations, free of whitespace per component.
pub trait Checkpointable: Sized {
    /// Encodes the value as a single line (no `\n`).
    fn encode(&self) -> String;
    /// Parses a value back from [`encode`](Self::encode) output; `None` on
    /// malformed input (e.g. a torn write).
    fn decode(s: &str) -> Option<Self>;
}

impl Checkpointable for u64 {
    fn encode(&self) -> String {
        self.to_string()
    }
    fn decode(s: &str) -> Option<u64> {
        s.trim().parse().ok()
    }
}

impl Checkpointable for usize {
    fn encode(&self) -> String {
        self.to_string()
    }
    fn decode(s: &str) -> Option<usize> {
        s.trim().parse().ok()
    }
}

impl Checkpointable for f64 {
    /// Encoded by bit pattern (hex), so NaNs, signed zeros and every last
    /// ulp survive the round trip.
    fn encode(&self) -> String {
        format!("{:016x}", self.to_bits())
    }
    fn decode(s: &str) -> Option<f64> {
        u64::from_str_radix(s.trim(), 16).ok().map(f64::from_bits)
    }
}

impl Checkpointable for Duration {
    fn encode(&self) -> String {
        self.as_nanos().to_string()
    }
    fn decode(s: &str) -> Option<Duration> {
        let nanos: u128 = s.trim().parse().ok()?;
        let secs = u64::try_from(nanos / 1_000_000_000).ok()?;
        Some(Duration::new(secs, (nanos % 1_000_000_000) as u32))
    }
}

macro_rules! tuple_checkpointable {
    ($($name:ident : $idx:tt),+ ; $arity:expr) => {
        impl<$($name: Checkpointable),+> Checkpointable for ($($name,)+) {
            fn encode(&self) -> String {
                let parts = [$(self.$idx.encode()),+];
                parts.join(" ")
            }
            fn decode(s: &str) -> Option<Self> {
                let mut it = s.split_whitespace();
                let value = ($($name::decode(it.next()?)?,)+);
                if it.next().is_some() {
                    return None;
                }
                Some(value)
            }
        }
    };
}

tuple_checkpointable!(A:0, B:1; 2);
tuple_checkpointable!(A:0, B:1, C:2; 3);
tuple_checkpointable!(A:0, B:1, C:2, D:3; 4);

/// Stable FNV-1a hash of a grid point's [`Hash`] feed.
///
/// The standard library's default hasher is randomized per process, so it
/// cannot identify points across runs; FNV-1a over the same byte feed is
/// deterministic (on a given target) and more than strong enough for grid
/// sizes measured in thousands.
pub fn stable_key_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = Fnv1a::default();
    key.hash(&mut h);
    h.finish()
}

/// 64-bit FNV-1a over every byte written to it.
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// An append-only store of finished sweep points backing resumable sweeps.
///
/// Opening a path loads whatever complete records a previous (possibly
/// killed) run left behind; [`record`](Checkpoint::record) appends and
/// flushes one line per finished point, so at most the in-flight point is
/// lost to a crash.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    entries: HashMap<(String, u64), String>,
    writer: Mutex<File>,
    sync: bool,
}

impl Checkpoint {
    /// Opens (creating if absent) the checkpoint file at `path` and loads
    /// every parseable record, **last occurrence winning** when a
    /// `(label, key-hash)` pair was recorded more than once (a retried point
    /// after a worker restart). Per-record fsync follows [`SYNC_ENV`].
    pub fn open(path: &Path) -> std::io::Result<Checkpoint> {
        Checkpoint::open_with_sync(path, crate::config().checkpoint_sync)
    }

    /// [`open`](Checkpoint::open) with the fsync behavior given explicitly
    /// instead of read from [`SYNC_ENV`].
    pub fn open_with_sync(path: &Path, sync: bool) -> std::io::Result<Checkpoint> {
        let mut entries = HashMap::new();
        if path.exists() {
            let reader = BufReader::new(File::open(path)?);
            for line in reader.lines() {
                let line = line?;
                if let Some((label, hash, rest)) = split_record(&line) {
                    // Last-wins by construction: a later line for the same
                    // key replaces the earlier value here.
                    entries.insert((label.to_string(), hash), rest.to_string());
                }
            }
        }
        let writer = OpenOptions::new().create(true).append(true).open(path)?;
        if mesh_obs::enabled() {
            mesh_obs::counter("sweep.checkpoint.loaded").add(entries.len() as u64);
        }
        Ok(Checkpoint {
            path: path.to_path_buf(),
            entries,
            writer: Mutex::new(writer),
            sync,
        })
    }

    /// The file this checkpoint reads from and appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of records loaded from disk at open time.
    pub fn loaded(&self) -> usize {
        self.entries.len()
    }

    /// Looks up the recorded value for (`label`, `key_hash`), if a previous
    /// run finished that point and its record decodes. With several records
    /// for the key on disk, the last one wins.
    pub fn lookup<V: Checkpointable>(&self, label: &str, key_hash: u64) -> Option<V> {
        self.entries
            .get(&(sanitize(label), key_hash))
            .and_then(|s| V::decode(s))
    }

    /// Whether a record for (`label`, `key_hash`) was loaded at open time —
    /// regardless of whether it decodes to any particular value type.
    pub fn contains(&self, label: &str, key_hash: u64) -> bool {
        self.entries.contains_key(&(sanitize(label), key_hash))
    }

    /// The raw (still-encoded) value for (`label`, `key_hash`), if loaded —
    /// for sidecar records whose payload is not a [`Checkpointable`] (a
    /// worker's hex-encoded telemetry snapshot, say).
    pub(crate) fn lookup_raw(&self, label: &str, key_hash: u64) -> Option<&str> {
        self.entries
            .get(&(sanitize(label), key_hash))
            .map(String::as_str)
    }

    /// Appends one finished point and flushes, so the record survives a
    /// kill immediately after; with the [`SYNC_ENV`] knob on, also fsyncs.
    pub fn record<V: Checkpointable>(
        &self,
        label: &str,
        key_hash: u64,
        value: &V,
    ) -> std::io::Result<()> {
        self.record_raw(label, key_hash, &value.encode())
    }

    /// Appends one already-encoded record — the fabric's merge path, which
    /// copies a worker's record bytes verbatim instead of decoding and
    /// re-encoding.
    pub(crate) fn record_raw(
        &self,
        label: &str,
        key_hash: u64,
        encoded: &str,
    ) -> std::io::Result<()> {
        let line = format!("{} {key_hash:016x} {encoded}\n", sanitize(label));
        if mesh_obs::enabled() {
            mesh_obs::counter("sweep.checkpoint.records").inc();
            mesh_obs::counter("sweep.checkpoint.bytes_written").add(line.len() as u64);
        }
        let mut w = self.writer.lock().expect("checkpoint writer poisoned");
        w.write_all(line.as_bytes())?;
        w.flush()?;
        if self.sync {
            w.sync_data()?;
        }
        Ok(())
    }

    /// Appends one finished point **and** a sidecar record in a single
    /// `write_all`, so both lines commit or neither does even under SIGKILL.
    ///
    /// Sharded workers use this to ride their cumulative telemetry snapshot
    /// on every point record: the parent's merged counters then account for
    /// exactly the points whose records it accepted — a kill between two
    /// writes can never leave a committed point with uncommitted telemetry.
    pub(crate) fn record_with_sidecar(
        &self,
        label: &str,
        key_hash: u64,
        encoded: &str,
        sidecar_label: &str,
        sidecar_hash: u64,
        sidecar_encoded: &str,
    ) -> std::io::Result<()> {
        let pair = format!(
            "{} {key_hash:016x} {encoded}\n{} {sidecar_hash:016x} {sidecar_encoded}\n",
            sanitize(label),
            sanitize(sidecar_label)
        );
        if mesh_obs::enabled() {
            mesh_obs::counter("sweep.checkpoint.records").add(2);
            mesh_obs::counter("sweep.checkpoint.bytes_written").add(pair.len() as u64);
        }
        let mut w = self.writer.lock().expect("checkpoint writer poisoned");
        w.write_all(pair.as_bytes())?;
        w.flush()?;
        if self.sync {
            w.sync_data()?;
        }
        Ok(())
    }
}

pub(crate) fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_whitespace() { '-' } else { c })
        .collect()
}

pub(crate) fn split_record(line: &str) -> Option<(&str, u64, &str)> {
    let line = line.trim_end();
    let (label, rest) = line.split_once(' ')?;
    let (hash, value) = rest.split_once(' ')?;
    if label.is_empty() || value.is_empty() {
        return None;
    }
    let hash = u64::from_str_radix(hash, 16).ok()?;
    Some((label, hash, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for v in [0u64, 1, u64::MAX] {
            assert_eq!(u64::decode(&v.encode()), Some(v));
        }
        for v in [0usize, 7, usize::MAX] {
            assert_eq!(usize::decode(&v.encode()), Some(v));
        }
        for v in [0.0f64, -0.0, 1.5, f64::MIN_POSITIVE, f64::INFINITY] {
            let back = f64::decode(&v.encode()).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        let nan = f64::decode(&f64::NAN.encode()).unwrap();
        assert!(nan.is_nan());
        for v in [Duration::ZERO, Duration::new(3, 141_592_653)] {
            assert_eq!(Duration::decode(&v.encode()), Some(v));
        }
    }

    #[test]
    fn tuples_round_trip_and_reject_wrong_arity() {
        let t = (1.25f64, 7u64, Duration::from_millis(5));
        assert_eq!(<(f64, u64, Duration)>::decode(&t.encode()), Some(t));
        assert_eq!(<(u64, u64)>::decode("1 2 3"), None);
        assert_eq!(<(u64, u64)>::decode("1"), None);
    }

    #[test]
    fn key_hash_is_stable_and_discriminating() {
        let a = stable_key_hash(&(1u64, 2u64));
        assert_eq!(a, stable_key_hash(&(1u64, 2u64)));
        assert_ne!(a, stable_key_hash(&(2u64, 1u64)));
        assert_ne!(stable_key_hash("fig4"), stable_key_hash("fig5"));
    }

    #[test]
    fn checkpoint_file_round_trips_and_survives_torn_lines() {
        let dir = std::env::temp_dir().join(format!(
            "mesh-checkpoint-test-{}-{}",
            std::process::id(),
            stable_key_hash("round-trip")
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        let _ = std::fs::remove_file(&path);

        {
            let ck = Checkpoint::open(&path).unwrap();
            assert_eq!(ck.loaded(), 0);
            ck.record("fig x", 1, &1.5f64).unwrap();
            ck.record("fig x", 2, &2.5f64).unwrap();
        }
        // Simulate a torn final write from a killed process.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "fig-x 00000000000000").unwrap();
        }
        let ck = Checkpoint::open(&path).unwrap();
        assert_eq!(ck.loaded(), 2);
        assert_eq!(ck.lookup::<f64>("fig x", 1), Some(1.5));
        assert_eq!(ck.lookup::<f64>("fig x", 2), Some(2.5));
        assert_eq!(ck.lookup::<f64>("fig x", 3), None);
        assert_eq!(ck.lookup::<f64>("other", 1), None);
        assert!(ck.contains("fig x", 1));
        assert!(!ck.contains("fig x", 3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A worker killed mid-point and restarted appends a *second* record
    /// for the same key (possibly after a torn partial line from the kill).
    /// Load must dedupe last-wins and never serve the torn bytes — the
    /// concurrent-writer hardening behind resumable sharded sweeps.
    #[test]
    fn duplicated_and_torn_records_dedupe_last_wins() {
        let dir = std::env::temp_dir().join(format!(
            "mesh-checkpoint-test-{}-{}",
            std::process::id(),
            stable_key_hash("dup-last-wins")
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        let _ = std::fs::remove_file(&path);

        {
            let ck = Checkpoint::open_with_sync(&path, true).unwrap();
            ck.record("grid", 7, &1.25f64).unwrap();
            ck.record("grid", 8, &8.0f64).unwrap();
        }
        // The kill tears a retry of point 7 mid-line...
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "grid 00000000000000").unwrap();
        }
        // ...and the restarted worker completes the retry with a new value,
        // starting on a fresh line (append-only writers begin each record
        // with its label, so the torn prefix stays unparseable).
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f).unwrap();
            let ck = Checkpoint::open(&path).unwrap();
            ck.record("grid", 7, &2.5f64).unwrap();
        }
        let ck = Checkpoint::open(&path).unwrap();
        assert_eq!(ck.loaded(), 2, "two keys despite three parseable writes");
        assert_eq!(
            ck.lookup::<f64>("grid", 7),
            Some(2.5),
            "the latest record wins"
        );
        assert_eq!(ck.lookup::<f64>("grid", 8), Some(8.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_records_round_trip() {
        // Pin the record path with sync on, which must not error on a
        // regular file.
        let dir = std::env::temp_dir().join(format!(
            "mesh-checkpoint-test-{}-{}",
            std::process::id(),
            stable_key_hash("sync-knob")
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sync.ckpt");
        let ck = Checkpoint::open_with_sync(&path, true).unwrap();
        ck.record("s", 1, &42u64).unwrap();
        drop(ck);
        let ck = Checkpoint::open_with_sync(&path, false).unwrap();
        assert_eq!(ck.lookup::<u64>("s", 1), Some(42));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
