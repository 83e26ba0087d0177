//! Binary wire format for [`Snapshot`] — the cross-process telemetry unit.
//!
//! Sharded sweeps run each worker in its own process, so worker-side
//! counters, gauges and histograms have to cross a process boundary to show
//! up in the merged `MESH_OBS_OUT` report. This module gives [`Snapshot`] a
//! versioned, checksummed binary encoding: a fixed header carrying magic,
//! version, payload length and an FNV-1a checksum, followed by a
//! length-prefixed payload.
//!
//! Decoding is paranoid by construction: every read is bounds-checked, a
//! version mismatch is reported as [`DecodeError::WrongVersion`] (so old and
//! new binaries can share a directory during a transition), and *any* other
//! inconsistency — bad magic, truncation, checksum mismatch, trailing
//! garbage, invalid UTF-8 — is [`DecodeError::Corrupt`]. A malformed file
//! can never panic the reader or yield a wrong snapshot: the checksum covers
//! the whole payload, so bit flips surface as errors, not silent skew.
//!
//! Files are published with the tmp + rename idiom so a reader (the fabric
//! parent) never observes a half-written snapshot.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use crate::{HistogramSnapshot, Snapshot, HISTOGRAM_BUCKETS};

/// File magic: "mesh obs snapshot".
const MAGIC: [u8; 4] = *b"MOBS";
/// Bump on any change to the payload encoding.
const VERSION: u16 = 1;
/// magic (4) + version (2) + reserved (2) + payload length (8) + FNV-1a
/// checksum of the payload (8).
const HEADER_LEN: usize = 24;

/// Why a byte buffer failed to decode as a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The header carried a different format version; the payload was not
    /// inspected. Treat as "foreign format", not corruption.
    WrongVersion(u16),
    /// Anything else: bad magic, truncation, checksum mismatch, trailing
    /// bytes, or a structurally invalid payload.
    Corrupt(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::WrongVersion(v) => {
                write!(f, "snapshot format version {v} (expected {VERSION})")
            }
            DecodeError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encodes a snapshot into a self-contained byte buffer (header + payload).
#[must_use]
pub fn encode(snap: &Snapshot) -> Vec<u8> {
    let mut p = Vec::with_capacity(256);
    p.extend_from_slice(&snap.fingerprint.to_le_bytes());
    p.extend_from_slice(&(snap.labels.len() as u32).to_le_bytes());
    for (k, v) in &snap.labels {
        put_str(&mut p, k);
        put_str(&mut p, v);
    }
    p.extend_from_slice(&(snap.counters.len() as u32).to_le_bytes());
    for (k, v) in &snap.counters {
        put_str(&mut p, k);
        p.extend_from_slice(&v.to_le_bytes());
    }
    p.extend_from_slice(&(snap.gauges.len() as u32).to_le_bytes());
    for (k, v) in &snap.gauges {
        put_str(&mut p, k);
        p.extend_from_slice(&v.to_le_bytes());
    }
    p.extend_from_slice(&(snap.histograms.len() as u32).to_le_bytes());
    for (k, h) in &snap.histograms {
        put_str(&mut p, k);
        p.extend_from_slice(&h.count.to_le_bytes());
        p.extend_from_slice(&h.sum.to_le_bytes());
        let nonzero = h.buckets.iter().filter(|&&b| b != 0).count() as u8;
        p.push(nonzero);
        for (i, &b) in h.buckets.iter().enumerate() {
            if b != 0 {
                p.push(i as u8);
                p.extend_from_slice(&b.to_le_bytes());
            }
        }
    }
    let mut out = Vec::with_capacity(HEADER_LEN + p.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&[0u8; 2]);
    out.extend_from_slice(&(p.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv64(&p).to_le_bytes());
    out.extend_from_slice(&p);
    out
}

/// Bounds-checked reader over the payload: every accessor returns
/// [`DecodeError::Corrupt`] instead of slicing out of range.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| DecodeError::Corrupt(format!("truncated at byte {}", self.pos)))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Length-prefixed UTF-8 string; the length is validated against the
    /// remaining buffer before allocation, so a corrupt length cannot OOM.
    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError::Corrupt("invalid utf-8 in name".to_string()))
    }

    /// Element-count prefix, sanity-capped by what could possibly fit in the
    /// remaining bytes (each element needs at least `min_elem_len` bytes).
    fn count(&mut self, min_elem_len: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_len) > remaining {
            return Err(DecodeError::Corrupt(format!(
                "count {n} exceeds remaining {remaining} bytes"
            )));
        }
        Ok(n)
    }
}

/// Decodes a buffer produced by [`encode`].
///
/// # Errors
///
/// [`DecodeError::WrongVersion`] if the header carries a different format
/// version; [`DecodeError::Corrupt`] for bad magic, truncation, checksum
/// mismatch, trailing bytes or an invalid payload. Never panics.
pub fn decode(bytes: &[u8]) -> Result<Snapshot, DecodeError> {
    let header = bytes
        .get(..HEADER_LEN)
        .ok_or_else(|| DecodeError::Corrupt("shorter than header".to_string()))?;
    if header[..4] != MAGIC {
        return Err(DecodeError::Corrupt("bad magic".to_string()));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2"));
    if version != VERSION {
        return Err(DecodeError::WrongVersion(version));
    }
    if header[6..8] != [0, 0] {
        // The reserved bytes are not covered by the payload checksum, so
        // rejecting nonzero values keeps "any flipped bit fails to decode"
        // true for the whole file.
        return Err(DecodeError::Corrupt("nonzero reserved bytes".to_string()));
    }
    let payload_len = u64::from_le_bytes(header[8..16].try_into().expect("8"));
    let payload = &bytes[HEADER_LEN..];
    if payload_len != payload.len() as u64 {
        return Err(DecodeError::Corrupt(format!(
            "payload length {} != declared {payload_len}",
            payload.len()
        )));
    }
    let checksum = u64::from_le_bytes(header[16..24].try_into().expect("8"));
    if fnv64(payload) != checksum {
        return Err(DecodeError::Corrupt("checksum mismatch".to_string()));
    }
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let fingerprint = c.u64()?;
    let mut labels = Vec::new();
    for _ in 0..c.count(8)? {
        let k = c.string()?;
        let v = c.string()?;
        labels.push((k, v));
    }
    let mut counters = Vec::new();
    for _ in 0..c.count(12)? {
        let k = c.string()?;
        counters.push((k, c.u64()?));
    }
    let mut gauges = Vec::new();
    for _ in 0..c.count(12)? {
        let k = c.string()?;
        gauges.push((k, c.u64()?));
    }
    let mut histograms = Vec::new();
    for _ in 0..c.count(21)? {
        let k = c.string()?;
        let count = c.u64()?;
        let sum = c.u64()?;
        let nonzero = c.u8()?;
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for _ in 0..nonzero {
            let idx = c.u8()? as usize;
            if idx >= HISTOGRAM_BUCKETS {
                return Err(DecodeError::Corrupt(format!(
                    "bucket index {idx} out of range"
                )));
            }
            buckets[idx] = c.u64()?;
        }
        histograms.push((
            k,
            HistogramSnapshot {
                count,
                sum,
                buckets,
            },
        ));
    }
    if c.pos != payload.len() {
        return Err(DecodeError::Corrupt(format!(
            "{} trailing bytes",
            payload.len() - c.pos
        )));
    }
    Ok(Snapshot {
        labels,
        counters,
        gauges,
        histograms,
        fingerprint,
    })
}

/// Writes `snap` to `path` atomically (tmp + rename), so a concurrent
/// reader sees either the previous complete snapshot or the new one.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_file(path: &Path, snap: &Snapshot) -> std::io::Result<()> {
    let bytes = encode(snap);
    let tmp = path.with_extension("obs.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.flush()?;
    }
    fs::rename(&tmp, path)
}

/// Reads and decodes a snapshot file written by [`write_file`].
///
/// # Errors
///
/// I/O errors are mapped to [`DecodeError::Corrupt`] (the caller cannot
/// distinguish a vanished file from a torn one — both mean "no usable
/// snapshot here"); decode failures pass through.
pub fn read_file(path: &Path) -> Result<Snapshot, DecodeError> {
    let bytes = fs::read(path)
        .map_err(|e| DecodeError::Corrupt(format!("read {}: {e}", path.display())))?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut h = HistogramSnapshot {
            count: 3,
            sum: 74,
            buckets: [0; HISTOGRAM_BUCKETS],
        };
        h.buckets[1] = 2;
        h.buckets[6] = 1;
        Snapshot {
            labels: vec![("run".to_string(), "fig4".to_string())],
            counters: vec![("a.b".to_string(), 7), ("z".to_string(), u64::MAX)],
            gauges: vec![("g".to_string(), 12)],
            histograms: vec![("h.ns".to_string(), h)],
            fingerprint: 0xDEAD_BEEF,
        }
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let snap = sample();
        let decoded = decode(&encode(&snap)).expect("round trip");
        assert_eq!(decoded.labels, snap.labels);
        assert_eq!(decoded.counters, snap.counters);
        assert_eq!(decoded.gauges, snap.gauges);
        assert_eq!(decoded.histograms, snap.histograms);
        assert_eq!(decoded.fingerprint, snap.fingerprint);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let decoded = decode(&encode(&Snapshot::default())).expect("round trip");
        assert_eq!(decoded, Snapshot::default());
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut bytes = encode(&sample());
        bytes[4] = 0xFF;
        assert_eq!(decode(&bytes), Err(DecodeError::WrongVersion(0x00FF)));
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = encode(&sample());
        for n in 0..bytes.len() {
            assert!(decode(&bytes[..n]).is_err(), "prefix of {n} bytes decoded");
        }
    }

    #[test]
    fn single_bit_flips_are_always_detected() {
        let snap = sample();
        let bytes = encode(&snap);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode(&bad).is_err(),
                    "flip at byte {byte} bit {bit} decoded anyway"
                );
            }
        }
    }

    #[test]
    fn file_round_trip_is_atomic_publish() {
        let dir = std::env::temp_dir().join(format!("mesh-obs-wire-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("shard-0.obs");
        write_file(&path, &sample()).expect("write");
        assert_eq!(read_file(&path).expect("read"), sample());
        assert!(
            !path.with_extension("obs.tmp").exists(),
            "tmp file left behind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
