//! Flight recorder — a fixed-size, lock-free ring of recent structured
//! events, dumped as JSON on panic or on supervisor-observed worker death.
//!
//! The metrics registry answers "how much happened"; the flight recorder
//! answers "what happened *last*". Each process keeps the most recent
//! [`RING_LEN`] events (grants, commits, retries, incidents, span
//! open/close, sweep points, memo replays) in a preallocated ring of atomic
//! slots. Recording is wait-free for writers — one `fetch_add` to claim a
//! slot plus a seqlock-style publish — and never allocates after the label
//! has been interned, so it is safe to call from panic paths and hot loops
//! alike.
//!
//! The ring is dumped with [`write_file`] (tmp + rename) either by the
//! process itself — [`install_panic_dump`] chains a panic hook — or
//! externally prompted: sharded workers rewrite their `flightrec-<shard>`
//! file at every telemetry flush, so even a SIGKILLed worker leaves a
//! recent black box for the fabric parent to attach to the `PointFailure`.
//!
//! Gated by [`FLIGHTREC_ENV`] (`MESH_OBS_FLIGHTREC`), *independent* of the
//! main `MESH_OBS` switch: a production sweep can fly with the recorder on
//! and metrics off, paying only the ring writes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json_escape;

/// Environment variable switching the flight recorder on (`1`/`on`/`true`)
/// or off. Unset defaults to **off**.
pub const FLIGHTREC_ENV: &str = "MESH_OBS_FLIGHTREC";

/// Ring capacity: the last this many events survive. Power of two so the
/// claim counter wraps cleanly.
pub const RING_LEN: usize = 512;

/// Interned-label table cap; labels past it collapse to `"<overflow>"`.
const MAX_LABELS: usize = 1024;

/// What kind of moment an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// A cyclesim shared-resource grant batch was folded into the run.
    Grant,
    /// The kernel committed a region (thread index in `a`, cycles in `b`).
    Commit,
    /// A sweep point panicked and is being retried.
    Retry,
    /// The kernel recorded a numerical-fault incident.
    Incident,
    /// A wall-clock span opened.
    SpanOpen,
    /// A wall-clock span closed (duration ns in `a`).
    SpanClose,
    /// A sweep point was evaluated and recorded.
    Point,
    /// A memoized scenario result was replayed instead of re-evaluated.
    MemoReplay,
}

impl EventKind {
    fn code(self) -> u64 {
        match self {
            EventKind::Grant => 1,
            EventKind::Commit => 2,
            EventKind::Retry => 3,
            EventKind::Incident => 4,
            EventKind::SpanOpen => 5,
            EventKind::SpanClose => 6,
            EventKind::Point => 7,
            EventKind::MemoReplay => 8,
        }
    }

    fn from_code(code: u64) -> Option<EventKind> {
        Some(match code {
            1 => EventKind::Grant,
            2 => EventKind::Commit,
            3 => EventKind::Retry,
            4 => EventKind::Incident,
            5 => EventKind::SpanOpen,
            6 => EventKind::SpanClose,
            7 => EventKind::Point,
            8 => EventKind::MemoReplay,
            _ => return None,
        })
    }

    /// Stable lowercase name used in the JSON dump.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Grant => "grant",
            EventKind::Commit => "commit",
            EventKind::Retry => "retry",
            EventKind::Incident => "incident",
            EventKind::SpanOpen => "span_open",
            EventKind::SpanClose => "span_close",
            EventKind::Point => "point",
            EventKind::MemoReplay => "memo_replay",
        }
    }
}

/// One ring slot: a seqlock cell. `seq` is 0 while a write is in flight and
/// `claim + 1` (unique per slot occupancy, monotonically increasing) once
/// published; readers that observe a changed or zero `seq` discard the slot.
#[derive(Default)]
struct SlotCell {
    seq: AtomicU64,
    kind: AtomicU64,
    label: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    t_ns: AtomicU64,
}

struct Ring {
    head: AtomicU64,
    slots: Vec<SlotCell>,
    labels: Mutex<Vec<String>>,
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring {
        head: AtomicU64::new(0),
        slots: (0..RING_LEN).map(|_| SlotCell::default()).collect(),
        labels: Mutex::new(Vec::new()),
    })
}

fn enabled_from_env() -> bool {
    match std::env::var(FLIGHTREC_ENV) {
        Ok(v) => !crate::is_off(&v),
        Err(_) => false,
    }
}

fn enabled_flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| AtomicBool::new(enabled_from_env()))
}

/// Whether the flight recorder is on — one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Overrides the environment-derived enabled state (tests, perfsuite).
pub fn set_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}

/// Interns `label`, returning a stable id. Labels are expected to be
/// low-cardinality (site names, sweep labels); past [`MAX_LABELS`] distinct
/// strings everything collapses into one overflow bucket rather than
/// growing without bound.
fn intern(label: &str) -> u64 {
    let mut table = ring().labels.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(i) = table.iter().position(|l| l == label) {
        return i as u64;
    }
    if table.len() >= MAX_LABELS {
        return MAX_LABELS as u64;
    }
    table.push(label.to_string());
    (table.len() - 1) as u64
}

/// Records one event into the ring. Cheap and wait-free once `label` has
/// been interned; a no-op (single relaxed load) while the recorder is off.
pub fn event(kind: EventKind, label: &str, a: u64, b: u64) {
    if !enabled() {
        return;
    }
    let r = ring();
    let label_id = intern(label);
    let t_ns = u64::try_from(crate::process_epoch().elapsed().as_nanos()).unwrap_or(u64::MAX);
    let claim = r.head.fetch_add(1, Ordering::SeqCst);
    let slot = &r.slots[(claim as usize) % RING_LEN];
    slot.seq.store(0, Ordering::SeqCst);
    slot.kind.store(kind.code(), Ordering::SeqCst);
    slot.label.store(label_id, Ordering::SeqCst);
    slot.a.store(a, Ordering::SeqCst);
    slot.b.store(b, Ordering::SeqCst);
    slot.t_ns.store(t_ns, Ordering::SeqCst);
    slot.seq.store(claim + 1, Ordering::SeqCst);
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global sequence number (1-based, monotonically increasing).
    pub seq: u64,
    /// Nanoseconds since the process epoch.
    pub t_ns: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Site label (empty if the intern table overflowed).
    pub label: String,
    /// Kind-specific payload.
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
}

/// Snapshots the ring: the surviving events, oldest first. Torn slots
/// (a write racing this read) are skipped, never misread.
#[must_use]
pub fn dump() -> Vec<FlightEvent> {
    let r = ring();
    let labels = r.labels.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let mut out = Vec::new();
    for slot in &r.slots {
        let s1 = slot.seq.load(Ordering::SeqCst);
        if s1 == 0 {
            continue;
        }
        let kind = slot.kind.load(Ordering::SeqCst);
        let label_id = slot.label.load(Ordering::SeqCst);
        let a = slot.a.load(Ordering::SeqCst);
        let b = slot.b.load(Ordering::SeqCst);
        let t_ns = slot.t_ns.load(Ordering::SeqCst);
        if slot.seq.load(Ordering::SeqCst) != s1 {
            continue; // torn: a writer got in between
        }
        let Some(kind) = EventKind::from_code(kind) else {
            continue;
        };
        let label = labels
            .get(label_id as usize)
            .cloned()
            .unwrap_or_else(|| "<overflow>".to_string());
        out.push(FlightEvent {
            seq: s1,
            t_ns,
            kind,
            label,
            a,
            b,
        });
    }
    out.sort_by_key(|e| e.seq);
    out
}

/// Resets the ring and the intern table (tests only — racing writers may
/// interleave with the reset).
pub fn clear() {
    let r = ring();
    r.head.store(0, Ordering::SeqCst);
    for slot in &r.slots {
        slot.seq.store(0, Ordering::SeqCst);
    }
    r.labels.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Renders the current ring contents as a self-describing JSON document.
#[must_use]
pub fn to_json() -> String {
    let events = dump();
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"version\":1,\"pid\":");
    out.push_str(&std::process::id().to_string());
    out.push_str(",\"ring_len\":");
    out.push_str(&RING_LEN.to_string());
    out.push_str(",\"events\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"seq\":{},\"t_ns\":{},\"kind\":\"{}\",\"label\":\"{}\",\"a\":{},\"b\":{}}}",
            e.seq,
            e.t_ns,
            e.kind.name(),
            json_escape(&e.label),
            e.a,
            e.b
        ));
    }
    out.push_str("]}\n");
    out
}

/// Writes the ring to `path` atomically (tmp + rename), so the fabric
/// parent reading a dead worker's file sees a complete document.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_file(path: &Path) -> std::io::Result<()> {
    use std::io::Write as _;
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(to_json().as_bytes())?;
        f.flush()?;
    }
    std::fs::rename(&tmp, path)
}

/// Installs a panic hook that dumps the ring to `path` before delegating to
/// the previously installed hook, so a panicking worker leaves its black
/// box even when the supervisor only sees the corpse.
pub fn install_panic_dump(path: PathBuf) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let _ = write_file(&path);
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes flight-recorder tests: the ring is process-global.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn records_and_dumps_in_order() {
        let _g = lock();
        clear();
        set_enabled(true);
        event(EventKind::Retry, "demo", 3, 1);
        event(EventKind::Incident, "clamped", 7, 0);
        set_enabled(false);
        let events = dump();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Retry);
        assert_eq!(events[0].label, "demo");
        assert_eq!((events[0].a, events[0].b), (3, 1));
        assert_eq!(events[1].kind, EventKind::Incident);
        assert!(events[0].seq < events[1].seq);
    }

    #[test]
    fn disabled_is_a_no_op() {
        let _g = lock();
        clear();
        set_enabled(false);
        event(EventKind::Commit, "x", 1, 2);
        assert!(dump().is_empty());
    }

    #[test]
    fn ring_keeps_only_the_most_recent() {
        let _g = lock();
        clear();
        set_enabled(true);
        for i in 0..(RING_LEN as u64 + 40) {
            event(EventKind::Point, "p", i, 0);
        }
        set_enabled(false);
        let events = dump();
        assert_eq!(events.len(), RING_LEN);
        // The oldest surviving event is exactly the 41st recorded.
        assert_eq!(events.first().map(|e| e.a), Some(40));
        assert_eq!(events.last().map(|e| e.a), Some(RING_LEN as u64 + 39));
    }

    #[test]
    fn json_dump_round_trips_through_file() {
        let _g = lock();
        clear();
        set_enabled(true);
        event(EventKind::MemoReplay, "result \"cache\"", 11, 22);
        set_enabled(false);
        let dir = std::env::temp_dir().join(format!("mesh-flightrec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("flightrec-0.json");
        write_file(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.contains("\"kind\":\"memo_replay\""));
        assert!(text.contains("result \\\"cache\\\""));
        assert!(text.contains("\"a\":11"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
