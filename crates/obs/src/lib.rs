//! # mesh-obs — unified observability for the MESH reproduction
//!
//! A dependency-free, process-global registry of named [`Counter`]s,
//! [`Gauge`]s and log2-bucket [`Histogram`]s plus scoped wall-clock
//! [`Span`]s, with two exporters:
//!
//! * a Chrome-trace / Perfetto JSON timeline ([`chrome`]) written when
//!   [`TRACE_ENV`] (`MESH_OBS_TRACE`) names an output file — the paper's
//!   Figure-3 picture, one track per physical resource;
//! * a plain-text + JSON metrics snapshot with a run manifest ([`report`])
//!   written when [`OUT_ENV`] (`MESH_OBS_OUT`) names an output directory.
//!
//! ## Cost model: off by default, no-ops when off
//!
//! Observability is **off** unless asked for ([`OBS_ENV`], `MESH_OBS`), and
//! enabling it must never change simulated output — only add reporting.
//! The design keeps the instrumented hot paths honest about cost:
//!
//! * **Disabled:** every record method ([`Counter::add`],
//!   [`Histogram::record`], ...) starts with one relaxed atomic load of the
//!   global enabled flag and returns immediately — a predictable branch
//!   that inlines to a no-op, with no `Instant::now()` call, no allocation
//!   and no shared-cache-line traffic. [`span`] does not even read the
//!   clock.
//! * **Enabled:** record methods are a single relaxed atomic RMW on a
//!   leaked (`&'static`) cell — lock-free, no mutex on the hot path. The
//!   registry mutex is taken only when a handle is first looked up by name
//!   (cold, typically once per run).
//!
//! `perfsuite` measures the disabled-vs-enabled overhead in its `obs`
//! section, and CI gates the disabled mode within `PERF_SMOKE_FACTOR`.
//!
//! ## Example
//!
//! ```
//! mesh_obs::set_enabled(true);
//! let folded = mesh_obs::counter("example.penalties_folded");
//! folded.add(3);
//! let depth = mesh_obs::gauge("example.queue_depth");
//! depth.set_max(7);
//! let dist = mesh_obs::histogram("example.skip_distance");
//! dist.record(12);
//!
//! let snap = mesh_obs::snapshot();
//! assert_eq!(snap.counter("example.penalties_folded"), Some(3));
//! assert_eq!(snap.gauge("example.queue_depth"), Some(7));
//! assert!(snap.to_text().contains("example.skip_distance"));
//! # mesh_obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod flightrec;
pub mod report;
pub mod wire;

pub use report::finish;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Environment variable switching observability on (`1`/`on`/`true`/`yes`)
/// or off (`0`/`off`/`false`/`no`/empty). Unset defaults to **off**, unless
/// [`TRACE_ENV`] or [`OUT_ENV`] asks for an exporter (an export request is
/// an implicit opt-in). An explicit `MESH_OBS=off` wins over both. The
/// experiment binaries reject any other value at start-up.
pub const OBS_ENV: &str = "MESH_OBS";

/// Environment variable naming the Chrome-trace JSON output file. Setting
/// it implies `MESH_OBS=on` (unless explicitly off) and enables timeline
/// collection; the file is written by [`finish`].
pub const TRACE_ENV: &str = "MESH_OBS_TRACE";

/// Environment variable naming the metrics-snapshot output directory.
/// Setting it implies `MESH_OBS=on` (unless explicitly off); [`finish`]
/// writes `metrics.txt`, `metrics.json` and `manifest.json` there.
pub const OUT_ENV: &str = "MESH_OBS_OUT";

/// The values that switch an on/off knob off, matched after trimming and
/// ASCII-lowercasing.
const OFF_VALUES: [&str; 5] = ["", "0", "off", "false", "no"];

/// Whether a knob value means "off": empty, `0`, `off`, `false` or `no`,
/// after trimming and in any case. This is how [`OBS_ENV`] and
/// `MESH_OBS_FLIGHTREC` read "off".
///
/// # Examples
///
/// ```
/// assert!(mesh_obs::is_off(" OFF "));
/// assert!(mesh_obs::is_off("no"));
/// assert!(!mesh_obs::is_off("1"));
/// ```
pub fn is_off(value: &str) -> bool {
    OFF_VALUES.contains(&value.trim().to_ascii_lowercase().as_str())
}

fn env_nonempty(name: &str) -> bool {
    std::env::var_os(name).is_some_and(|v| !v.is_empty())
}

fn enabled_from_env() -> bool {
    match std::env::var(OBS_ENV) {
        Ok(v) => !is_off(&v),
        Err(_) => env_nonempty(TRACE_ENV) || env_nonempty(OUT_ENV),
    }
}

fn enabled_flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| AtomicBool::new(enabled_from_env()))
}

/// Whether observability is currently on — one relaxed atomic load.
///
/// All record methods check this themselves; call it directly only to skip
/// whole instrumentation blocks (building label strings, reading clocks).
#[inline]
pub fn enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Overrides the environment-derived enabled state, for tests and for
/// `perfsuite`'s disabled-vs-enabled overhead measurement.
pub fn set_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}

/// The instant the registry was first touched, the zero point of every
/// host-side (wall-clock) timeline timestamp.
pub(crate) fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Number of log2 buckets in a [`Histogram`] (covers the full `u64` range).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Shared histogram storage: one atomic cell per log2 bucket plus running
/// count and sum.
struct Histo {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histo {
    fn new() -> Histo {
        Histo {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

enum Slot {
    Counter(&'static AtomicU64),
    Gauge(&'static AtomicU64),
    Histogram(&'static Histo),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

struct Registry {
    slots: BTreeMap<String, Slot>,
    labels: BTreeMap<String, String>,
    fingerprint: u64,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            slots: BTreeMap::new(),
            labels: BTreeMap::new(),
            fingerprint: 0,
        })
    })
}

fn register_slot<T: Copy>(
    name: &str,
    make: impl FnOnce() -> Slot,
    pick: impl Fn(&Slot) -> Option<T>,
) -> T {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let slot = reg.slots.entry(name.to_string()).or_insert_with(make);
    match pick(slot) {
        Some(handle) => handle,
        None => panic!(
            "mesh-obs: metric '{name}' already registered as a {}",
            slot.kind()
        ),
    }
}

/// A monotonically increasing event count. Cheap to copy; holds a
/// `&'static` cell, so handles can be cached in hot structs.
#[derive(Clone, Copy)]
pub struct Counter(&'static AtomicU64);

impl Counter {
    /// Adds `n` when observability is enabled; a no-op otherwise.
    #[inline]
    pub fn add(self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one (see [`add`](Self::add)).
    #[inline]
    pub fn inc(self) {
        self.add(1);
    }

    /// The current value.
    pub fn value(self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-written (or maximum-observed) value.
#[derive(Clone, Copy)]
pub struct Gauge(&'static AtomicU64);

impl Gauge {
    /// Stores `v` when observability is enabled; a no-op otherwise.
    #[inline]
    pub fn set(self, v: u64) {
        if enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn set_max(self, v: u64) {
        if enabled() {
            self.0.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn value(self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucket histogram over `u64` values.
///
/// Bucket 0 counts zeros; bucket `b ≥ 1` counts values in
/// `[2^(b-1), 2^b - 1]`. Running count and sum are kept alongside, so a
/// snapshot can report a mean without walking the buckets.
#[derive(Clone, Copy)]
pub struct Histogram(&'static Histo);

/// The log2 bucket index a value lands in.
///
/// ```
/// assert_eq!(mesh_obs::bucket_index(0), 0);
/// assert_eq!(mesh_obs::bucket_index(1), 1);
/// assert_eq!(mesh_obs::bucket_index(2), 2);
/// assert_eq!(mesh_obs::bucket_index(3), 2);
/// assert_eq!(mesh_obs::bucket_index(1024), 11);
/// ```
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (HISTOGRAM_BUCKETS as u32 - value.leading_zeros()) as usize
    }
}

/// The smallest value landing in bucket `index` (inclusive lower bound).
pub fn bucket_lo(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

impl Histogram {
    /// Records one value when observability is enabled; a no-op otherwise.
    #[inline]
    pub fn record(self, value: u64) {
        if enabled() {
            self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            self.0.count.fetch_add(1, Ordering::Relaxed);
            self.0.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// Merges locally accumulated buckets in one pass — the flush half of
    /// the "accumulate in plain integers, publish once per run" pattern the
    /// simulation engines use to keep atomics off their inner loops.
    pub fn merge(self, buckets: &[u64; HISTOGRAM_BUCKETS], count: u64, sum: u64) {
        if !enabled() || count == 0 {
            return;
        }
        for (cell, &n) in self.0.buckets.iter().zip(buckets) {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.0.count.fetch_add(count, Ordering::Relaxed);
        self.0.sum.fetch_add(sum, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram's contents.
    pub fn read(self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total values recorded.
    pub count: u64,
    /// Sum of all recorded values (wrapping on overflow).
    pub sum: u64,
    /// Per-bucket counts; see [`bucket_lo`] for bucket boundaries.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Mean recorded value; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty buckets as `(bucket index, count)` pairs.
    pub fn nonzero(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect()
    }
}

/// Looks up (registering on first use) the counter named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> Counter {
    Counter(register_slot(
        name,
        || Slot::Counter(Box::leak(Box::new(AtomicU64::new(0)))),
        |slot| match slot {
            Slot::Counter(cell) => Some(*cell),
            _ => None,
        },
    ))
}

/// Looks up (registering on first use) the gauge named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn gauge(name: &str) -> Gauge {
    Gauge(register_slot(
        name,
        || Slot::Gauge(Box::leak(Box::new(AtomicU64::new(0)))),
        |slot| match slot {
            Slot::Gauge(cell) => Some(*cell),
            _ => None,
        },
    ))
}

/// Looks up (registering on first use) the histogram named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn histogram(name: &str) -> Histogram {
    Histogram(register_slot(
        name,
        || Slot::Histogram(Box::leak(Box::new(Histo::new()))),
        |slot| match slot {
            Slot::Histogram(cell) => Some(*cell),
            _ => None,
        },
    ))
}

/// Attaches a `key = value` label to the run, reported in the snapshot and
/// the manifest (e.g. the binary name, a scenario id). Last write wins.
pub fn set_label(key: &str, value: impl Into<String>) {
    if !enabled() {
        return;
    }
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.labels.insert(key.to_string(), value.into());
}

/// Folds `bits` into the run's workload fingerprint (XOR, so the result is
/// independent of evaluation order across sweep workers). The cyclesim
/// trace pipeline feeds its content-hash keys here; the manifest reports
/// the folded value.
pub fn merge_fingerprint(bits: u64) {
    if !enabled() || bits == 0 {
        return;
    }
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.fingerprint ^= bits;
}

/// The current workload fingerprint (zero when nothing was folded).
pub fn fingerprint() -> u64 {
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .fingerprint
}

/// Zeroes every registered metric and clears labels, the fingerprint and
/// any collected timeline events. Handles stay valid. For tests and for
/// back-to-back measurement passes (`perfsuite`).
pub fn reset() {
    {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        for slot in reg.slots.values() {
            match slot {
                Slot::Counter(cell) | Slot::Gauge(cell) => cell.store(0, Ordering::Relaxed),
                Slot::Histogram(h) => {
                    for b in &h.buckets {
                        b.store(0, Ordering::Relaxed);
                    }
                    h.count.store(0, Ordering::Relaxed);
                    h.sum.store(0, Ordering::Relaxed);
                }
            }
        }
        reg.labels.clear();
        reg.fingerprint = 0;
    }
    chrome::clear();
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Run labels set via [`set_label`].
    pub labels: Vec<(String, String)>,
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, u64)>,
    /// Histogram contents.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Workload fingerprint (see [`merge_fingerprint`]).
    pub fingerprint: u64,
}

impl Snapshot {
    /// The value of a counter by name, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The value of a gauge by name, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// A histogram's contents by name, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Folds `other` into `self` — the cross-process aggregation step.
    ///
    /// Counters **sum** (wrapping, like the underlying atomics), gauges
    /// take the **max** (they are high-water marks), histograms fold
    /// bucket-wise with count/sum added (the same semantics as
    /// [`Histogram::merge`]), and fingerprints **xor** (order-independent,
    /// so any merge order yields the same value). Labels union with `self`
    /// winning on conflicts — per-shard provenance belongs in the manifest,
    /// not in colliding label values. The result's entries stay sorted by
    /// name, so merging is associative and commutative up to labels.
    pub fn merge(&mut self, other: &Snapshot) {
        let mut labels: BTreeMap<String, String> = other.labels.iter().cloned().collect();
        for (k, v) in std::mem::take(&mut self.labels) {
            labels.insert(k, v);
        }
        self.labels = labels.into_iter().collect();

        let mut counters: BTreeMap<String, u64> =
            std::mem::take(&mut self.counters).into_iter().collect();
        for (k, v) in &other.counters {
            let e = counters.entry(k.clone()).or_insert(0);
            *e = e.wrapping_add(*v);
        }
        self.counters = counters.into_iter().collect();

        let mut gauges: BTreeMap<String, u64> =
            std::mem::take(&mut self.gauges).into_iter().collect();
        for (k, v) in &other.gauges {
            let e = gauges.entry(k.clone()).or_insert(0);
            *e = (*e).max(*v);
        }
        self.gauges = gauges.into_iter().collect();

        let mut histograms: BTreeMap<String, HistogramSnapshot> =
            std::mem::take(&mut self.histograms).into_iter().collect();
        for (k, h) in &other.histograms {
            let e = histograms.entry(k.clone()).or_default();
            e.count = e.count.wrapping_add(h.count);
            e.sum = e.sum.wrapping_add(h.sum);
            for (dst, src) in e.buckets.iter_mut().zip(h.buckets.iter()) {
                *dst = dst.wrapping_add(*src);
            }
        }
        self.histograms = histograms.into_iter().collect();

        self.fingerprint ^= other.fingerprint;
    }

    /// Renders the snapshot as aligned plain text, one metric per line.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("# mesh-obs metrics snapshot\n");
        for (k, v) in &self.labels {
            let _ = writeln!(out, "label     {k} = {v}");
        }
        if self.fingerprint != 0 {
            let _ = writeln!(
                out,
                "label     workload_fingerprint = {:016x}",
                self.fingerprint
            );
        }
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter   {name} = {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge     {name} = {v}");
        }
        for (name, h) in &self.histograms {
            let buckets = h
                .nonzero()
                .iter()
                .map(|(i, n)| format!("{}+:{n}", bucket_lo(*i)))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                out,
                "histogram {name} count={} sum={} mean={:.1} [{buckets}]",
                h.count,
                h.sum,
                h.mean()
            );
        }
        out
    }

    /// Renders the snapshot as a JSON object (hand-rolled; metric names are
    /// plain identifiers, label values are string-escaped).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n  \"labels\": {");
        let mut first = true;
        for (k, v) in &self.labels {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": \"{}\"", json_escape(k), json_escape(v));
        }
        if self.fingerprint != 0 {
            if !first {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    \"workload_fingerprint\": \"{:016x}\"",
                self.fingerprint
            );
        }
        out.push_str("\n  },\n  \"counters\": {");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {v}", json_escape(name));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        let mut first = true;
        for (name, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {v}", json_escape(name));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        let mut first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let buckets = h
                .nonzero()
                .iter()
                .map(|(i, n)| format!("[{i},{n}]"))
                .collect::<Vec<_>>()
                .join(",");
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [{buckets}]}}",
                json_escape(name),
                h.count,
                h.sum
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Takes a point-in-time [`Snapshot`] of every registered metric.
pub fn snapshot() -> Snapshot {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut snap = Snapshot {
        labels: reg
            .labels
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
        fingerprint: reg.fingerprint,
        ..Snapshot::default()
    };
    for (name, slot) in &reg.slots {
        match slot {
            Slot::Counter(cell) => snap
                .counters
                .push((name.clone(), cell.load(Ordering::Relaxed))),
            Slot::Gauge(cell) => snap
                .gauges
                .push((name.clone(), cell.load(Ordering::Relaxed))),
            Slot::Histogram(h) => snap.histograms.push((
                name.clone(),
                HistogramSnapshot {
                    count: h.count.load(Ordering::Relaxed),
                    sum: h.sum.load(Ordering::Relaxed),
                    buckets: std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed)),
                },
            )),
        }
    }
    snap
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A scoped wall-clock measurement: created by [`span`], it records its
/// elapsed nanoseconds into the named histogram on drop, and — when the
/// timeline is collecting — emits a matching slice on the host track.
///
/// When observability is disabled the constructor does not read the clock
/// and the drop is a no-op.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    active: Option<SpanActive>,
}

struct SpanActive {
    histo: Histogram,
    label: String,
    start: Instant,
}

/// Starts a [`Span`] recording into histogram `name` (nanoseconds), using
/// `name` as the timeline slice label too.
pub fn span(name: &str) -> Span {
    span_labeled(name, name)
}

/// Starts a [`Span`] recording into histogram `name`, with a distinct
/// timeline label (e.g. `"sweep.point"` vs `"fig5[3]"`).
///
/// The label is only materialized when observability is enabled; pass
/// `&format!(...)` results through [`enabled`]-guarded code when the label
/// itself is costly to build.
pub fn span_labeled(name: &str, label: impl Into<String>) -> Span {
    if !enabled() {
        return Span { active: None };
    }
    // Pin the epoch before the start instant so offsets are never negative.
    process_epoch();
    let label = label.into();
    if flightrec::enabled() {
        flightrec::event(flightrec::EventKind::SpanOpen, &label, 0, 0);
    }
    Span {
        active: Some(SpanActive {
            histo: histogram(name),
            label,
            start: Instant::now(),
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let elapsed = active.start.elapsed();
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        active.histo.record(ns);
        if flightrec::enabled() {
            flightrec::event(flightrec::EventKind::SpanClose, &active.label, ns, 0);
        }
        if chrome::timeline_enabled() {
            let ts_us = active.start.duration_since(process_epoch()).as_secs_f64() * 1e6;
            chrome::host_slice(active.label, "span", ts_us, elapsed.as_secs_f64() * 1e6);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests in this crate share the process-global registry; serialize the
    /// ones that toggle the enabled flag or reset values.
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _gate = lock();
        set_enabled(false);
        let c = counter("test.disabled_counter");
        let g = gauge("test.disabled_gauge");
        let h = histogram("test.disabled_histo");
        c.add(5);
        g.set(9);
        g.set_max(9);
        h.record(100);
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0);
        assert_eq!(h.read().count, 0);
    }

    #[test]
    fn enabled_counts_and_buckets() {
        let _gate = lock();
        set_enabled(true);
        let c = counter("test.enabled_counter");
        let start = c.value();
        c.inc();
        c.add(4);
        assert_eq!(c.value(), start + 5);

        let h = histogram("test.enabled_histo");
        let before = h.read();
        h.record(0);
        h.record(1);
        h.record(6);
        h.record(6);
        let after = h.read();
        assert_eq!(after.count - before.count, 4);
        assert_eq!(after.sum - before.sum, 13);
        assert_eq!(after.buckets[0] - before.buckets[0], 1);
        assert_eq!(after.buckets[1] - before.buckets[1], 1);
        assert_eq!(after.buckets[3] - before.buckets[3], 2, "6 lands in [4,7]");
        set_enabled(false);
    }

    #[test]
    fn merge_matches_individual_records() {
        let _gate = lock();
        set_enabled(true);
        let a = histogram("test.merge_a");
        let b = histogram("test.merge_b");
        let values = [0u64, 3, 3, 17, 1 << 40];
        let mut local = [0u64; HISTOGRAM_BUCKETS];
        let mut sum = 0u64;
        for &v in &values {
            a.record(v);
            local[bucket_index(v)] += 1;
            sum += v;
        }
        b.merge(&local, values.len() as u64, sum);
        assert_eq!(a.read(), b.read());
        set_enabled(false);
    }

    #[test]
    fn handles_are_stable_and_kinds_checked() {
        let _gate = lock();
        set_enabled(true);
        let c1 = counter("test.stable");
        let c2 = counter("test.stable");
        c1.inc();
        assert_eq!(c2.value(), c1.value());
        let result = std::panic::catch_unwind(|| gauge("test.stable"));
        assert!(result.is_err(), "kind mismatch must panic");
        set_enabled(false);
    }

    #[test]
    fn snapshot_lookup_and_render() {
        let _gate = lock();
        set_enabled(true);
        counter("test.snap_counter").add(7);
        gauge("test.snap_gauge").set_max(3);
        histogram("test.snap_histo").record(9);
        set_label("test_label", "value with \"quotes\"");
        let snap = snapshot();
        assert!(snap.counter("test.snap_counter").unwrap() >= 7);
        assert_eq!(snap.gauge("test.snap_gauge"), Some(3));
        assert!(snap.histogram("test.snap_histo").unwrap().count >= 1);
        assert_eq!(snap.counter("test.no_such"), None);
        let text = snap.to_text();
        assert!(text.contains("counter   test.snap_counter"));
        let json = snap.to_json();
        assert!(json.contains("\"test.snap_counter\""));
        assert!(json.contains("value with \\\"quotes\\\""));
        set_enabled(false);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let _gate = lock();
        set_enabled(true);
        let c = counter("test.reset_counter");
        c.add(11);
        merge_fingerprint(0xdead_beef);
        reset();
        assert_eq!(c.value(), 0);
        assert_eq!(fingerprint(), 0);
        c.inc();
        assert_eq!(c.value(), 1);
        set_enabled(false);
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let _gate = lock();
        set_enabled(true);
        reset();
        merge_fingerprint(0x1111);
        merge_fingerprint(0x2222);
        let forward = fingerprint();
        reset();
        merge_fingerprint(0x2222);
        merge_fingerprint(0x1111);
        assert_eq!(fingerprint(), forward);
        reset();
        set_enabled(false);
    }

    #[test]
    fn span_records_into_histogram() {
        let _gate = lock();
        set_enabled(true);
        let before = histogram("test.span_ns").read().count;
        {
            let _s = span("test.span_ns");
            std::hint::black_box(0u64);
        }
        assert_eq!(histogram("test.span_ns").read().count, before + 1);
        set_enabled(false);
        let inert = span("test.span_ns");
        drop(inert);
        assert_eq!(histogram("test.span_ns").read().count, before + 1);
    }
}
