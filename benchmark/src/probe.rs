//! The traced probe: one serial, in-process replay of a workload's
//! evaluation points, with a span around every public layer call.
//!
//! For each group of points (one paper binary, or the whole knob sweep) the
//! probe runs three steps, each starting from cold in-process caches as a
//! fresh process would:
//!
//! 1. **reference** — `mesh_bench::compare` on every point, untraced;
//! 2. **traced** — the same computation rebuilt from the layers' public
//!    calls, each wrapped in a span: workload generation, fingerprinting,
//!    trace compilation and consumption, annotation, kernel build and run
//!    (with the contention model timed by [`TimedModel`]) and the analytical
//!    estimate. Sharing follows `compare`'s memo keys: one reference run per
//!    scenario, one analytical estimate per scenario and policy. Every
//!    point's ISS, MESH and analytical percentages must equal step 1's bit
//!    for bit, which proves the spans time the computation the program does;
//! 3. **memo** — `compare` again against a populated result cache with the
//!    in-process cache cleared: the replay path of a warm run.
//!
//! Spans are kept in memory and written at the end as a Chrome trace. The
//! probe's own overhead is estimated from the measured cost of one span and
//! one timed model call times their counts: on a shared two-vCPU host the
//! difference between a traced and an untraced pass is noise several times
//! larger than the instrumentation.

use crate::knob::{self, PointSet, Scenario};
use mesh_annotate::{assemble, AnnotationPolicy};
use mesh_bench::{compare, memo, ComparisonPoint, HybridOptions};
use mesh_core::model::{ContentionModel, Slice, SliceRequest};
use mesh_core::SimTime;
use mesh_cyclesim::{Pacing, SimOptions, TraceMode};
use mesh_models::{AnalyticalEstimator, ChenLinBus, ThreadProfile};
use mesh_workloads::Workload;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub label: String,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// In-memory span recorder. Spans nest through an explicit stack; the probe
/// is serial, so children never overlap.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str, label: impl Into<String>) -> usize {
        let id = self.spans.len();
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            label: label.into(),
            parent: self.stack.last().copied(),
            start: now,
            end: now,
            args: Vec::new(),
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, "");
        let value = f();
        self.exit(id);
        value
    }

    pub fn annotate(&mut self, id: usize, key: &'static str, value: f64) {
        self.spans[id].args.push((key, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the time its children
    /// cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration());
            }
        }
        own
    }

    /// Total self time per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, Duration> {
        let mut by_name = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *by_name.entry(span.name).or_default() += own;
        }
        by_name
    }

    /// The spans as a Chrome trace (Perfetto opens it): one complete event
    /// per span, timestamps in microseconds.
    pub fn chrome_trace(&self) -> String {
        use crate::report::Json;
        let us = |d: Duration| Json::Num(d.as_nanos() as f64 / 1000.0);
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args: Vec<(String, Json)> = s
                    .args
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Json::Num(v)))
                    .collect();
                if !s.label.is_empty() {
                    args.push(("label".to_string(), Json::str(s.label.clone())));
                }
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", us(s.start)),
                    ("dur", us(s.duration())),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
        .to_string()
    }
}

// ---------------------------------------------------------------------------
// The contention-model timing wrapper.
// ---------------------------------------------------------------------------

/// Time and call counts accumulated by a [`TimedModel`].
#[derive(Debug, Default)]
pub struct ModelClock {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl ModelClock {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        // Statistics only: nothing else is published through these.
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        value
    }

    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// Delegates every [`ContentionModel`] method to `inner`, timing the
/// per-slice evaluations (`penalties` and `worst_case`).
#[derive(Debug)]
pub struct TimedModel<M> {
    inner: M,
    clock: Arc<ModelClock>,
}

impl<M> TimedModel<M> {
    pub fn new(inner: M, clock: Arc<ModelClock>) -> TimedModel<M> {
        TimedModel { inner, clock }
    }
}

impl<M: ContentionModel> ContentionModel for TimedModel<M> {
    fn penalties(&self, slice: &Slice, requests: &[SliceRequest]) -> Vec<SimTime> {
        self.clock.time(|| self.inner.penalties(slice, requests))
    }

    fn worst_case(&self, slice: &Slice, requests: &[SliceRequest]) -> Vec<SimTime> {
        self.clock.time(|| self.inner.worst_case(slice, requests))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn digest_words(&self) -> Vec<u64> {
        self.inner.digest_words()
    }
}

// ---------------------------------------------------------------------------
// Point sets.
// ---------------------------------------------------------------------------

/// A group of points evaluated as one paper binary (or the knob sweep)
/// would: in-process caches start cold at the group's start.
#[derive(Clone, Debug)]
pub struct Group {
    pub name: &'static str,
    pub set: PointSet,
}

/// Figure 6's scenario seeds (`crates/bench/src/bin/fig6.rs`).
const FIG6_SEEDS: [u64; 3] = [0xC0FFEE, 0xBEEF, 0xF00D];
/// Figure 5's idle fraction and seed.
const FIG5_IDLE: f64 = 0.90;

fn one_scenario_per_point(points: Vec<(Scenario, HybridOptions)>) -> PointSet {
    let (scenarios, options): (Vec<Scenario>, Vec<HybridOptions>) = points.into_iter().unzip();
    PointSet {
        points: options.into_iter().enumerate().collect(),
        scenarios,
    }
}

fn fft_group(name: &'static str, procs_major: bool) -> Group {
    let options = HybridOptions {
        policy: AnnotationPolicy::AtBarriers,
        min_timeslice: 0.0,
    };
    let mut points = Vec::new();
    if procs_major {
        for procs in mesh_bench::FFT_PROC_SWEEP {
            for (cache, _) in mesh_bench::FFT_CACHES {
                points.push((procs, cache));
            }
        }
    } else {
        for (cache, _) in mesh_bench::FFT_CACHES {
            for procs in mesh_bench::FFT_PROC_SWEEP {
                points.push((procs, cache));
            }
        }
    }
    Group {
        name,
        set: one_scenario_per_point(
            points
                .into_iter()
                .map(|(procs, cache)| {
                    (
                        Scenario::fft(procs, cache, mesh_bench::FFT_BUS_DELAY),
                        options,
                    )
                })
                .collect(),
        ),
    }
}

/// The evaluation points of `fig4`, `table1`, `fig5` and `fig6`, one group
/// per binary, in each binary's order.
pub fn paper_groups() -> Vec<Group> {
    let default = HybridOptions::default();
    let fig5 = mesh_bench::FIG5_BUS_DELAYS
        .iter()
        .map(|&delay| (Scenario::phm(FIG5_IDLE, delay, FIG6_SEEDS[0]), default))
        .collect();
    let mut fig6 = Vec::new();
    for idle in mesh_bench::FIG6_IDLE_SWEEP {
        for delay in mesh_bench::FIG5_BUS_DELAYS {
            for seed in FIG6_SEEDS {
                fig6.push((Scenario::phm(idle, delay, seed), default));
            }
        }
    }
    vec![
        fft_group("fig4", false),
        fft_group("table1", true),
        Group {
            name: "fig5",
            set: one_scenario_per_point(fig5),
        },
        Group {
            name: "fig6",
            set: one_scenario_per_point(fig6),
        },
    ]
}

pub fn knob_groups(seed: u64) -> Vec<Group> {
    vec![Group {
        name: "knob_sweep",
        set: knob::point_set(seed),
    }]
}

// ---------------------------------------------------------------------------
// The traced recomputation.
// ---------------------------------------------------------------------------

/// The three percentages a comparison point is judged by.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pcts {
    pub iss: f64,
    pub mesh: f64,
    pub analytical: f64,
}

impl From<&ComparisonPoint> for Pcts {
    fn from(p: &ComparisonPoint) -> Pcts {
        Pcts {
            iss: p.iss_pct,
            mesh: p.mesh_pct,
            analytical: p.analytical_pct,
        }
    }
}

/// Counters of the traced step that are not span durations.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCounts {
    pub iss_runs: u64,
    pub iss_cycles: u64,
    pub assembles: u64,
    pub refs: u64,
    pub hybrid_runs: u64,
    pub commits: u64,
    pub slices: u64,
    pub model_nanos: u64,
    pub model_calls: u64,
    /// Host time of the reference legs (compile + consume).
    pub iss_time: Duration,
    /// Host time of the hybrid legs (annotation + kernel build + run).
    pub hybrid_time: Duration,
    /// Host time of the kernel runs alone (model included).
    pub kernel_time: Duration,
}

impl LayerCounts {
    fn since(&self, before: &LayerCounts) -> LayerCounts {
        LayerCounts {
            iss_runs: self.iss_runs - before.iss_runs,
            iss_cycles: self.iss_cycles - before.iss_cycles,
            assembles: self.assembles - before.assembles,
            refs: self.refs - before.refs,
            hybrid_runs: self.hybrid_runs - before.hybrid_runs,
            commits: self.commits - before.commits,
            slices: self.slices - before.slices,
            model_nanos: self.model_nanos - before.model_nanos,
            model_calls: self.model_calls - before.model_calls,
            iss_time: self.iss_time - before.iss_time,
            hybrid_time: self.hybrid_time - before.hybrid_time,
            kernel_time: self.kernel_time - before.kernel_time,
        }
    }

    fn iss_ms_per_point(&self) -> f64 {
        self.iss_time.as_secs_f64() * 1e3 / self.iss_runs.max(1) as f64
    }

    fn hybrid_ms_per_point(&self) -> f64 {
        self.hybrid_time.as_secs_f64() * 1e3 / self.hybrid_runs.max(1) as f64
    }

    fn kernel_ms_per_point(&self) -> f64 {
        self.kernel_time.as_secs_f64() * 1e3 / self.hybrid_runs.max(1) as f64
    }
}

fn pct(queuing: f64, work_cycles: u64) -> f64 {
    if work_cycles == 0 {
        0.0
    } else {
        100.0 * queuing / work_cycles as f64
    }
}

fn policy_key(policy: AnnotationPolicy) -> (u8, usize) {
    match policy {
        AnnotationPolicy::AtBarriers => (0, 0),
        AnnotationPolicy::PerSegment => (1, 0),
        AnnotationPolicy::EverySegments(n) => (2, n),
    }
}

/// Clears the in-process caches a fresh process starts without.
fn cold_start() {
    memo::clear_subeval_lru();
    mesh_cyclesim::trace::clear_cache();
}

/// Recomputes every point of `set` from the layers' public calls, one span
/// per call, and returns each point's percentages.
pub fn traced_points(rec: &mut Recorder, set: &PointSet, counts: &mut LayerCounts) -> Vec<Pcts> {
    let mut workloads: Vec<Option<Workload>> = set.scenarios.iter().map(|_| None).collect();
    let mut iss: Vec<Option<f64>> = set.scenarios.iter().map(|_| None).collect();
    let mut analytical: BTreeMap<(usize, (u8, usize)), f64> = BTreeMap::new();
    let mut out = Vec::with_capacity(set.points.len());
    for &(s, options) in &set.points {
        let scenario = &set.scenarios[s];
        let machine = &scenario.machine;
        let point = rec.enter("point", scenario.label.clone());
        if workloads[s].is_none() {
            workloads[s] = Some(rec.time("workloads.build", || scenario.spec.build()));
        }
        let workload = workloads[s].as_ref().expect("just built");
        // compare() fingerprints the scenario once per memoized leg.
        rec.time("workloads.fingerprint", || {
            for _ in 0..3 {
                std::hint::black_box(mesh_cyclesim::workload_fingerprint(
                    workload,
                    machine,
                    Pacing::default(),
                ));
            }
        });

        let iss_pct = match iss[s] {
            Some(v) => v,
            None => {
                let start = Instant::now();
                rec.time("cyclesim.compile", || {
                    mesh_cyclesim::prewarm(workload, machine, Pacing::default())
                });
                let report = rec.time("cyclesim.consume", || {
                    let options = SimOptions {
                        trace: TraceMode::Compiled,
                        ..SimOptions::default()
                    };
                    mesh_cyclesim::simulate_with_options(workload, machine, options)
                        .expect("cycle-accurate simulation failed")
                });
                counts.iss_time += start.elapsed();
                counts.iss_runs += 1;
                counts.iss_cycles += report.total_cycles;
                let v = report.queuing_percent();
                iss[s] = Some(v);
                v
            }
        };

        let hybrid_start = Instant::now();
        let clock = Arc::new(ModelClock::default());
        let model = TimedModel::new(ChenLinBus::new(), Arc::clone(&clock));
        let setup = rec.time("annotate.assemble", || {
            assemble(workload, machine, model, options.policy).expect("hybrid assembly failed")
        });
        counts.assembles += 1;
        counts.refs += setup.tasks.iter().map(|t| t.refs()).sum::<u64>();
        let work_cycles = setup.work_total();
        let mut builder = setup.builder;
        builder.set_min_timeslice(SimTime::from_cycles(options.min_timeslice));
        let system = rec.time("kernel.build", || {
            builder.build().expect("hybrid build failed")
        });
        let run = rec.enter("kernel.run", "");
        let kernel_start = Instant::now();
        let outcome = system.run().expect("hybrid run failed");
        counts.kernel_time += kernel_start.elapsed();
        rec.exit(run);
        counts.hybrid_time += hybrid_start.elapsed();
        rec.annotate(run, "model_ns", clock.nanos() as f64);
        rec.annotate(run, "model_calls", clock.calls() as f64);
        counts.hybrid_runs += 1;
        counts.commits += outcome.report.commits;
        counts.slices += outcome.report.slices_analyzed;
        counts.model_nanos += clock.nanos();
        counts.model_calls += clock.calls();
        let mesh_pct = pct(outcome.report.queuing_total().as_cycles(), work_cycles);

        let key = (s, policy_key(options.policy));
        let analytical_pct = match analytical.get(&key) {
            Some(&v) => v,
            None => {
                let setup = rec.time("annotate.assemble", || {
                    assemble(workload, machine, ChenLinBus::new(), options.policy)
                        .expect("hybrid assembly failed")
                });
                counts.assembles += 1;
                counts.refs += setup.tasks.iter().map(|t| t.refs()).sum::<u64>();
                let v = rec.time("models.analytical", || {
                    let profiles: Vec<ThreadProfile> = setup
                        .tasks
                        .iter()
                        .map(|t| {
                            ThreadProfile::new(
                                SimTime::from_cycles(t.work_cycles as f64),
                                t.misses as f64,
                            )
                        })
                        .collect();
                    AnalyticalEstimator::new(
                        ChenLinBus::new(),
                        SimTime::from_cycles(machine.bus.delay_cycles as f64),
                    )
                    .estimate(&profiles)
                    .queuing_percent()
                });
                analytical.insert(key, v);
                v
            }
        };
        rec.exit(point);
        out.push(Pcts {
            iss: iss_pct,
            mesh: mesh_pct,
            analytical: analytical_pct,
        });
    }
    out
}

fn compare_all(set: &PointSet) -> Vec<ComparisonPoint> {
    let mut workloads: Vec<Option<Workload>> = set.scenarios.iter().map(|_| None).collect();
    set.points
        .iter()
        .map(|&(s, options)| {
            let scenario = &set.scenarios[s];
            let workload = workloads[s].get_or_insert_with(|| scenario.spec.build());
            compare(workload, &scenario.machine, options)
        })
        .collect()
}

/// Host nanoseconds one span and one timed model call add, measured here.
fn instrumentation_cost() -> (f64, f64) {
    const N: u32 = 20_000;
    let mut rec = Recorder::new();
    let start = Instant::now();
    for _ in 0..N {
        let id = rec.enter("calibration", "");
        rec.exit(id);
    }
    let span_ns = start.elapsed().as_nanos() as f64 / f64::from(N);
    let clock = ModelClock::default();
    let start = Instant::now();
    for i in 0..N {
        clock.time(|| std::hint::black_box(i));
    }
    (span_ns, start.elapsed().as_nanos() as f64 / f64::from(N))
}

fn memo_lookups() -> u64 {
    let s = memo::stats();
    s.hits + s.misses + s.lru_hits
}

/// What one probe pass measured. The probe process prints it with
/// [`ProbeResult::to_lines`] and the parent reads it back with
/// [`ProbeResult::parse`].
#[derive(Clone, Debug, Default)]
pub struct ProbeResult {
    /// Per-layer metrics, by name.
    pub metrics: BTreeMap<String, f64>,
    /// Per group: (name, MESH-vs-ISS ratio with annotation, kernel-only ratio).
    pub grids: Vec<(String, f64, f64)>,
    pub points: u64,
    /// Points whose recomputation differed from `compare`, one line each.
    pub mismatches: Vec<String>,
}

impl ProbeResult {
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            out.push_str(&format!("metric {name} {value}\n"));
        }
        for (group, mesh_vs_iss, kernel_only) in &self.grids {
            out.push_str(&format!("grid {group} {mesh_vs_iss} {kernel_only}\n"));
        }
        for m in &self.mismatches {
            out.push_str(&format!("mismatch {m}\n"));
        }
        out.push_str(&format!("points {}\n", self.points));
        out
    }

    pub fn parse(text: &str) -> Result<ProbeResult, String> {
        let mut r = ProbeResult::default();
        let num = |v: Option<&str>| -> Result<f64, String> {
            let v = v.ok_or("missing value")?;
            v.parse::<f64>().map_err(|e| format!("{v:?}: {e}"))
        };
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let mut t = rest.split_whitespace();
            match key {
                "metric" => {
                    let name = t.next().ok_or("metric without a name")?.to_string();
                    r.metrics.insert(name, num(t.next())?);
                }
                "grid" => {
                    let name = t.next().ok_or("grid without a name")?.to_string();
                    r.grids.push((name, num(t.next())?, num(t.next())?));
                }
                "mismatch" => r.mismatches.push(rest.to_string()),
                "points" => r.points = num(t.next())? as u64,
                _ => {}
            }
        }
        if r.points == 0 {
            return Err(format!("probe reported no points:\n{text}"));
        }
        Ok(r)
    }
}

/// Runs the three probe steps over `groups`. `warm_cache` is a result
/// cache already populated by the program (the warm workload); without
/// one, the probe populates a fresh cache under `temp` first.
pub fn run(groups: &[Group], warm_cache: Option<&Path>, temp: &Path) -> (ProbeResult, Recorder) {
    let mut rec = Recorder::new();
    let mut result = ProbeResult::default();
    let mut counts = LayerCounts::default();
    let mut traced = Duration::ZERO;
    let mut reference: Vec<Vec<ComparisonPoint>> = Vec::new();

    memo::set_result_cache(None);
    let lookups0 = memo_lookups();
    let lru0 = memo::stats().lru_hits;
    for group in groups {
        cold_start();
        reference.push(compare_all(&group.set));
    }
    let lookups = memo_lookups() - lookups0;
    let lru_hit_ratio = (memo::stats().lru_hits - lru0) as f64 / lookups.max(1) as f64;

    for (group, expected) in groups.iter().zip(&reference) {
        cold_start();
        let before = counts;
        let start = Instant::now();
        let id = rec.enter("group", group.name);
        let pcts = traced_points(&mut rec, &group.set, &mut counts);
        rec.exit(id);
        traced += start.elapsed();
        for (i, (got, want)) in pcts.iter().zip(expected).enumerate() {
            if *got != Pcts::from(want) {
                result.mismatches.push(format!(
                    "{} point {i} ({}): probe {got:?}, compare {:?}",
                    group.name,
                    group.set.scenarios[group.set.points[i].0].label,
                    Pcts::from(want)
                ));
            }
        }
        result.points += pcts.len() as u64;
        let c = counts.since(&before);
        result.grids.push((
            group.name.to_string(),
            c.iss_ms_per_point() / c.hybrid_ms_per_point(),
            c.iss_ms_per_point() / c.kernel_ms_per_point(),
        ));
    }

    // Memo replay: populate a cache unless the program already did, then
    // answer every point from it with the in-process cache cleared.
    let populated;
    let cache = match warm_cache {
        Some(dir) => dir,
        None => {
            populated = temp.join("probe-result-cache");
            let _ = std::fs::remove_dir_all(&populated);
            memo::set_result_cache(Some(&populated));
            for group in groups {
                cold_start();
                compare_all(&group.set);
            }
            &populated
        }
    };
    memo::set_result_cache(Some(cache));
    let replay0 = memo::stats();
    for (group, expected) in groups.iter().zip(&reference) {
        cold_start();
        let id = rec.enter("memo.replay", group.name);
        let replayed = compare_all(&group.set);
        rec.exit(id);
        // Replayed legs carry the wall clocks recorded when the cache was
        // written, so only the percentages are compared.
        if !replayed
            .iter()
            .zip(expected)
            .all(|(a, b)| Pcts::from(a) == Pcts::from(b))
        {
            result.mismatches.push(format!(
                "{}: memo replay differs from computation",
                group.name
            ));
        }
    }
    let replay = memo::stats();
    let replay_lookups = (replay.hits + replay.misses + replay.lru_hits)
        - (replay0.hits + replay0.misses + replay0.lru_hits);
    let answered = (replay.hits + replay.lru_hits) - (replay0.hits + replay0.lru_hits);
    memo::set_result_cache(None);
    if warm_cache.is_none() {
        let _ = std::fs::remove_dir_all(cache);
    }

    let by_name = rec.self_time_by_name();
    let ms = |name: &str| by_name.get(name).copied().unwrap_or_default().as_secs_f64() * 1e3;
    let covered: f64 = [
        "workloads.build",
        "workloads.fingerprint",
        "cyclesim.compile",
        "cyclesim.consume",
        "annotate.assemble",
        "kernel.build",
        "kernel.run",
        "models.analytical",
    ]
    .iter()
    .map(|n| ms(n))
    .sum();
    let model_ms = counts.model_nanos as f64 / 1e6;
    let run_self_ms = ms("kernel.run") - model_ms;
    let traced_ms = traced.as_secs_f64() * 1e3;
    let (span_ns, call_ns) = instrumentation_cost();
    let traced_spans = rec
        .spans()
        .iter()
        .filter(|s| s.name != "memo.replay")
        .count();
    let overhead_ms = (traced_spans as f64 * span_ns + counts.model_calls as f64 * call_ns) / 1e6;
    let m = &mut result.metrics;
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("workloads.build_ms", ms("workloads.build"));
    put("workloads.fingerprint_ms", ms("workloads.fingerprint"));
    put("cyclesim.compile_ms", ms("cyclesim.compile"));
    put("cyclesim.consume_ms", ms("cyclesim.consume"));
    put("cyclesim.runs", counts.iss_runs as f64);
    put(
        "cyclesim.sim_mcycles_per_s",
        counts.iss_cycles as f64 / 1e6 / (ms("cyclesim.consume") / 1e3),
    );
    put("annotate.assemble_ms", ms("annotate.assemble"));
    put("annotate.calls", counts.assembles as f64);
    put(
        "annotate.mrefs_per_s",
        counts.refs as f64 / 1e6 / (ms("annotate.assemble") / 1e3),
    );
    put("kernel.build_ms", ms("kernel.build"));
    put("kernel.run_self_ms", run_self_ms);
    put("kernel.commits", counts.commits as f64);
    put("kernel.slices", counts.slices as f64);
    put(
        "kernel.ns_per_commit",
        run_self_ms * 1e6 / counts.commits.max(1) as f64,
    );
    put("models.penalties_ms", model_ms);
    put("models.calls", counts.model_calls as f64);
    put(
        "models.ns_per_call",
        counts.model_nanos as f64 / counts.model_calls.max(1) as f64,
    );
    put("models.analytical_ms", ms("models.analytical"));
    put("memo.replay_ms", ms("memo.replay"));
    put(
        "memo.hit_ratio",
        answered as f64 / replay_lookups.max(1) as f64,
    );
    put("memo.lru_hit_ratio", lru_hit_ratio);
    put("hybrid.ms_per_point", counts.hybrid_ms_per_point());
    put("iss.ms_per_point", counts.iss_ms_per_point());
    put(
        "mesh_vs_iss_x",
        counts.iss_ms_per_point() / counts.hybrid_ms_per_point(),
    );
    put("probe.coverage_pct", 100.0 * covered / traced_ms);
    put(
        "probe.overhead_pct",
        100.0 * overhead_ms / (traced_ms - overhead_ms),
    );
    (result, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_bench::HybridOptions;

    fn small_fft() -> Scenario {
        let mut sc = Scenario::fft(2, 8 * 1024, 4);
        if let knob::Spec::Fft(config) = &mut sc.spec {
            config.points = 4096;
        }
        sc
    }

    fn report_with(
        model: impl ContentionModel + 'static,
        sc: &Scenario,
        policy: AnnotationPolicy,
    ) -> mesh_core::Report {
        let workload = sc.spec.build();
        let setup = assemble(&workload, &sc.machine, model, policy).expect("assembles");
        let mut report = setup
            .builder
            .build()
            .expect("builds")
            .run()
            .expect("runs")
            .report;
        report.wall_clock = Duration::ZERO;
        report
    }

    #[test]
    fn timed_model_reports_equal_bare_chen_lin() {
        let fig4 = Scenario::fft(4, 8 * 1024, mesh_bench::FFT_BUS_DELAY);
        let fig6 = Scenario::phm(0.6, 8, 0xBEEF);
        for (sc, policy) in [
            (&fig4, AnnotationPolicy::AtBarriers),
            (&fig6, AnnotationPolicy::PerSegment),
        ] {
            let clock = Arc::new(ModelClock::default());
            let timed = report_with(
                TimedModel::new(ChenLinBus::new(), Arc::clone(&clock)),
                sc,
                policy,
            );
            let bare = report_with(ChenLinBus::new(), sc, policy);
            assert_eq!(timed, bare, "{}", sc.label);
            assert!(clock.calls() > 0, "the kernel consulted the model");
        }
        let timed = TimedModel::new(ChenLinBus::new(), Arc::default());
        assert_eq!(timed.name(), ChenLinBus::new().name());
        assert_eq!(timed.digest_words(), ChenLinBus::new().digest_words());
    }

    #[test]
    fn probe_recomputation_equals_compare() {
        let options = [
            HybridOptions::default(),
            HybridOptions {
                policy: AnnotationPolicy::EverySegments(4),
                min_timeslice: 200.0,
            },
        ];
        let set = PointSet {
            scenarios: vec![small_fft()],
            points: options.iter().map(|&o| (0, o)).collect(),
        };
        let mut rec = Recorder::new();
        let mut counts = LayerCounts::default();
        let traced = traced_points(&mut rec, &set, &mut counts);
        let compared: Vec<Pcts> = compare_all(&set).iter().map(Pcts::from).collect();
        assert_eq!(traced, compared);
        assert_eq!(counts.iss_runs, 1, "one reference run per scenario");
        assert_eq!(
            counts.assembles, 4,
            "hybrid per point, analytical per policy"
        );
        // Every layer span sits under a point span.
        let spans = rec.spans();
        assert!(spans
            .iter()
            .all(|s| (s.name == "point") == s.parent.is_none()));
        let own: Duration = rec.self_times().iter().sum();
        let total: Duration = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration)
            .sum();
        assert_eq!(own, total, "self times partition the root spans");
    }
}
