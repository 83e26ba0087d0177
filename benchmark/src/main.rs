//! End-to-end and per-layer benchmark of the MESH reproduction.
//!
//! ```text
//! mesh-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mesh-benchmark run --seed <n> [--rounds <r>] [--sets <k>]
//! mesh-benchmark probe <workload> [--seed <n>] [--cache <dir>] [--out <trace.json>]
//! mesh-benchmark knob-rows --seed <n>
//! mesh-benchmark pass <workload> --seed <n> [--repeats <r>]
//! ```
//!
//! The first form measures one workload for `--seconds` and prints one JSON
//! result line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `run` measures all four workloads in
//! interleaved rounds and prints every metric; with `--sets 2` it also
//! checks that two sets of rounds agree within each metric's bound.
//! `probe` is the traced in-process pass, `knob-rows` prints the knob
//! sweep's result rows, and `pass` is the per-pass runner the other modes
//! spawn. See `README.md`.

mod check;
mod knob;
mod pass;
mod probe;
mod reference;
mod report;
mod rusage;
mod workload;

use pass::PassReport;
use probe::ProbeResult;
use report::{median, quartiles, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant, SystemTime};
use workload::{Workload, JOBS, PAPER_BINS};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// End-to-end metrics: name, unit and regression bound (relative increase).
/// `BENCHMARK.json` lists the same; an integration test keeps them equal.
/// The two times are wall-clock seconds rescaled to the reference kernel's
/// nominal host speed (see `reference.rs`).
pub const END_TO_END: [(&str, &str, f64); 4] = [
    ("pass_s", "s", 0.2),
    ("setup_s", "s", 0.25),
    ("max_rss_mb", "MiB", 0.1),
    ("mesh_err_pct", "%", 0.24),
];

/// Per-layer metrics and their units, in report order.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("bin.fig4_ms", "ms"),
    ("bin.table1_ms", "ms"),
    ("bin.fig5_ms", "ms"),
    ("bin.fig6_ms", "ms"),
    ("bin.validation_uniform_ms", "ms"),
    ("bin.ablation_minslice_ms", "ms"),
    ("bin.ablation_granularity_ms", "ms"),
    ("bin.ablation_models_ms", "ms"),
    ("bin.ablation_wake_ms", "ms"),
    ("bin.multi_resource_ms", "ms"),
    ("bin.noc_sweep_ms", "ms"),
    ("host.cpu_s", "s"),
    ("host.slowdown", "ratio"),
    ("fabric.overhead_ms", "ms"),
    ("workloads.build_ms", "ms"),
    ("workloads.fingerprint_ms", "ms"),
    ("cyclesim.compile_ms", "ms"),
    ("cyclesim.consume_ms", "ms"),
    ("cyclesim.runs", "count"),
    ("cyclesim.sim_mcycles_per_s", "Mcycles/s"),
    ("annotate.assemble_ms", "ms"),
    ("annotate.calls", "count"),
    ("annotate.mrefs_per_s", "Mrefs/s"),
    ("kernel.build_ms", "ms"),
    ("kernel.run_self_ms", "ms"),
    ("kernel.commits", "count"),
    ("kernel.slices", "count"),
    ("kernel.ns_per_commit", "ns"),
    ("models.penalties_ms", "ms"),
    ("models.calls", "count"),
    ("models.ns_per_call", "ns"),
    ("models.analytical_ms", "ms"),
    ("memo.replay_ms", "ms"),
    ("memo.hit_ratio", "ratio"),
    ("memo.lru_hit_ratio", "ratio"),
    ("hybrid.ms_per_point", "ms"),
    ("iss.ms_per_point", "ms"),
    ("mesh_vs_iss_x", "x"),
    ("probe.coverage_pct", "%"),
    ("probe.overhead_pct", "%"),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("mesh-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

/// `--key value` flags plus positional arguments.
struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it.next().ok_or(format!("--{key} needs a value"))?;
                flags.insert(key.to_string(), value.clone());
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    fn num(&self, key: &str, default: Option<u64>) -> Result<u64, String> {
        match (self.flags.get(key), default) {
            (Some(v), _) => v.parse().map_err(|e| format!("--{key} {v:?}: {e}")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("--{key} is required")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.flags.keys().find(|k| !allowed.contains(&k.as_str())) {
            Some(k) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

fn dispatch(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let positional: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    match positional[..] {
        [] => {
            args.only(&["workload", "seed", "seconds", "trace"])?;
            let workload =
                Workload::parse(args.flags.get("workload").ok_or("--workload is required")?)?;
            let trace = match args.num("trace", Some(0))? {
                0 => false,
                1 => true,
                t => return Err(format!("--trace {t}: expected 0 or 1")),
            };
            bench_one(
                workload,
                args.num("seed", None)?,
                Duration::from_secs(args.num("seconds", None)?),
                trace,
            )
        }
        ["run"] => {
            args.only(&["seed", "rounds", "sets"])?;
            run_all(
                args.num("seed", None)?,
                args.num("rounds", Some(10))? as usize,
                args.num("sets", Some(1))? as usize,
            )
        }
        ["pass", name] => {
            args.only(&["seed", "repeats"])?;
            let workload = Workload::parse(name)?;
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            let bins = exe.parent().ok_or("executable has no directory")?;
            let report = pass::run(
                workload,
                args.num("seed", None)?,
                args.num("repeats", Some(1))? as usize,
                bins,
                &repo_root()?,
            )?;
            print!("{}", report.to_lines());
            Ok(())
        }
        ["probe", name] => {
            args.only(&["seed", "cache", "out"])?;
            probe_main(
                Workload::parse(name)?,
                args.num("seed", Some(1))?,
                args.flags.get("cache").map(Path::new),
                args.flags.get("out").map(Path::new),
            )
        }
        ["knob-rows"] => {
            args.only(&["seed"])?;
            let set = knob::point_set(args.num("seed", None)?);
            print!("{}", knob::format_rows(&set, &knob::run(&set, JOBS)));
            Ok(())
        }
        _ => Err(format!("unrecognised arguments {raw:?}; see README.md")),
    }
}

/// The repository root: the benchmark crate's parent directory.
fn repo_root() -> Result<PathBuf, String> {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .canonicalize()
        .map_err(|e| format!("repository root: {e}"))
}

fn probe_groups(workload: Workload, seed: u64) -> Vec<probe::Group> {
    match workload {
        Workload::KnobSweep => probe::knob_groups(seed),
        _ => probe::paper_groups(),
    }
}

/// The `probe` subcommand: prints its [`probe::ProbeResult`] and writes the
/// spans as a Chrome trace.
fn probe_main(
    workload: Workload,
    seed: u64,
    cache: Option<&Path>,
    out: Option<&Path>,
) -> Result<(), String> {
    let temp = std::env::temp_dir().join(format!("mesh-benchmark-probe-{}", std::process::id()));
    let (result, rec) = probe::run(&probe_groups(workload, seed), cache, &temp);
    let _ = std::fs::remove_dir_all(&temp);
    if let Some(path) = out {
        std::fs::write(path, rec.chrome_trace()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{}", result.to_lines());
    Ok(())
}

// ---------------------------------------------------------------------------
// The measuring parent.
// ---------------------------------------------------------------------------

/// Newest modification time among the files under `crates/` that a binary
/// was built from, per its cargo dep-info file.
fn newest_source(dep_info: &Path, crates: &Path) -> Result<SystemTime, String> {
    let text =
        std::fs::read_to_string(dep_info).map_err(|e| format!("{}: {e}", dep_info.display()))?;
    let deps = text
        .lines()
        .next()
        .and_then(|l| l.split_once(": "))
        .map(|(_, deps)| deps)
        .unwrap_or("");
    let mut newest = SystemTime::UNIX_EPOCH;
    for dep in deps
        .split_whitespace()
        .map(Path::new)
        .filter(|p| p.starts_with(crates))
    {
        let modified = std::fs::metadata(dep)
            .and_then(|m| m.modified())
            .map_err(|e| format!("{}: {e}", dep.display()))?;
        newest = newest.max(modified);
    }
    Ok(newest)
}

struct Context {
    root: PathBuf,
    exe: PathBuf,
    target: PathBuf,
    /// Benchmark-owned work directory: children's `TMPDIR` and the warm result
    /// cache. Removed when the context drops.
    work: PathBuf,
}

impl Context {
    /// Builds the paper binaries next to this executable, refuses stale
    /// ones, and creates the work directory.
    fn prepare() -> Result<Context, String> {
        let root = repo_root()?;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let bins = exe
            .parent()
            .ok_or("executable has no directory")?
            .to_path_buf();
        let target = bins
            .parent()
            .ok_or("executable is not in a cargo target directory")?
            .to_path_buf();
        let status = Command::new("cargo")
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "mesh-bench",
                "--bins",
            ])
            .arg("--target-dir")
            .arg(&target)
            .current_dir(&root)
            .stdout(std::io::stderr())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building the paper binaries failed ({status})"));
        }
        let crates = root.join("crates");
        for bin in PAPER_BINS.iter().chain(&["mesh_worker"]) {
            let path = bins.join(bin);
            let built = std::fs::metadata(&path)
                .and_then(|m| m.modified())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            if built < newest_source(&bins.join(format!("{bin}.d")), &crates)? {
                return Err(format!(
                    "{} is older than its sources under crates/; rebuild it",
                    path.display()
                ));
            }
        }
        let work = target.join(format!("mesh-benchmark-{}", std::process::id()));
        std::fs::create_dir_all(work.join("tmp"))
            .map_err(|e| format!("{}: {e}", work.display()))?;
        Ok(Context {
            root,
            exe,
            target,
            work,
        })
    }

    fn warm_cache(&self) -> PathBuf {
        self.work.join("result-cache")
    }

    /// A command for a child of this benchmark: every inherited `MESH_*`
    /// variable removed, `TMPDIR` pointed at the work directory, plus
    /// `vars`.
    fn command(&self, vars: &[(&'static str, String)]) -> Command {
        let mut cmd = Command::new(&self.exe);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("MESH_") {
                cmd.env_remove(key);
            }
        }
        cmd.env("TMPDIR", self.work.join("tmp"));
        cmd.envs(vars.iter().map(|(k, v)| (k, v)));
        cmd.current_dir(&self.root);
        cmd
    }

    /// Runs one pass in a fresh process. A pass that produces no report
    /// counts every one of its operations as failed.
    fn pass(
        &self,
        workload: Workload,
        seed: u64,
        repeats: usize,
        tally: &mut Tally,
    ) -> Option<PassReport> {
        let output = self
            .command(&workload.env(&self.warm_cache()))
            .args(["pass", workload.name(), "--seed", &seed.to_string()])
            .args(["--repeats", &repeats.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output();
        // Fabric plan and checkpoint files land in TMPDIR; start each pass
        // with it empty.
        let tmp = self.work.join("tmp");
        let _ = std::fs::remove_dir_all(&tmp);
        let _ = std::fs::create_dir_all(&tmp);
        let report = match output {
            Ok(o) if o.status.success() => PassReport::parse(&String::from_utf8_lossy(&o.stdout)),
            Ok(o) => Err(format!("pass runner exited with {}", o.status)),
            Err(e) => Err(format!("cannot start the pass runner: {e}")),
        };
        match report {
            Ok(r) => {
                tally.record(workload, &r);
                Some(r)
            }
            Err(e) => {
                eprintln!("{} pass: {e}", workload.name());
                let ops = if workload.runs_binaries() {
                    (repeats * PAPER_BINS.len()) as u64
                } else {
                    knob::point_set(seed).points.len() as u64
                };
                tally.attempted += ops;
                tally.failed += ops;
                None
            }
        }
    }

    /// One set-up of a workload, timed like a pass: the warm workload
    /// populates an empty result cache; the others run one pass that is
    /// discarded.
    fn setup(&self, workload: Workload, seed: u64, tally: &mut Tally) -> Option<f64> {
        if workload == Workload::PaperWarm {
            let _ = std::fs::remove_dir_all(self.warm_cache());
        }
        self.pass(workload, seed, 1, tally).map(|p| p.rescaled_s())
    }

    /// Runs the traced probe in a fresh, serial process.
    fn probe(&self, workload: Workload, seed: u64, tally: &mut Tally) -> Option<ProbeResult> {
        let traces = self.target.join("mesh-benchmark-traces");
        let _ = std::fs::create_dir_all(&traces);
        let out = traces.join(format!("{}.json", workload.name()));
        let mut cmd = self.command(&[("MESH_BENCH_JOBS", "1".to_string())]);
        cmd.args(["probe", workload.name(), "--seed", &seed.to_string()])
            .arg("--out")
            .arg(&out);
        if workload == Workload::PaperWarm {
            cmd.arg("--cache").arg(self.warm_cache());
        }
        let parsed = match cmd.stderr(std::process::Stdio::inherit()).output() {
            Ok(o) if o.status.success() => ProbeResult::parse(&String::from_utf8_lossy(&o.stdout)),
            Ok(o) => Err(format!("probe exited with {}", o.status)),
            Err(e) => Err(format!("cannot start the probe: {e}")),
        };
        match parsed {
            Ok(p) => {
                for m in &p.mismatches {
                    eprintln!("{} probe mismatch: {m}", workload.name());
                }
                tally.attempted += p.points;
                tally.failed += p.mismatches.len() as u64;
                eprintln!("{} spans: {}", workload.name(), out.display());
                Some(p)
            }
            Err(e) => {
                eprintln!("{} probe: {e}", workload.name());
                tally.attempted += 1;
                tally.failed += 1;
                None
            }
        }
    }
}

impl Drop for Context {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// Operations attempted and failed, plus the knob sweep's row digest,
/// which must be the same in every pass of one seed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digest: Option<String>,
}

impl Tally {
    fn record(&mut self, workload: Workload, r: &PassReport) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        if let Some(d) = &r.digest {
            match &self.digest {
                None => self.digest = Some(d.clone()),
                Some(first) if first != d => {
                    eprintln!("{}: result rows differ between passes", workload.name());
                    self.failed += 1;
                }
                Some(_) => {}
            }
        }
    }

    fn result_line(&self, metrics: &[(String, f64, &str)]) -> String {
        Json::obj([
            (
                "correct",
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(metrics)),
        ])
        .to_string()
    }
}

/// `{"<name>": {"value": …, "unit": …}, …}`.
fn metrics_json(metrics: &[(String, f64, &str)]) -> Json {
    Json::obj(metrics.iter().map(|(name, value, unit)| {
        (
            name.clone(),
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
        )
    }))
}

/// The end-to-end metrics of one workload from its set-ups and passes.
fn end_to_end(setups: &[f64], passes: &[PassReport]) -> Vec<(String, f64, &'static str)> {
    let walls: Vec<f64> = passes.iter().map(PassReport::rescaled_s).collect();
    let errors: Vec<f64> = passes.iter().map(|p| p.mesh_err_pct).collect();
    let rss = passes.iter().map(|p| p.max_rss_kib).max().unwrap_or(0) as f64 / 1024.0;
    let or_nan = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
    let values = [
        or_nan(&walls),
        or_nan(setups),
        if passes.is_empty() { f64::NAN } else { rss },
        or_nan(&errors),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), v)| (name.to_string(), v, unit))
        .collect()
}

/// The per-layer metrics: binary times and CPU from `own` passes (from the
/// cold passes for the in-process knob sweep), the fabric's cost from
/// paired cold and sharded passes, and the rest from the probes.
fn per_layer(
    workload: Workload,
    own: &[PassReport],
    cold: &[PassReport],
    fabric_ms: &[f64],
    probes: &[ProbeResult],
) -> Vec<(String, f64, &'static str)> {
    let med = |v: Vec<f64>| if v.is_empty() { f64::NAN } else { median(&v) };
    let bin_source = if workload.runs_binaries() { own } else { cold };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if let Some(bin) = name
                .strip_prefix("bin.")
                .and_then(|b| b.strip_suffix("_ms"))
            {
                med(bin_source
                    .iter()
                    .filter_map(|p| p.bins_ms.get(bin).copied())
                    .collect())
            } else if name == "host.cpu_s" {
                med(own.iter().map(|p| p.cpu_s).collect())
            } else if name == "host.slowdown" {
                med(own.iter().map(|p| p.slowdown).collect())
            } else if name == "fabric.overhead_ms" {
                med(fabric_ms.to_vec())
            } else {
                med(probes
                    .iter()
                    .filter_map(|p| p.metrics.get(name).copied())
                    .collect())
            };
            (name.to_string(), value, unit)
        })
        .collect()
}

fn rotated(items: &[Workload], by: usize) -> Vec<Workload> {
    let mut v = items.to_vec();
    v.rotate_left(by % items.len().max(1));
    v
}

/// The single-workload form: one workload, `seconds` of measurement, one JSON
/// result line.
fn bench_one(workload: Workload, seed: u64, seconds: Duration, trace: bool) -> Result<(), String> {
    let ctx = Context::prepare()?;
    let mut tally = Tally::default();
    let setups: Vec<f64> = (0..SETUP_REPS)
        .filter_map(|_| ctx.setup(workload, seed, &mut tally))
        .collect();
    let start = Instant::now();
    let metrics = if !trace {
        let mut passes = Vec::new();
        loop {
            passes.extend(ctx.pass(workload, seed, workload.repeats(), &mut tally));
            if start.elapsed() >= seconds {
                break;
            }
        }
        end_to_end(&setups, &passes)
    } else {
        // Each round: a pass of the workload, a paired cold and sharded
        // pass for the fabric's cost (shared with the workload's own pass
        // where they coincide), and a probe; in rotating order.
        let mut members = vec![workload];
        for w in [Workload::PaperCold, Workload::PaperSharded] {
            if !members.contains(&w) {
                members.push(w);
            }
        }
        let (mut own, mut cold, mut fabric, mut probes) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut round = 0;
        loop {
            let mut walls = BTreeMap::new();
            for w in rotated(&members, round) {
                if let Some(p) = ctx.pass(w, seed, w.repeats(), &mut tally) {
                    walls.insert(w.name(), p.rescaled_s());
                    if w == Workload::PaperCold {
                        cold.push(p.clone());
                    }
                    if w == workload {
                        own.push(p);
                    }
                }
            }
            if let (Some(c), Some(s)) = (walls.get("paper_cold"), walls.get("paper_sharded")) {
                fabric.push((s - c) * 1e3);
            }
            probes.extend(ctx.probe(workload, seed, &mut tally));
            round += 1;
            if start.elapsed() >= seconds {
                break;
            }
        }
        per_layer(workload, &own, &cold, &fabric, &probes)
    };
    eprintln!(
        "{}: seed {seed}, nproc {}, env {:?}",
        workload.name(),
        nproc(),
        workload.env(&ctx.warm_cache())
    );
    println!("{}", tally.result_line(&metrics));
    Ok(())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn git_sha(root: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Summary of one sample: median, quartiles and count.
fn summary(values: &[f64]) -> Json {
    if values.is_empty() {
        return Json::obj([("n", Json::Num(0.0))]);
    }
    let [q1, med, q3] = quartiles(values);
    Json::obj([
        ("median", Json::Num(med)),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("n", Json::Num(values.len() as f64)),
    ])
}

/// The `run` subcommand: every workload, `rounds` interleaved rounds per
/// set, `sets` interleaved sets, one probe per workload.
fn run_all(seed: u64, rounds: usize, sets: usize) -> Result<(), String> {
    if rounds == 0 || sets == 0 {
        return Err("--rounds and --sets must be at least 1".to_string());
    }
    let ctx = Context::prepare()?;
    let all = Workload::ALL;
    let mut tallies: Vec<Tally> = all.iter().map(|_| Tally::default()).collect();
    let mut setups = vec![vec![Vec::new(); all.len()]; sets];
    let mut passes: Vec<Vec<Vec<PassReport>>> = vec![vec![Vec::new(); all.len()]; sets];
    let mut fabric: Vec<Vec<f64>> = vec![Vec::new(); sets];
    for _ in 0..SETUP_REPS {
        for set in setups.iter_mut() {
            for (i, &w) in all.iter().enumerate() {
                set[i].extend(ctx.setup(w, seed, &mut tallies[i]));
            }
        }
    }
    for round in 0..rounds {
        for set in 0..sets {
            let mut walls = BTreeMap::new();
            for w in rotated(&all, round * sets + set) {
                let i = all.iter().position(|&x| x == w).expect("listed workload");
                if let Some(p) = ctx.pass(w, seed, w.repeats(), &mut tallies[i]) {
                    walls.insert(w.name(), p.rescaled_s());
                    passes[set][i].push(p);
                }
            }
            if let (Some(c), Some(s)) = (walls.get("paper_cold"), walls.get("paper_sharded")) {
                fabric[set].push((s - c) * 1e3);
            }
            eprintln!("round {}/{rounds}, set {}/{sets} done", round + 1, set + 1);
        }
    }
    let fabric_all: Vec<f64> = fabric.concat();
    let cold_index = all
        .iter()
        .position(|&w| w == Workload::PaperCold)
        .expect("listed");
    let mut workloads_json = Vec::new();
    for (i, &w) in all.iter().enumerate() {
        let tally = &mut tallies[i];
        let probe = ctx.probe(w, seed, tally);
        let own: Vec<PassReport> = passes.iter().flat_map(|s| s[i].clone()).collect();
        let cold: Vec<PassReport> = passes.iter().flat_map(|s| s[cold_index].clone()).collect();
        let layers = per_layer(w, &own, &cold, &fabric_all, probe.as_slice());
        let per_set: Vec<Vec<(String, f64, &str)>> = (0..sets)
            .map(|s| end_to_end(&setups[s][i], &passes[s][i]))
            .collect();
        let all_setups: Vec<f64> = setups.iter().flat_map(|s| s[i].clone()).collect();
        let e2e = end_to_end(&all_setups, &own);

        println!(
            "== {} (attempted {}, failed {})",
            w.name(),
            tally.attempted,
            tally.failed
        );
        for (name, value, unit) in e2e.iter().chain(&layers) {
            println!(
                "{:<34} {:>16.6} {unit}",
                format!("{}.{name}", w.name()),
                value
            );
        }
        let mut e2e_json = Vec::new();
        for (k, &(name, unit, bound)) in END_TO_END.iter().enumerate() {
            let samples: Vec<Vec<f64>> = (0..sets)
                .map(|s| match name {
                    "pass_s" => passes[s][i].iter().map(PassReport::rescaled_s).collect(),
                    "setup_s" => setups[s][i].clone(),
                    _ => vec![per_set[s][k].1],
                })
                .collect();
            let mut fields = vec![
                ("unit", Json::str(unit)),
                ("bound", Json::Num(bound)),
                ("value", Json::Num(e2e[k].1)),
                (
                    "sets",
                    Json::Arr(samples.iter().map(|v| summary(v)).collect()),
                ),
            ];
            if sets >= 2 {
                let (a, b) = (per_set[0][k].1, per_set[1][k].1);
                let gap = (b - a) / a;
                let verdict = if gap.abs() <= bound {
                    "PASS"
                } else {
                    "UNRESOLVED"
                };
                println!(
                    "repeatability {:<14} {:<13} set1 {a:>12.6} set2 {b:>12.6} gap {:>+7.2}% bound {:>4.0}% {verdict}",
                    w.name(),
                    name,
                    gap * 100.0,
                    bound * 100.0
                );
                fields.push(("gap", Json::Num(gap)));
                fields.push(("verdict", Json::str(verdict)));
            }
            e2e_json.push((name, Json::obj(fields)));
        }
        let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
        workloads_json.push((
            w.name(),
            Json::obj([
                (
                    "env",
                    Json::obj(
                        w.env(Path::new("<result-cache>"))
                            .into_iter()
                            .map(|(k, v)| (k, Json::Str(v))),
                    ),
                ),
                ("attempted", Json::Num(tally.attempted as f64)),
                ("failed", Json::Num(tally.failed as f64)),
                ("failed_frac", Json::Num(failed_frac)),
                ("end_to_end", Json::obj(e2e_json)),
                ("per_layer", metrics_json(&layers)),
                (
                    "grids",
                    Json::obj(probe.iter().flat_map(|p| p.grids.clone()).map(
                        |(g, mesh, kernel)| {
                            (
                                g,
                                Json::obj([
                                    ("mesh_vs_iss_x", Json::Num(mesh)),
                                    ("kernel_only_x", Json::Num(kernel)),
                                ]),
                            )
                        },
                    )),
                ),
            ]),
        ));
    }
    let doc = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("nproc", Json::Num(nproc() as f64)),
        ("git_sha", Json::str(git_sha(&ctx.root))),
        ("rounds", Json::Num(rounds as f64)),
        ("sets", Json::Num(sets as f64)),
        ("workloads", Json::obj(workloads_json)),
    ]);
    println!("{doc}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit, bound)` of every metric object in `BENCHMARK.json`, in
    /// file order; per-layer metrics have no bound.
    fn declared() -> Vec<(String, String, Option<f64>)> {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json readable");
        let field = |object: &str, key: &str| -> Option<String> {
            let start = object.find(&format!("\"{key}\": "))? + key.len() + 4;
            let value = object[start..].trim_start_matches('"');
            let end = value.find(['"', ',', '}'])?;
            Some(value[..end].to_string())
        };
        spec.split('{')
            .filter_map(|object| {
                let bound = field(object, "bound").map(|b| b.parse().expect("numeric bound"));
                Some((field(object, "name")?, field(object, "unit")?, bound))
            })
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let e2e = END_TO_END
            .iter()
            .map(|&(name, unit, bound)| (name.to_string(), unit.to_string(), Some(bound)));
        let layers = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit.to_string(), None));
        assert_eq!(declared(), e2e.chain(layers).collect::<Vec<_>>());
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.0 == "setup_s")
            .expect("setup_s listed")
            .2;
        assert!(END_TO_END.iter().all(|m| m.2 <= setup && m.2 <= 0.25));
    }
}
