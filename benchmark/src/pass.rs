//! One pass of a workload, run in a fresh process so that in-process caches
//! start cold. The parent reads the pass's report from its stdout, one
//! `key value` line each; failure details go to stderr.

use crate::check;
use crate::knob;
use crate::reference::HostSpeed;
use crate::rusage::{self, Who};
use crate::workload::{Workload, JOBS, PAPER_BINS};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// What one pass measured.
#[derive(Clone, Debug, Default)]
pub struct PassReport {
    /// Operations attempted: binary runs or `compare` points.
    pub attempted: u64,
    /// Operations that exited nonzero, panicked, or printed wrong output.
    pub failed: u64,
    /// Host wall-clock time of the pass's operations.
    pub wall_s: f64,
    /// The host's slowdown during the pass against the reference kernel's
    /// nominal speed (see `reference.rs`).
    pub slowdown: f64,
    /// User plus system CPU time of the pass.
    pub cpu_s: f64,
    /// Peak RSS of any process of the pass.
    pub max_rss_kib: u64,
    /// Mean |MESH − ISS| error of the pass's results, in %.
    pub mesh_err_pct: f64,
    /// Knob sweep: FNV-1a digest of the result rows (equal across passes
    /// of one seed).
    pub digest: Option<String>,
    /// Paper workloads: mean wall time of each binary, in ms.
    pub bins_ms: BTreeMap<String, f64>,
}

impl PassReport {
    /// Wall time rescaled to the reference kernel's nominal host speed.
    pub fn rescaled_s(&self) -> f64 {
        self.wall_s / self.slowdown
    }

    pub fn to_lines(&self) -> String {
        let mut out = format!(
            "attempted {}\nfailed {}\nwall_s {}\nslowdown {}\ncpu_s {}\nmax_rss_kib {}\nmesh_err_pct {}\n",
            self.attempted,
            self.failed,
            self.wall_s,
            self.slowdown,
            self.cpu_s,
            self.max_rss_kib,
            self.mesh_err_pct
        );
        if let Some(d) = &self.digest {
            out.push_str(&format!("digest {d}\n"));
        }
        for (bin, ms) in &self.bins_ms {
            out.push_str(&format!("bin {bin} {ms}\n"));
        }
        out
    }

    pub fn parse(text: &str) -> Result<PassReport, String> {
        let mut r = PassReport::default();
        let mut seen = 0;
        for line in text.lines() {
            let mut tokens = line.split_whitespace();
            let (Some(key), Some(value)) = (tokens.next(), tokens.next()) else {
                continue;
            };
            let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{key} {v:?}: {e}"));
            match key {
                "attempted" => r.attempted = num(value)? as u64,
                "failed" => r.failed = num(value)? as u64,
                "wall_s" => r.wall_s = num(value)?,
                "slowdown" => r.slowdown = num(value)?,
                "cpu_s" => r.cpu_s = num(value)?,
                "max_rss_kib" => r.max_rss_kib = num(value)? as u64,
                "mesh_err_pct" => r.mesh_err_pct = num(value)?,
                "digest" => r.digest = Some(value.to_string()),
                "bin" => {
                    let ms = tokens.next().ok_or("bin line without a time")?;
                    r.bins_ms.insert(value.to_string(), num(ms)?);
                    continue;
                }
                _ => continue,
            }
            seen += 1;
        }
        if seen < 7 {
            return Err(format!("incomplete pass report:\n{text}"));
        }
        Ok(r)
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Runs the paper binaries `repeats` times in sequence under the inherited
/// environment and checks each output against the transcript.
pub fn paper_pass(bins: &Path, transcript: &str, repeats: usize) -> Result<PassReport, String> {
    let expected = check::transcript_sections(transcript)?;
    let mut report = PassReport::default();
    let mut wall = Duration::ZERO;
    let mut outputs: BTreeMap<&str, String> = BTreeMap::new();
    let mut speed = HostSpeed::start();
    let before = rusage::usage(Who::Children);
    for _ in 0..repeats {
        for bin in PAPER_BINS {
            report.attempted += 1;
            let start = Instant::now();
            let output = Command::new(bins.join(bin)).output();
            let elapsed = start.elapsed();
            wall += elapsed;
            speed.after(elapsed);
            *report.bins_ms.entry(bin.to_string()).or_default() +=
                elapsed.as_secs_f64() * 1e3 / repeats as f64;
            let output = match output {
                Ok(o) => o,
                Err(e) => {
                    report.failed += 1;
                    eprintln!("{bin}: cannot run: {e}");
                    continue;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
            let verdict = if !output.status.success() {
                Err(format!(
                    "{bin}: {}\n{}",
                    output.status,
                    String::from_utf8_lossy(&output.stderr)
                ))
            } else {
                match expected.get(bin) {
                    Some(want) => check::check_output(bin, want, &stdout),
                    None => Err(format!("{bin}: no transcript section")),
                }
            };
            if let Err(e) = verdict {
                report.failed += 1;
                eprintln!("{e}");
            }
            outputs.insert(bin, stdout);
        }
    }
    let after = rusage::usage(Who::Children);
    report.slowdown = speed.finish();
    report.wall_s = wall.as_secs_f64();
    report.cpu_s = after.cpu_s - before.cpu_s;
    report.max_rss_kib = after.max_rss_kib;
    match check::paper_mesh_error(&outputs) {
        Ok(err) => report.mesh_err_pct = err,
        Err(e) => {
            report.failed += 1;
            eprintln!("accuracy figures: {e}");
        }
    }
    Ok(report)
}

/// Runs the seeded knob sweep in this process with [`JOBS`] threads.
pub fn knob_pass(seed: u64) -> PassReport {
    let set = knob::point_set(seed);
    let mut speed = HostSpeed::start();
    let before = rusage::usage(Who::Process);
    let start = Instant::now();
    let outcomes = knob::run(&set, JOBS);
    let wall = start.elapsed();
    let after = rusage::usage(Who::Process);
    speed.after(wall);
    let rows = knob::format_rows(&set, &outcomes);
    let mut failed = outcomes.iter().filter(|o| o.is_none()).count() as u64;
    if seed == knob::EXPECTED_SEED && rows != knob::EXPECTED_ROWS {
        let expected: Vec<&str> = knob::EXPECTED_ROWS.lines().collect();
        let wrong = rows
            .lines()
            .enumerate()
            .filter(|&(n, row)| expected.get(n) != Some(&row))
            .inspect(|(n, row)| eprintln!("knob_sweep seed {seed}, row {n}: {row}"))
            .count()
            .max(expected.len().abs_diff(outcomes.len()));
        failed = failed.max(wrong as u64);
    }
    PassReport {
        attempted: outcomes.len() as u64,
        failed,
        wall_s: wall.as_secs_f64(),
        slowdown: speed.finish(),
        cpu_s: after.cpu_s - before.cpu_s,
        max_rss_kib: after.max_rss_kib,
        mesh_err_pct: knob::mesh_error(&outcomes),
        digest: Some(format!("{:016x}", fnv64(rows.as_bytes()))),
        bins_ms: BTreeMap::new(),
    }
}

/// The `pass` subcommand body.
pub fn run(
    workload: Workload,
    seed: u64,
    repeats: usize,
    bins: &Path,
    root: &Path,
) -> Result<PassReport, String> {
    if workload.runs_binaries() {
        let transcript = std::fs::read_to_string(root.join("experiments_output.txt"))
            .map_err(|e| format!("experiments_output.txt: {e}"))?;
        paper_pass(bins, &transcript, repeats)
    } else {
        Ok(knob_pass(seed))
    }
}
