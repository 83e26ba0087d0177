//! **NoC / shared-throughput sweep**: exercises the two network-style
//! contention models — the priority-class NoC of Mandal et al.
//! ([`PriorityNoc`]) and the fair throughput-sharing discipline
//! ([`FairShare`]) — across the Figure-4-style processor grid, and
//! validates every point's worst-case envelope against the cycle-accurate
//! simulator's adversarial arbitration schedules.
//!
//! Threads are assigned descending priority classes (thread 0 highest), so
//! the priority-NoC rows show class differentiation. For each point the
//! table reports the hybrid's mean queuing, its worst-case envelope, and
//! the *maximum* queuing any adversarial ISS schedule produced; the final
//! column checks that the envelope dominates the observation.
//!
//! The multi-hop row routes over 2 hops with every hop fully shared
//! (overlap 1.0), and every point runs every distinct adversarial
//! schedule: fixed and reverse priority, and victim-last for each
//! processor but the last — 2, 5 and 9 cycle-accurate runs for the 2-, 4-
//! and 8-processor columns. The two victim-last schedules left out of the
//! `2 + n` grant exactly as fixed or reverse priority does
//! ([`Arbitration::adversarial`](mesh_arch::Arbitration::adversarial)), so
//! the adversarial maximum is the full set's. A point simulates its
//! schedules on the run's job budget (`MESH_BENCH_JOBS`), reading first
//! the ones another point or the result cache already holds.
//!
//! ```bash
//! cargo run -p mesh-bench --bin noc_sweep --release
//! ```

use mesh_bench::{fft_machine, run_envelope_point, EnvelopePoint, FFT_BUS_DELAY};
use mesh_metrics::{series_to_csv, Series, Table};
use mesh_models::{FairShare, PriorityNoc};
use mesh_workloads::uniform::{build, UniformConfig};

const PROC_SWEEP: [usize; 3] = [2, 4, 8];

/// Route length of the multi-hop NoC row.
const HOPS: u32 = 2;
/// Fraction of competing traffic sharing each hop of the multi-hop row.
const OVERLAP: f64 = 1.0;

fn run_point(model_key: &str, procs: usize) -> EnvelopePoint {
    let workload = build(&UniformConfig::with_threads(procs));
    // Small caches so the steady sweep keeps missing (as in
    // validation_uniform): contention is the object of study here.
    let machine = fft_machine(procs, 8 * 1024, FFT_BUS_DELAY);
    // Descending priority classes: thread 0 is the most important flow.
    let priorities: Vec<u32> = (0..procs).map(|i| (procs - i) as u32).collect();
    match model_key {
        "noc-1hop" => run_envelope_point(&workload, &machine, PriorityNoc::new(1), &priorities),
        "noc-multihop" => run_envelope_point(
            &workload,
            &machine,
            PriorityNoc::new(HOPS).with_overlap(OVERLAP),
            &priorities,
        ),
        "fair-share" => run_envelope_point(&workload, &machine, FairShare::new(), &priorities),
        other => unreachable!("unknown model {other}"),
    }
}

fn main() {
    println!("NoC sweep — priority-class NoC and fair-shared throughput models");
    println!(
        "uniform workload, 8KB caches, bus delay = {FFT_BUS_DELAY} cycles, \
         priority classes descending from thread 0"
    );
    println!("multi-hop row: hops = {HOPS}, overlap = {OVERLAP}\n");

    let models: [(&str, String); 3] = [
        ("noc-1hop", "priority-noc (1 hop)".to_string()),
        (
            "noc-multihop",
            format!("priority-noc ({HOPS} hops, w={OVERLAP})"),
        ),
        ("fair-share", "fair-share".to_string()),
    ];
    let points: Vec<(&str, usize)> = models
        .iter()
        .flat_map(|&(key, _)| PROC_SWEEP.map(|procs| (key, procs)))
        .collect();
    // The expensive shared legs here are the adversarial ISS schedules,
    // which depend only on the processor count: the three model rows of
    // each grid column share them, through the memo in process and on one
    // worker when sharded, where the base machine's reference key stands
    // for the column. The grid is model-major, so its first three claims
    // start the three distinct schedule sets, each point spreading its own
    // set's simulations over the job budget.
    let results = mesh_bench::or_exit(
        "noc_sweep",
        mesh_bench::sweep::sweep_with_references(
            "noc_sweep",
            &points,
            |&(_, procs)| {
                let workload = build(&UniformConfig::with_threads(procs));
                let machine = fft_machine(procs, 8 * 1024, FFT_BUS_DELAY);
                mesh_bench::iss_reference_fp(&workload, &machine)
            },
            |&(key, procs)| run_point(key, procs),
        ),
    );

    let mut table = Table::new(vec![
        "model",
        "# of processors",
        "MESH mean %",
        "envelope %",
        "adversarial ISS %",
        "bound holds",
    ]);
    let mut all_hold = true;
    let mut csv_series: Vec<Series> = Vec::new();
    let mut rows = points.iter().zip(&results);
    for (key, label) in &models {
        let mut envelope = Series::new(format!("{label} envelope"));
        let mut adversarial = Series::new(format!("{label} adversarial"));
        for procs in PROC_SWEEP {
            let (&point, p) = rows.next().expect("one result per grid point");
            assert_eq!(point, (*key, procs));
            let holds = p.envelope_holds();
            all_hold &= holds;
            table.row(vec![
                label.clone(),
                procs.to_string(),
                format!("{:.4}", p.mean_pct),
                format!("{:.4}", p.worst_pct),
                format!("{:.4}", p.adversarial_pct),
                if holds { "yes" } else { "VIOLATED" }.to_string(),
            ]);
            envelope.push(procs as f64, p.worst_pct);
            adversarial.push(procs as f64, p.adversarial_pct);
        }
        csv_series.push(envelope);
        csv_series.push(adversarial);
    }
    println!("{table}");
    println!(
        "envelope domination: {}",
        if all_hold {
            "holds at every point"
        } else {
            "VIOLATED — the worst-case bound failed to cover an adversarial schedule"
        }
    );
    if std::env::args().any(|a| a == "--csv") {
        println!("\n{}", series_to_csv("procs", &csv_series));
    }
    mesh_bench::obs_finish();
    if !all_hold {
        std::process::exit(1);
    }
}
