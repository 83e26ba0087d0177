//! **Ablation A (paper §4.3)**: the minimum-timeslice parameter.
//!
//! "The designer can choose to trade off small amounts of accuracy to keep
//! the number of timeslices down." This sweep quantifies that trade-off on
//! the FFT workload: as the minimum timeslice grows, analysis windows are
//! merged, kernel work drops, and accuracy degrades gracefully until the
//! hybrid collapses into a single whole-run evaluation.
//!
//! ```bash
//! cargo run -p mesh-bench --bin ablation_minslice --release
//! ```

use mesh_annotate::AnnotationPolicy;
use mesh_bench::sweep::FBits;
use mesh_bench::{compare, fft_machine, HybridOptions, FFT_BUS_DELAY};
use mesh_metrics::Table;
use mesh_workloads::fft::{build, FftConfig};

fn main() {
    println!("Ablation — minimum timeslice vs accuracy and kernel work");
    println!("FFT, 8 processors, 512KB caches, annotations at barriers\n");

    let workload = build(&FftConfig::with_threads(8));
    let machine = fft_machine(8, 512 * 1024, FFT_BUS_DELAY);

    let mut table = Table::new(vec![
        "min timeslice (cyc)",
        "slices analyzed",
        "MESH % queuing",
        "ISS % queuing",
        "MESH |error| %",
        "hybrid wall (us)",
    ]);
    let sweep: Vec<FBits> = [
        0.0,
        100.0,
        1_000.0,
        10_000.0,
        100_000.0,
        1_000_000.0,
        10_000_000.0,
    ]
    .map(FBits::new)
    .to_vec();
    let results = mesh_bench::or_exit(
        "ablation_minslice",
        mesh_bench::sweep::sweep_with_references(
            "ablation_minslice",
            &sweep,
            |_| mesh_bench::iss_reference_fp(&workload, &machine),
            |&min| {
                compare(
                    &workload,
                    &machine,
                    HybridOptions {
                        policy: AnnotationPolicy::AtBarriers,
                        min_timeslice: min.get(),
                    },
                )
            },
        ),
    );
    mesh_bench::note_replayed("ablation_minslice", &results);
    for (min, p) in sweep.iter().map(|m| m.get()).zip(results) {
        table.row(vec![
            format!("{min}"),
            p.mesh_slices.to_string(),
            format!("{:.4}", p.mesh_pct),
            format!("{:.4}", p.iss_pct),
            format!("{:.1}", p.mesh_error()),
            format!("{:.1}", p.mesh_wall.as_secs_f64() * 1e6),
        ]);
    }
    println!("{table}");
    println!("(larger minimum timeslices merge analysis windows: fewer model");
    println!(" evaluations, degraded accuracy — the paper's designer trade-off)");
    mesh_bench::obs_finish();
}
