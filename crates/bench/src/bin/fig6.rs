//! Regenerates **Figure 6**: average percent error of the MESH hybrid and
//! the purely analytical model as the second processor's idle fraction (the
//! shared-resource access unbalance) grows.
//!
//! Paper reference: "when application interactions exhibit relatively
//! uniform shared resource access behavior, pure analytical models are
//! acceptable. However, as one of the processors exhibits over 60% less
//! shared resource accesses than the other, the purely analytical approach
//! breaks down and is outperformed by the MESH hybrid model."
//!
//! Errors are averaged over the Figure 5 bus-delay sweep at each idle
//! fraction.
//!
//! ```bash
//! cargo run -p mesh-bench --bin fig6 --release
//! ```

use mesh_bench::sweep::FBits;
use mesh_bench::{run_phm_point, FIG5_BUS_DELAYS, FIG6_IDLE_SWEEP};
use mesh_metrics::{mean, series_to_csv, Series, Table};

fn main() {
    println!("Figure 6 — degradation of the purely analytical model with unbalance");
    println!("average |error| vs ISS over the bus-delay sweep, per idle fraction\n");

    let mut mesh = Series::new("MESH error");
    let mut analytical = Series::new("Analytical error");

    // The full (idle, delay, seed) grid — 7 x 5 x 3 = 105 independent
    // points, the largest sweep in the harness and the one that benefits
    // most from MESH_BENCH_JOBS > 1. Seeds smooth the sporadic
    // interleavings; results come back in input order regardless of the
    // worker count.
    let points: Vec<(FBits, u64, u64)> = FIG6_IDLE_SWEEP
        .iter()
        .flat_map(|&idle| {
            FIG5_BUS_DELAYS.iter().flat_map(move |&delay| {
                [0xC0FFEE, 0xBEEF, 0xF00D].map(|seed| (FBits::new(idle), delay, seed))
            })
        })
        .collect();
    let results = mesh_bench::or_exit(
        "fig6",
        mesh_bench::sweep::try_sweep_labeled("fig6", &points, |&(idle, delay, seed)| {
            run_phm_point(idle.get(), delay, seed)
        }),
    );
    let mut rows = results.into_iter();

    for idle in FIG6_IDLE_SWEEP {
        let mut mesh_errs = Vec::new();
        let mut analytical_errs = Vec::new();
        for _delay in FIG5_BUS_DELAYS {
            for _seed in [0xC0FFEE, 0xBEEF, 0xF00D] {
                let p = rows.next().expect("one result per grid point");
                mesh_errs.push(p.mesh_error());
                analytical_errs.push(p.analytical_error());
            }
        }
        mesh.push(idle * 100.0, mean(&mesh_errs));
        analytical.push(idle * 100.0, mean(&analytical_errs));
    }

    println!(
        "{}",
        Table::from_series("percent idle", &[mesh.clone(), analytical.clone()])
    );
    println!("(paper: analytical error grows sharply past ~60% unbalance; MESH stays flat)");
    if std::env::args().any(|a| a == "--csv") {
        println!("{}", series_to_csv("pct_idle", &[mesh, analytical]));
    }
    mesh_bench::obs_finish();
}
