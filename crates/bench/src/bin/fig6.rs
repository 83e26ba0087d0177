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
use mesh_bench::{
    compare_each, phm_machine, phm_workload, HybridOptions, FIG5_BUS_DELAYS, FIG6_IDLE_SWEEP,
    FIG6_SEEDS,
};
use mesh_metrics::{mean, series_to_csv, Series, Table};

fn main() {
    println!("Figure 6 — degradation of the purely analytical model with unbalance");
    println!("average |error| vs ISS over the bus-delay sweep, per idle fraction\n");

    let mut mesh = Series::new("MESH error");
    let mut analytical = Series::new("Analytical error");

    // One grid point per (idle, seed) workload — 7 x 3 = 21 independent
    // rows, each building its workload once and comparing it on every bus
    // delay in order. Seeds smooth the sporadic interleavings; rows come
    // back in input order regardless of the worker count.
    let machines = FIG5_BUS_DELAYS.map(phm_machine);
    let points: Vec<(FBits, u64)> = FIG6_IDLE_SWEEP
        .iter()
        .flat_map(|&idle| FIG6_SEEDS.map(|seed| (FBits::new(idle), seed)))
        .collect();
    let rows = mesh_bench::or_exit(
        "fig6",
        mesh_bench::sweep::try_sweep_labeled("fig6", &points, |&(idle, seed)| {
            let workload = phm_workload(idle.get(), seed);
            compare_each(&workload, &machines, HybridOptions::default())
        }),
    );

    for (idle, by_seed) in FIG6_IDLE_SWEEP.iter().zip(rows.chunks(FIG6_SEEDS.len())) {
        // Summed in (delay, seed) order: a float sum depends on its order,
        // and this is the order of the recorded transcript's means.
        let mut mesh_errs = Vec::new();
        let mut analytical_errs = Vec::new();
        for delay in 0..FIG5_BUS_DELAYS.len() {
            for row in by_seed {
                mesh_errs.push(row[delay].mesh_error());
                analytical_errs.push(row[delay].analytical_error());
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
