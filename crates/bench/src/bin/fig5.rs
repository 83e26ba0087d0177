//! Regenerates **Figure 5**: queuing cycles predicted by MESH, ISS and the
//! purely analytical model for the heterogeneous PHM SoC running MiBench
//! kernels, as the bus access time is varied, with the second processor idle
//! 90% of the time.
//!
//! Paper reference: "Because the analytical model is unable to recognize
//! unbalanced workloads, it greatly overestimates the number of queuing
//! cycles", while MESH tracks the ISS.
//!
//! ```bash
//! cargo run -p mesh-bench --bin fig5 --release
//! ```

use mesh_bench::{compare, phm_machine, phm_workload, HybridOptions, FIG5_BUS_DELAYS};
use mesh_metrics::{mean, series_to_csv, Series, Table};

fn main() {
    println!("Figure 5 — PHM SoC: queuing cycles (% of work cycles) vs bus delay");
    println!("processor 0: ARM-like, 6% idle; processor 1: M32R-like, 90% idle\n");

    let mut mesh = Series::new("MESH");
    let mut iss = Series::new("ISS");
    let mut analytical = Series::new("Analytical");
    let mut mesh_errs = Vec::new();
    let mut analytical_errs = Vec::new();

    // One workload, built once; each bus delay is a grid point of its own.
    let workload = phm_workload(0.90, 0xC0FFEE);
    let results = mesh_bench::or_exit(
        "fig5",
        mesh_bench::sweep::try_sweep_labeled("fig5", &FIG5_BUS_DELAYS, |&delay| {
            compare(&workload, &phm_machine(delay), HybridOptions::default())
        }),
    );
    for (delay, p) in FIG5_BUS_DELAYS.iter().zip(results) {
        mesh.push(*delay as f64, p.mesh_pct);
        iss.push(*delay as f64, p.iss_pct);
        analytical.push(*delay as f64, p.analytical_pct);
        mesh_errs.push(p.mesh_error());
        analytical_errs.push(p.analytical_error());
    }

    println!(
        "{}",
        Table::from_series(
            "bus delay (cycles)",
            &[mesh.clone(), iss.clone(), analytical.clone()]
        )
    );
    println!(
        "average |error| vs ISS:  MESH {:6.1}%   analytical {:6.1}%",
        mean(&mesh_errs),
        mean(&analytical_errs),
    );
    println!("(paper: the analytical model greatly overestimates; MESH tracks the ISS)");
    if std::env::args().any(|a| a == "--csv") {
        println!("{}", series_to_csv("bus_delay", &[mesh, iss, analytical]));
    }
    mesh_bench::obs_finish();
}
