//! Regenerates **Figure 4**: queuing cycles predicted by the Analytical,
//! MESH (hybrid) and ISS (cycle-accurate) estimators for the SPLASH-2-style
//! FFT, versus processor count, for 512 KB and 8 KB caches.
//!
//! Paper reference values: the purely analytical model averages ~70% error
//! (512 KB) and ~44% error (8 KB); the MESH hybrid reduces these to ~14.5%
//! and ~18%.
//!
//! ```bash
//! cargo run -p mesh-bench --bin fig4 --release
//! ```

use mesh_bench::{run_fft_point, FFT_BUS_DELAY, FFT_CACHES, FFT_PROC_SWEEP};
use mesh_metrics::{mean, series_to_csv, Series, Table};

fn main() {
    println!("Figure 4 — SPLASH-2-style FFT: queuing cycles (% of work cycles)");
    println!("bus delay = {FFT_BUS_DELAY} cycles, annotations at barriers\n");

    // The full (cache, procs) grid is evaluated in parallel up front;
    // printing below walks the deterministic, input-ordered results.
    let points: Vec<(u64, usize)> = FFT_CACHES
        .iter()
        .flat_map(|&(cache_bytes, _)| FFT_PROC_SWEEP.map(|procs| (cache_bytes, procs)))
        .collect();
    let results = mesh_bench::or_exit(
        "fig4",
        mesh_bench::sweep::try_sweep_labeled("fig4", &points, |&(cache_bytes, procs)| {
            run_fft_point(procs, cache_bytes, FFT_BUS_DELAY)
        }),
    );
    let mut rows = points.iter().zip(results);

    for (cache_bytes, label) in FFT_CACHES {
        let mut analytical = Series::new("Analytical");
        let mut mesh = Series::new("MESH");
        let mut iss = Series::new("ISS");
        let mut mesh_errs = Vec::new();
        let mut analytical_errs = Vec::new();

        for procs in FFT_PROC_SWEEP {
            let (&point, p) = rows.next().expect("one result per grid point");
            assert_eq!(point, (cache_bytes, procs));
            analytical.push(procs as f64, p.analytical_pct);
            mesh.push(procs as f64, p.mesh_pct);
            iss.push(procs as f64, p.iss_pct);
            mesh_errs.push(p.mesh_error());
            analytical_errs.push(p.analytical_error());
        }

        println!("FFT, {label} cache");
        println!(
            "{}",
            Table::from_series(
                "# of processors",
                &[analytical.clone(), mesh.clone(), iss.clone()]
            )
        );
        println!(
            "average |error| vs ISS:  analytical {:6.1}%   MESH {:6.1}%\n",
            mean(&analytical_errs),
            mean(&mesh_errs),
        );
        if std::env::args().any(|a| a == "--csv") {
            println!("{}", series_to_csv("procs", &[analytical, mesh, iss]));
        }
    }
    mesh_bench::obs_finish();
}
