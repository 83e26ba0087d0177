//! Regenerates **Table 1**: simulation wall-clock runtimes of the MESH
//! hybrid versus the cycle-accurate reference (ISS) for the FFT benchmark at
//! both cache sizes, across the processor sweep.
//!
//! Paper reference: "the runtime of the MESH simulation is at least 100
//! times faster than a corresponding instruction set accurate simulation."
//! Absolute seconds depend on the host and the simulators, so the claim
//! under reproduction is the *ratio*.
//!
//! ```bash
//! cargo run -p mesh-bench --bin table1 --release
//! ```

use mesh_bench::{run_fft_point, FFT_BUS_DELAY, FFT_CACHES, FFT_PROC_SWEEP};
use mesh_metrics::Table;

fn main() {
    println!("Table 1 — simulation runtimes (seconds) for the FFT benchmark\n");
    let mut table = Table::new(vec![
        "# of procs",
        "512KB MESH",
        "512KB ISS",
        "512KB speedup",
        "8KB MESH",
        "8KB ISS",
        "8KB speedup",
    ]);
    let mut min_speedup = f64::INFINITY;
    // Note: this table reports wall-clock runtimes, so for the most faithful
    // per-point timings run with MESH_BENCH_JOBS=1 (no co-scheduled workers
    // competing for cores). The speedup *ratio* is robust either way because
    // both simulators of a point run on the same worker.
    let points: Vec<(usize, u64)> = FFT_PROC_SWEEP
        .iter()
        .flat_map(|&procs| FFT_CACHES.map(|(cache_bytes, _)| (procs, cache_bytes)))
        .collect();
    let results = mesh_bench::or_exit(
        "table1",
        mesh_bench::sweep::try_sweep_labeled("table1", &points, |&(procs, cache_bytes)| {
            run_fft_point(procs, cache_bytes, FFT_BUS_DELAY)
        }),
    );
    // Timing table: flag rows whose wall clocks were replayed from the
    // result cache rather than measured by this process.
    mesh_bench::note_replayed("table1", &results);
    let mut rows = points.iter().zip(results);
    for procs in FFT_PROC_SWEEP {
        let mut row = vec![procs.to_string()];
        for (cache_bytes, _) in FFT_CACHES {
            let (&point, p) = rows.next().expect("one result per grid point");
            assert_eq!(point, (procs, cache_bytes));
            row.push(format!("{:.6}", p.mesh_wall.as_secs_f64()));
            row.push(format!("{:.4}", p.iss_wall.as_secs_f64()));
            row.push(format!("{:.0}x", p.speedup()));
            min_speedup = min_speedup.min(p.speedup());
        }
        table.row(row);
    }
    println!("{table}");
    println!("minimum speedup across configurations: {min_speedup:.0}x (paper: >= 100x)");
    mesh_bench::obs_finish();
}
