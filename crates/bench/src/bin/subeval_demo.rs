//! Miniature shared-reference ablation sweep — the byte-identity test
//! target.
//!
//! Runs a small min-timeslice grid (FFT-4096 on 2 processors, 8 KB caches)
//! through the sweep entry point the real ablation binaries use
//! ([`mesh_bench::sweep::sweep_with_references`] feeding
//! [`mesh_bench::compare`]): every point shares one ISS reference through
//! the memo in process, and the reference key keeps the grid on one worker
//! when sharded. It prints a table with wall-clock columns. The
//! `cache_identity` integration test spawns this binary cold, memo-warm and
//! sharded and asserts the stdout bytes never change: cached legs replay
//! their *recorded* wall clocks, so even the timing columns are reproduced
//! exactly. A cold sharded run measures its own wall clocks; every other
//! column must still match, and it simulates the reference once.

use mesh_annotate::AnnotationPolicy;
use mesh_bench::sweep::{sweep_with_references, FBits};
use mesh_bench::{compare, fft_machine, HybridOptions};
use mesh_workloads::fft::{self, FftConfig};

fn main() {
    let cfg = FftConfig {
        points: 4096,
        threads: 2,
        ..FftConfig::default()
    };
    let workload = fft::build(&cfg);
    let machine = fft_machine(2, 8 * 1024, 4);
    let grid: Vec<FBits> = [0.0, 50.0, 200.0, 1000.0, 5000.0]
        .into_iter()
        .map(FBits::new)
        .collect();

    println!("subeval-demo: min-timeslice ablation (FFT-4096, 2 procs, 8KB)");
    let results = mesh_bench::or_exit(
        "subeval-demo",
        sweep_with_references(
            "subeval-demo",
            &grid,
            |_| mesh_bench::iss_reference_fp(&workload, &machine),
            |m| {
                compare(
                    &workload,
                    &machine,
                    HybridOptions {
                        policy: AnnotationPolicy::AtBarriers,
                        min_timeslice: m.get(),
                    },
                )
            },
        ),
    );

    println!("min_ts slices mesh% iss% err% hybrid_us iss_us");
    for (m, p) in grid.iter().zip(&results) {
        println!(
            "{:7.0} {:6} {:9.4} {:9.4} {:8.3} {:11.3} {:11.3}",
            m.get(),
            p.mesh_slices,
            p.mesh_pct,
            p.iss_pct,
            p.mesh_error(),
            p.mesh_wall.as_secs_f64() * 1e6,
            p.iss_wall.as_secs_f64() * 1e6,
        );
    }
    mesh_bench::note_replayed("subeval-demo", &results);
    mesh_bench::obs_finish();
}
