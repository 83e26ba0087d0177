//! **Validation** (paper §5.1 control case): on balanced, uniform-access
//! benchmarks — the "other SPLASH-2 programs" — the Chen–Lin model performs
//! well *both* as a whole-program analytical estimate and inside the MESH
//! hybrid. The hybrid's advantage appears only when behaviour is irregular;
//! this binary confirms the control case so the Figure 4–6 wins are
//! attributable to irregularity, not to a mistuned baseline.
//!
//! ```bash
//! cargo run -p mesh-bench --bin validation_uniform --release
//! ```

use mesh_annotate::AnnotationPolicy;
use mesh_bench::{compare, fft_machine, HybridOptions};
use mesh_metrics::{mean, Table};
use mesh_workloads::uniform::{build, UniformConfig};

fn main() {
    println!("Validation — uniform balanced benchmark (LU/radix stand-in)");
    println!("all three estimators should agree\n");

    let mut table = Table::new(vec![
        "# of processors",
        "Analytical",
        "MESH",
        "ISS",
        "analytical |err| %",
        "MESH |err| %",
    ]);
    let mut a_errs = Vec::new();
    let mut m_errs = Vec::new();
    let procs_sweep = [2usize, 4, 8];
    let results = mesh_bench::or_exit(
        "validation_uniform",
        mesh_bench::sweep::try_sweep_labeled("validation_uniform", &procs_sweep, |&procs| {
            let workload = build(&UniformConfig::with_threads(procs));
            // Small caches so the steady sweep keeps missing.
            let machine = fft_machine(procs, 8 * 1024, 4);
            compare(
                &workload,
                &machine,
                HybridOptions {
                    policy: AnnotationPolicy::AtBarriers,
                    min_timeslice: 0.0,
                },
            )
        }),
    );
    for (procs, p) in procs_sweep.into_iter().zip(results) {
        a_errs.push(p.analytical_error());
        m_errs.push(p.mesh_error());
        table.row(vec![
            procs.to_string(),
            format!("{:.4}", p.analytical_pct),
            format!("{:.4}", p.mesh_pct),
            format!("{:.4}", p.iss_pct),
            format!("{:.1}", p.analytical_error()),
            format!("{:.1}", p.mesh_error()),
        ]);
    }
    println!("{table}");
    println!(
        "average |error| vs ISS:  analytical {:5.1}%   MESH {:5.1}%",
        mean(&a_errs),
        mean(&m_errs)
    );
    println!("(paper: \"In the other SPLASH-2 benchmarks the Chen-Lin model performs");
    println!(" well, as does the corresponding MESH model\")");
    mesh_bench::obs_finish();
}
