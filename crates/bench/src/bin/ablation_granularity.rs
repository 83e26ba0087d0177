//! **Ablation B (paper §3)**: annotation spacing.
//!
//! "The spacing of annotations is the primary determinant of simulation
//! accuracy and run-time." This sweep coarsens the annotation placement on
//! the PHM scenario — from one region per kernel batch up to one region per
//! whole execution burst — and watches the hybrid's accuracy decay toward
//! the pure-analytical limit while its cost shrinks.
//!
//! ```bash
//! cargo run -p mesh-bench --bin ablation_granularity --release
//! ```

use mesh_annotate::AnnotationPolicy;
use mesh_bench::{compare, phm_machine, HybridOptions};
use mesh_metrics::Table;
use mesh_workloads::scenario::{build, PhmConfig};

fn main() {
    println!("Ablation — annotation granularity vs accuracy and kernel work");
    println!("PHM scenario, second processor 90% idle, bus delay 8 cycles\n");

    let workload = build(&PhmConfig::with_second_idle(0.90));
    let machine = phm_machine(8);

    let mut table = Table::new(vec![
        "segments per region",
        "regions",
        "MESH % queuing",
        "ISS % queuing",
        "MESH |error| %",
        "hybrid wall (us)",
    ]);
    // `Some(n)` = one region per `n` kernel segments; `None` = the
    // degenerate whole-burst limit (one region per barrier-free run).
    let sweep: Vec<Option<usize>> = [1usize, 2, 4, 8, 16, 32, 64, 256]
        .iter()
        .map(|&n| Some(n))
        .chain([None])
        .collect();
    let results = mesh_bench::or_exit(
        "ablation_granularity",
        mesh_bench::sweep::sweep_with_references(
            "ablation_granularity",
            &sweep,
            |_| mesh_bench::iss_reference_fp(&workload, &machine),
            |&spacing| {
                compare(
                    &workload,
                    &machine,
                    HybridOptions {
                        policy: match spacing {
                            Some(n) => AnnotationPolicy::EverySegments(n),
                            None => AnnotationPolicy::AtBarriers,
                        },
                        min_timeslice: 0.0,
                    },
                )
            },
        ),
    );
    mesh_bench::note_replayed("ablation_granularity", &results);
    for (spacing, p) in sweep.iter().zip(results) {
        table.row(vec![
            match spacing {
                Some(n) => n.to_string(),
                None => "whole-burst".to_string(),
            },
            p.mesh_regions.to_string(),
            format!("{:.4}", p.mesh_pct),
            format!("{:.4}", p.iss_pct),
            format!("{:.1}", p.mesh_error()),
            format!("{:.1}", p.mesh_wall.as_secs_f64() * 1e6),
        ]);
    }
    println!("{table}");
    println!("(coarser annotations -> fewer regions -> cheaper, less accurate.");
    println!(" The curve plateaus once every burst is a single region: idle gaps");
    println!(" always remain region boundaries, so the hybrid keeps seeing the");
    println!(" unbalance that destroys the whole-program analytical model.)");
    mesh_bench::obs_finish();
}
