//! **Ablation C** (paper §2): interchangeable analytical models.
//!
//! The framework "allow\[s\] analytical models to be interchanged for each
//! individual shared resource within the simulation". This sweep plugs every
//! model in `mesh-models` into the same hybrid FFT simulation and reports
//! each one's accuracy against the cycle-accurate reference — quantifying
//! how much of the hybrid's accuracy comes from the *piecewise evaluation*
//! versus the particular formula inside it.
//!
//! ```bash
//! cargo run -p mesh-bench --bin ablation_models --release
//! ```

use mesh_annotate::AnnotationPolicy;
use mesh_bench::{ablation_models, fft_machine, hybrid_run, HybridOptions, FFT_BUS_DELAY};
use mesh_core::model::NoContention;
use mesh_metrics::{abs_percent_error, Table};
use mesh_workloads::fft::{build, FftConfig};

fn main() {
    println!("Ablation — contention model choice inside the hybrid kernel");
    println!("FFT, 8 processors, 512KB caches, annotations at barriers\n");

    let workload = build(&FftConfig::with_threads(8));
    let machine = fft_machine(8, 512 * 1024, FFT_BUS_DELAY);

    let mut table = Table::new(vec![
        "model",
        "MESH % queuing",
        "ISS % queuing",
        "|error| %",
    ]);

    // One sweep point per interchangeable model; labels double as cache keys.
    let labels: Vec<&str> = ablation_models()
        .into_iter()
        .map(|(label, _)| label)
        .collect();
    // One reference group: every model row scores against the same
    // cycle-accurate reference, which the memo shares across the rows (and
    // the fabric keeps on one worker).
    let results = mesh_bench::or_exit(
        "ablation_models",
        mesh_bench::sweep::sweep_with_references(
            "ablation_models",
            &labels,
            |_| mesh_bench::iss_reference_fp(&workload, &machine),
            |&label| {
                // The reference runs first: its simulation compiles the
                // traces the hybrid run's annotation profile is read from.
                let reference = mesh_bench::iss_reference(&workload, &machine).pct;
                let (_, model) = ablation_models()
                    .into_iter()
                    .find(|&(l, _)| l == label)
                    .expect("a model of the table");
                // Memoized per model identity; a replay runs no kernel.
                let options = HybridOptions {
                    policy: AnnotationPolicy::AtBarriers,
                    min_timeslice: 0.0,
                };
                let no_io = None::<NoContention>;
                let run = hybrid_run(&workload, &machine, model, no_io, options, &[]);
                (run.percent(run.queuing), reference)
            },
        ),
    );
    for (name, (pct, reference)) in labels.iter().zip(results) {
        table.row(vec![
            name.to_string(),
            format!("{pct:.4}"),
            format!("{reference:.4}"),
            format!("{:.1}", abs_percent_error(pct, reference)),
        ]);
    }

    println!("{table}");
    println!("(every model is evaluated piecewise by the same kernel; the piecewise");
    println!(" evaluation, not the specific formula, carries most of the accuracy)");
    mesh_bench::obs_finish();
}
