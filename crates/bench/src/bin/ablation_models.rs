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
use mesh_bench::{assemble_memoized, fft_machine, FFT_BUS_DELAY};
use mesh_core::model::ContentionModel;
use mesh_metrics::{abs_percent_error, Table};
use mesh_models::{
    ChenLinBus, FairShare, Md1Queue, Mm1Queue, MvaBus, PriorityBus, PriorityNoc, RoundRobinBus,
    ScaledModel, TableModel,
};
use mesh_workloads::fft::{build, FftConfig};

fn run_model<M: ContentionModel + 'static>(
    workload: &mesh_workloads::Workload,
    machine: &mesh_arch::MachineConfig,
    model: M,
) -> (f64, u64) {
    // Every model folds the one memoized annotation profile of the scenario.
    let setup = assemble_memoized(workload, machine, model, AnnotationPolicy::AtBarriers);
    let work = setup.work_total();
    let outcome = setup.builder.build().expect("build").run().expect("run");
    (
        100.0 * outcome.report.queuing_total().as_cycles() / work as f64,
        outcome.report.slices_analyzed,
    )
}

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

    // One sweep point per interchangeable model; names double as cache keys.
    let models = [
        "chen-lin (M/D/1 + blocking bound)",
        "m/d/1",
        "m/m/1",
        "round-robin (linear)",
        "mva (finite population)",
        "priority (equal priorities)",
        "measured table",
        "chen-lin x0.9 (calibrated)",
        "priority-noc (1 hop, equal classes)",
        "fair-share (processor sharing)",
    ];
    // One planner group: every model row scores against the same
    // cycle-accurate reference, which the split-phase planner runs (and the
    // sub-evaluation cache shares) exactly once.
    let results = mesh_bench::or_exit(
        "ablation_models",
        mesh_bench::eval::sweep_with_references(
            "ablation_models",
            &models,
            |_| mesh_bench::iss_reference_fp(&workload, &machine),
            |_| {
                mesh_bench::iss_reference(&workload, &machine);
            },
            |&name| {
                let (pct, _) = match name {
                    "chen-lin (M/D/1 + blocking bound)" => {
                        run_model(&workload, &machine, ChenLinBus::new())
                    }
                    "m/d/1" => run_model(&workload, &machine, Md1Queue::new()),
                    "m/m/1" => run_model(&workload, &machine, Mm1Queue::new()),
                    "round-robin (linear)" => run_model(&workload, &machine, RoundRobinBus::new()),
                    "mva (finite population)" => run_model(&workload, &machine, MvaBus::new()),
                    "priority (equal priorities)" => {
                        run_model(&workload, &machine, PriorityBus::new())
                    }
                    "measured table" => {
                        // A table measured to mimic M/D/1 at a few breakpoints.
                        let table_model = TableModel::new(vec![
                            (0.25, 0.17),
                            (0.50, 0.50),
                            (0.75, 1.50),
                            (0.95, 3.00),
                        ])
                        .expect("valid table");
                        run_model(&workload, &machine, table_model)
                    }
                    "chen-lin x0.9 (calibrated)" => run_model(
                        &workload,
                        &machine,
                        ScaledModel::new(ChenLinBus::new(), 0.9),
                    ),
                    "priority-noc (1 hop, equal classes)" => {
                        run_model(&workload, &machine, PriorityNoc::new(1))
                    }
                    "fair-share (processor sharing)" => {
                        run_model(&workload, &machine, FairShare::new())
                    }
                    other => unreachable!("unknown model {other}"),
                };
                pct
            },
        ),
    );
    let reference = mesh_bench::iss_reference(&workload, &machine).pct;
    for (name, pct) in models.iter().zip(results) {
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
