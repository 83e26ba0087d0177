//! **Extension experiment**: multiple shared resources per thread.
//!
//! Paper §4.1: "a thread can be associated with multiple shared resource
//! schedulers, representing that a thread can access more than one type of
//! shared resource (memory, communication medium, I/O devices, etc.)" — and
//! each resource carries its own interchangeable analytical model.
//!
//! This experiment gives the PHM SoC a shared I/O device next to the memory
//! bus: every kernel burst streams results out through it. The hybrid runs
//! with *different* models per resource (Chen–Lin on the bus, M/D/1 on the
//! I/O device) and is compared per-resource against the cycle-accurate
//! reference, which arbitrates both resources independently.
//!
//! ```bash
//! cargo run -p mesh-bench --bin multi_resource --release
//! ```

use mesh_annotate::{assemble_with_io, AnnotationPolicy};
use mesh_arch::IoConfig;
use mesh_bench::phm_machine;
use mesh_metrics::{abs_percent_error, Table};
use mesh_models::{ChenLinBus, Md1Queue};
use mesh_workloads::scenario::{build, PhmConfig};
use mesh_workloads::SegmentKind;

fn main() {
    println!("Multi-resource PHM SoC: shared bus + shared I/O device");
    println!("hybrid models: Chen-Lin on the bus, M/D/1 on the I/O device\n");

    // Moderately unbalanced scenario; each work segment additionally pushes
    // results through the shared I/O device (~1 op per 60 compute ops).
    let mut workload = build(&PhmConfig::with_second_idle(0.60));
    for task in &mut workload.tasks {
        for seg in &mut task.segments {
            if seg.kind == SegmentKind::Work {
                seg.io_ops = (seg.compute_ops / 60).max(1);
            }
        }
    }
    mesh_bench::or_exit("multi_resource: workload validation", workload.validate());

    let mut table = Table::new(vec![
        "io delay (cyc)",
        "bus q% MESH",
        "bus q% ISS",
        "io q% MESH",
        "io q% ISS",
        "total |err| %",
    ]);
    let io_delays = [4u64, 8, 16, 32];
    let results = mesh_bench::or_exit(
        "multi_resource",
        mesh_bench::sweep::try_sweep_labeled("multi_resource", &io_delays, |&io_delay| {
            let machine = phm_machine(8).with_io(IoConfig::new(io_delay));
            let iss = mesh_cyclesim::simulate(&workload, &machine).expect("iss");
            let setup = assemble_with_io(
                &workload,
                &machine,
                ChenLinBus::new(),
                Md1Queue::new(),
                AnnotationPolicy::PerSegment,
            )
            .expect("assemble");
            let work = setup.work_total() as f64;
            let bus = setup.bus;
            let io = setup.io.expect("io resource");
            let outcome = setup.builder.build().expect("build").run().expect("run");
            let report = outcome.report;

            let pct = |q: f64| 100.0 * q / work;
            (
                pct(report.shared[bus.index()].queuing.as_cycles()),
                pct(iss.bus_queuing_total() as f64),
                pct(report.shared[io.index()].queuing.as_cycles()),
                pct(iss.io_queuing_total() as f64),
            )
        }),
    );
    for (io_delay, (mesh_bus, iss_bus, mesh_io, iss_io)) in io_delays.into_iter().zip(results) {
        let mesh_total = mesh_bus + mesh_io;
        let iss_total = iss_bus + iss_io;
        table.row(vec![
            io_delay.to_string(),
            format!("{mesh_bus:.4}"),
            format!("{iss_bus:.4}"),
            format!("{mesh_io:.4}"),
            format!("{iss_io:.4}"),
            format!("{:.1}", abs_percent_error(mesh_total, iss_total)),
        ]);
    }
    println!("{table}");
    println!("(queuing attributed per shared resource; each resource's analytical");
    println!(" model is evaluated independently over the same timeslices. The");
    println!(" open-form M/D/1 overshoots as the I/O device saturates — swap in");
    println!(" ChenLinBus, whose blocking-master bound fits blocking cores, to");
    println!(" tighten the high-delay rows: models are one line to interchange.)");
    mesh_bench::obs_finish();
}
