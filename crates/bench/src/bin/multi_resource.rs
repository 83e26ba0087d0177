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

use mesh_annotate::AnnotationPolicy;
use mesh_arch::IoConfig;
use mesh_bench::{compare_resources, phm_machine, ResourcePoint};
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
            // One memoized evaluation per I/O delay; every delay folds the
            // scenario's one annotation profile.
            let machine = phm_machine(8).with_io(IoConfig::new(io_delay));
            compare_resources(
                &workload,
                &machine,
                ChenLinBus::new(),
                Md1Queue::new(),
                AnnotationPolicy::PerSegment,
            )
        }),
    );
    for (io_delay, point) in io_delays.into_iter().zip(results) {
        let ResourcePoint {
            mesh_bus_pct,
            iss_bus_pct,
            mesh_io_pct,
            iss_io_pct,
        } = point;
        table.row(vec![
            io_delay.to_string(),
            format!("{mesh_bus_pct:.4}"),
            format!("{iss_bus_pct:.4}"),
            format!("{mesh_io_pct:.4}"),
            format!("{iss_io_pct:.4}"),
            format!(
                "{:.1}",
                abs_percent_error(mesh_bus_pct + mesh_io_pct, iss_bus_pct + iss_io_pct)
            ),
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
