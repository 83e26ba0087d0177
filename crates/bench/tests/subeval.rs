//! Proves the split-phase acceptance condition with observability counters:
//! an ablation-style sweep varying only hybrid knobs invokes
//! `mesh_cyclesim::simulate` **exactly once** per distinct (workload,
//! machine), with every other point sharing the memoized reference — and
//! walks each task's cache exactly once per scenario, in the reference's
//! trace compile: every hybrid and analytical leg reads its annotation
//! profile from those compiled traces as a trace-cache hit. A scenario no
//! simulation has touched compiles its traces for the profile, and its
//! later reference reuses them.
//!
//! This is the only test in this file on purpose — it reads process-global
//! counters, and a sibling test running `compare` in parallel would race
//! the deltas.

use mesh_annotate::{AnnotationPolicy, ProfiledWorkload};
use mesh_bench::{compare, fft_machine, hybrid_run, memo, sweep, HybridOptions};
use mesh_core::model::NoContention;
use mesh_cyclesim::{cache_stats, Pacing, TraceCacheStats};
use mesh_models::Mm1Queue;
use mesh_obs as obs;
use mesh_workloads::fft::{self, FftConfig};

#[test]
fn knob_sweep_runs_cyclesim_once_per_scenario() {
    obs::set_enabled(true);
    memo::set_result_cache(None);
    memo::clear_subeval_lru();

    let workload = fft::build(&FftConfig {
        points: 1024,
        threads: 2,
        ..FftConfig::default()
    });
    let machine = fft_machine(2, 8 * 1024, 4);
    let grid = [0.0, 10.0, 100.0, 500.0, 2000.0];
    let policies = [AnnotationPolicy::AtBarriers, AnnotationPolicy::PerSegment];
    let knobs: Vec<HybridOptions> = policies
        .iter()
        .flat_map(|&policy| {
            grid.iter().map(move |&min_timeslice| HybridOptions {
                policy,
                min_timeslice,
            })
        })
        .collect();
    // Trace-cache lookups and compiles since `before`, as
    // `[hits, misses, compiles]`.
    let traces_since = |before: TraceCacheStats| {
        let now = cache_stats();
        [
            now.hits - before.hits,
            now.misses - before.misses,
            now.compiles - before.compiles,
        ]
    };
    let tasks = workload.tasks.len() as u64;

    let runs_before = obs::counter("cyclesim.sim.runs").value();
    let shared_before = obs::counter("bench.subeval.reference_shared").value();
    let traces_before = cache_stats();

    let points: Vec<_> = knobs
        .iter()
        .map(|&options| compare(&workload, &machine, options))
        .collect();

    let runs = obs::counter("cyclesim.sim.runs").value() - runs_before;
    let shared = obs::counter("bench.subeval.reference_shared").value() - shared_before;

    assert_eq!(
        runs,
        1,
        "one scenario, {} knob settings: cyclesim must run exactly once",
        knobs.len()
    );
    assert_eq!(
        shared,
        knobs.len() as u64 - 1,
        "every point after the first shares the memoized reference"
    );
    // The reference leg runs first and compiles each task's trace once.
    // Every hybrid leg (one per point) and every analytical leg (one per
    // policy) then reads the annotation profile from those traces: one
    // trace-cache hit per task, and no second cache walk.
    let requests = (knobs.len() + policies.len()) as u64;
    assert_eq!(
        traces_since(traces_before),
        [requests * tasks, tasks, tasks],
        "the cache pass runs once per scenario across policies and timeslices"
    );
    // Every leg was measured in this process: sharing the reference
    // through the in-process memo is not a replay from the result cache.
    assert!(
        points.iter().all(|p| !p.replayed),
        "in-process sharing does not flag a point replayed"
    );
    // All points agree on the reference-side numbers, computed once.
    assert!(points.iter().all(|p| p.iss_cycles == points[0].iss_cycles
        && p.iss_pct.to_bits() == points[0].iss_pct.to_bits()));

    // Replaying the grid from the warm memo reads no profile at all: it is
    // read lazily, inside the legs' memo closures.
    let traces_before = cache_stats();
    let replayed: Vec<_> = knobs
        .iter()
        .map(|&options| compare(&workload, &machine, options))
        .collect();
    assert_eq!(replayed, points, "warm replay reproduces the grid");
    assert_eq!(traces_since(traces_before), [0, 0, 0]);

    // A hybrid leg under a contention model no other check uses folds the
    // same profile, read from the same traces.
    let no_io = None::<NoContention>;
    let traces_before = cache_stats();
    let leg = hybrid_run(&workload, &machine, Mm1Queue::new(), no_io, knobs[0], &[]);
    assert_eq!(
        (leg.work_cycles, leg.misses),
        (points[0].work_cycles, points[0].misses)
    );
    assert_eq!(traces_since(traces_before), [tasks, 0, 0]);

    // A point whose legs are all computed again reads its profiles from the
    // traces the first run left, and is not flagged replayed.
    memo::clear_subeval_lru();
    let traces_before = cache_stats();
    let fresh = compare(&workload, &machine, knobs[0]);
    assert_eq!(
        traces_since(traces_before),
        [3 * tasks, 0, 0],
        "the reference, hybrid and analytical legs each read the traces"
    );
    assert!(
        !fresh.replayed,
        "resident traces do not make a point a replay"
    );
    let simulated = |p: &mesh_bench::ComparisonPoint| {
        (
            p.mesh_pct.to_bits(),
            p.analytical_pct.to_bits(),
            p.mesh_slices,
            p.work_cycles,
        )
    };
    assert_eq!(simulated(&fresh), simulated(&points[0]));

    // The shared-reference sweep must not change the count: a second
    // distinct machine swept through `sweep_with_references` pays exactly
    // one more simulate.
    memo::clear_subeval_lru();
    let machine_b = fft_machine(2, 16 * 1024, 4);
    let runs_before = obs::counter("cyclesim.sim.runs").value();
    let grid_bits: Vec<mesh_bench::sweep::FBits> = grid
        .iter()
        .copied()
        .map(mesh_bench::sweep::FBits::new)
        .collect();
    let planned = sweep::sweep_with_references(
        "subeval-once",
        &grid_bits,
        |_| mesh_bench::iss_reference_fp(&workload, &machine_b),
        |m| {
            compare(
                &workload,
                &machine_b,
                HybridOptions {
                    policy: AnnotationPolicy::AtBarriers,
                    min_timeslice: m.get(),
                },
            )
        },
    )
    .expect("shared-reference sweep succeeds");
    assert_eq!(planned.len(), grid.len());
    assert_eq!(
        obs::counter("cyclesim.sim.runs").value() - runs_before,
        1,
        "a shared-reference sweep still runs cyclesim once per scenario"
    );

    // A scenario no simulation has touched has no resident traces: its
    // profile compiles them, and folds to the same regions as a fresh
    // annotation's cache walk. The reference that runs later reuses the
    // compiled traces instead of walking the caches again.
    memo::clear_subeval_lru();
    let untouched = fft_machine(2, 32 * 1024, 4);
    let options = HybridOptions {
        policy: AnnotationPolicy::PerSegment,
        min_timeslice: 0.0,
    };
    let traces_before = cache_stats();
    let leg = hybrid_run(&workload, &untouched, Mm1Queue::new(), no_io, options, &[]);
    assert_eq!(
        traces_since(traces_before),
        [0, tasks, tasks],
        "the profile compiles the untouched scenario's traces"
    );
    let fresh = mesh_annotate::assemble(&workload, &untouched, Mm1Queue::new(), options.policy)
        .expect("assembles");
    assert_eq!(
        (leg.work_cycles, leg.misses),
        (fresh.work_total(), fresh.misses_total())
    );
    let profiles: Vec<_> = mesh_cyclesim::profiles(&workload, &untouched, Pacing::default())
        .into_iter()
        .map(|profile| profile.expect("every task is under the step cap"))
        .collect();
    let folded = ProfiledWorkload::new(&workload, &untouched, &profiles)
        .expect("the profile matches the workload")
        .task_stats(options.policy);
    assert_eq!(folded, fresh.tasks);
    let traces_before = cache_stats();
    let runs_before = obs::counter("cyclesim.sim.runs").value();
    mesh_bench::iss_reference(&workload, &untouched);
    assert_eq!(obs::counter("cyclesim.sim.runs").value() - runs_before, 1);
    assert_eq!(
        traces_since(traces_before),
        [tasks, 0, 0],
        "the reference reuses the traces the profile compiled"
    );
}
