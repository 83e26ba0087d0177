//! Proves the split-phase acceptance criterion with observability counters:
//! an ablation-style sweep varying only hybrid knobs invokes
//! `mesh_cyclesim::simulate` **exactly once** per distinct (workload,
//! machine), with every other point sharing the memoized reference — and
//! runs the annotation cache pass exactly once per scenario, with every
//! hybrid and analytical leg folding the shared profile.
//!
//! This is the only test in this file on purpose — it reads process-global
//! counters, and a sibling test running `compare` in parallel would race
//! the deltas.

use mesh_annotate::AnnotationPolicy;
use mesh_bench::{assemble_memoized, compare, eval, fft_machine, memo, HybridOptions};
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
    let annotation_shared = || obs::counter("bench.subeval.annotation_shared").value();

    let runs_before = obs::counter("cyclesim.sim.runs").value();
    let shared_before = obs::counter("bench.subeval.reference_shared").value();
    let annotation_before = annotation_shared();

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
    // Every hybrid leg (one per point) and every analytical leg (one per
    // policy) asks for the annotation profile; only the first computes it.
    let requests = (knobs.len() + policies.len()) as u64;
    assert_eq!(
        annotation_shared() - annotation_before,
        requests - 1,
        "the cache pass runs once per scenario across policies and timeslices"
    );
    // The profile is not a timed leg, so the replay flag still reports the
    // ISS and hybrid legs only.
    assert!(
        !points[0].replayed && points[1..].iter().all(|p| p.replayed),
        "shared-reference points carry the replay flag"
    );
    // All points agree on the reference-side numbers, computed once.
    assert!(points.iter().all(|p| p.iss_cycles == points[0].iss_cycles
        && p.iss_pct.to_bits() == points[0].iss_pct.to_bits()));

    // Replaying the grid from the warm LRU asks for no profile at all: it is
    // requested lazily, inside the legs' memo closures.
    let annotation_before = annotation_shared();
    let replayed: Vec<_> = knobs
        .iter()
        .map(|&options| compare(&workload, &machine, options))
        .collect();
    assert_eq!(replayed, points, "warm replay reproduces the grid");
    assert_eq!(annotation_shared(), annotation_before);

    // Another contention model on the same scenario folds the same profile.
    let annotation_before = annotation_shared();
    let setup = assemble_memoized(
        &workload,
        &machine,
        Mm1Queue::new(),
        AnnotationPolicy::AtBarriers,
    );
    assert_eq!(setup.misses_total(), points[0].misses);
    assert_eq!(annotation_shared() - annotation_before, 1);

    // A point whose timed legs are computed is not flagged replayed even
    // when its annotation profile was served from the cache.
    memo::clear_subeval_lru();
    let annotation_before = annotation_shared();
    let _ = assemble_memoized(
        &workload,
        &machine,
        Mm1Queue::new(),
        AnnotationPolicy::AtBarriers,
    );
    let fresh = compare(&workload, &machine, knobs[0]);
    assert_eq!(annotation_shared() - annotation_before, 2);
    assert!(
        !fresh.replayed,
        "a shared profile does not make a point a replay"
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

    // The planner path must not change the count: a second distinct machine
    // swept through `sweep_with_references` pays exactly one more simulate.
    memo::clear_subeval_lru();
    let machine_b = fft_machine(2, 16 * 1024, 4);
    let runs_before = obs::counter("cyclesim.sim.runs").value();
    let grid_bits: Vec<mesh_bench::sweep::FBits> = grid
        .iter()
        .copied()
        .map(mesh_bench::sweep::FBits::new)
        .collect();
    let planned = eval::sweep_with_references(
        "subeval-once",
        &grid_bits,
        |_| mesh_bench::iss_reference_fp(&workload, &machine_b),
        |_| {
            mesh_bench::iss_reference(&workload, &machine_b);
        },
        |_| {},
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
    .expect("planned sweep succeeds");
    assert_eq!(planned.len(), grid.len());
    assert_eq!(
        obs::counter("cyclesim.sim.runs").value() - runs_before,
        1,
        "planner dispatch still runs cyclesim once per scenario"
    );
}
