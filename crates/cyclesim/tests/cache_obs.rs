//! The `cyclesim.cache.*` counters count once per simulation run, whichever
//! feed served it: a run on a freshly compiled trace, a run on the
//! on-the-fly cursor and a run replaying a trace already in the cross-sweep
//! cache each add the same hits, misses and evictions.
//!
//! The mesh-obs registry is process-global, so this file is its own test
//! binary with a single test.

use mesh_arch::{BusConfig, CacheConfig, MachineConfig, ProcConfig};
use mesh_cyclesim::{simulate_with_options, trace, SimOptions, TraceMode};
use mesh_workloads::scenario::{self, PhmConfig};

const COUNTERS: [&str; 3] = [
    "cyclesim.cache.hits",
    "cyclesim.cache.misses",
    "cyclesim.cache.evictions",
];

#[test]
fn private_cache_counters_count_each_run_whichever_feed() {
    mesh_obs::set_enabled(true);
    trace::clear_cache();
    // One Figure-5/6 point: the PHM scenario with the second processor 30 %
    // idle, on the §5.2 SoC at bus delay 4.
    let workload = scenario::build(&PhmConfig {
        seed: 0xC0FFEE,
        ..PhmConfig::with_second_idle(0.3)
    });
    let cache = CacheConfig::new(8 * 1024, 32, 4).unwrap();
    let machine = MachineConfig::new(
        vec![
            ProcConfig::new(cache),
            ProcConfig::new(cache).with_power(0.8),
        ],
        BusConfig::new(4),
    );
    let run = |trace: TraceMode| {
        let before = COUNTERS.map(|name| mesh_obs::counter(name).value());
        simulate_with_options(
            &workload,
            &machine,
            SimOptions {
                trace,
                ..SimOptions::default()
            },
        )
        .unwrap();
        let after = COUNTERS.map(|name| mesh_obs::counter(name).value());
        [0, 1, 2].map(|i| after[i] - before[i])
    };
    let cold = run(TraceMode::Compiled);
    assert_eq!(trace::cache_stats().compiles, 2, "the first run compiles");
    let live = run(TraceMode::OnTheFly);
    let warm = run(TraceMode::Compiled);
    assert_eq!(trace::cache_stats().compiles, 2, "the third run replays");
    assert!(cold.iter().all(|&n| n > 0), "every counter moves: {cold:?}");
    assert_eq!(live, cold, "on-the-fly run");
    assert_eq!(warm, cold, "run on a cached trace");
}
