//! Solo grants change how the event-skipping engine issues a bus grant, not
//! which cycles it visits: one compiled run of a Figure-5/6 point adds
//! exactly the `cyclesim.skip.*` counts the engine recorded when every
//! grant went through the bus ring, and most of its grants are issued in
//! place.
//!
//! The mesh-obs registry is process-global, so this file is its own test
//! binary with a single test.

use mesh_arch::{BusConfig, CacheConfig, MachineConfig, ProcConfig};
use mesh_cyclesim::{simulate_with_options, SimOptions};
use mesh_workloads::scenario::{self, PhmConfig};

const COUNTERS: [&str; 5] = [
    "cyclesim.skip.events",
    "cyclesim.skip.dispatched",
    "cyclesim.skip.cycles_skipped",
    "cyclesim.skip.grant_fusions",
    "cyclesim.skip.solo_grants",
];

#[test]
fn solo_grants_visit_the_same_interesting_cycles() {
    mesh_obs::set_enabled(true);
    // The `cache_obs` point: the PHM scenario with the second processor
    // 30 % idle, on the §5.2 SoC at bus delay 4.
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
    let before = COUNTERS.map(|name| mesh_obs::counter(name).value());
    simulate_with_options(&workload, &machine, SimOptions::default()).unwrap();
    let after = COUNTERS.map(|name| mesh_obs::counter(name).value());
    let [events, dispatched, cycles_skipped, grant_fusions, solo_grants] =
        [0, 1, 2, 3, 4].map(|i| after[i] - before[i]);
    // Recorded when every bus grant went through the ring.
    assert_eq!(events, 139_614, "interesting cycles visited");
    assert_eq!(dispatched, 134_134, "completions dispatched");
    assert_eq!(cycles_skipped, 3_507_422, "cycles jumped over");
    assert_eq!(grant_fusions, 134_132, "grant-fused draws");
    // 95 % of the grant fusions, chained grants included.
    assert_eq!(solo_grants, 126_857, "bus grants issued in place");
}
