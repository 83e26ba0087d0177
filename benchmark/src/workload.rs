//! The four benchmark workloads and the environment each one runs under.

use std::path::Path;

/// The eleven paper binaries, in `scripts/repro_all.sh` order.
pub const PAPER_BINS: [&str; 11] = [
    "fig4",
    "table1",
    "fig5",
    "fig6",
    "validation_uniform",
    "ablation_minslice",
    "ablation_granularity",
    "ablation_models",
    "ablation_wake",
    "multi_resource",
    "noc_sweep",
];

/// Times the warm workload repeats the eleven-binary sequence per pass: one
/// warm sequence takes about 0.1 s, too short to time on its own.
pub const WARM_REPEATS: usize = 16;

/// Sweep workers and knob-sweep threads: the benchmark host has two vCPUs,
/// and no workload uses more.
pub const JOBS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    PaperCold,
    PaperWarm,
    PaperSharded,
    KnobSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperCold,
        Workload::PaperWarm,
        Workload::PaperSharded,
        Workload::KnobSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper_cold",
            Workload::PaperWarm => "paper_warm",
            Workload::PaperSharded => "paper_sharded",
            Workload::KnobSweep => "knob_sweep",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {name:?} (expected one of {names:?})")
            })
    }

    /// Whether a pass runs the paper binaries (as opposed to the in-process
    /// knob sweep).
    pub fn runs_binaries(self) -> bool {
        self != Workload::KnobSweep
    }

    /// Eleven-binary sequences per measured pass.
    pub fn repeats(self) -> usize {
        if self == Workload::PaperWarm {
            WARM_REPEATS
        } else {
            1
        }
    }

    /// The `MESH_*` variables a pass of this workload runs under. Every
    /// other inherited `MESH_*` variable is removed. No workload sets a knob
    /// that the cache and sweep consolidation may delete, so the benchmark
    /// survives those changes unedited.
    pub fn env(self, result_cache: &Path) -> Vec<(&'static str, String)> {
        let jobs = JOBS.to_string();
        match self {
            Workload::PaperCold => vec![("MESH_BENCH_JOBS", jobs)],
            Workload::PaperWarm => vec![
                ("MESH_BENCH_JOBS", jobs),
                ("MESH_RESULT_CACHE", result_cache.display().to_string()),
            ],
            Workload::PaperSharded => vec![
                ("MESH_BENCH_SHARDS", jobs),
                ("MESH_BENCH_JOBS", "1".to_string()),
            ],
            Workload::KnobSweep => Vec::new(),
        }
    }
}
