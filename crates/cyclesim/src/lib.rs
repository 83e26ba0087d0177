//! # mesh-cyclesim — the cycle-accurate reference simulator
//!
//! A shared-bus multiprocessor simulator: the repository's stand-in for the
//! paper's instruction-set simulators. It is the **ground truth** every
//! contention model is measured against (Figures 4–6) and the slow baseline
//! of the Table 1 runtime comparison.
//!
//! The default engine is **event-skipping**: it jumps between interesting
//! cycles and accounts statistics over the skipped interval in closed form.
//! The original tick-every-cycle engine remains available behind
//! [`SimOptions::reference_ticker`] as a differential-testing oracle; the
//! two produce identical [`CycleReport`]s (see `docs/PERFORMANCE.md`).
//!
//! By default both engines consume **compiled traces** ([`TraceMode`], the
//! [`trace`] module): each task's segment walk, pacing RNG and private-cache
//! simulation run once at compile time — in parallel, de-duplicated by a
//! cross-sweep content-keyed cache — and the engines merge pre-resolved
//! events. The on-the-fly cursor path remains available behind
//! [`TraceMode::OnTheFly`] and produces identical reports.
//!
//! The simulator consumes the same [`Workload`](mesh_workloads::Workload)
//! and [`MachineConfig`](mesh_arch::MachineConfig) the hybrid setup uses, so
//! a comparison is always apples to apples: same programs, same caches, same
//! bus — only the modeling of contention differs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cursor;
pub mod key;
pub mod ring;
pub mod sim;
pub mod trace;

pub use cursor::{compute_cycles, Pacing};
pub use key::KeyHasher;
pub use sim::{
    simulate, simulate_with_limit, simulate_with_options, CycleReport, CycleSimError,
    ProcCycleStats, SimOptions,
};
pub use trace::{
    cache_stats, prewarm, profiles, workload_fingerprint, SegmentProfile, TraceCacheStats,
    TraceMode,
};
