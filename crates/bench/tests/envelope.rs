//! Worst-case envelope validation: property tests that the hybrid kernel's
//! [`Envelope`](mesh_core::Envelope) dominates both its own analytical mean
//! and **every** adversarial arbitration schedule of the cycle-accurate
//! simulator, plus golden fingerprints pinning the two network-style models
//! (`PriorityNoc`, `FairShare`) end to end.
//!
//! The domination argument the proptests check empirically: a
//! work-conserving single-server bus can delay processor *i* by at most one
//! service time per competing transaction, so its queuing never exceeds
//! `delay · Σ_{j≠i} M_j`; the kernel's report-time global bound is exactly
//! that sum (over the same miss counts, since the annotator and the cycle
//! simulator share one cache model), so the envelope covers any adversary
//! — including reverse-priority and victim-last starvation schedules.
//!
//! To regenerate the goldens after an *intentional* semantic change:
//!
//! ```bash
//! MESH_GOLDEN_DUMP=1 cargo test -p mesh-bench --test envelope -- --nocapture
//! ```

use mesh_arch::Arbitration;
use mesh_bench::{fft_machine, iss_reference, run_envelope_point, EnvelopePoint, IssRef};
use mesh_models::{ChenLinBus, FairShare, PriorityNoc};
use mesh_workloads::fft::{self, FftConfig};
use mesh_workloads::uniform::{build, UniformConfig};
use mesh_workloads::{MemPattern, Segment, TaskProgram, Workload};
use proptest::prelude::*;

/// (compute_ops, refs, use_random_pattern)
type SegSpec = (u64, u64, bool);

/// Builds a bus-only workload (no I/O, no barriers) from per-task segment
/// specs — the same traffic family as the cyclesim differential tests.
fn build_workload(tasks: &[Vec<SegSpec>]) -> Workload {
    let mut w = Workload::new();
    for (ti, segs) in tasks.iter().enumerate() {
        let mut task = TaskProgram::new(format!("t{ti}"));
        for (si, &(ops, refs, random)) in segs.iter().enumerate() {
            let mut seg = Segment::work(ops);
            if refs > 0 {
                let base = (ti as u64) << 24;
                seg = seg.with_pattern(if random {
                    MemPattern::Random {
                        base,
                        span: 64 * 1024,
                        count: refs,
                        seed: (ti * 31 + si) as u64,
                    }
                } else {
                    MemPattern::Strided {
                        base: base + (si as u64) * 4096,
                        stride: 32,
                        count: refs,
                    }
                });
            }
            task.push(seg);
        }
        w.add_task(task);
    }
    w
}

/// Asserts the two envelope laws on one validated point: worst ≥ mean, and
/// worst ≥ the maximum over every adversarial cyclesim schedule.
fn assert_envelope(model: &str, p: EnvelopePoint) {
    assert!(
        p.worst_pct + 1e-9 >= p.mean_pct,
        "{model}: envelope {:.6}% below analytical mean {:.6}%",
        p.worst_pct,
        p.mean_pct,
    );
    assert!(
        p.envelope_holds(),
        "{model}: envelope {:.6}% below adversarial ISS {:.6}%",
        p.worst_pct,
        p.adversarial_pct,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The flagship property: for random workloads, machines and all three
    /// new-model-class configurations, the report's envelope dominates the
    /// analytical mean and every adversarial arbitration of the
    /// cycle-accurate simulator.
    #[test]
    fn envelope_dominates_mean_and_every_adversarial_schedule(
        tasks in prop::collection::vec(
            prop::collection::vec((1u64..200, 0u64..30, any::<bool>()), 1..4),
            2..5,
        ),
        bus_delay in 1u64..8,
        hops in 1u32..4,
        overlap in 0.0f64..1.0,
    ) {
        let w = build_workload(&tasks);
        let m = fft_machine(tasks.len(), 8 * 1024, bus_delay);
        let prios: Vec<u32> = (0..tasks.len()).map(|i| i as u32).collect();

        let p = run_envelope_point(&w, &m, FairShare::new(), &prios);
        assert_envelope("fair-share", p);
        let p = run_envelope_point(&w, &m, PriorityNoc::new(hops).with_overlap(overlap), &prios);
        assert_envelope("priority-noc", p);
        // A saturating Figure-4 model rides the same bound: its capped
        // mean can exceed full serialization per window, so this pins the
        // kernel's per-window floor (worst ≥ assigned penalty).
        let p = run_envelope_point(&w, &m, ChenLinBus::new(), &prios);
        assert_envelope("chen-lin", p);
    }
}

/// The deterministic envelope fingerprint of one hybrid-plus-adversary run.
fn check(name: &str, actual: EnvelopePoint, golden: EnvelopePoint) {
    if std::env::var_os("MESH_GOLDEN_DUMP").is_some() {
        println!("=== {name} ===\n{actual:?}");
        return;
    }
    assert_eq!(actual, golden, "{name}: envelope drifted from golden");
}

/// Pins the fair-share model end to end on the two-thread uniform workload
/// (the `noc_sweep` 2-processor point). With equal per-window demands,
/// processor sharing degenerates to full serialization, so mean == worst.
#[test]
fn fair_share_uniform_point_matches_golden() {
    let workload = build(&UniformConfig::with_threads(2));
    let machine = fft_machine(2, 8 * 1024, 4);
    let actual = run_envelope_point(&workload, &machine, FairShare::new(), &[2, 1]);
    check(
        "fair_share_uniform",
        actual,
        EnvelopePoint {
            mean_pct: 6.25,
            worst_pct: 6.25,
            adversarial_pct: 0.20294189453125,
            work_cycles: 3145728,
        },
    );
}

/// Pins the priority-class NoC end to end on the same point: two hops at
/// overlap 0.8, thread 0 in the higher class.
#[test]
fn priority_noc_uniform_point_matches_golden() {
    let workload = build(&UniformConfig::with_threads(2));
    let machine = fft_machine(2, 8 * 1024, 4);
    let model = PriorityNoc::new(2).with_overlap(0.8);
    let actual = run_envelope_point(&workload, &machine, model, &[2, 1]);
    check(
        "priority_noc_uniform",
        actual,
        EnvelopePoint {
            mean_pct: 0.32938019390581724,
            worst_pct: 12.5,
            adversarial_pct: 0.20294189453125,
            work_cycles: 3145728,
        },
    );
}

/// A point simulates only the distinct adversarial schedules, and loses
/// nothing by it. On uniform workloads of 1, 2, 3, 4 and 8 processors and
/// FFT workloads of 1, 2, 4 and 8 (an FFT's processors divide its row
/// count, a power of two), the point's adversarial maximum is the maximum
/// over all `2 + n` schedules, each its own cycle-accurate leg, and each
/// schedule the set leaves out simulates exactly as its twin.
#[test]
fn distinct_schedules_keep_the_full_adversarial_maximum() {
    let uniform = |n| {
        build(&UniformConfig {
            iterations: 3,
            ..UniformConfig::with_threads(n)
        })
    };
    let fft = |n| {
        fft::build(&FftConfig {
            points: 4096,
            ..FftConfig::with_threads(n)
        })
    };
    let cases = [1, 2, 3, 4, 8]
        .map(|n| ("uniform", n, uniform(n)))
        .into_iter()
        .chain([1, 2, 4, 8].map(|n| ("fft", n, fft(n))));
    for (name, n, workload) in cases {
        let machine = fft_machine(n, 8 * 1024, 4);
        let point = run_envelope_point(&workload, &machine, FairShare::new(), &[]);
        let leg = |arbitration| {
            let mut schedule = machine.clone();
            schedule.bus = schedule.bus.with_arbitration(arbitration);
            let IssRef {
                pct,
                cycles,
                bus_queuing,
                ..
            } = iss_reference(&workload, &schedule);
            (pct.to_bits(), cycles, bus_queuing)
        };
        let full = [Arbitration::FixedPriority, Arbitration::ReversePriority]
            .into_iter()
            .chain((0..n).map(Arbitration::VictimLast));
        let worst = full.map(|a| leg(a).2).max().expect("2 + n schedules");
        let worst_pct = 100.0 * worst as f64 / point.work_cycles as f64;
        assert_eq!(
            point.adversarial_pct.to_bits(),
            worst_pct.to_bits(),
            "{name} on {n}: {} against {worst_pct}",
            point.adversarial_pct
        );
        assert!(n == 1 || worst > 0, "{name} on {n}: no contention");
        assert_eq!(
            leg(Arbitration::VictimLast(n - 1)),
            leg(Arbitration::FixedPriority),
            "{name} on {n}"
        );
        if n == 2 {
            assert_eq!(
                leg(Arbitration::VictimLast(0)),
                leg(Arbitration::ReversePriority),
                "{name} on 2"
            );
        }
    }
}
