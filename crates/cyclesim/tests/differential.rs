//! Differential property tests: the event-skipping engine must reproduce
//! the reference ticker's [`CycleReport`] **exactly** — every statistic of
//! every processor, the shared-resource busy counters and the final cycle —
//! across randomized workloads (compute, strided/random memory traffic,
//! idle gaps, barriers, shared I/O), randomized machines (heterogeneous
//! powers, hit latencies, both arbitration policies, bus and I/O delays)
//! and both pacing policies, including every error path.
//!
//! The same oracle pins the **feed** axis: every configuration runs as the
//! full engine × feed matrix — {skip, tick} × {compiled trace, on-the-fly
//! cursor} — and all four cells must be field-identical (including equal
//! errors). The cursor-fed ticker is the unchanged original loop, so one
//! anchor transitively proves the trace compiler, the packed trace
//! storage, the cross-sweep cache and both trace-consuming hot paths.
//!
//! `mesh-faults` injects faults into contention models and thread programs,
//! which the cycle simulator does not consume; the applicable analogue here
//! is the pathological-input family — workloads that deadlock, exceed the
//! cycle limit, overflow the machine, or issue I/O with no device — all of
//! which must produce identical `CycleSimError`s from both engines.

use mesh_arch::{Arbitration, BusConfig, CacheConfig, IoConfig, MachineConfig, ProcConfig};
use mesh_cyclesim::{
    simulate_with_options, CycleReport, CycleSimError, Pacing, SimOptions, TraceMode,
};
use mesh_workloads::scenario::{self, PhmConfig};
use mesh_workloads::{MemPattern, Segment, TaskProgram, Workload};
use proptest::prelude::*;

/// (compute_ops, patterns as (refs, use_random_pattern), idle_cycles,
/// io_ops)
type SegSpec = (u64, Vec<(u64, bool)>, u64, u64);

/// Up to five segments of up to 300 operations (zero included), each with
/// up to three strided or random patterns, up to eight I/O operations and
/// an optional idle gap after it.
fn arb_task() -> impl Strategy<Value = Vec<SegSpec>> {
    prop::collection::vec(
        (
            0u64..300,
            prop::collection::vec((0u64..40, any::<bool>()), 0..4),
            0u64..80,
            0u64..9,
        ),
        1..6,
    )
}

/// Builds a workload from the task specs; with `barriers`, all tasks
/// synchronize at a start barrier and again at their last work segment.
fn build_workload(tasks: &[Vec<SegSpec>], barriers: bool) -> Workload {
    let mut w = Workload::new();
    let sync = if barriers {
        Some((w.add_barrier(tasks.len()), w.add_barrier(tasks.len())))
    } else {
        None
    };
    for (ti, segs) in tasks.iter().enumerate() {
        let mut task = TaskProgram::new(format!("t{ti}"));
        let mut built: Vec<Segment> = Vec::new();
        for (si, (ops, patterns, idle, io)) in segs.iter().enumerate() {
            let (idle, io) = (*idle, *io);
            let mut seg = Segment::work(*ops);
            for (pi, &(refs, random)) in patterns.iter().enumerate() {
                let base = ((ti as u64) << 24) + (pi as u64) * 1024;
                seg = seg.with_pattern(if random {
                    MemPattern::Random {
                        base,
                        span: 64 * 1024,
                        count: refs,
                        seed: (ti * 31 + si + 1000 * pi) as u64,
                    }
                } else {
                    MemPattern::Strided {
                        base: base + (si as u64) * 4096,
                        stride: 32,
                        count: refs,
                    }
                });
            }
            seg.io_ops = io;
            built.push(seg);
            if idle > 0 {
                built.push(Segment::idle(idle));
            }
        }
        if let Some((start, end)) = sync {
            built[0] = built[0].clone().with_barrier(start);
            let last = built.len() - 1;
            built[last] = built[last].clone().with_barrier(end);
        }
        for seg in built {
            task.push(seg);
        }
        w.add_task(task);
    }
    w
}

fn machine(
    n: usize,
    bus_delay: u64,
    round_robin: bool,
    hit_cycles: u64,
    io_delay: u64,
    hetero: bool,
) -> MachineConfig {
    let powers = [1.0, 0.8, 1.3, 0.5];
    let procs = (0..n)
        .map(|i| {
            let cache = CacheConfig::new(4 * 1024, 32, 2).unwrap();
            let p = ProcConfig::new(cache).with_hit_cycles(hit_cycles);
            if hetero {
                p.with_power(powers[i % powers.len()])
            } else {
                p
            }
        })
        .collect();
    let arbitration = if round_robin {
        Arbitration::RoundRobin
    } else {
        Arbitration::FixedPriority
    };
    MachineConfig::new(
        procs,
        BusConfig::new(bus_delay).with_arbitration(arbitration),
    )
    .with_io(IoConfig::new(io_delay))
}

fn normalize(mut r: CycleReport) -> CycleReport {
    r.wall_clock = std::time::Duration::ZERO;
    r
}

/// Runs the full engine × feed matrix on identical inputs and returns
/// (skip-trace, tick-cursor): the fastest configuration and the verbatim
/// original. The other two cells — skip-cursor and trace-fed tick — are
/// asserted equal to the tick-cursor oracle in here, so every caller's
/// `skip == tick` comparison covers all four.
fn run_both(
    w: &Workload,
    m: &MachineConfig,
    pacing: Pacing,
    cycle_limit: u64,
) -> (
    Result<CycleReport, CycleSimError>,
    Result<CycleReport, CycleSimError>,
) {
    let run = |reference_ticker: bool, trace: TraceMode| {
        simulate_with_options(
            w,
            m,
            SimOptions {
                pacing,
                cycle_limit,
                reference_ticker,
                trace,
            },
        )
        .map(normalize)
    };
    let tick_cursor = run(true, TraceMode::OnTheFly);
    let skip_cursor = run(false, TraceMode::OnTheFly);
    let tick_trace = run(true, TraceMode::Compiled);
    let skip_trace = run(false, TraceMode::Compiled);
    assert_eq!(skip_cursor, tick_cursor, "skip engine, on-the-fly cursor");
    assert_eq!(tick_trace, tick_cursor, "ticker fed by compiled traces");
    (skip_trace, tick_cursor)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flagship differential: full report equality on random workloads,
    /// machines and Poisson seeds.
    #[test]
    fn engines_agree_under_poisson_pacing(
        tasks in prop::collection::vec(arb_task(), 1..5),
        seed in any::<u64>(),
        bus_delay in 1u64..9,
        io_delay in 1u64..9,
        hit_cycles in 0u64..3,
        flags in (any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let (round_robin, hetero, barriers) = flags;
        let w = build_workload(&tasks, barriers);
        let m = machine(tasks.len(), bus_delay, round_robin, hit_cycles, io_delay, hetero);
        let (skip, tick) = run_both(&w, &m, Pacing::Poisson(seed), u64::MAX);
        prop_assert_eq!(skip, tick);
    }

    /// Same under deterministic even pacing.
    #[test]
    fn engines_agree_under_even_pacing(
        tasks in prop::collection::vec(arb_task(), 1..5),
        bus_delay in 1u64..9,
        io_delay in 1u64..9,
        hit_cycles in 0u64..3,
        flags in (any::<bool>(), any::<bool>()),
    ) {
        let (round_robin, barriers) = flags;
        let w = build_workload(&tasks, barriers);
        let m = machine(tasks.len(), bus_delay, round_robin, hit_cycles, io_delay, false);
        let (skip, tick) = run_both(&w, &m, Pacing::Even, u64::MAX);
        prop_assert_eq!(skip, tick);
    }

    /// The adversarial arbitration policies (reverse priority and
    /// victim-last, used to validate the hybrid kernel's worst-case
    /// envelope) run through the same engine × feed matrix.
    #[test]
    fn engines_agree_under_adversarial_arbitration(
        tasks in prop::collection::vec(arb_task(), 1..5),
        seed in any::<u64>(),
        bus_delay in 1u64..9,
        adversary in (any::<bool>(), 0usize..4),
    ) {
        let w = build_workload(&tasks, false);
        let mut m = machine(tasks.len(), bus_delay, true, 1, 6, false);
        let (reverse, victim) = adversary;
        m.bus = m.bus.with_arbitration(if reverse {
            Arbitration::ReversePriority
        } else {
            Arbitration::VictimLast(victim % tasks.len())
        });
        let (skip, tick) = run_both(&w, &m, Pacing::Poisson(seed), u64::MAX);
        prop_assert_eq!(skip, tick);
    }

    /// Tight cycle limits: the event skipper clamps its jumps so the limit
    /// violation is reported at exactly the same cycle as the ticker —
    /// and runs that just fit still agree in full.
    #[test]
    fn engines_agree_on_cycle_limits(
        tasks in prop::collection::vec(arb_task(), 1..4),
        seed in any::<u64>(),
        limit in 0u64..2_000,
    ) {
        let w = build_workload(&tasks, false);
        let m = machine(tasks.len(), 4, true, 1, 6, true);
        let (skip, tick) = run_both(&w, &m, Pacing::Poisson(seed), limit);
        prop_assert_eq!(skip, tick);
    }

    /// Barrier deadlocks (a barrier expecting more parties than exist) are
    /// detected by both engines at the same cycle.
    #[test]
    fn engines_agree_on_barrier_deadlocks(
        tasks in prop::collection::vec(arb_task(), 1..4),
        seed in any::<u64>(),
    ) {
        let mut w = Workload::new();
        let bid = w.add_barrier(tasks.len() + 1); // can never fill
        for (ti, segs) in tasks.iter().enumerate() {
            let mut task = TaskProgram::new(format!("t{ti}"));
            for &(ops, _, idle, _) in segs {
                task.push(Segment::work(ops));
                if idle > 0 {
                    task.push(Segment::idle(idle));
                }
            }
            task.push(Segment::work(1).with_barrier(bid));
            w.add_task(task);
        }
        let m = machine(tasks.len(), 4, true, 1, 6, false);
        let (skip, tick) = run_both(&w, &m, Pacing::Poisson(seed), u64::MAX);
        prop_assert!(matches!(tick, Err(CycleSimError::BarrierDeadlock { .. })));
        prop_assert_eq!(skip, tick);
    }
}

/// Steps too wide for the compiled trace's 8-byte form — spans of 2^32
/// cycles or more, spans that absorbed an idle gap, and barriers — replay
/// exactly: the skip engine fed by compiled traces matches the skip engine
/// fed by the on-the-fly cursor. Skip against skip, because the ticker
/// would walk these spans cycle by cycle; the properties above pin skip to
/// tick on small cases.
#[test]
fn wide_steps_replay_exactly() {
    let mut w = Workload::new();
    let (start, end) = (w.add_barrier(2), w.add_barrier(2));
    for t in 0..2u64 {
        let refs = |line: u64, count| MemPattern::Strided {
            base: (t << 24) + 32 * line,
            stride: 8,
            count,
        };
        let mut task = TaskProgram::new(format!("t{t}"));
        task.push(Segment::work(3).with_barrier(start));
        // Four references over one 32-byte line: a miss, then three hits
        // fused into spans of more than 2^32 cycles.
        task.push(Segment::work(5 << 32).with_pattern(refs(0, 4)));
        task.push(Segment::idle(3 << 32));
        task.push(Segment::work(40).with_pattern(refs(1, 64)));
        // A short idle gap between short spans: a step that would pack
        // but for the gap it absorbed.
        task.push(Segment::idle(7 + t));
        task.push(Segment::work(20).with_pattern(refs(100, 8)));
        task.push(Segment::work(1 << 32).with_barrier(end));
        w.add_task(task);
    }
    let m = machine(2, 4, true, 1, 6, true);
    for pacing in [Pacing::Even, Pacing::Poisson(0xB16)] {
        let run = |trace| {
            simulate_with_options(
                &w,
                &m,
                SimOptions {
                    pacing,
                    trace,
                    ..SimOptions::default()
                },
            )
            .map(normalize)
        };
        let compiled = run(TraceMode::Compiled).unwrap();
        assert!(compiled.total_cycles > 9 << 32, "{compiled:?}");
        assert!(compiled.procs.iter().all(|p| p.hits > 0 && p.misses > 0));
        assert_eq!(compiled, run(TraceMode::OnTheFly).unwrap());
    }
}

#[test]
fn engines_agree_on_task_overflow() {
    let mut w = Workload::new();
    for i in 0..3 {
        let mut t = TaskProgram::new(format!("t{i}"));
        t.push(Segment::work(10));
        w.add_task(t);
    }
    let m = machine(2, 4, true, 1, 6, false);
    let (skip, tick) = run_both(&w, &m, Pacing::Even, u64::MAX);
    assert!(matches!(
        tick,
        Err(CycleSimError::TaskCountMismatch { tasks: 3, procs: 2 })
    ));
    assert_eq!(skip, tick);
}

#[test]
fn engines_agree_on_io_without_device() {
    let mut w = Workload::new();
    let mut t = TaskProgram::new("t0");
    let mut seg = Segment::work(10);
    seg.io_ops = 2;
    t.push(seg);
    w.add_task(t);
    let cache = CacheConfig::new(4 * 1024, 32, 2).unwrap();
    let m = MachineConfig::homogeneous(1, ProcConfig::new(cache), BusConfig::new(4));
    let (skip, tick) = run_both(&w, &m, Pacing::Even, u64::MAX);
    assert!(matches!(tick, Err(CycleSimError::InvalidWorkload(_))));
    assert_eq!(skip, tick);
}

/// A barrier that fills at the cycle another processor's miss completes
/// releases its party before that cycle's bus grant, and a released
/// processor may compete for the bus at once. So a miss completing beside
/// a full barrier is no solo grant, and its processor's following misses
/// must not run on past the release. Processor 0 reaches a one-party
/// barrier after `k` cycles while processor 1 streams misses; some `k`
/// land on one of processor 1's miss completions.
#[test]
fn barrier_filling_beside_a_miss_releases_first() {
    let m = machine(2, 4, false, 1, 6, false);
    for k in 1..=60 {
        let mut w = Workload::new();
        let b = w.add_barrier(1);
        let misses = |base: u64| MemPattern::Strided {
            base,
            stride: 32,
            count: 40,
        };
        let mut t0 = TaskProgram::new("t0");
        t0.push(Segment::work(k).with_barrier(b));
        t0.push(Segment::work(40).with_pattern(misses(0)));
        w.add_task(t0);
        let mut t1 = TaskProgram::new("t1");
        t1.push(Segment::work(400).with_pattern(misses(1 << 24)));
        w.add_task(t1);
        let (skip, tick) = run_both(&w, &m, Pacing::Even, u64::MAX);
        assert_eq!(skip, tick, "barrier reached at cycle {k}");
    }
}

/// Thousands of consecutive solo grants: a long sporadic run on the §5.2
/// SoC, where the mostly idle second processor leaves the first alone on
/// the bus for long stretches. The random workloads above hold at most five
/// short segments per task and never build such chains. Every arbitration
/// policy grants a sole requester, and a cycle limit landing inside a solo
/// stretch is reported at the same cycle by every cell of the matrix.
#[test]
fn solo_runs_match_the_ticker() {
    let w = scenario::build(&PhmConfig {
        target_ops: 200_000,
        ..PhmConfig::with_second_idle(0.9)
    });
    let cache = CacheConfig::new(8 * 1024, 32, 4).unwrap();
    for arbitration in [
        Arbitration::FixedPriority,
        Arbitration::RoundRobin,
        Arbitration::ReversePriority,
        Arbitration::VictimLast(0),
    ] {
        let m = MachineConfig::new(
            vec![
                ProcConfig::new(cache),
                ProcConfig::new(cache).with_power(0.8),
            ],
            BusConfig::new(4).with_arbitration(arbitration),
        );
        let (skip, tick) = run_both(&w, &m, Pacing::default(), u64::MAX);
        let full = tick.unwrap();
        assert!(full.procs.iter().map(|p| p.misses).sum::<u64>() > 10_000);
        assert_eq!(skip.unwrap(), full, "{arbitration:?}");
        let limit = full.total_cycles / 2;
        let (skip, tick) = run_both(&w, &m, Pacing::default(), limit);
        assert_eq!(
            tick,
            Err(CycleSimError::CycleLimit { limit }),
            "{arbitration:?}"
        );
        assert_eq!(skip, tick, "{arbitration:?}");
    }
}

/// A segment whose even spread overflows a 64-bit product: 2^62 cycles of
/// compute over eight misses, one every 2^59 cycles, so `compute · k`
/// passes 2^64 from the fourth. Both feeds of the skip engine place every
/// miss exactly. The ticker cannot walk 2^62 cycles, so the whole matrix
/// also runs to a cycle limit; its compiled cells compile the whole task
/// first.
#[test]
fn even_pacing_spreads_a_huge_segment_exactly() {
    let mut w = Workload::new();
    let mut t = TaskProgram::new("t0");
    t.push(Segment::work(1 << 62).with_pattern(MemPattern::Strided {
        base: 0,
        stride: 32,
        count: 8,
    }));
    w.add_task(t);
    let m = machine(1, 4, true, 1, 6, false);
    let (skip, tick) = run_both(&w, &m, Pacing::Even, 1000);
    assert_eq!(tick, Err(CycleSimError::CycleLimit { limit: 1000 }));
    assert_eq!(skip, tick);
    for trace in [TraceMode::Compiled, TraceMode::OnTheFly] {
        let report = simulate_with_options(
            &w,
            &m,
            SimOptions {
                pacing: Pacing::Even,
                trace,
                ..SimOptions::default()
            },
        )
        .unwrap();
        let proc = report.procs[0];
        assert_eq!(proc.misses, 8, "{trace:?}");
        assert_eq!(proc.work_cycles, (1 << 62) + 8 * 4, "{trace:?}");
        assert_eq!(proc.queuing_cycles, 0, "{trace:?}");
        assert_eq!(report.total_cycles, (1 << 62) + 8 * 4, "{trace:?}");
    }
}
