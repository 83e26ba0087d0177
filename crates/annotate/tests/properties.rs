//! Property-based tests of the annotation bridge: conservation across
//! annotation policies, agreement with the cycle-accurate caches, and the
//! profile-then-fold split (one cache profile serves every policy).

use mesh_annotate::{
    annotate_task, annotate_task_with_io, assemble, profile_task, AnnotationPolicy, AssembleError,
    ProfiledWorkload, SegmentProfile,
};
use mesh_arch::{BusConfig, CacheConfig, MachineConfig, ProcConfig};
use mesh_core::model::NoContention;
use mesh_core::{SharedId, SyncId};
use mesh_workloads::{MemPattern, Segment, TaskProgram, Workload};
use proptest::prelude::*;

/// (ops, strided refs, random refs, idle cycles)
type SegSpec = (u64, u64, u64, u64);

fn arb_segments() -> impl Strategy<Value = Vec<SegSpec>> {
    prop::collection::vec((1u64..300, 0u64..30, 0u64..30, 0u64..50), 1..12)
}

fn build_task(segs: &[SegSpec]) -> TaskProgram {
    let mut task = TaskProgram::new("t");
    for (si, &(ops, strided, random, idle)) in segs.iter().enumerate() {
        let mut seg = Segment::work(ops);
        if strided > 0 {
            seg = seg.with_pattern(MemPattern::Strided {
                base: (si as u64) * 8192,
                stride: 32,
                count: strided,
            });
        }
        if random > 0 {
            seg = seg.with_pattern(MemPattern::Random {
                base: 1 << 20,
                span: 32 * 1024,
                count: random,
                seed: si as u64,
            });
        }
        task.push(seg);
        if idle > 0 {
            task.push(Segment::idle(idle));
        }
    }
    task
}

fn proc() -> ProcConfig {
    ProcConfig::new(CacheConfig::new(4 * 1024, 32, 2).unwrap())
}

fn annotate(
    task: &TaskProgram,
    policy: AnnotationPolicy,
) -> (Vec<mesh_core::Annotation>, mesh_annotate::TaskStats) {
    annotate_task(
        task,
        proc(),
        4,
        SharedId::from_index(0),
        &[SyncId::from_index(0)],
        policy,
    )
}

fn one_task_workload(task: TaskProgram) -> (Workload, MachineConfig) {
    let mut w = Workload::new();
    w.add_task(task);
    (w, MachineConfig::homogeneous(1, proc(), BusConfig::new(4)))
}

#[test]
fn profiles_that_do_not_match_the_workload_are_rejected() {
    let task = build_task(&[(10, 4, 0, 5), (20, 0, 3, 0)]);
    let (w, machine) = one_task_workload(task.clone());
    let good = vec![profile_task(&task, proc().cache)];
    assert!(ProfiledWorkload::new(&w, &machine, &good).is_ok());

    // One task profile too many, and none at all.
    let extra = [good[0].clone(), good[0].clone()];
    for profiles in [&extra[..], &[]] {
        assert!(matches!(
            ProfiledWorkload::new(&w, &machine, profiles),
            Err(AssembleError::ProfileMismatch(_))
        ));
    }
    // A segment short, and a segment too many: a zip would truncate.
    let mut short = good.clone();
    short[0].pop();
    let mut long = good.clone();
    long[0].push(SegmentProfile::default());
    for profiles in [&short, &long] {
        assert!(matches!(
            ProfiledWorkload::new(&w, &machine, profiles),
            Err(AssembleError::ProfileMismatch(_))
        ));
    }
    // Right shape, wrong counts: a profile of some other segment.
    let mut miscounted = good.clone();
    miscounted[0][0].hits += 1;
    assert!(matches!(
        ProfiledWorkload::new(&w, &machine, &miscounted),
        Err(AssembleError::ProfileMismatch(_))
    ));
    // The workload/machine checks of `assemble` still come first.
    let small = MachineConfig::homogeneous(0, proc(), BusConfig::new(4));
    assert!(matches!(
        ProfiledWorkload::new(&w, &small, &good),
        Err(AssembleError::TaskCountMismatch { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One profile folded under every policy yields exactly the regions and
    /// totals a fresh annotation under that policy does, and the
    /// workload-level fold agrees with what assembling reports.
    #[test]
    fn one_profile_folds_like_fresh_annotation(
        segs in arb_segments(),
        n in 1usize..6,
        bus_delay in 1u64..20,
        power in 0usize..3,
    ) {
        let task = build_task(&segs);
        // Non-unit powers exercise the per-region rounding of compute cycles.
        let p = proc().with_power([1.0, 0.8, 0.5][power]);
        let bus = SharedId::from_index(0);
        let bars = [SyncId::from_index(0)];
        let (w, _) = one_task_workload(task.clone());
        let machine = MachineConfig::homogeneous(1, p, BusConfig::new(bus_delay));
        let profiles = [profile_task(&task, p.cache)];
        let profiled = ProfiledWorkload::new(&w, &machine, &profiles).unwrap();
        for policy in [
            AnnotationPolicy::PerSegment,
            AnnotationPolicy::EverySegments(n),
            AnnotationPolicy::AtBarriers,
        ] {
            let fresh = annotate_task_with_io(&task, p, bus_delay, bus, None, &bars, policy);
            let folded = profiled.regions(0, bus, None, &bars, policy);
            prop_assert_eq!(&folded, &fresh);
            prop_assert_eq!(profiled.task_stats(policy), vec![fresh.1]);
            let setup = profiled.assemble(NoContention, policy).unwrap();
            prop_assert_eq!(setup.tasks, vec![fresh.1]);
        }
    }

    /// The profile accounts for every reference exactly once, and idle
    /// segments get `(0, 0)`.
    #[test]
    fn profile_covers_every_reference(segs in arb_segments()) {
        let task = build_task(&segs);
        let profile = profile_task(&task, proc().cache);
        prop_assert_eq!(profile.len(), task.segments.len());
        let total: u64 = profile.iter().map(|s| s.hits + s.misses).sum();
        prop_assert_eq!(total, task.total_refs());
        for (seg, counts) in task.segments.iter().zip(&profile) {
            prop_assert_eq!(counts.hits + counts.misses, seg.total_refs());
            if seg.kind == mesh_workloads::SegmentKind::Idle {
                prop_assert_eq!(*counts, SegmentProfile::default());
            }
        }
    }

    /// Totals (work cycles, idle, hits, misses) are invariant under the
    /// annotation policy — coarser regions merely redistribute them.
    #[test]
    fn policies_conserve_totals(segs in arb_segments(), n in 1usize..6) {
        let task = build_task(&segs);
        let (_, fine) = annotate(&task, AnnotationPolicy::PerSegment);
        let (_, grouped) = annotate(&task, AnnotationPolicy::EverySegments(n));
        let (_, coarse) = annotate(&task, AnnotationPolicy::AtBarriers);
        for stats in [&grouped, &coarse] {
            prop_assert_eq!(stats.work_cycles, fine.work_cycles);
            prop_assert_eq!(stats.idle_cycles, fine.idle_cycles);
            prop_assert_eq!(stats.hits, fine.hits);
            prop_assert_eq!(stats.misses, fine.misses);
        }
        // Region counts are ordered by coarseness.
        prop_assert!(fine.regions >= grouped.regions);
        prop_assert!(grouped.regions >= coarse.regions);
    }

    /// The annotated access mass equals the miss count exactly, and the
    /// region complexities resolve to exactly the work+idle cycles.
    #[test]
    fn regions_account_for_every_miss_and_cycle(segs in arb_segments()) {
        let task = build_task(&segs);
        let (regions, stats) = annotate(&task, AnnotationPolicy::PerSegment);
        let bus = SharedId::from_index(0);
        let mass: f64 = regions.iter().map(|r| r.accesses.count(bus)).sum();
        prop_assert!((mass - stats.misses as f64).abs() < 1e-9);
        let cycles: f64 = regions
            .iter()
            .map(|r| r.complexity.resolve(mesh_core::Power::default()).as_cycles())
            .sum();
        prop_assert!((cycles - (stats.work_cycles + stats.idle_cycles) as f64).abs() < 1e-6);
    }

    /// The bridge's cache pass and the cycle-accurate simulator observe the
    /// same miss stream on the same machine.
    #[test]
    fn bridge_and_cyclesim_agree_on_misses(segs in arb_segments()) {
        let task = build_task(&segs);
        let mut w = Workload::new();
        w.add_task(task);
        let machine = MachineConfig::homogeneous(1, proc(), BusConfig::new(4));
        let iss = mesh_cyclesim::simulate(&w, &machine).unwrap();
        let setup = assemble(&w, &machine, NoContention, AnnotationPolicy::PerSegment).unwrap();
        prop_assert_eq!(setup.tasks[0].misses, iss.procs[0].misses);
        prop_assert_eq!(setup.tasks[0].hits, iss.procs[0].hits);
        // And the hybrid's contention-free run time matches the reference.
        let outcome = setup.builder.build().unwrap().run().unwrap();
        prop_assert!(
            (outcome.report.total_time.as_cycles() - iss.total_cycles as f64).abs() < 1e-6
        );
    }

    /// Every produced region is well-formed: non-negative complexity, access
    /// mass only on the bus, sync only at barrier positions (none here).
    #[test]
    fn regions_are_well_formed(segs in arb_segments(), n in 1usize..5) {
        let task = build_task(&segs);
        let (regions, _) = annotate(&task, AnnotationPolicy::EverySegments(n));
        for r in &regions {
            prop_assert!(r.complexity.as_units() >= 0.0);
            prop_assert!(r.sync.is_none());
            for (sid, count) in r.accesses.iter() {
                prop_assert_eq!(sid, SharedId::from_index(0));
                prop_assert!(count > 0.0);
            }
        }
    }
}
