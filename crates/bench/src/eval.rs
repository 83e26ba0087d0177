//! # Split-phase sweep evaluation: the reference planner
//!
//! The expensive component of every comparison sweep is the cycle-accurate
//! reference, and ablation grids share it massively: a `min_timeslice` grid
//! over one (workload, machine) pair needs **one** ISS run however many
//! knob settings it evaluates. [`compare`](crate::compare) already memoizes
//! the reference as its own sub-evaluation, but a naive grid walk still
//! serializes badly — whichever point happens to run first computes the
//! reference while every other point of its group blocks on the
//! single-flight gate.
//!
//! [`sweep_with_references`] is the sweep entry point for such grids (the
//! other, [`crate::sweep::try_sweep_labeled`], runs independent points).
//! It fixes the dispatch order: the grid is grouped up front by a
//! caller-supplied **reference key** (the shared sub-evaluation's
//! fingerprint, e.g. [`crate::iss_reference_fp`]), then:
//!
//! 1. **Reference phase** — one representative per shared group runs the
//!    reference, in parallel on threads of this process. Distinct
//!    references use every core; nothing blocks.
//! 2. **Evaluation phase** — the full grid runs through the same dispatch
//!    as [`crate::sweep::try_sweep_labeled`]; every point finds its group's
//!    reference already in the in-process memo (or the persistent result
//!    cache) and pays only the cheap hybrid/analytical legs.
//!
//! Under the multi-process fabric (`MESH_BENCH_SHARDS`), the groups also
//! travel to the fabric as **co-location hints**: points sharing a
//! reference are assigned to the same shard, so n workers never recompute
//! one reference n ways. With the persistent result cache on, the reference
//! phase still runs in the parent and workers replay from disk; without it,
//! the phase is skipped (a parent-computed reference could not reach the
//! workers) and co-location alone provides once-per-group evaluation inside
//! each worker's own in-process memo.
//!
//! Output is byte-identical to [`crate::sweep::try_sweep_labeled`] on the
//! same grid — the planner changes only *when* sub-evaluations run, never
//! what they produce.
//!
//! ```
//! use mesh_bench::eval::sweep_with_references;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! // Six (machine, knob) points over two machines: one reference each.
//! let points: Vec<(u64, u64)> = (0..2).flat_map(|m| (0..3).map(move |k| (m, k))).collect();
//! let references = AtomicU64::new(0);
//! let values = sweep_with_references(
//!     "doc-planned",
//!     &points,
//!     |&(machine, _)| u128::from(machine),
//!     |_| {
//!         references.fetch_add(1, Ordering::Relaxed);
//!     },
//!     |&(machine, knob)| machine * 10 + knob,
//! )
//! .unwrap();
//! assert_eq!(values, vec![0, 1, 2, 10, 11, 12]);
//! assert_eq!(references.load(Ordering::Relaxed), 2);
//! ```

use crate::checkpoint::Checkpointable;
use crate::config::RunConfig;
use crate::memo;
use crate::sweep::{self, References, SweepError};
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// Groups `points` by reference key: returns (group index per point,
/// representative point index per group). Groups are numbered in
/// first-occurrence order, so the assignment is deterministic.
fn group_by_reference<K>(
    points: &[K],
    reference_key: impl Fn(&K) -> u128,
) -> (Vec<u64>, Vec<usize>) {
    let mut group_of_fp: HashMap<u128, u64> = HashMap::new();
    let mut representatives: Vec<usize> = Vec::new();
    let groups = points
        .iter()
        .enumerate()
        .map(|(index, key)| {
            let fp = reference_key(key);
            *group_of_fp.entry(fp).or_insert_with(|| {
                representatives.push(index);
                representatives.len() as u64 - 1
            })
        })
        .collect();
    (groups, representatives)
}

/// Split-phase sweep: dispatches the distinct shared references of a grid
/// first (in parallel), then evaluates every point against the now-warm
/// sub-evaluation caches. See the [module docs](self) for the phases and
/// the fabric interplay.
///
/// * `reference_key` maps a point to the fingerprint of the sub-evaluation
///   it shares with other points (e.g. [`crate::iss_reference_fp`]); points
///   with equal keys form one group.
/// * `reference_run` computes (and thereby caches) the shared reference for
///   one point — typically a thin wrapper over [`crate::iss_reference`].
///   Its return value is discarded; the caches carry the result.
/// * `eval` is exactly the hook of [`crate::sweep::try_sweep_labeled`].
///
/// Stdout and results are byte-identical to the un-planned path: the
/// planner only reorders work. A failure in the reference phase is
/// *demoted* to a warning — the evaluation phase re-attempts the reference
/// under the real point label, so errors surface with proper grid
/// coordinates.
pub fn sweep_with_references<K, V, F, R, G>(
    label: &str,
    points: &[K],
    reference_key: G,
    reference_run: R,
    eval: F,
) -> Result<Vec<V>, SweepError>
where
    K: Hash + Eq + Clone + Sync + fmt::Debug,
    V: Clone + Send + Checkpointable,
    F: Fn(&K) -> V + Sync,
    R: Fn(&K) + Sync,
    G: Fn(&K) -> u128,
{
    let references = References {
        key: &reference_key,
        run: &reference_run,
    };
    sweep::dispatch(label, points, Some(references), eval)
}

/// The reference phase of a planned grid, run by the sweep dispatch in the
/// parent process: groups `points` by reference key and runs one
/// representative per shared group on the in-process runner. Under the
/// fabric (`config.shards`) without a persistent result cache the phase is
/// skipped, because a reference computed here could not reach the workers.
/// Returns each point's group, the fabric's co-location hint.
pub(crate) fn reference_phase<K>(
    label: &str,
    points: &[K],
    references: &References<'_, K>,
    config: &RunConfig,
) -> Vec<u64>
where
    K: Hash + Sync + fmt::Debug,
{
    let (groups, representatives) = group_by_reference(points, references.key);
    if representatives.len() < points.len() && (config.shards.is_none() || memo::enabled()) {
        let reps: Vec<&K> = representatives.iter().map(|&i| &points[i]).collect();
        let refs_label = format!("{label}:refs");
        let outcome = sweep::run_points(&refs_label, &reps, None, config, |key| {
            (references.run)(key);
        });
        if let Err(e) = outcome {
            // Not fatal: the evaluation phase re-runs the reference under
            // the real point, where failures carry real grid coordinates.
            eprintln!("mesh-bench: reference phase of sweep '{label}' incomplete ({e})");
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn grouping_is_deterministic_and_first_occurrence_ordered() {
        let points = vec![(0u64, 0u64), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)];
        let (groups, reps) = group_by_reference(&points, |&(machine, _)| machine as u128);
        assert_eq!(groups, vec![0, 0, 1, 0, 1, 2]);
        assert_eq!(reps, vec![0, 2, 5], "first point of each group");
    }

    #[test]
    fn references_run_once_per_group() {
        // 3 machines × 4 knob settings; the reference phase must run the
        // reference exactly once per machine, and every point still
        // evaluates.
        let mut points = Vec::new();
        for machine in 0u64..3 {
            for knob in 0u64..4 {
                points.push((machine, knob));
            }
        }
        let ref_runs = AtomicU64::new(0);
        let result = sweep_with_references(
            "eval-test",
            &points,
            |&(machine, _)| 0xE7A1_0000 + machine as u128,
            |_| {
                ref_runs.fetch_add(1, Ordering::Relaxed);
            },
            |&(machine, knob)| machine * 100 + knob,
        )
        .unwrap();
        assert_eq!(result.len(), 12);
        assert_eq!(result[0], 0);
        assert_eq!(result[11], 203);
        assert_eq!(
            ref_runs.load(Ordering::Relaxed),
            3,
            "one reference per distinct machine"
        );
    }

    #[test]
    fn all_distinct_references_skip_the_reference_phase() {
        // Every point its own group: the planner must not double-dispatch.
        let points: Vec<u64> = (0..5).collect();
        let ref_runs = AtomicU64::new(0);
        let result = sweep_with_references(
            "eval-distinct",
            &points,
            |&p| p as u128,
            |_| {
                ref_runs.fetch_add(1, Ordering::Relaxed);
            },
            |&p| p * 2,
        )
        .unwrap();
        assert_eq!(result, vec![0, 2, 4, 6, 8]);
        assert_eq!(ref_runs.load(Ordering::Relaxed), 0, "no shared references");
    }
}
