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
//! [`sweep_with_references`] fixes the dispatch order. It walks the grid up
//! front, groups points by a caller-supplied **reference key** (the shared
//! sub-evaluation's fingerprint, e.g. [`crate::iss_reference_fp`]), then:
//!
//! 1. **Reference phase** — one representative per distinct group runs the
//!    reference, in parallel on the in-process engine. Distinct references
//!    use every core; nothing blocks.
//! 2. **Evaluation phase** — the full grid dispatches through the ordinary
//!    sweep entry points; every point finds its group's reference already
//!    in the sub-evaluation LRU (or the persistent result cache) and pays
//!    only the cheap hybrid/analytical legs.
//!
//! Under the multi-process fabric (`MESH_BENCH_SHARDS`), the planner
//! additionally registers **co-location hints**: points sharing a reference
//! are assigned to the same shard in the plan file, so n workers never
//! recompute one reference n-ways. With the persistent result cache on, the
//! reference phase still runs in the parent and workers replay from disk;
//! without it, the phase is skipped (a parent-computed reference could not
//! reach the workers) and co-location alone provides once-per-group
//! evaluation inside each worker's own LRU.
//!
//! `MESH_BENCH_PLANNER=off` (or `0`) disables the planner; the sweep then
//! behaves exactly like [`crate::sweep::try_sweep_labeled`].
//! Output is byte-identical either way — the planner changes only *when*
//! sub-evaluations run, never what they produce.

use crate::checkpoint::{stable_key_hash, Checkpointable};
use crate::sweep::{SweepEngine, SweepError};
use crate::{fabric, memo};
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// Environment variable disabling the split-phase planner: `off` or `0`
/// routes [`sweep_with_references`] straight to the ordinary sweep entry
/// points; `on` or `1` (or unset) keeps the planner on. Any other value
/// warns on stderr and keeps it on.
pub const PLANNER_ENV: &str = "MESH_BENCH_PLANNER";

/// Whether the split-phase planner is active (default: yes; see
/// [`PLANNER_ENV`]).
pub fn planner_enabled() -> bool {
    match std::env::var(PLANNER_ENV) {
        Ok(value) => parse_planner(&value).unwrap_or_else(|warning| {
            eprintln!("{warning}");
            true
        }),
        Err(_) => true,
    }
}

/// Parses a [`PLANNER_ENV`] value into "planner on?"; the error is the
/// warning to print before falling back to the default (on).
fn parse_planner(value: &str) -> Result<bool, String> {
    match value.trim() {
        "off" | "0" => Ok(false),
        "" | "on" | "1" => Ok(true),
        _ => Err(format!(
            "mesh-bench: ignoring invalid {PLANNER_ENV}={value:?} \
             (want off|0 or on|1; keeping the planner on)"
        )),
    }
}

/// Groups `points` by reference key: returns (group index per point, number
/// of groups, representative point index per group). Groups are numbered in
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

/// Clears the fabric's co-location hints when the sweep finishes (or
/// unwinds), so a later un-planned sweep is not steered by stale hints.
struct HintsGuard;

impl Drop for HintsGuard {
    fn drop(&mut self) {
        fabric::clear_plan_hints();
    }
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
    // Workers get their assignment from the plan file; the parent already
    // planned for them. Disabled planner: plain dispatch.
    if fabric::worker_config().is_some() || !planner_enabled() {
        return crate::sweep::try_sweep_labeled(label, points, eval);
    }

    let (groups, representatives) = group_by_reference(points, reference_key);
    let fabric_active = fabric::shards_from_env().is_some();

    // Reference phase. Under the fabric without a persistent result cache,
    // a parent-side reference cannot reach the worker processes — skip the
    // phase and let co-location dedupe inside each worker instead.
    if representatives.len() < points.len() && (!fabric_active || memo::enabled()) {
        let reps: Vec<K> = representatives.iter().map(|&i| points[i].clone()).collect();
        let refs_label = format!("{label}:refs");
        let outcome = SweepEngine::<K, ()>::from_env().try_run_labeled(&refs_label, &reps, |key| {
            reference_run(key);
        });
        if let Err(e) = outcome {
            // Not fatal: the evaluation phase re-runs the reference under
            // the real point, where failures carry real grid coordinates.
            eprintln!("mesh-bench: reference phase of sweep '{label}' incomplete ({e})");
        }
    }

    // Evaluation phase, with co-location hints registered so a sharded run
    // keeps each reference group on one worker.
    let _guard = HintsGuard;
    if fabric_active {
        fabric::set_plan_hints(
            points
                .iter()
                .zip(&groups)
                .map(|(key, &group)| (stable_key_hash(key), group))
                .collect(),
        );
    }
    crate::sweep::try_sweep_labeled(label, points, eval)
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
    fn unrecognised_planner_value_warns_instead_of_passing_silently() {
        for (value, on) in [
            ("off", false),
            (" 0 ", false),
            ("", true),
            ("on", true),
            ("1", true),
        ] {
            assert_eq!(parse_planner(value), Ok(on), "{value:?}");
        }
        for bad in ["false", "no", "of", "OFF"] {
            let warning = parse_planner(bad).expect_err(bad);
            assert!(
                warning.contains(&format!("ignoring invalid {PLANNER_ENV}={bad:?}")),
                "{warning}"
            );
        }
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
