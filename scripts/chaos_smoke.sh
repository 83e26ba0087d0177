#!/usr/bin/env bash
# Chaos smoke test: exercises the multi-process sweep fabric end to end.
#
#   ./scripts/chaos_smoke.sh
#
# Extends scripts/fault_smoke.sh (in-process crash isolation) to the fabric
# layer (crates/bench/src/fabric.rs, docs/ROBUSTNESS.md). Six checks:
#
#   1. Determinism: a sharded fig4 run (MESH_BENCH_SHARDS=3) is
#      byte-identical to the single-process golden run.
#   2. SIGKILL storm: the same sharded fig4 run while a background loop
#      SIGKILLs random worker processes; the supervisor restarts them from
#      their own checkpoints and the output is still byte-identical.
#   3. Hang + timeout: a mesh_worker demo sweep with one injected hang
#      (MESH_CHAOS_HANG, once-only via a marker dir) under
#      MESH_BENCH_TIMEOUT; the heartbeat timeout kills the worker, the
#      retry completes the point, output byte-identical.
#   4. Poison point: a point that aborts its worker on every attempt
#      (MESH_CHAOS_ABORT=idx:always) exhausts its strike budget, exits
#      nonzero, and the report names the point's grid coordinates — and
#      does all that promptly instead of restarting forever. With the
#      flight recorder on, the report also references the dead worker's
#      salvaged flight-recorder dump, and the referenced file exists.
#   5. Degradation: with MESH_FABRIC_EXE pointing nowhere, spawning fails
#      and the sweep completes on the in-process engine, byte-identical,
#      exit 0.
#   6. Telemetry merge under fire: a sharded fig4 run with MESH_OBS_OUT,
#      under the same SIGKILL storm, produces one merged metrics.json
#      whose sweep.points_done and cyclesim.sim.runs equal the
#      single-process run's (docs/OBSERVABILITY.md).
#
# With CHAOS_ARTIFACTS=<dir> set, the merged snapshot from check 6 and the
# salvaged flight record from check 4 are copied there for CI upload.
#
# The deterministic (non-racy) versions of these properties are pinned by
# `cargo test -p mesh-bench --test fabric` and `--test obs_fabric`; this
# script adds real binaries, real signals and real wall clocks on top.

set -euo pipefail
cd "$(dirname "$0")/.."

FIG4=target/release/fig4
WORKER=target/release/mesh_worker
if [[ ! -x "$FIG4" || ! -x "$WORKER" ]]; then
    echo "chaos_smoke: building fig4 + mesh_worker (release)..." >&2
    cargo build -p mesh-bench --bin fig4 --bin mesh_worker --release --quiet
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "chaos_smoke: FAIL — $1" >&2
    exit 1
}

# Golden references: clean single-process runs.
"$FIG4" > "$WORK/fig4.golden.txt" 2>/dev/null
"$WORKER" > "$WORK/worker.golden.txt" 2>/dev/null

# --- 1. Sharded fig4 is byte-identical ------------------------------------
MESH_BENCH_SHARDS=3 "$FIG4" > "$WORK/fig4.sharded.txt" 2>/dev/null
cmp -s "$WORK/fig4.golden.txt" "$WORK/fig4.sharded.txt" \
    || fail "sharded fig4 output differs from the single-process run"
echo "chaos_smoke: [1/6] sharded fig4 byte-identical (3 shards)"

# --- 2. Sharded fig4 under a random worker-SIGKILL storm ------------------
# The killer loop SIGKILLs a random direct child of the sweep parent every
# 50ms; the strike budget is generous so kills never exhaust a point. Kills
# that land between sweeps (or after completion) are harmless no-ops, so
# the check stays green on machines fast enough to outrun the killer.
set +e
MESH_BENCH_SHARDS=3 MESH_BENCH_RETRIES=10 \
    "$FIG4" > "$WORK/fig4.chaos.txt" 2> "$WORK/fig4.chaos.err" &
pid=$!
for _ in $(seq 1 40); do
    sleep 0.05
    mapfile -t kids < <(pgrep -P "$pid" 2>/dev/null)
    if (( ${#kids[@]} > 0 )); then
        kill -9 "${kids[RANDOM % ${#kids[@]}]}" 2>/dev/null
    fi
    kill -0 "$pid" 2>/dev/null || break
done
wait "$pid"
status=$?
set -e
[[ $status -eq 0 ]] || fail "fig4 under SIGKILL storm exited $status (stderr: $(cat "$WORK/fig4.chaos.err"))"
cmp -s "$WORK/fig4.golden.txt" "$WORK/fig4.chaos.txt" \
    || fail "fig4 output under SIGKILL storm differs from the golden run"
restarts="$(grep -c 'retrying on a fresh worker' "$WORK/fig4.chaos.err" || true)"
echo "chaos_smoke: [2/6] sharded fig4 survived the SIGKILL storm byte-identical (${restarts} struck point(s) retried)"

# --- 3. Injected hang, killed by the heartbeat timeout --------------------
mkdir -p "$WORK/chaos-markers"
set +e
MESH_BENCH_SHARDS=2 MESH_BENCH_TIMEOUT=1 \
MESH_CHAOS_HANG=4 MESH_CHAOS_DIR="$WORK/chaos-markers" \
    timeout 120 "$WORKER" > "$WORK/worker.hang.txt" 2> "$WORK/worker.hang.err"
status=$?
set -e
[[ $status -eq 0 ]] || fail "hung-point run exited $status (stderr: $(cat "$WORK/worker.hang.err"))"
grep -q "no heartbeat" "$WORK/worker.hang.err" \
    || fail "timeout kill was not reported on stderr"
cmp -s "$WORK/worker.golden.txt" "$WORK/worker.hang.txt" \
    || fail "output after a timed-out point differs from the golden run"
echo "chaos_smoke: [3/6] hung point killed by MESH_BENCH_TIMEOUT and recovered byte-identical"

# --- 4. Permanently crashing point is poisoned, with coordinates ----------
set +e
MESH_BENCH_SHARDS=2 MESH_BENCH_RETRIES=1 MESH_CHAOS_ABORT=3:always \
MESH_OBS_FLIGHTREC=1 MESH_OBS_OUT="$WORK/poison-obs" \
    timeout 120 "$WORKER" > /dev/null 2> "$WORK/worker.poison.err"
status=$?
set -e
[[ $status -ne 0 && $status -ne 124 ]] \
    || fail "poisoned point did not produce a prompt nonzero exit (got $status)"
grep -q "poisoning point #3 3 of sweep 'demo'" "$WORK/worker.poison.err" \
    || fail "poison report does not name the point's index and coordinates"
grep -q "23 completed" "$WORK/worker.poison.err" \
    || fail "healthy points did not complete around the poisoned one"
rec="$(sed -n 's/.*\[flight record: \([^]]*\)\].*/\1/p' "$WORK/worker.poison.err" | head -n1)"
[[ -n "$rec" ]] || fail "poison report does not reference a salvaged flight record"
[[ -f "$rec" ]] || fail "salvaged flight record $rec does not exist"
grep -q '"kind":"point"' "$rec" \
    || fail "salvaged flight record $rec does not name the fatal point"
echo "chaos_smoke: [4/6] crash-every-time point poisoned after its strike budget, flight record salvaged (exit $status)"

# --- 5. Spawn failure degrades to the in-process engine -------------------
MESH_BENCH_SHARDS=3 MESH_FABRIC_EXE="$WORK/no-such-exe" \
    "$FIG4" > "$WORK/fig4.fallback.txt" 2> "$WORK/fig4.fallback.err"
grep -q "falling back to the in-process engine" "$WORK/fig4.fallback.err" \
    || fail "spawn failure was not reported as a fallback"
cmp -s "$WORK/fig4.golden.txt" "$WORK/fig4.fallback.txt" \
    || fail "in-process fallback output differs from the golden run"
echo "chaos_smoke: [5/6] spawn failure degraded gracefully to the in-process engine"

# --- 6. Telemetry merge under the SIGKILL storm ---------------------------
# The merged multi-process snapshot must equal the single-process run's on
# the work-accounting counters even while workers are being murdered and
# restarted: cumulative snapshots ride the point records, so a partial
# bump from a killed attempt dies with its missing record and the retry
# counts the point exactly once.
MESH_OBS_OUT="$WORK/obs-single" "$FIG4" > /dev/null 2>&1
set +e
MESH_BENCH_SHARDS=3 MESH_BENCH_RETRIES=10 MESH_OBS_OUT="$WORK/obs-sharded" \
    "$FIG4" > "$WORK/fig4.obs.txt" 2> "$WORK/fig4.obs.err" &
pid=$!
for _ in $(seq 1 40); do
    sleep 0.05
    mapfile -t kids < <(pgrep -P "$pid" 2>/dev/null)
    if (( ${#kids[@]} > 0 )); then
        kill -9 "${kids[RANDOM % ${#kids[@]}]}" 2>/dev/null
    fi
    kill -0 "$pid" 2>/dev/null || break
done
wait "$pid"
status=$?
set -e
[[ $status -eq 0 ]] || fail "observed fig4 under SIGKILL storm exited $status (stderr: $(cat "$WORK/fig4.obs.err"))"
cmp -s "$WORK/fig4.golden.txt" "$WORK/fig4.obs.txt" \
    || fail "observed fig4 output under SIGKILL storm differs from the golden run"
[[ -f "$WORK/obs-sharded/metrics.json" && -f "$WORK/obs-sharded/manifest.json" ]] \
    || fail "sharded run left no merged metrics.json + manifest.json"
for key in '"sweep.points_done"' '"cyclesim.sim.runs"'; do
    single_line="$(grep -F "$key" "$WORK/obs-single/metrics.json" || true)"
    merged_line="$(grep -F "$key" "$WORK/obs-sharded/metrics.json" || true)"
    [[ -n "$single_line" ]] || fail "$key missing from the single-process snapshot"
    [[ "$single_line" == "$merged_line" ]] \
        || fail "$key diverged: single-process '$single_line' vs merged '$merged_line'"
done
grep -q '"shards"' "$WORK/obs-sharded/manifest.json" \
    || fail "merged manifest carries no per-shard provenance"
echo "chaos_smoke: [6/6] merged telemetry snapshot equals the single-process run under the SIGKILL storm"

# Optional artifact export for CI: merged snapshot + a salvaged flight
# record, preserved past this script's temp-dir cleanup.
if [[ -n "${CHAOS_ARTIFACTS:-}" ]]; then
    mkdir -p "$CHAOS_ARTIFACTS"
    cp -r "$WORK/obs-sharded" "$CHAOS_ARTIFACTS/merged-snapshot"
    cp "$rec" "$CHAOS_ARTIFACTS/"
    echo "chaos_smoke: artifacts exported to $CHAOS_ARTIFACTS"
fi

echo "chaos_smoke: all checks passed"
