#!/usr/bin/env bash
# Fault-injection smoke test: exercises the robustness layer end to end.
#
#   ./scripts/fault_smoke.sh
#
# Four checks against the fig5 binary (5-point grid, fully deterministic
# stdout — no wall-clock columns), one against fig6 (21 workload rows,
# deterministic stdout too) and one against incident_smoke:
#
#   1. Crash isolation: with MESH_BENCH_FAIL_POINT injecting a panic at one
#      grid point, the sweep still completes every other point, exits
#      nonzero, and the error on stderr names the failed point's grid
#      coordinates.
#   2. Checkpoint/resume after the injected crash: re-running with the same
#      MESH_BENCH_CHECKPOINT evaluates only the one missing point and the
#      final stdout is byte-identical to an uninterrupted run.
#   3. Checkpoint/resume after a real SIGKILL mid-run: a serial fig6 (about
#      0.3 s cold) is killed once its checkpoint holds a row. The kill must
#      land on the live run (exit 137, at least 1 and fewer than 21 rows on
#      disk); the resumed run simulates only the missing rows (5 bus delays
#      each) and prints the uninterrupted run's stdout.
#   4. Kernel fault incidents are observable: a ClampPenalty run with
#      injected NaN penalties and MESH_OBS_OUT set must report nonzero
#      kernel.incidents counters in the metrics snapshot, land in the
#      flight-recorder ring, and leave a recorder dump next to the
#      snapshot (docs/OBSERVABILITY.md).
#   5. Flight record on failure: with MESH_OBS_FLIGHTREC=1, a poisoned
#      point's failure report references a flight-recorder dump, and the
#      referenced file exists and is a complete recorder document.
#   6. Misconfiguration fails before any work: a misspelled knob, a
#      malformed value and a removed knob each exit 2, name the variable on
#      stderr, and leave no checkpoint record.
#
# The kernel-level fault-injection property tests live in
# crates/faults/tests/properties.rs (`cargo test -p mesh-faults`); CI runs
# them alongside this script. See docs/ROBUSTNESS.md.

set -euo pipefail
cd "$(dirname "$0")/.."

FIG5=target/release/fig5
FIG6=target/release/fig6
if [[ ! -x "$FIG5" || ! -x "$FIG6" ]]; then
    echo "fault_smoke: building fig5 and fig6 (release)..." >&2
    cargo build -p mesh-bench --bin fig5 --bin fig6 --release --quiet
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "fault_smoke: FAIL — $1" >&2
    exit 1
}

# Golden reference: one clean, uncheckpointed run.
"$FIG5" > "$WORK/golden.txt" 2>/dev/null

# --- 1. Crash isolation: injected panic at point 3 of sweep 'fig5' --------
set +e
MESH_BENCH_CHECKPOINT="$WORK/crash.ckpt" \
MESH_BENCH_FAIL_POINT=fig5:3 \
MESH_BENCH_RETRIES=0 \
    "$FIG5" > "$WORK/crash.out" 2> "$WORK/crash.err"
status=$?
set -e
[[ $status -ne 0 ]] || fail "injected fail point did not produce a nonzero exit"
grep -q "point #3" "$WORK/crash.err" \
    || fail "failure report does not name the failed point index"
grep -q "4 completed" "$WORK/crash.err" \
    || fail "sweep did not complete the other 4 points around the crash"
[[ "$(wc -l < "$WORK/crash.ckpt")" -eq 4 ]] \
    || fail "checkpoint should hold exactly the 4 healthy points"
echo "fault_smoke: [1/6] crash isolation ok (exit $status, 4/5 points checkpointed)"

# --- 2. Resume after the crash: byte-identical to the golden run ----------
MESH_BENCH_CHECKPOINT="$WORK/crash.ckpt" \
    "$FIG5" > "$WORK/resumed.txt" 2>/dev/null
cmp -s "$WORK/golden.txt" "$WORK/resumed.txt" \
    || fail "resumed output differs from the uninterrupted run"
echo "fault_smoke: [2/6] crash-then-resume output byte-identical"

# --- 3. SIGKILL mid-run, then resume --------------------------------------
# Kill a serial fig6 as soon as its checkpoint holds a row, while later
# rows are still being simulated.
FIG6_ROWS=21
"$FIG6" > "$WORK/fig6-golden.txt" 2>/dev/null
rows() { [[ -f "$1" ]] && wc -l < "$1" || echo 0; }
set +e
MESH_BENCH_CHECKPOINT="$WORK/kill.ckpt" MESH_BENCH_JOBS=1 \
    "$FIG6" > /dev/null 2>&1 &
pid=$!
for _ in $(seq 2000); do
    [[ "$(rows "$WORK/kill.ckpt")" -ge 1 ]] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.002
done
kill -9 "$pid" 2>/dev/null
wait "$pid" 2>/dev/null
status=$?
set -e
done_rows="$(rows "$WORK/kill.ckpt")"
[[ $status -eq 137 ]] || fail "the SIGKILL missed the live fig6 run (exit $status)"
[[ $done_rows -ge 1 && $done_rows -lt $FIG6_ROWS ]] \
    || fail "the kill left $done_rows of $FIG6_ROWS rows, not a partial sweep"
MESH_BENCH_CHECKPOINT="$WORK/kill.ckpt" MESH_OBS_OUT="$WORK/kill-obs" \
    "$FIG6" > "$WORK/killresumed.txt" 2>/dev/null
cmp -s "$WORK/fig6-golden.txt" "$WORK/killresumed.txt" \
    || fail "output after SIGKILL + resume differs from the uninterrupted run"
sims="$(awk '$1 == "counter" && $2 == "cyclesim.sim.runs" {print $4}' "$WORK/kill-obs/metrics.txt")"
[[ "${sims:-0}" -eq $((5 * (FIG6_ROWS - done_rows))) ]] \
    || fail "the resume ran ${sims:-0} simulations for $((FIG6_ROWS - done_rows)) missing rows"
echo "fault_smoke: [3/6] kill-then-resume output byte-identical (killed live with ${done_rows}/${FIG6_ROWS} rows on disk; resume simulated ${sims})"

# --- 4. Kernel incidents land in the metrics snapshot ---------------------
SMOKE=target/release/incident_smoke
if [[ ! -x "$SMOKE" ]]; then
    echo "fault_smoke: building incident_smoke (release)..." >&2
    cargo build -p mesh-faults --bin incident_smoke --release --quiet
fi
MESH_OBS_OUT="$WORK/obs" "$SMOKE" > "$WORK/incidents.out"
[[ -f "$WORK/obs/metrics.json" ]] \
    || fail "MESH_OBS_OUT run left no metrics.json snapshot"
grep -q '"kernel.incidents": ' "$WORK/obs/metrics.json" \
    || fail "kernel.incidents missing from the metrics snapshot"
! grep -q '"kernel.incidents": 0,' "$WORK/obs/metrics.json" \
    || fail "metrics snapshot reports zero kernel incidents"
grep -q "incident event(s) in the flight-recorder ring" "$WORK/incidents.out" \
    || fail "incident_smoke did not report its flight-recorder ring"
! grep -q " 0 incident event(s)" "$WORK/incidents.out" \
    || fail "kernel incidents never reached the flight-recorder ring"
[[ -f "$WORK/obs/flightrec-incident-smoke.json" ]] \
    || fail "incident_smoke left no flight-recorder dump next to the snapshot"
echo "fault_smoke: [4/6] fault incidents present in the metrics snapshot and the flight-recorder ring"

# --- 5. Poisoned point's flight record is attached to the failure ----------
# The injected panic exhausts a zero-retry budget; with the recorder on,
# the PointFailure report must reference a dump whose file really exists.
set +e
MESH_OBS_FLIGHTREC=1 MESH_OBS_OUT="$WORK/flightrec-obs" \
MESH_BENCH_FAIL_POINT=fig5:2 \
MESH_BENCH_RETRIES=0 \
    "$FIG5" > /dev/null 2> "$WORK/flightrec.err"
status=$?
set -e
[[ $status -ne 0 ]] || fail "injected fail point did not produce a nonzero exit"
rec="$(sed -n 's/.*\[flight record: \([^]]*\)\].*/\1/p' "$WORK/flightrec.err" | head -n1)"
[[ -n "$rec" ]] || fail "failure report does not reference a flight record"
[[ -f "$rec" ]] || fail "referenced flight record $rec does not exist"
grep -q '"events"' "$rec" \
    || fail "flight record $rec is not a recorder dump"
echo "fault_smoke: [5/6] poisoned point's flight record attached to its failure report"

# --- 6. Misconfiguration stops the run before any point ------------------
for bad in MESH_BENCH_JOB=2 MESH_BENCH_RETRIES=-1 "MESH_TRACE_STORE=$WORK/store"; do
    set +e
    env MESH_BENCH_CHECKPOINT="$WORK/misconfig.ckpt" "$bad" \
        "$FIG5" > /dev/null 2> "$WORK/misconfig.err"
    status=$?
    set -e
    [[ $status -eq 2 ]] || fail "$bad exited $status, not 2"
    grep -q "${bad%%=*}" "$WORK/misconfig.err" \
        || fail "$bad: stderr does not name the variable"
    [[ ! -s "$WORK/misconfig.ckpt" ]] || fail "$bad left a checkpoint record"
done
echo "fault_smoke: [6/6] misconfigured runs exit 2 naming the variable, before any point"

echo "fault_smoke: all checks passed"
