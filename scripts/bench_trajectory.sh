#!/usr/bin/env bash
# Folds the committed BENCH_*.json perf artifacts into one markdown
# trajectory table: a row per benchmark, a column per file, so the perf
# history of the repository reads at a glance (and in the CI job log).
#
#   ./scripts/bench_trajectory.sh [BENCH_a.json BENCH_b.json ...]
#
# With no arguments, picks up every BENCH_*.json in the repository root,
# baseline first, the rest in name order. The parser mirrors
# mesh_bench::perf::BenchFile: hand-rolled line-based JSON, one
# `{ "name": ..., "median_ns": ... }` object per line — sed/awk only, no
# external JSON tooling.

set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
  files=("$@")
else
  files=()
  [ -f BENCH_baseline.json ] && files+=(BENCH_baseline.json)
  for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    [ "$f" = BENCH_baseline.json ] && continue
    files+=("$f")
  done
fi
if [ "${#files[@]}" -eq 0 ]; then
  echo "no BENCH_*.json files found" >&2
  exit 1
fi

# Column label: the recorded git_sha (falls back to the file name), plus a
# star when the file was a --quick run (not comparable with full runs). The
# baseline reads `baseline (<sha>)`, since it is a copy of another
# committed run that carries the same sha.
label_of() {
  sha=$(sed -n 's/.*"git_sha": "\([A-Za-z0-9_.-]*\)".*/\1/p' "$1" | head -n 1)
  quick=$(sed -n 's/.*"quick": \(true\|false\).*/\1/p' "$1" | head -n 1)
  label="${sha:-$1}"
  [ "$(basename "$1")" = BENCH_baseline.json ] && label="baseline (${label})"
  [ "$quick" = "true" ] && label="${label}*"
  printf '%s' "$label"
}

# Benchmark rows, in first-appearance order across all files.
names=$(awk -F'"' '/"name":/ { if (!seen[$4]++) print $4 }' "${files[@]}")

{
  printf '| benchmark |'
  for f in "${files[@]}"; do
    printf ' %s |' "$(label_of "$f")"
  done
  printf '\n|---|'
  for _ in "${files[@]}"; do
    printf '%s' '---|'
  done
  printf '\n'
  while IFS= read -r name; do
    printf '| %s |' "$name"
    for f in "${files[@]}"; do
      median=$(awk -F'"' -v n="$name" \
        '/"name":/ && $4 == n { sub(/.*"median_ns": */, ""); sub(/ *}.*/, ""); print; exit }' \
        "$f")
      if [ -n "$median" ]; then
        # Adaptive unit so model rows (tens of ns) and cyclesim rows (tens
        # of ms) are both readable.
        printf ' %s |' "$(awk -v m="$median" 'BEGIN {
          if (m >= 1e6) printf "%.3f ms", m / 1e6
          else if (m >= 1e3) printf "%.2f us", m / 1e3
          else printf "%.1f ns", m }')"
      else
        printf ' - |'
      fi
    done
    printf '\n'
  done <<< "$names"
  printf '\n(* = quick run; medians not comparable with full runs)\n'
}
