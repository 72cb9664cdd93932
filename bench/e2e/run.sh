#!/usr/bin/env bash
# End-to-end benchmark entry point (see README.md).
#
#   bash bench/e2e/run.sh --workload knn_serve --seed 1 --seconds 20 --trace 0
#   bash bench/e2e/run.sh --seed 1            # all four workloads in turn
#   bash bench/e2e/run.sh --smoke             # ~3 s per workload, small catalog
#
# Builds the library and the harness from source into bench/e2e/build-e2e
# (Release; an up-to-date tree rebuilds nothing), then runs one process per
# workload. Each prints its metrics as one JSON object on its last stdout
# line; build output goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build-e2e"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --parallel "$(nproc)" >&2

args=()
workload=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done

run_one() {
  "$build/bench_e2e" --workload "$1" --work-dir "$build/work" \
    --trace-out "$build/BENCH_e2e_trace_$1.json" "${args[@]}"
}

if [[ -n "$workload" ]]; then
  run_one "$workload"
else
  status=0
  for w in knn_serve ingest_live paged_cold frames_ingest; do
    run_one "$w" || status=1
  done
  exit "$status"
fi
