#!/usr/bin/env bash
# CI entry point: tier-1 (configure + build + full ctest), the end-to-end
# benchmark's smoke run (every workload's oracles, ~3 s each after its
# build), plus the complete static-analysis gate (lint -> thread-safety
# build -> clang-tidy -> lock graph), each run as a separately timed stage.
# Writes a machine-readable per-stage report — name, status (pass|fail),
# exit code, wall-clock seconds — so a CI frontend can chart where the time
# goes and which gate broke without parsing logs.
#
#   scripts/ci.sh                         # all stages, report to
#                                         # build/ci_report.json
#   STRG_CI_REPORT=out.json scripts/ci.sh # report path override
#   STRG_REQUIRE_CLANG=1 scripts/ci.sh   # Clang-only static legs must RUN
#                                         # (their loud skips become stage
#                                         # failures — real CI mode)
#
# Exit status: 0 iff every stage passed. Stages keep running after a
# failure so one report covers the whole pipeline.
set -uo pipefail
cd "$(dirname "$0")/.."

REPORT="${STRG_CI_REPORT:-build/ci_report.json}"
STAGE_JSON=()
FAILED=0

run_stage() {
  # run_stage <name> <cmd...> — times the command, records one report row.
  local name="$1"
  shift
  echo
  echo "=== ci stage: $name ==="
  local start end rc status
  start="$(date +%s)"
  "$@"
  rc=$?
  end="$(date +%s)"
  if [[ "$rc" == 0 ]]; then
    status="pass"
  else
    status="fail"
    FAILED=1
  fi
  echo "=== ci stage: $name -> $status (${rc}) in $((end - start))s ==="
  STAGE_JSON+=("{\"stage\":\"$name\",\"status\":\"$status\",\"exit_code\":$rc,\"seconds\":$((end - start))}")
}

run_stage configure cmake -B build -S .
run_stage build cmake --build build -j
run_stage test ctest --test-dir build --output-on-failure -j

# All four end-to-end workloads on their small catalogs: bench/e2e/run.sh
# builds its own Release tree and exits nonzero if any oracle fails (among
# them paged_cold's brute-force kNN/range check and its store >= 10x cache
# check).
run_stage e2e_smoke bash bench/e2e/run.sh --smoke

# The four static legs individually (see scripts/static.sh for what each
# proves); STRG_REQUIRE_CLANG passes through so CI can insist the
# Clang-only legs actually ran.
run_stage static_lint env STRG_STATIC_LEG=lint scripts/static.sh
run_stage static_thread_safety env STRG_STATIC_LEG=thread-safety scripts/static.sh
run_stage static_clang_tidy env STRG_STATIC_LEG=tidy scripts/static.sh
run_stage static_lock_graph env STRG_STATIC_LEG=lock-graph scripts/static.sh

mkdir -p "$(dirname "$REPORT")"
{
  printf '{"stages":['
  for i in "${!STAGE_JSON[@]}"; do
    [[ "$i" -gt 0 ]] && printf ','
    printf '%s' "${STAGE_JSON[$i]}"
  done
  printf '],"ok":%s}\n' "$([[ "$FAILED" == 0 ]] && echo true || echo false)"
} > "$REPORT"
echo
echo "ci.sh: report written to $REPORT"
if [[ "$FAILED" != 0 ]]; then
  echo "ci.sh: FAILED (see report)"
  exit 1
fi
echo "ci.sh: all stages green"
