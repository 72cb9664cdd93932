#!/usr/bin/env bash
# Smoke test for the strgtool CLI: catalog files, a refused overwrite of
# a catalog it cannot read, the durable engine reopened across storage
# modes, export, and the offline page-file audit.
#
#   tests/strgtool_smoke.sh <strgtool binary> <scratch dir>
#
# Registered as the `strgtool_smoke` ctest when examples are built.
set -euo pipefail

tool=$1
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

fail() {
  echo "strgtool_smoke: FAIL: $*" >&2
  exit 1
}

# Runs strgtool, keeping its stdout in <name>.out; a failing run fails the
# test with its output.
run() {
  local name=$1
  shift
  if ! "$tool" "$@" >"$name.out" 2>&1; then
    cat "$name.out" >&2
    fail "strgtool $* exited non-zero"
  fi
}

expect_line() {
  local name=$1 pattern=$2
  grep -q -- "$pattern" "$name.out" || {
    cat "$name.out" >&2
    fail "$name: no line matching '$pattern'"
  }
}

# The OG count of video `cam` in an `info` table (its third column).
info_ogs() {
  awk '$1 == "cam" { print $3 }' "$1.out"
}

# 1. A fresh catalog file: ingest, then read it back.
run ingest ingest catalog.bin lab cam 3
ogs=$(sed -n "s/^ingested 'cam': .* -> \([0-9]*\) OGs; .*/\1/p" ingest.out)
[[ -n "$ogs" && "$ogs" -gt 0 ]] || fail "ingest reported no OGs"
expect_line ingest "catalog now has 1 segment(s), $ogs OGs"
run info info catalog.bin
[[ "$(info_ogs info)" == "$ogs" ]] || fail "info disagrees with ingest"

# 2. A catalog strgtool cannot read is never overwritten.
printf 'not a catalog file' >garbage.bin
cp garbage.bin garbage.orig
if "$tool" ingest garbage.bin lab cam 3 >garbage.out 2>&1; then
  fail "ingest onto a corrupt catalog exited 0"
fi
expect_line garbage "CORRUPTION"
cmp -s garbage.bin garbage.orig || fail "ingest modified a corrupt catalog"

# 3. The durable engine: ingest in paged mode, reopen in RAM mode (from
#    the snapshot the first run published), export, and audit the store.
run serve_paged serve --paged wal lab cam 3
expect_line serve_paged "ingested 'cam' durably: $ogs OGs"
expect_line serve_paged "catalog: 1 segment(s), $ogs OGs"
[[ -f wal/catalog.snap ]] || fail "serve published no catalog.snap"
[[ ! -s wal/wal.log ]] || fail "serve left records in wal.log"

run serve_ram serve wal
expect_line serve_ram "1 segment(s) from snapshot, 0 WAL record(s) replayed"
expect_line serve_ram "catalog: 1 segment(s), $ogs OGs"

run save save wal export.bin
expect_line save "exported 1 segment(s), $ogs OGs"
run info_export info export.bin
[[ "$(info_ogs info_export)" == "$ogs" ]] || fail "exported catalog differs"

# The paged run appended one leaf record per OG it ingested, and its
# publish committed them.
run stat stat wal/store.pages
expect_line stat "^records: $ogs ("

echo "strgtool_smoke: ok ($ogs OGs through catalog, serve, save and stat)"
