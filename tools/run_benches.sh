#!/usr/bin/env bash
# Runs the perf-tracked benches once and merges their machine-readable
# records into one JSON file so the perf trajectory is tracked across PRs
# instead of prose-only in CHANGES.md.
#
# Usage: tools/run_benches.sh <build-dir> <out.json> [max-n]
#
#   build-dir  directory containing the bench binaries (e.g. build)
#   out.json   merged output file (required, so a run never appends into a
#              committed BENCH_PR*.json by accident)
#   max-n      scale-section size for the table benches
#              (default: 1048576 = 2^20; use e.g. 16384 for a quick smoke)
#
# Fail-fast contract: any bench driver exiting non-zero aborts the script
# (set -euo pipefail), and records are staged in a temp file that only
# replaces out.json after every driver succeeded — a crashed driver can no
# longer leave a partially-written BENCH json behind.
set -euo pipefail

usage="usage: tools/run_benches.sh <build-dir> <out.json> [max-n]"
build=${1:?$usage}
out=${2:?$usage}
max_n=${3:-1048576}

tmp=$(mktemp "${out}.XXXXXX.tmp")
trap 'rm -f "$tmp"' EXIT
# Keep merge semantics: records append into any pre-existing out.json.
if [ -f "$out" ]; then cp "$out" "$tmp"; fi

# The sharded-drain rows at 2^20 take minutes; smoke runs keep only the
# 2^17 rows of BM_AsyncDrainParallel.
micro_filter='BM_SimSyncRound|BM_VerifierRound|BM_AsyncUnit|BM_AsyncDrainParallel/131072'
if [ "$max_n" -ge 1048576 ]; then
  micro_filter='BM_SimSyncRound|BM_VerifierRound|BM_AsyncUnit|BM_AsyncDrainParallel'
fi

# Campaign sizes: full runs fuzz 16 episodes per cell at n=256; smoke runs
# shrink both so the oracle-checked sweep stays seconds.
campaign_n=256
campaign_eps=16
if [ "$max_n" -lt 1048576 ]; then
  campaign_n=64
  campaign_eps=4
fi

# Fleet-service sizes: the full run drains a 128-tenant mixed fleet (the
# driver is also a containment/determinism gate); smoke runs shrink it.
service_tenants=128
if [ "$max_n" -lt 1048576 ]; then
  service_tenants=32
fi

"$build/bench_micro" --json="$tmp" \
  --benchmark_filter="$micro_filter"
"$build/bench_labels_memory" --max-n="$max_n" --json="$tmp"
"$build/bench_detection_sync" 1 --max-n="$max_n" --json="$tmp"
"$build/bench_detection_async" 1 --max-n="$max_n" --json="$tmp"
"$build/bench_table1" 1 --max-n="$max_n" --json="$tmp"
"$build/bench_campaign" 1 --n="$campaign_n" --episodes="$campaign_eps" \
  --json="$tmp"
"$build/bench_service" 4 --tenants="$service_tenants" --json="$tmp"

mv "$tmp" "$out"
trap - EXIT
echo "wrote $out"
