#!/usr/bin/env bash
# gprof flat profile of one perfbench workload, or of a set of bench_micro
# benchmarks, built from the working tree.
#
# Usage: tools/profile.sh <workload> [seconds]
#
#   workload  pipeline | train-detect | kkp-storm | fleet,
#             or micro:<regex> for bench_micro (below)
#   seconds   perfbench --seconds                    (default: 5);
#             bench_micro --benchmark_min_time in micro mode
#
# Configures perfbench/ from the working tree in a temporary directory with
# -pg at compile and link time, runs the workload once with seed 1 from an
# empty working directory (gmon.out lands there), fails unless the run
# reports `"correct": true` with `"failed": 0`, and prints the run's
# simulated digest and the top of `gprof -b -p`. gprof samples only the
# main thread, so a workload that steps on a thread pool shows the calling
# lane only. Nothing in the checkout changes.
#
# micro:<regex> configures the root CMake project the same way and builds
# only bench_micro. It runs the benchmarks whose names match <regex>
# (--benchmark_filter) once, from an empty working directory, with
# --benchmark_min_time set to `seconds` (benchmarks with a fixed iteration
# count ignore it), fails if no benchmark matched or one errored, and
# prints the matched rows and the top of `gprof -b -p`.
set -euo pipefail

usage="usage: tools/profile.sh <workload> [seconds]"
workload=${1:?$usage}
seconds=${2:-5}

micro_filter=
case "$workload" in
  pipeline | train-detect | kkp-storm | fleet) ;;
  micro:?*) micro_filter=${workload#micro:} ;;
  *) echo "profile.sh: unknown workload '$workload'" >&2; exit 2 ;;
esac
if ! [[ $seconds =~ ^[1-9][0-9]*$ ]]; then
  echo "profile.sh: seconds must be a positive integer" >&2
  exit 2
fi
if ! command -v gprof >/dev/null; then
  echo "profile.sh: gprof not found" >&2
  exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/run"

if [ -n "$micro_filter" ]; then
  echo "building bench_micro with -pg in $tmp" >&2
  cmake -S "$root" -B "$tmp/build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
  cmake --build "$tmp/build" --target bench_micro -j "$(nproc)" >&2
  binary=$tmp/build/bench_micro
  (cd "$tmp/run" &&
    "$binary" --benchmark_filter="$micro_filter" \
      --benchmark_min_time="$seconds" --benchmark_out="$tmp/rows.json" \
      --benchmark_out_format=json) >"$tmp/out.txt"
  python3 - "$tmp/rows.json" <<'EOF'
import json
import os
import sys

# bench_micro leaves the output file empty when the filter matches nothing.
text = ""
if os.path.exists(sys.argv[1]):
    with open(sys.argv[1]) as f:
        text = f.read()
rows = json.loads(text)["benchmarks"] if text.strip() else []
for b in rows:
    if b.get("error_occurred"):
        sys.exit("profile.sh: %s errored: %s"
                 % (b["name"], b.get("error_message")))
if not rows:
    sys.exit("profile.sh: no benchmark matched the filter")
EOF
  echo "$workload: gprof flat profile, --benchmark_min_time $seconds"
  grep '^BM_' "$tmp/out.txt"
else
  echo "building perfbench with -pg in $tmp" >&2
  cmake -S "$root/perfbench" -B "$tmp/build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
  cmake --build "$tmp/build" -j "$(nproc)" >&2
  binary=$tmp/build/perfbench
  (cd "$tmp/run" &&
    "$binary" --workload "$workload" --seed 1 \
      --seconds "$seconds" --trace 0) >"$tmp/out.txt"
  tail -n 1 "$tmp/out.txt" | python3 -c '
import json, sys
r = json.load(sys.stdin)
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' || {
    echo "profile.sh: run is not correct with 0 failed:" \
      "$(tail -n 1 "$tmp/out.txt")" >&2
    exit 1
  }
  echo "$workload: gprof flat profile, seed 1, --seconds $seconds"
  grep '^simulated digest' "$tmp/out.txt"
fi

gprof -b -p "$binary" "$tmp/run/gmon.out" >"$tmp/flat.txt"
head -n 30 "$tmp/flat.txt"
