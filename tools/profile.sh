#!/usr/bin/env bash
# gprof flat profile of one perfbench workload, built from the working tree.
#
# Usage: tools/profile.sh <workload> [seconds]
#
#   workload  pipeline | train-detect | kkp-storm | fleet
#   seconds   perfbench --seconds                    (default: 5)
#
# Configures perfbench/ from the working tree in a temporary directory with
# -pg at compile and link time, runs the workload once with seed 1 from an
# empty working directory (gmon.out lands there), fails unless the run
# reports `"correct": true` with `"failed": 0`, and prints the run's
# simulated digest and the top of `gprof -b -p`. gprof samples only the
# main thread, so a workload that steps on a thread pool shows the calling
# lane only. Nothing in the checkout changes.
set -euo pipefail

usage="usage: tools/profile.sh <workload> [seconds]"
workload=${1:?$usage}
seconds=${2:-5}

case "$workload" in
  pipeline | train-detect | kkp-storm | fleet) ;;
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

echo "building perfbench with -pg in $tmp" >&2
cmake -S "$root/perfbench" -B "$tmp/build" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
cmake --build "$tmp/build" -j "$(nproc)" >&2

mkdir "$tmp/run"
(cd "$tmp/run" &&
  "$tmp/build/perfbench" --workload "$workload" --seed 1 \
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
gprof -b -p "$tmp/build/perfbench" "$tmp/run/gmon.out" >"$tmp/flat.txt"
head -n 30 "$tmp/flat.txt"
