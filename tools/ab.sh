#!/usr/bin/env bash
# Interleaved A/B of one perfbench workload between two git revisions.
#
# Usage: tools/ab.sh <base-rev> <change-rev> <workload> [pairs] [seconds]
#
#   base-rev, change-rev  any git revisions, e.g. HEAD~1 HEAD
#   workload              pipeline | train-detect | kkp-storm | fleet
#   pairs                 interleaved run pairs          (default: 10)
#   seconds               perfbench --seconds per run    (default: 2)
#
# Both revisions are exported with `git archive` into a temporary
# directory. Each side builds its own perfbench through its own
# perfbench/run.py, with a CARGO_TARGET_DIR of its own; that first call
# also runs the workload once as an untimed warm-up. The pairs then run
# with seed 1, alternating which side goes first. The script fails if any
# run is not `"correct": true` with `"failed": 0`, or if the two sides
# print different `simulated digest` lines. It prints, for every
# end-to-end metric in the change side's BENCHMARK.json, each side's
# median and quartiles and the number of pairs the change won.
set -euo pipefail

usage="usage: tools/ab.sh <base-rev> <change-rev> <workload> [pairs] [seconds]"
base_rev=${1:?$usage}
change_rev=${2:?$usage}
workload=${3:?$usage}
pairs=${4:-10}
seconds=${5:-2}

case "$workload" in
  pipeline | train-detect | kkp-storm | fleet) ;;
  *) echo "ab.sh: unknown workload '$workload'" >&2; exit 2 ;;
esac
if ! [[ $pairs =~ ^[1-9][0-9]*$ && $seconds =~ ^[1-9][0-9]*$ ]]; then
  echo "ab.sh: pairs and seconds must be positive integers" >&2
  exit 2
fi

repo=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$repo" rev-parse --verify "${base_rev}^{commit}")
change_sha=$(git -C "$repo" rev-parse --verify "${change_rev}^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for side in base change; do
  sha=$base_sha
  [ "$side" = change ] && sha=$change_sha
  mkdir -p "$tmp/$side"
  git -C "$repo" archive "$sha" | tar -x -C "$tmp/$side"
done

# run_side <side> <out-file>: one perfbench run of that side's checkout.
# Stdout goes to the file; the last line must be a correct, unfailed run.
run_side() {
  (cd "$tmp/$1" &&
    CARGO_TARGET_DIR="$tmp/$1-target" python3 perfbench/run.py \
      --workload "$workload" --seed 1 --seconds "$seconds" --trace 0) >"$2"
  tail -n 1 "$2" | python3 -c '
import json, sys
r = json.load(sys.stdin)
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' || {
    echo "ab.sh: $1 run is not correct with 0 failed: $(tail -n 1 "$2")" >&2
    exit 1
  }
}

echo "building and warming up base ${base_sha:0:12} and change ${change_sha:0:12}" >&2
run_side base "$tmp/base.warm"
run_side change "$tmp/change.warm"
base_digest=$(grep '^simulated digest' "$tmp/base.warm")
change_digest=$(grep '^simulated digest' "$tmp/change.warm")
if [ "$base_digest" != "$change_digest" ]; then
  echo "ab.sh: simulated digests differ" >&2
  echo "  base:   $base_digest" >&2
  echo "  change: $change_digest" >&2
  exit 1
fi

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2 == 1)); then order=(base change); else order=(change base); fi
  for side in "${order[@]}"; do
    run_side "$side" "$tmp/$side.$i"
    digest=$(grep '^simulated digest' "$tmp/$side.$i")
    if [ "$digest" != "$base_digest" ]; then
      echo "ab.sh: $side pair $i digest changed: $digest" >&2
      exit 1
    fi
  done
  echo "pair $i/$pairs done" >&2
done

echo "$workload: $pairs pairs at --seconds $seconds, base ${base_sha:0:12}," \
  "change ${change_sha:0:12}"
echo "$base_digest"
python3 - "$tmp" "$pairs" <<'EOF'
import json
import os
import statistics
import sys

tmp, pairs = sys.argv[1], int(sys.argv[2])
with open(os.path.join(tmp, "change", "BENCHMARK.json")) as f:
    better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}


def metrics(side, i):
    with open(os.path.join(tmp, "%s.%d" % (side, i))) as f:
        last = f.read().splitlines()[-1]
    return {k: v["value"] for k, v in json.loads(last)["metrics"].items()}


runs = {s: [metrics(s, i) for i in range(1, pairs + 1)]
        for s in ("base", "change")}


def summary(xs):
    if len(xs) < 2:
        return "%.4g [%.4g, %.4g]" % (xs[0], xs[0], xs[0])
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return "%.4g [%.4g, %.4g]" % (med, q1, q3)


print("%-20s %-30s %-30s %s" % ("metric", "base median [q1, q3]",
                                "change median [q1, q3]", "change wins"))
for name, way in better.items():
    if name not in runs["base"][0] or name not in runs["change"][0]:
        continue
    b = [r[name] for r in runs["base"]]
    c = [r[name] for r in runs["change"]]
    wins = sum((y < x) if way == "lower" else (y > x) for x, y in zip(b, c))
    print("%-20s %-30s %-30s %d/%d" % (name, summary(b), summary(c), wins,
                                       pairs))
EOF
