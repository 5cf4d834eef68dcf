#!/usr/bin/env bash
# Interleaved A/B of one perfbench workload, or of a set of bench_micro
# benchmarks, between two git revisions.
#
# Usage: tools/ab.sh <base-rev> <change-rev> <workload> [pairs] [seconds]
#                    [seed] [change-digest]
#
#   base-rev, change-rev  any git revisions, e.g. HEAD~1 HEAD
#   workload              pipeline | train-detect | kkp-storm | fleet,
#                         or micro:<regex> for bench_micro (below)
#   pairs                 interleaved run pairs          (default: 10)
#   seconds               perfbench --seconds per run    (default: 2);
#                         bench_micro --benchmark_min_time in micro mode
#   seed                  perfbench --seed for every run (default: 1);
#                         unused in micro mode
#   change-digest         hex value the change side's `simulated digest`
#                         line must end in, for a change that declares a
#                         new digest (default: none, the sides must agree);
#                         unused in micro mode
#
# Both revisions are exported with `git archive` into a temporary
# directory. Each side builds its own perfbench through its own
# perfbench/run.py, with a CARGO_TARGET_DIR of its own; that first call
# also runs the workload once as an untimed warm-up. The pairs then run
# with the given seed, alternating which side goes first, so a claim made
# at seed 1 can be rechecked on a fresh seed. The script fails if any run
# is not `"correct": true` with `"failed": 0`, or if the two sides print
# different `simulated digest` lines. With a change-digest the sides may
# differ, but each side must print its own warm-up digest on every run,
# and the change side's must end in the declared value. It prints, for
# every end-to-end metric in the change side's BENCHMARK.json, each side's
# median and quartiles and the number of pairs the change won.
#
# micro:<regex> configures each export's root CMake project in Release and
# builds only bench_micro. Each run executes the benchmarks whose names
# match <regex> (--benchmark_filter) once, with --benchmark_min_time set
# to `seconds` (benchmarks with a fixed iteration count ignore it); pairs
# alternate which side goes first, as above. The script fails if a
# benchmark errors, if no benchmark matches on both sides, or if a
# workload counter differs between the two sides of a pair that ran the
# same number of iterations. A workload counter is any user counter whose
# name does not end in "/s" or "_per_second", such as activations/unit.
# It prints each benchmark's real time per iteration: each side's median
# and quartiles, and the number of pairs the change won.
set -euo pipefail

usage="usage: tools/ab.sh <base-rev> <change-rev> <workload> [pairs]"
usage+=" [seconds] [seed] [change-digest]"
base_rev=${1:?$usage}
change_rev=${2:?$usage}
workload=${3:?$usage}
pairs=${4:-10}
seconds=${5:-2}
seed=${6:-1}
want_digest=${7:-}

micro_filter=
case "$workload" in
  pipeline | train-detect | kkp-storm | fleet) ;;
  micro:?*) micro_filter=${workload#micro:} ;;
  *) echo "ab.sh: unknown workload '$workload'" >&2; exit 2 ;;
esac
if ! [[ $pairs =~ ^[1-9][0-9]*$ && $seconds =~ ^[1-9][0-9]*$ ]]; then
  echo "ab.sh: pairs and seconds must be positive integers" >&2
  exit 2
fi
if ! [[ $seed =~ ^[0-9]+$ ]]; then
  echo "ab.sh: seed must be digits only" >&2
  exit 2
fi
if [ -n "$want_digest" ] && ! [[ $want_digest =~ ^[0-9a-f]+$ ]]; then
  echo "ab.sh: change-digest must be lowercase hex digits" >&2
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

if [ -n "$micro_filter" ]; then
  for side in base change; do
    echo "building bench_micro for $side" >&2
    if ! { cmake -S "$tmp/$side" -B "$tmp/$side-build" \
      -DCMAKE_BUILD_TYPE=Release &&
      cmake --build "$tmp/$side-build" --target bench_micro \
        -j "$(nproc)"; } >"$tmp/$side-build.log" 2>&1; then
      tail -n 20 "$tmp/$side-build.log" >&2
      echo "ab.sh: $side bench_micro build failed" >&2
      exit 1
    fi
  done
  for ((i = 1; i <= pairs; i++)); do
    if ((i % 2 == 1)); then order=(base change); else order=(change base); fi
    for side in "${order[@]}"; do
      if ! "$tmp/$side-build/bench_micro" --benchmark_filter="$micro_filter" \
        --benchmark_min_time="$seconds" --benchmark_out="$tmp/$side.$i" \
        --benchmark_out_format=json >/dev/null 2>"$tmp/$side.$i.err"; then
        cat "$tmp/$side.$i.err" >&2
        echo "ab.sh: $side bench_micro run $i failed" >&2
        exit 1
      fi
    done
    echo "pair $i/$pairs done" >&2
  done
  echo "$workload: $pairs pairs at --benchmark_min_time $seconds," \
    "base ${base_sha:0:12}, change ${change_sha:0:12}"
  python3 - "$tmp" "$pairs" <<'EOF'
import json
import os
import statistics
import sys

tmp, pairs = sys.argv[1], int(sys.argv[2])
STANDARD = {"name", "family_index", "per_family_instance_index", "run_name",
            "run_type", "repetitions", "repetition_index", "threads",
            "iterations", "real_time", "cpu_time", "time_unit",
            "aggregate_name", "aggregate_unit", "label", "error_occurred",
            "error_message"}


def load(side, i):
    with open(os.path.join(tmp, "%s.%d" % (side, i))) as f:
        rows = json.load(f)["benchmarks"]
    out = {}
    for b in rows:
        if b.get("error_occurred"):
            sys.exit("ab.sh: %s %s errored: %s"
                     % (side, b["name"], b.get("error_message")))
        if b.get("run_type", "iteration") == "iteration":
            out[b["name"]] = b
    return out


def workload_counters(b):
    return {k: v for k, v in b.items()
            if k not in STANDARD and isinstance(v, (int, float))
            and not k.endswith("/s") and not k.endswith("_per_second")}


runs = {s: [load(s, i) for i in range(1, pairs + 1)]
        for s in ("base", "change")}
names = [n for n in runs["base"][0] if n in runs["change"][0]]
if not names:
    sys.exit("ab.sh: no benchmark matched on both sides")
for side, other in (("base", "change"), ("change", "base")):
    for n in runs[side][0]:
        if n not in runs[other][0]:
            print("ab.sh: %s runs only on the %s side; skipped" % (n, side),
                  file=sys.stderr)

bad = []
for i in range(pairs):
    for n in names:
        b, c = runs["base"][i][n], runs["change"][i][n]
        if b["iterations"] != c["iterations"]:
            continue
        wb, wc = workload_counters(b), workload_counters(c)
        for k in sorted(set(wb) | set(wc)):
            x, y = wb.get(k), wc.get(k)
            if x is None or y is None or \
                    abs(x - y) > 1e-9 * max(abs(x), abs(y), 1):
                bad.append("pair %d %s %s: base %s, change %s"
                           % (i + 1, n, k, x, y))
if bad:
    print("ab.sh: workload counters differ", file=sys.stderr)
    for line in bad:
        print("  " + line, file=sys.stderr)
    sys.exit(1)


def summary(xs):
    if len(xs) < 2:
        return "%.4g [%.4g, %.4g]" % (xs[0], xs[0], xs[0])
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return "%.4g [%.4g, %.4g]" % (med, q1, q3)


width = max(len(n) for n in names)
print("%-*s %-4s %-30s %-30s %s" % (width, "benchmark (real time)", "unit",
                                    "base median [q1, q3]",
                                    "change median [q1, q3]", "change wins"))
for n in names:
    b = [r[n]["real_time"] for r in runs["base"]]
    c = [r[n]["real_time"] for r in runs["change"]]
    wins = sum(y < x for x, y in zip(b, c))
    print("%-*s %-4s %-30s %-30s %d/%d"
          % (width, n, runs["base"][0][n]["time_unit"], summary(b),
             summary(c), wins, pairs))
    counters = workload_counters(runs["base"][0][n])
    if counters:
        print("  workload: " + ", ".join("%s %.6g" % kv
                                         for kv in sorted(counters.items())))
EOF
  exit 0
fi

# run_side <side> <out-file>: one perfbench run of that side's checkout.
# Stdout goes to the file; the last line must be a correct, unfailed run.
run_side() {
  (cd "$tmp/$1" &&
    CARGO_TARGET_DIR="$tmp/$1-target" python3 perfbench/run.py \
      --workload "$workload" --seed "$seed" --seconds "$seconds" \
      --trace 0) >"$2"
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
if [ -n "$want_digest" ]; then
  if [ "${change_digest##*: }" != "$want_digest" ]; then
    echo "ab.sh: change digest is not the declared $want_digest" >&2
    echo "  change: $change_digest" >&2
    exit 1
  fi
elif [ "$base_digest" != "$change_digest" ]; then
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
    want=$base_digest
    [ "$side" = change ] && want=$change_digest
    if [ "$digest" != "$want" ]; then
      echo "ab.sh: $side pair $i digest changed: $digest" >&2
      exit 1
    fi
  done
  echo "pair $i/$pairs done" >&2
done

echo "$workload: $pairs pairs at --seconds $seconds --seed $seed," \
  "base ${base_sha:0:12}, change ${change_sha:0:12}"
if [ "$base_digest" = "$change_digest" ]; then
  echo "$base_digest"
else
  echo "base:   $base_digest"
  echo "change: $change_digest"
fi
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
