#!/usr/bin/env bash
# Tree-wide lint entry point: runs ssmst_lint (token frontend everywhere;
# libclang AST frontend when python3-clang and compile_commands.json are
# available), folds the findings into lint_report.json via the lint_report
# binary when one is built, and optionally runs clang-tidy over the library
# sources. CI calls this from the lint job; locally `tools/lint/run_lint.sh`
# from the repo root does the same thing.
#
# Usage: run_lint.sh [build-dir]   (default: build)
set -euo pipefail

root="$(cd "$(dirname "$0")/../.." && pwd)"
build="${1:-build}"

args=(--root "$root")
if [[ -f "$build/compile_commands.json" ]]; then
  args+=(--compile-commands "$build/compile_commands.json")
fi

status=0
python3 "$root/tools/lint/ssmst_lint.py" "${args[@]}" || status=$?

# The report rides the BENCH artifact pipeline; best-effort when the
# binary or the records pass fails (the lint exit code above is the gate).
if [[ -x "$build/lint_report" ]]; then
  python3 "$root/tools/lint/ssmst_lint.py" "${args[@]}" --records |
    "$build/lint_report" --out="$build/lint_report.json" || true
fi

if command -v clang-tidy >/dev/null 2>&1 &&
  [[ -f "$build/compile_commands.json" ]]; then
  # Library and bench-support translation units: benches and tests inherit
  # the same headers.
  find "$root/src" "$root/bench/support" -name '*.cpp' -print0 |
    xargs -0 clang-tidy -p "$build" --quiet || status=$?
else
  echo "run_lint: clang-tidy or compile_commands.json missing; skipped" >&2
fi

exit "$status"
