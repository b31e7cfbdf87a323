#!/usr/bin/env bash
# The one command of the end-to-end benchmark (bench/e2e/README.md).
#
# Builds the program and the runner from source (Release, into
# .bench_build/ at the repository root), then either:
#
#   run_all.sh --workload NAME [--seed S] [--seconds T] [--trace 0|1]
#              [--record FILE]
#       one run of one workload: prints every metric by name and unit
#       and, as the last stdout line, the result JSON object; --record
#       also appends the run to a result file (JSON Lines);
#
#   run_all.sh [--seeds N] [--seed S] [--seconds T] [--out FILE]
#       every workload once per seed (S, S+1, ..., S+N-1), then one traced
#       run of each; prints every metric and writes the result file
#       (default .bench_build/result.jsonl).
#
# A result file holds one {"env": ...} line, then one line per run.
# Exits nonzero on a build failure, a failed run or an oracle mismatch.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build=.bench_build

workload=""
seed=20230707
seconds=18
trace=0
seeds=1
record=""
out="$build/result.jsonl"
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --seeds) seeds="$2"; shift 2 ;;
    --record) record="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run_all.sh: unknown argument '$1'" >&2; exit 1 ;;
  esac
done
case "$trace" in
  0) mode=run ;;
  1) mode=trace ;;
  *) echo "run_all.sh: --trace takes 0 or 1" >&2; exit 1 ;;
esac

# Build output goes to stderr: stdout carries only the results.
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" --target mesa_bench mesa_cli mesa_serve >&2

runner=(
  "$build/mesa_bench"
  --cli "$build/mesa/mesa_cli" --serve "$build/mesa/mesa_serve"
  --dir "$build/run" --seconds "$seconds"
)

env_line() {
  local sha
  sha="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
  if [ "$sha" != unknown ] && ! git diff --quiet HEAD -- 2>/dev/null; then
    sha="$sha-dirty"
  fi
  printf '{"env":%s}\n' "$("${runner[0]}" env --git-sha "$sha")"
}

if [ -n "$workload" ]; then
  extra=()
  if [ -n "$record" ]; then
    [ -s "$record" ] || env_line > "$record"
    extra=(--record "$record")
  fi
  exec "${runner[0]}" "$mode" --workload "$workload" --seed "$seed" \
    "${runner[@]:1}" ${extra[@]+"${extra[@]}"}
fi

mkdir -p "$build/spans" "$(dirname "$out")"
env_line > "$out"
for w in cold_flights warm_flights closed_covid open_mixed; do
  for ((i = 0; i < seeds; i++)); do
    "${runner[0]}" run --workload "$w" --seed $((seed + i)) \
      "${runner[@]:1}" --record "$out"
  done
  "${runner[0]}" trace --workload "$w" --seed "$seed" "${runner[@]:1}" \
    --record "$out" --spans "$build/spans/$w.json"
done
echo "wrote $out" >&2
