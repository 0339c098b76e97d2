#!/usr/bin/env bash
# The end-to-end benchmark's one command: builds dart_e2e (the standalone
# CMake project in this directory, over the repository root) and runs one
# workload, or every workload when --workload is omitted. Each run prints
# every metric by name and unit; its last line is the result object. The
# exit code is nonzero when the build or any correctness check fails.
#
#   bash bench/e2e/run.sh [--workload sim-dart|sim-rule|serve-open] [--seed N]
#                         [--seconds S] [--trace [0|1]] [--smoke]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"

workloads=()
seed=1
seconds=20
trace=0
smoke=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --smoke) smoke=(--smoke); shift ;;
    *) echo "run.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done
[[ ${#workloads[@]} -gt 0 ]] || workloads=(sim-dart sim-rule serve-open)

mkdir -p "$build" "$here/out"
log="$build/build.log"
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" --target dart_e2e -j "$(nproc)"; } >"$log" 2>&1; then
  cat "$log" >&2
  echo "run.sh: build failed" >&2
  exit 1
fi

status=0
for w in "${workloads[@]}"; do
  "$build/dart_e2e" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
    ${smoke[@]+"${smoke[@]}"} --out-dir "$here/out" --golden "$here/golden_seed1.json" || status=1
done
exit "$status"
