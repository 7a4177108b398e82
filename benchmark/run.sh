#!/usr/bin/env bash
# Builds the benchmark (Release, into benchmark/.build) and runs it, one
# process per workload.
#
#   bash benchmark/run.sh --workload social-global --seed 7 --seconds 25 --trace 0
#   bash benchmark/run.sh --seed 7            # all four workloads
#   bash benchmark/run.sh --seed 7 --trace    # traced: per-layer metrics
#   bash benchmark/run.sh --smoke             # tiny sizes, both modes, checked
#
# Prints every metric as "workload metric value unit"; the last line is the
# JSON summary of the last workload run. Result files (with provenance) and
# traces go to benchmark/out/. Exits non-zero when the build fails, an
# answer is wrong, or the smoke check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$here/.build"
out="$here/out"

workloads=()
seed=1
seconds=25
trace=0
smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ $# -gt 1 && "$2" =~ ^[01]$ ]]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --smoke) smoke=1; shift ;;
    -h|--help) sed -n '2,13p' "$0"; exit 0 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
if [[ ${#workloads[@]} -eq 0 ]]; then
  workloads=(social-global web-local serve-hardened stream-churn)
fi

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no katric source tree beside benchmark/ (need ../CMakeLists.txt and ../src)" >&2
  exit 2
fi

mkdir -p "$build" "$out"
log="$build/build.log"
if ! {
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" -j "$(nproc)"
} > "$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: build failed (log: $log)" >&2
  exit 3
fi

# One generator thread: no OpenMP team inside a query.
export OMP_NUM_THREADS=1

if [[ $smoke -eq 1 ]]; then
  exec python3 "$here/smoke.py" --binary "$build/katric_benchmark" \
    --benchmark "$root/BENCHMARK.json" --out "$out/smoke"
fi

# The checkout may not be a git repository; never look above its root.
sha="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null \
  || echo unknown)"

status=0
for workload in "${workloads[@]}"; do
  "$build/katric_benchmark" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --out "$out" --git-sha "$sha" || status=$?
done
exit "$status"
