#!/usr/bin/env bash
# End-to-end wall-clock benchmark: builds pipad_e2e from the repository's
# sources into build-e2e/ and runs one workload, or all of them.
#
#   bash bench/e2e/run.sh --workload rnn-dense --seed 1 --seconds 10 --trace 0
#   bash bench/e2e/run.sh --workload=all --seed=2 --trace=spans.ndjson
#
# Flags take "--flag value" or "--flag=value":
#   --workload  rnn-dense | graph-heavy | ingest-file | serve-mix | all  [all]
#   --seed      input seed                                              [1]
#   --seconds   measuring time per workload                             [10]
#   --trace     0: untraced, end-to-end metrics                         [0]
#               1: traced, per-layer metrics; spans go to
#                  build-e2e/trace-<workload>.ndjson
#               FILE: traced, spans go to FILE (truncated first)
#
# Each workload runs in its own process and prints `workload metric value
# unit` lines, then a JSON summary as its last line. A workload that fails a
# correctness check, or runs past --seconds plus 161 s and is killed, is
# named on stderr and the others still run. Exits nonzero when the build or
# any workload failed.
set -euo pipefail

workload=all
seed=1
seconds=10
trace=0
while [ $# -gt 0 ]; do
  case "$1" in
    --*=*) flag=${1%%=*}; value=${1#*=}; shift ;;
    --*)
      [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
      flag=$1; value=$2; shift 2 ;;
    *) echo "run.sh: unexpected argument '$1'" >&2; exit 2 ;;
  esac
  case "$flag" in
    --workload) workload=$value ;;
    --seed) seed=$value ;;
    --seconds) seconds=$value ;;
    --trace) trace=$value ;;
    *) echo "run.sh: unknown flag $flag" >&2; exit 2 ;;
  esac
done
[[ $seconds =~ ^[0-9]+(\.[0-9]+)?$ ]] ||
  { echo "run.sh: --seconds must be a number, got '$seconds'" >&2; exit 2; }
case "$trace" in
  0|1|/*) ;;
  *) trace=$PWD/$trace ;;
esac
# A workload measures for --seconds, then sets up, checks and (traced)
# sweeps the layers; 160 s more covers that on a busy 4-core machine.
limit=$(( ${seconds%.*} + 1 + 160 ))

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
cd "$root"
build=build-e2e
mkdir -p "$build/tmp"
# Keep compiler temporaries inside the checkout too.
export TMPDIR=$root/$build/tmp
jobs=$(nproc 2>/dev/null || echo 4)
[ "$jobs" -le 4 ] || jobs=4
if ! {
  flock 9
  # cmake --build re-runs the configure step itself when a CMakeLists.txt
  # changed, so only a build directory without a finished configure needs
  # an explicit one.
  { [ -f "$build/Makefile" ] ||
      cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release; } &&
    cmake --build "$build" -j "$jobs" --target pipad_e2e
} >"$build/build.log" 2>&1 9>"$build/.lock"; then
  tail -n 30 "$build/build.log" >&2
  echo "run.sh: build failed; full log in $build/build.log" >&2
  exit 1
fi

if [ "$workload" = all ]; then
  workloads="rnn-dense graph-heavy ingest-file serve-mix"
else
  workloads=$workload
fi
case "$trace" in
  0|1) ;;
  *) : >"$trace" ;;
esac
failed=
for w in $workloads; do
  args=(--workload "$w" --seed "$seed" --seconds "$seconds"
        --work-dir "$build/work/$w")
  case "$trace" in
    0) ;;
    1) : >"$build/trace-$w.ndjson"; args+=(--trace "$build/trace-$w.ndjson") ;;
    *) args+=(--trace "$trace") ;;
  esac
  status=0
  timeout -k 5 "$limit" "$build/pipad_e2e" "${args[@]}" || status=$?
  case $status in
    0) ;;
    124|137) echo "run.sh: $w: killed after $limit s" >&2; failed+=" $w" ;;
    *) echo "run.sh: $w: failed with exit code $status" >&2; failed+=" $w" ;;
  esac
done
if [ -n "$failed" ]; then
  echo "run.sh: failed workloads:$failed" >&2
  exit 1
fi
