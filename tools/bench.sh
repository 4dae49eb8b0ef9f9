#!/usr/bin/env bash
# Runs the tracked benchmark set and writes machine-readable BENCH_*.json
# next to the sources, so the perf trajectory is versioned with the code:
#
#   tools/bench.sh [build-dir]            # default build dir: ./build
#   tools/bench.sh --scaling [build-dir]  # multi-core scaling sweep only
#
# Produces:
#   BENCH_micro.json  — google-benchmark CPU microbenchmarks
#   BENCH_e3.json     — Solution A: cold I/O + warm throughput
#   BENCH_e4.json     — Solution B: cold I/O + warm throughput
#   BENCH_e14.json    — file backend: batched vs sync cold reads + serving
#                       latency percentiles (p50/p95/p99, queue depth)
#
# --scaling skips the cold sections and sweeps the parallel batch
# throughput — and the serving-layer client count — with thread counts
# extended past the hardware concurrency, writing BENCH_e3_scaling.json /
# BENCH_e4_scaling.json / BENCH_e14_scaling.json (untracked: the curve is
# machine-shaped, unlike the model-level I/O counts).
#
# SEGDB_BENCH_SCALE is honored (e.g. SEGDB_BENCH_SCALE=0.1 for smoke runs).
set -euo pipefail

cd "$(dirname "$0")/.."
SCALING=0
if [[ "${1:-}" == "--scaling" ]]; then
  SCALING=1
  shift
fi
BUILD="${1:-build}"

for bin in bench_micro bench_e3_solution_a bench_e4_solution_b \
           bench_e14_io_backend; do
  if [[ ! -x "$BUILD/bench/$bin" ]]; then
    echo "error: $BUILD/bench/$bin not built (cmake --build $BUILD -j)" >&2
    exit 1
  fi
done

if [[ "$SCALING" == 1 ]]; then
  "$BUILD/bench/bench_e3_solution_a" --scaling --json BENCH_e3_scaling.json
  "$BUILD/bench/bench_e4_solution_b" --scaling --json BENCH_e4_scaling.json
  "$BUILD/bench/bench_e14_io_backend" --scaling --json BENCH_e14_scaling.json
  echo "wrote BENCH_e3_scaling.json BENCH_e4_scaling.json" \
       "BENCH_e14_scaling.json"
  exit 0
fi

"$BUILD/bench/bench_micro" \
  --benchmark_out=BENCH_micro.json --benchmark_out_format=json
"$BUILD/bench/bench_e3_solution_a" --json BENCH_e3.json
"$BUILD/bench/bench_e4_solution_b" --json BENCH_e4.json
"$BUILD/bench/bench_e14_io_backend" --json BENCH_e14.json

echo "wrote BENCH_micro.json BENCH_e3.json BENCH_e4.json BENCH_e14.json"
