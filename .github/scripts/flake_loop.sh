#!/usr/bin/env bash
# Reruns the concurrency-sensitive test suites RUNS times (default 20) at
# WHYNOT_THREADS 1, 2 and 4, on one build. The first failing run stops the
# loop with a non-zero exit; no run is retried.
#
# Usage: .github/scripts/flake_loop.sh [RUNS]
set -euo pipefail

runs="${1:-20}"
root_suites=(--test load_observability)
service_suites=(-p whynot-service --test service_integration --test parallel_batch --test http_server)

cargo test -q --no-run "${root_suites[@]}"
cargo test -q --no-run "${service_suites[@]}"

for threads in 1 2 4; do
    for run in $(seq 1 "$runs"); do
        echo "== WHYNOT_THREADS=$threads run $run/$runs"
        WHYNOT_THREADS="$threads" cargo test -q "${root_suites[@]}"
        WHYNOT_THREADS="$threads" cargo test -q "${service_suites[@]}"
    done
done
echo "flake loop: $runs runs x 3 thread counts passed"
