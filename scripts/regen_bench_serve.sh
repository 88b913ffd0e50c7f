#!/usr/bin/env sh
# Regenerates BENCH_serve.json — protection-as-a-service throughput.
#
# Runs the exp_serve driver (release build), which measures raindrop-server
# end to end: a mixed batch of protection requests served cold (empty
# artifact store, every request runs the pipeline) and warm (populated
# store, every request is a cache hit) at each worker count, and rewrites
# BENCH_serve.json in the repository root with protections/sec per cell and
# the warm/cold cache speedup, stamped with the git revision and host, next to
# the frozen same-host baseline compiled into the driver.
#
# Run from the repository root:
#   sh scripts/regen_bench_serve.sh
#
# Future PRs that move server or store performance should re-run this and
# commit the refreshed JSON.
set -eu

cd "$(dirname "$0")/.."
cargo run --release -p raindrop-bench --bin exp_serve
echo "BENCH_serve.json refreshed."
