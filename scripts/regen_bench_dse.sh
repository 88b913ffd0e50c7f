#!/usr/bin/env sh
# Regenerates BENCH_dse.json — the DSE-explorer perf trajectory.
#
# Runs the exp_dse_speed driver (release build), which measures the fixed
# dse_speed_suite job list under the re-run reference oracle and the
# fork-point engine (1 worker and a fleet sized by RAINDROP_DSE_WORKERS /
# the machine's parallelism), runs the depth-stress workload (symbolic
# fork depth before the first expression-size hazard, against the frozen
# tree-counted baseline), and rewrites BENCH_dse.json in the repository
# root, stamped with the git rev and host. The frozen baselines (the seed
# explorer before fork-point snapshots and constraint caching; the
# tree-counted depth-stress run before the hash-consed arena; the
# same-host run before tape-compiled solver scans) are embedded in the
# driver and carried over unchanged, so the file always keeps the
# trajectory's origins.
#
# Run from the repository root:
#   sh scripts/regen_bench_dse.sh
#
# Future PRs that move DSE performance should re-run this and commit the
# refreshed JSON (and, when the suite results shift materially, update the
# README "Performance" section alongside it).
set -eu

cd "$(dirname "$0")/.."
cargo run --release -p raindrop-bench --bin exp_dse_speed
echo "BENCH_dse.json refreshed."
