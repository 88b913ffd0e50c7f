#!/usr/bin/env sh
# Regenerates BENCH_emu.json — the emulator-dispatch perf trajectory.
#
# Runs the exp_emu_dispatch driver (release build), which measures guest
# instructions/sec on the straight-line / branchy / rop-chain workloads in
# both dispatch modes (predecoded icache vs reference re-decode) and rewrites
# BENCH_emu.json in the repository root, stamped with the git revision and
# host it ran on. Two frozen baselines are embedded in the driver and carried
# over unchanged: the seed interpreter (the trajectory's origin) and the
# previous dispatch design measured on the same host as the current numbers.
#
# Run from the repository root:
#   sh scripts/regen_bench_emu.sh
#
# Future PRs that move emulator performance should re-run this and commit the
# refreshed JSON (and, when suite wall times shift materially, update the
# README "Performance" table alongside it).
set -eu

cd "$(dirname "$0")/.."
cargo run --release -p raindrop-bench --bin exp_emu_dispatch
echo "BENCH_emu.json refreshed."
