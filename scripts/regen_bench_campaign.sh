#!/usr/bin/env sh
# Regenerates BENCH_campaign.json — campaign checkpoint/resume overhead.
#
# Runs the exp_campaign driver (release build), which measures the
# checkpointed attack-campaign driver over a mixed DSE-job corpus: the
# durability cost of an uninterrupted campaign against the direct
# no-orchestration baseline (checkpoint count, bytes, write wall), and a
# scripted kill-and-resume cycle reporting the fraction of emulator work
# re-executed after a mid-campaign crash. It also records the straggler
# counters of the uninterrupted run (demotions, and completed slices a
# requeue threw away, asserted zero). All three phases are asserted to
# converge to identical per-job verdicts before the JSON is rewritten in
# the repository root, stamped with the git revision and host it ran on
# and carrying a frozen same-host baseline of the previous straggler
# defense.
#
# Run from the repository root:
#   sh scripts/regen_bench_campaign.sh
#
# Future PRs that move campaign, checkpoint or DSE performance should
# re-run this and commit the refreshed JSON.
set -eu

cd "$(dirname "$0")/.."
cargo run --release -p raindrop-bench --bin exp_campaign
echo "BENCH_campaign.json refreshed."
