#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds the `perfbench` package (release, offline) into
`$CARGO_TARGET_DIR`, or `perfbench/target` when that is unset, runs the
benchmark binary, and relays its output. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; it is
printed only after its metric names and units have been checked against
`BENCHMARK.json` (the `end_to_end` list with `--trace 0`, `per_layer` with
`--trace 1`). The exit code is non-zero when the build fails, a check inside
the benchmark fails, or the result does not match `BENCHMARK.json`.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def git_rev(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON ({e}): {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(bench_dir, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
             os.path.join(bench_dir, "Cargo.toml")]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    state_dir = os.path.join(target_dir, "perfbench-state")
    os.makedirs(state_dir, exist_ok=True)
    binary = os.path.join(target_dir, "release", "raindrop-perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--state-dir", state_dir, "--rev", git_rev(root)]
    try:
        ran = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    lines = ran.stdout.rstrip("\n").split("\n")
    check_result(lines[-1], spec, args.trace == "1")
    print("\n".join(lines), flush=True)
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
