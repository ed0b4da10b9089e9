#!/usr/bin/env python3
"""Builds the magicdb benchmark from source and runs one workload.

    python3 perfbench/run.py --workload wire_hot --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later runs rebuild
only what changed. The benchmark binary prints a report with every number
it measured; this script prints that report, then, as the last line, the
result: `correct`, `attempted`, `failed`, and the metrics BENCHMARK.json
lists — `end_to_end` with --trace 0, `per_layer` with --trace 1. With
--trace 1 the spans are written to .bench_build/traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "magicbench"
WORKLOADS = ("wire_hot", "eval_large", "write_mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, capture_output=True,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {step[:2]} failed: {err}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}.jsonl")]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        fail(f"magicbench exited with code {done.returncode}")
    report = json.loads(done.stdout.strip().splitlines()[-1])

    metrics = {}
    for entry in wanted:
        got = report["metrics"].get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            fail(f"{args.workload} did not measure {entry['name']} "
                 f"in {entry['unit']}")
        metrics[entry["name"]] = got
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }
    print(json.dumps({"report": report}, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main()
