#!/usr/bin/env python3
"""Runs workloads repeatedly in fresh processes and summarizes each metric.

    python3 perfbench/repeat.py --runs 10 [--sets 2] [--workload wire_hot ...]
                                [--seconds S] [--trace 0|1]

Each run is one `perfbench/run.py` process with its own seed (set s, run i
uses seed 1 + s*runs + i). For every workload and metric the script
prints the per-run values, the median, the quartiles and the spread (the
interquartile distance as a share of the median, as
`statistics.quantiles(values, n=4)` gives the quartiles). For the
end-to-end metrics it also prints the bound from BENCHMARK.json and marks a
spread above a third of the bound. With --sets 2 it compares the second
set's median with the first's and marks a shift in the worse direction
larger than the bound. With --trace 1 the runs are traced; give
--compare-untraced to also run untraced and print the tracing overhead (the
traced median against the untraced one). Every report is saved as JSON
lines under .bench_build/repeat/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    lines = done.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  !! {workload} seed {seed} incorrect: {report['errors']}")
    return report


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def worse_by(first, second, better):
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--compare-untraced", action="store_true")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    out_dir = ROOT / ".bench_build" / "repeat"
    out_dir.mkdir(parents=True, exist_ok=True)
    log = out_dir / time.strftime("%Y%m%d-%H%M%S.jsonl")

    modes = [args.trace] + ([0] if args.trace and args.compare_untraced else [])
    # reports[mode][workload][set] -> list of reports
    reports = {m: {w: [[] for _ in range(args.sets)] for w in workloads}
               for m in modes}
    with log.open("w") as sink:
        for s in range(args.sets):
            for workload in workloads:
                for i in range(args.runs):
                    seed = 1 + s * args.runs + i
                    for mode in modes:
                        report = run_once(workload, seed, seconds, mode)
                        reports[mode][workload][s].append(report)
                        sink.write(json.dumps(report) + "\n")
                        sink.flush()
    print(f"reports saved to {log.relative_to(ROOT)}")

    for workload in workloads:
        for s in range(args.sets):
            runs = reports[args.trace][workload][s]
            print(f"\n== {workload}  set {s + 1}  trace={args.trace}  "
                  f"seeds {[r['seed'] for r in runs]}")
            names = list(runs[0]["metrics"])
            for name in names:
                values = [r["metrics"][name]["value"] for r in runs]
                unit = runs[0]["metrics"][name]["unit"]
                median, q1, q3, spread = summarize(values)
                flag = ""
                if name in bounds:
                    bound = bounds[name]["bound"]
                    flag = f" bound {bound:.2f}" + (
                        "  <-- spread above bound/3" if spread > bound / 3
                        else "")
                print(f"  {name:34s} {unit:6s} median {median:<12.6g} "
                      f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:6.3f}"
                      f"{flag}")
                print("      runs: " + " ".join(f"{v:.6g}" for v in values))
        if args.sets > 1:
            print(f"\n== {workload}  median shift, set 1 -> set 2 "
                  "(positive = worse)")
            first = reports[args.trace][workload][0]
            second = reports[args.trace][workload][1]
            for name, entry in bounds.items():
                if name not in first[0]["metrics"]:
                    continue
                m1 = statistics.median(r["metrics"][name]["value"]
                                       for r in first)
                m2 = statistics.median(r["metrics"][name]["value"]
                                       for r in second)
                shift = worse_by(m1, m2, entry["better"])
                flag = "  <-- beyond bound" if shift > entry["bound"] else ""
                print(f"  {name:34s} {m1:<12.6g} -> {m2:<12.6g} "
                      f"worse by {shift:+.3f} (bound {entry['bound']}){flag}")
        if len(modes) > 1:
            print(f"\n== {workload}  tracing overhead (traced vs untraced "
                  "median, all sets)")
            traced = [r for s in reports[1][workload] for r in s]
            plain = [r for s in reports[0][workload] for r in s]
            for name, entry in bounds.items():
                mt = statistics.median(r["metrics"][name]["value"]
                                       for r in traced)
                mp = statistics.median(r["metrics"][name]["value"]
                                       for r in plain)
                print(f"  {name:34s} untraced {mp:<12.6g} traced "
                      f"{mt:<12.6g} worse by "
                      f"{worse_by(mp, mt, entry['better']):+.3f}")


if __name__ == "__main__":
    main()
