#!/usr/bin/env sh
# A/B benchmark: a git revision against the working tree, interleaved.
#
#   scripts/bench_ab.sh REF WORKLOAD [PAIRS]
#
# Extracts REF (any git revision) into a temporary directory with
# `git archive`, so nothing is added to the repository's worktree list,
# and runs `perfbench/run.py --workload WORKLOAD` alternately in that copy
# and in the working tree (uncommitted changes included), PAIRS times each
# (default 10). Pair i runs both sides on seed i + 1, and the side that
# goes first alternates from pair to pair, so slow drift of the host
# lands on both sides alike. Each side's build happens in a discarded
# one-second warm-up run before the first timed pair.
#
# For every metric in the run results it prints each side's median and
# quartiles (statistics.quantiles, n=4), and for every metric
# BENCHMARK.json gives a better direction, how many pairs the working
# tree won and the ratio of the medians, work/ref (the end-to-end
# metrics BENCHMARK.json bounds are marked *).
#
# Environment: AB_SECONDS (default: BENCHMARK.json run_seconds), AB_TRACE
# (0 or 1, default 0), AB_DIR (where the temporary copy and the run
# results go; default a fresh mktemp -d, removed on exit unless
# AB_KEEP=1). Run from the repository root.
set -eu

if [ $# -lt 2 ]; then
  echo "usage: scripts/bench_ab.sh REF WORKLOAD [PAIRS]" >&2
  exit 2
fi
REF=$1
WORKLOAD=$2
PAIRS=${3:-10}
WORK=$(pwd)
[ -f "$WORK/perfbench/run.py" ] || {
  echo "bench_ab: run from the repository root" >&2
  exit 2
}
SECS=${AB_SECONDS:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
TRACE=${AB_TRACE:-0}

DIR=${AB_DIR:-$(mktemp -d)}
mkdir -p "$DIR"
if [ "${AB_KEEP:-0}" != 1 ] && [ -z "${AB_DIR:-}" ]; then
  trap 'rm -rf "$DIR"' EXIT
fi
REF_TREE="$DIR/ref"
rm -rf "$REF_TREE"
mkdir -p "$REF_TREE"
git archive "$REF" | tar -x -C "$REF_TREE"
: > "$DIR/ref.jsonl"
: > "$DIR/work.jsonl"

# run SIDE TREE SEED SECONDS OUT: one perfbench run; its last line (the
# result) is appended to OUT, or the script stops on a failed run.
run() {
  if ! (cd "$2" && python3 perfbench/run.py --workload "$WORKLOAD" \
          --seed "$3" --seconds "$4" --trace "$TRACE") > "$DIR/last.out"; then
    echo "bench_ab: $1 run failed (seed $3):" >&2
    tail -n 20 "$DIR/last.out" >&2
    exit 1
  fi
  if [ -n "$5" ]; then tail -n 1 "$DIR/last.out" >> "$5"; fi
}

echo "bench_ab: building both sides (warm-up runs)" >&2
run ref "$REF_TREE" 1 1 ""
run work "$WORK" 1 1 ""

i=0
while [ "$i" -lt "$PAIRS" ]; do
  seed=$((i + 1))
  if [ $((i % 2)) -eq 0 ]; then
    run ref "$REF_TREE" "$seed" "$SECS" "$DIR/ref.jsonl"
    run work "$WORK" "$seed" "$SECS" "$DIR/work.jsonl"
  else
    run work "$WORK" "$seed" "$SECS" "$DIR/work.jsonl"
    run ref "$REF_TREE" "$seed" "$SECS" "$DIR/ref.jsonl"
  fi
  i=$((i + 1))
  echo "bench_ab: pair $i/$PAIRS done" >&2
done

python3 - "$DIR/ref.jsonl" "$DIR/work.jsonl" "$WORK/BENCHMARK.json" \
    "$REF" "$WORKLOAD" <<'EOF'
import json
import statistics
import sys

ref_path, work_path, spec_path, ref_name, workload = sys.argv[1:6]
ref = [json.loads(line) for line in open(ref_path)]
work = [json.loads(line) for line in open(work_path)]
spec = json.load(open(spec_path))
better = {m["name"]: m["better"]
          for m in spec["end_to_end"] + spec["per_layer"]}
bounded = {m["name"] for m in spec["end_to_end"]}


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs
            if name in r.get("metrics", {})]


def summary(vals):
    if len(vals) < 2:
        return f"{vals[0]:.4g} (one run)" if vals else "-"
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return f"{statistics.median(vals):.4g} [{q1:.4g}, {q3:.4g}]"


print(f"bench_ab: {workload}, {len(ref)} pairs, ref={ref_name} vs working "
      f"tree; each side: median [q1, q3]")
print(f"  correct: ref {sum(r['correct'] for r in ref)}/{len(ref)}, "
      f"work {sum(w['correct'] for w in work)}/{len(work)}")
names = sorted({n for r in ref + work for n in r.get("metrics", {})})
for name in names:
    rv, wv = values(ref, name), values(work, name)
    line = f"  {name:32s} ref {summary(rv):30s} work {summary(wv):30s}"
    if name in better and len(rv) == len(wv) and rv:
        sign = 1 if better[name] == "higher" else -1
        won = sum(1 for a, b in zip(rv, wv) if sign * (b - a) > 0)
        ratio = (statistics.median(wv) / statistics.median(rv)
                 if statistics.median(rv) else float("nan"))
        line += f" won {won}/{len(rv)}, work/ref {ratio:.3f}"
        if name in bounded:
            line += " *"
    print(line)
print("  (* = bound in BENCHMARK.json end_to_end)")
EOF
