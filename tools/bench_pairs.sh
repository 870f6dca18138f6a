#!/usr/bin/env bash
# Paired end-to-end benchmark of a base commit against the working tree.
#
#   tools/bench_pairs.sh BASE PAIRS [SECONDS]
#
# Unpacks `git archive BASE` into TMP/base and copies the working tree's
# files (`git ls-files -co --exclude-standard`) into TMP/tree: two checkouts
# at paths of equal length, since peak_rss_mb moves with the length of the
# checkout path.  For pair i = 1..PAIRS it runs
#
#   python3 perfbench/run.py --workload all --seed i --seconds SECONDS --trace 0
#
# in both checkouts, the base first on odd i and the tree first on even i.
# SECONDS defaults to `run_seconds` in BENCHMARK.json.  It then prints, for
# each workload and end-to-end metric, both values of every pair, both
# medians, how many pairs the tree won, the metric's bound from
# BENCHMARK.json, and as shares of the base's median the gap
# (median(tree) - median(base)) / median(base) and the base's spread
# (q3 - q1 over its runs) / median(base), with a verdict:
#
#   worse         the gap, signed so that positive is worse, exceeds the
#                 bound;
#   unresolved    the spread exceeds the bound and not every tree run beats
#                 every base run;
#   within bound  otherwise.
#
# BENCHMARK.json defines each bound as a share of the median, so 0.05 on
# a 51 MB peak is 2.6 MB.
#
# It exits non-zero if any run failed a check or gave no result, or if any
# verdict is `worse`.  The temporary directory is removed on exit.
set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 3 ]; then
    echo "usage: $0 BASE PAIRS [SECONDS]" >&2
    exit 1
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
pairs=$2
seconds=${3:-$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$repo/BENCHMARK.json")}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base" "$tmp/tree" "$tmp/results"
git -C "$repo" archive "$1" | tar -x -C "$tmp/base"
# a tracked file deleted in the working tree is left out
(cd "$repo" && git ls-files -co --exclude-standard -z | while IFS= read -r -d '' f; do
    if [ -e "$f" ]; then printf '%s\0' "$f"; fi
done | tar -c --null -T -) | tar -x -C "$tmp/tree"

run() {
    local code=0
    (cd "$tmp/$1" && python3 perfbench/run.py --workload all --seed "$2" --seconds "$seconds" \
        --trace 0) > "$tmp/results/$1-$2.out" 2> "$tmp/results/$1-$2.err" || code=$?
    echo "pair $2, $1: exit $code" >&2
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$i"
        run tree "$i"
    else
        run tree "$i"
        run base "$i"
    fi
done

python3 - "$repo/BENCHMARK.json" "$tmp/results" "$pairs" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
results, pairs = Path(sys.argv[2]), range(1, int(sys.argv[3]) + 1)

metrics, bad, worse = {}, [], []
for side in ("base", "tree"):
    for i in pairs:
        lines = (results / f"{side}-{i}.out").read_text(encoding="utf-8").splitlines()
        try:
            summary = json.loads(lines[-1])
        except (IndexError, ValueError):
            bad.append(f"{side} pair {i}: no result line")
            continue
        if summary["failed"] > 0:
            bad.append(f"{side} pair {i}: {summary['failed']} of {summary['attempted']} failed")
        metrics[side, i] = {k: m["value"] for k, m in summary["metrics"].items()}

for workload in spec["workloads"]:
    for metric in spec["end_to_end"]:
        key = f"{workload['name']}/{metric['name']}"
        lower = metric["better"] == "lower"
        print(f"{key} ({metric['unit']}, {metric['better']} is better)")
        values = {side: [] for side in ("base", "tree")}
        won = both = 0
        for i in pairs:
            base, tree = (metrics.get((side, i), {}).get(key) for side in ("base", "tree"))
            print(f"  pair {i}: base {base!s:>10}  tree {tree!s:>10}")
            for side, value in (("base", base), ("tree", tree)):
                if value is not None:
                    values[side].append(value)
            if base is not None and tree is not None:
                both += 1
                won += (tree < base) if lower else (tree > base)
        medians = {s: f"{statistics.median(v):.6g}" if v else "none" for s, v in values.items()}
        print(f"  median: base {medians['base']}  tree {medians['tree']};"
              f" tree won {won} of {both} pairs")
        base_runs, tree_runs = values["base"], values["tree"]
        # statistics.quantiles needs two values; one run has no spread
        q1, _, q3 = (statistics.quantiles(base_runs) if len(base_runs) > 1
                     else (0.0, 0.0, 0.0))
        bound, verdict, shares = metric["bound"], "unresolved", ""
        if base_runs and tree_runs:
            centre = statistics.median(base_runs)
            gap = (statistics.median(tree_runs) - centre) / centre
            spread = (q3 - q1) / centre
            beats = (max(tree_runs) < min(base_runs) if lower
                     else min(tree_runs) > max(base_runs))
            if (gap if lower else -gap) > bound:
                verdict = "worse"
                worse.append(key)
            elif spread <= bound or beats:
                verdict = "within bound"
            shares = f", gap {gap:+.4f}, base spread {spread:.4f} of the base median"
        print(f"  bound {bound:g}{shares}: {verdict}")
for line in bad:
    print(f"FAILED: {line}")
for key in worse:
    print(f"WORSE: {key}")
sys.exit(1 if bad or worse else 0)
EOF
