#!/usr/bin/env python3
"""Collect perfbench results into one committed ``BENCH_<LABEL>.json``.

    python3 tools/bench_record.py LABEL RESULT_JSON...

Each RESULT_JSON is a ``.perfbench-out/<run id>/result.json`` that
``perfbench/run.py`` wrote for one workload, untraced (``--trace 0``) or
traced (``--trace 1``).  The record written at the root of the repository
holds, per workload and per tracing mode, the seed, the commit, the
environment, the attempted and failed counts, and every metric's median,
quartiles, sample count and unit.  The per-process records stay out.
Two results for the same workload and mode are refused.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRIC_KEYS = ("median", "q1", "q3", "n", "unit")


def summarize(result: dict) -> dict:
    env = result["environment"]
    return {
        "seed": result["seed"],
        "commit": env.get("git_commit"),
        "environment": env,
        "attempted": result["attempted"],
        "failed": result["failed"],
        # a metric the run could not take is None in result.json and stays so
        "metrics": {name: m and {k: m[k] for k in METRIC_KEYS}
                    for name, m in result["metrics"].items()},
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 1
    label, paths = argv[0], argv[1:]
    workloads: dict[str, dict] = {}
    for path in paths:
        result = json.loads(Path(path).read_text(encoding="utf-8"))
        mode = "traced" if result["trace"] else "untraced"
        runs = workloads.setdefault(result["workload"], {})
        if mode in runs:
            print(f"{path}: a second {mode} result for {result['workload']}", file=sys.stderr)
            return 1
        runs[mode] = summarize(result)
    out = ROOT / f"BENCH_{label}.json"
    record = {"label": label, "workloads": dict(sorted(workloads.items()))}
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}: {len(paths)} results, {len(workloads)} workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
