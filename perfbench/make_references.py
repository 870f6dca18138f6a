"""Regenerate perfbench/references.json from the program in this checkout.

Usage, from the root of a checkout:  python3 perfbench/make_references.py

The references are the means and certified errors the program produced at
the commit that defined the benchmark.  Later commits are checked against
them, so regenerate them only in a change that redefines a workload.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run as bench
import workloads


def main() -> int:
    root = Path.cwd()
    spec = bench.load_benchmark(root)
    env = bench.environment(root)
    refs = {"_meta": {"git_commit": env["git_commit"], "src_sha256": env["src_sha256"]}}
    jobs = [("compare-n1000", 0), ("trajectory-bound-n200", 0)]
    jobs += [("gauss-periodic-n400", draw) for draw in range(workloads.GAUSS_DRAWS)]
    for name, seed in jobs:
        run = bench.Run(root, spec, name, seed, False)
        record = run.launch("untraced")
        if "variants" not in record:
            print(f"{name} seed {seed}: {record['failures']}", file=sys.stderr)
            return 1
        refs[run.inputs["reference"]] = {
            "config_sha256": run.inputs["config_sha256"],
            "variants": {v: {"mean_total_population": s["mean_total_population"],
                             "certified_error": s["certified_error"]}
                         for v, s in record["variants"].items()},
        }
        print(run.inputs["reference"], record["wall_s"], flush=True)
        shutil.rmtree(run.dir)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
