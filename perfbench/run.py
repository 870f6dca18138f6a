"""Repository benchmark for idepull.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Load is one closed-loop client: each iteration is a fresh Python process
(perfbench/child.py) making the workload's one top-level call, because a CLI
user pays import and assembly on every invocation.  Iterations repeat until
the next one would end after ``--seconds``; at least one always runs.  An
untraced run fills the rest of its time with processes that stop once the
operator is ready, for at least ``SETUP_SAMPLES`` samples of ``setup_s``.

This process and its children are pinned to one CPU.  While a child runs,
this process wakes every ``PROBE_INTERVAL_S`` on that CPU and times a fixed
Python loop in its own CPU time: the host's speed at that moment.  The
host's speed drifts by a third within minutes, so ``wall_s`` and ``setup_s``
are each child's times scaled by (``PROBE_NOMINAL_S`` over the median probe
during that child) to a power: ``workloads.SPEED_EXPONENT`` for ``wall_s``,
1 for ``setup_s``.  The unscaled times are printed and stored beside them.

``--trace 0`` reports the end-to-end metrics (medians over iterations).
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics from the spans the traced ones record, plus the tracing
overhead (traced minus untraced wall time).  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full record, with the environment block, goes to
``.perfbench-out/<run id>/result.json``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench-out"
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170
# Host-speed probe: while a child runs, this process wakes every
# PROBE_INTERVAL_S on the same CPU and times PROBE_LOOPS turns of a fixed
# Python loop.  Times are reported at the speed where one probe takes
# PROBE_NOMINAL_S.
PROBE_INTERVAL_S = 0.1
PROBE_LOOPS = 20_000
PROBE_NOMINAL_S = 1.0e-3
SPEED_SCALED = ("wall_s", "setup_s")
# Fewest setup_s samples of an untraced run; processes that stop once the
# operator is ready make up the count (compare-n1000 has one iteration).
SETUP_SAMPLES = 5
REQUIRED = ("src/idepull/__init__.py", "configs/seasonal_beverton_holt.yaml")


def load_benchmark(root: Path) -> dict:
    """The workloads and metrics, with their units, that BENCHMARK.json lists."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment(root: Path) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (ImportError, KeyError, TypeError):
        blas = None
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches_per_instance": caches,
        "blas": blas,
        "blas_threads_requested": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "pyyaml": _version("PyYAML"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("IDEPULL_WORKERS", None)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # NumPy asks for transparent huge pages for large arrays by default.
    # Whether the host grants them depends on other tenants' memory, and
    # compare-n1000's peak RSS moved by 5 MB between sets of runs.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def quartiles(values: list[float]) -> dict:
    if len(set(values)) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def pin_to_one_cpu() -> int | None:
    """Pin this process, and so every child it starts, to one CPU; return it."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def speed_probe() -> float:
    """CPU seconds this thread takes for a fixed Python loop.

    Thread CPU time leaves out any time the probe waits for the CPU, so the
    figure says only how fast the CPU runs the loop at that moment.
    """
    start = time.thread_time()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i
    return time.thread_time() - start


def wait_probing(proc: subprocess.Popen, probes: list[float]) -> int | None:
    """Wait for ``proc``, probing the host speed meanwhile; None on timeout."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            return proc.wait(timeout=PROBE_INTERVAL_S)
        except subprocess.TimeoutExpired:
            probes.append(speed_probe())
    return None


def sample_modes(name: str) -> tuple[str, ...]:
    """The child modes whose records give samples of end-to-end metric ``name``."""
    return ("untraced", "setup") if name == "setup_s" else ("untraced",)


def scaled(record: dict, name: str, exponent: float) -> float:
    """A child's figure, with times brought to the nominal host speed.

    ``exponent`` applies to ``wall_s``.  Set-up is interpreter start and
    imports, Python-bound on every workload, so ``setup_s`` uses 1.
    """
    if name in SPEED_SCALED:
        e = exponent if name == "wall_s" else 1.0
        return record[name] * (PROBE_NOMINAL_S / record["probe_s"]) ** e
    return record[name]


class Run:
    """One benchmark run of one workload: inputs, child processes, records."""

    def __init__(self, root: Path, bench: dict, name: str, seed: int, trace: bool):
        self.root, self.bench, self.name, self.seed, self.trace = root, bench, name, seed, trace
        self.run_id = f"{name}-s{seed}-t{int(trace)}-{os.getpid()}-{time.time_ns()}"
        self.dir = root / OUT_DIR / self.run_id
        self.inputs = workloads.make_inputs(name, seed, root, self.dir / "inputs")
        self.records: list[dict] = []
        self.exponent = workloads.SPEED_EXPONENT.get(name, 1.0)

    def launch(self, mode: str) -> dict:
        k = len(self.records)
        spec = {
            "root": str(self.root), "mode": mode, "run_id": self.run_id, "inputs": self.inputs,
            "out": str(self.dir / f"out-{k}"), "trace": str(self.dir / f"trace-{k}.json"),
        }
        spec_path = self.dir / f"spec-{k}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = child_env(self.root)
        argv = [sys.executable, str(HERE / "child.py"), str(spec_path)]
        streams = self.dir / f"stdout-{k}", self.dir / f"stderr-{k}"
        probes: list[float] = []
        with open(streams[0], "w") as out, open(streams[1], "w") as err:
            proc = subprocess.Popen(argv + [repr(time.monotonic())], cwd=self.root, env=env,
                                    stdout=out, stderr=err)
            try:
                code = wait_probing(proc, probes)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        stdout, stderr = (p.read_text(encoding="utf-8", errors="replace") for p in streams)
        for path in streams:
            path.unlink()
        record, error = None, f"timed out after {CHILD_TIMEOUT_S} s"
        if code is not None:
            lines = stdout.strip().splitlines()
            try:
                record = json.loads(lines[-1]) if code == 0 and lines else None
            except json.JSONDecodeError as exc:
                error = f"unreadable result: {exc}"
            else:
                error = f"exit {code}: {stderr.strip()[-2000:]}"
        shutil.rmtree(spec["out"], ignore_errors=True)
        if record is None:
            record = {"mode": mode, "failures": [error]}
        record.update(probe_s=statistics.median(probes or [speed_probe()]), probes=len(probes))
        self.records.append(record)
        return record

    def measure(self, seconds: float) -> None:
        start = time.monotonic()
        rounds = 0
        while True:
            self.launch("untraced")
            if self.trace:
                self.launch("traced")
            rounds += 1
            elapsed = time.monotonic() - start
            if elapsed + elapsed / rounds > seconds:
                break
        if self.trace:
            self.launch("step-probe")
            return
        # Set-up-only processes fill what is left of the run and bring the
        # setup_s samples to at least SETUP_SAMPLES.
        setups, setup_start = 0, time.monotonic()
        while True:
            self.launch("setup")
            setups += 1
            now = time.monotonic()
            if (rounds + setups >= SETUP_SAMPLES
                    and now - start + (now - setup_start) / setups > seconds):
                break

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["failures"])

    def metrics(self) -> dict:
        """Medians with quartiles; None when no iteration produced the figure."""
        ok = [r for r in self.records if not r["failures"]]
        out = {}
        if not self.trace:
            for name, unit in self.bench["end_to_end"].items():
                values = [scaled(r, name, self.exponent) for r in ok
                          if r["mode"] in sample_modes(name)]
                out[name] = dict(quartiles(values), unit=unit) if values else None
            return out
        traced = [r for r in ok if r["mode"] == "traced"]
        for name, unit in self.bench["per_layer"].items():
            values = [r["layers"][name] for r in traced if name in r["layers"]]
            out[name] = dict(quartiles(values), unit=unit) if values else None
        probe = [r["step_us_p50"] for r in ok if r["mode"] == "step-probe"]
        out["dynamics.step_us.p50.blas1"] = dict(quartiles(probe), unit="us") if probe else None
        walls = {m: [scaled(r, "wall_s", self.exponent) for r in ok if r["mode"] == m]
                 for m in ("untraced", "traced")}
        out["trace.overhead_s"] = None
        if all(walls.values()):
            overhead = statistics.median(walls["traced"]) - statistics.median(walls["untraced"])
            out["trace.overhead_s"] = dict(quartiles([overhead]), unit="s")
        return out

    def unscaled(self) -> dict:
        """Raw times and host-speed probe of the untraced children, as measured."""
        if self.trace:
            return {}
        ok = [r for r in self.records if not r["failures"]]
        samples = {name: [r[name] for r in ok if r["mode"] in sample_modes(name)]
                   for name in (*SPEED_SCALED, "probe_s")}
        return {name: quartiles(values) for name, values in samples.items() if values}

    def finish(self, env: dict, metrics: dict) -> dict:
        """Write result.json and drop the inputs; return the record written."""
        shutil.rmtree(self.dir / "inputs", ignore_errors=True)
        for spec in self.dir.glob("spec-*.json"):
            spec.unlink()
        blas_in_effect = sorted({r["blas_threads"] for r in self.records
                                 if r["mode"] != "step-probe" and "blas_threads" in r}, key=str)
        first = next((r for r in self.records if "idepull_version" in r), {})
        detail = {
            "workload": self.name, "seed": self.seed, "trace": self.trace,
            "why": self.bench["workloads"][self.name], "speed_exponent": self.exponent,
            "environment": dict(env, blas_threads_in_effect=blas_in_effect,
                                idepull=first.get("idepull_version"),
                                input_sha256=self.inputs["hashes"]),
            # Generator-side quantities, then what the program computed from them.
            "scenario": dict(self.inputs["scenario"],
                             program=first.get("variants") or first.get("semilinear")),
            "attempted": len(self.records), "failed": self.failed,
            "metrics": metrics, "unscaled": self.unscaled(), "records": self.records,
        }
        (self.dir / "result.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
        return detail


def report_lines(run: Run, metrics: dict) -> list[str]:
    lines = [f"{run.name}: {len(run.records)} processes, seed {run.seed}, trace {int(run.trace)}"]
    for name, m in metrics.items():
        if m is None:
            lines.append(f"  {name:32s} missing")
        else:
            lines.append(f"  {name:32s} {m['median']:.6g} {m['unit']}"
                         f"  (median; q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")
    for name, m in run.unscaled().items():
        lines.append(f"  {'unscaled ' + name:32s} {m['median']:.6g} s"
                     f"  (median; q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")
    lines.append(f"  {'fail_ratio':32s} {run.failed / len(run.records):.6g}"
                 f"  ({run.failed} of {len(run.records)} failed)")
    for r in run.records:
        for failure in r["failures"]:
            lines.append(f"  FAILED ({r['mode']}): {failure}")
    return lines


def main(argv=None) -> int:
    root = Path.cwd()
    bench = load_benchmark(root)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*bench["workloads"], "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that a running child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"perfbench: not a checkout of idepull, missing {missing}", file=sys.stderr)
        return 2
    compileall.compile_dir(root / "src", quiet=1)
    env = dict(environment(root), cpu_pinned=pin_to_one_cpu())

    names = list(bench["workloads"]) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = Run(root, bench, name, args.seed, bool(args.trace))
        run.measure(args.seconds)
        metrics = run.metrics()
        detail = run.finish(env, metrics)
        print(f"environment: {json.dumps(detail['environment'])}")
        print(f"scenario: {json.dumps(detail['scenario'])}")
        print("\n".join(report_lines(run, metrics)))
        results[name] = (run, metrics)

    attempted = sum(len(run.records) for run, _ in results.values())
    failed = sum(run.failed for run, _ in results.values())
    flat = {}
    for name, (_, metrics) in results.items():
        for metric, m in metrics.items():
            key = metric if len(results) == 1 else f"{name}/{metric}"
            if m is not None:
                flat[key] = {"value": m["median"], "unit": m["unit"]}
    complete = all(m is not None for _, metrics in results.values() for m in metrics.values())
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": flat}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
