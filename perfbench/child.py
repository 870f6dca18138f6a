"""One benchmark iteration in a fresh process.

Usage: python3 perfbench/child.py SPEC.json T0

The spec (written by run.py) names the workload inputs, the mode
(``untraced``, ``traced``, ``setup`` or ``step-probe``) and the output
directory.  A ``setup`` process stops once the operator is ready.  T0
is the parent's ``time.monotonic()`` just before it started this process
(the clock is system-wide on Linux), so that ``setup_s`` covers interpreter
start, imports, config load and operator assembly.  The result is printed
as one JSON line on stdout.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from spans import NullTracer, Tracer, interposed

# Results kept from the traced call, to compare fibers.csv with the fibers in memory.
KEPT = ("attractor.pullback_fibers",)

# Per-layer times: summed durations of the spans of these package functions.
LAYER_SPANS = {
    "config.load_s": ("config.load_config",),
    "dynamics.assemble_s": ("dynamics.build_hammerstein",),
    "attractor.certify_s": ("attractor.step_constants_closed_form",
                            "attractor.closed_form_fully_in_range",
                            "attractor.step_constants_numeric",
                            "attractor.certify_contraction"),
    "attractor.bound_s": ("attractor.apriori_distance_bound", "attractor.required_iterations"),
    "attractor.sweep_s": ("attractor.pullback_fibers",),
    "reporting.read_s": ("reporting.read_fibers_csv",),
    "semilinear.build_s": ("semilinear.build_semilinear",),
    "semilinear.pullback_s": ("semilinear.pullback_limit",),
    "attractor.fixed_point_s": ("attractor.fixed_point_iterate",),
}


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports in this process, if it can be asked."""
    import ctypes
    import glob
    import os

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def memory_status() -> dict:
    """Resident-set fields of /proc/self/status, in MB."""
    fields = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "VmRSS", "RssAnon", "RssFile", "RssShmem"):
                fields[key] = int(value.split()[0]) / 1024.0
    return fields


def peak_rss_mb() -> tuple[float, dict]:
    """Peak resident memory of this process's own address space, in MB.

    ``ru_maxrss`` is not used: Linux carries it over an exec, so it also
    holds the resident set of run.py, whose address space the child shares
    until it execs.  ``VmHWM`` starts afresh with the child's program.
    """
    status = memory_status()
    return status["VmHWM"], dict(status, ru_maxrss=resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def _columns(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and columns of a CSV file whose cells hold no spaces or quotes."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        cells = fh.read().replace(",", " ").split()
    return header, [cells[i::len(header)] for i in range(len(header))]


def _data_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def _floats(col) -> np.ndarray:
    return np.fromiter(map(float, col), float, len(col))


def _ints(col) -> np.ndarray:
    return np.fromiter(map(int, col), np.int64, len(col))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def check_attractor_dir(ip, out: Path, reference: dict | None,
                        in_memory=None) -> tuple[dict, list[str]]:
    """Check one run_attractor output directory; return its scalars and failures.

    ``reference`` (when given) holds the mean and certified error per
    variant that the reference commit produced; ``in_memory`` (when given) the fibers objects the
    call returned from ``pullback_fibers``.
    """
    failures = []
    _, (keys, values) = _columns(out / "report.csv")
    report = dict(zip(keys, values))
    err, tol = float(report["certified_error"]), float(report["tolerance"])
    mean = float(report["mean_total_population"])
    length, n = float(report["length"]), int(report["nodes"])
    label = report["variant"]
    if not err <= tol:
        failures.append(f"{label}: certified_error {err!r} above tolerance {tol!r}")
    if reference is not None:
        ref = reference["variants"][label]
        allowed = length * (err + ref["certified_error"])
        if not abs(mean - ref["mean_total_population"]) <= allowed:
            failures.append(f"{label}: mean {mean!r} is more than {allowed!r} "
                            f"from the reference {ref['mean_total_population']!r}")

    # fibers.csv against the totals the program computed from its in-memory
    # states: quadrature totals of the re-parsed values must match bit for bit.
    grid = ip.build_grid(length, n)
    header, cols = _columns(out / "fibers.csv")
    _, (_, total_col) = _columns(out / "totals.csv")
    days = len(total_col)
    t = _ints(cols[0])
    node = _ints(cols[1])
    x = _floats(cols[2])
    values = _floats(cols[3])
    if header != ["t", "node", "x", "value"] or t.size != days * (n + 1):
        failures.append(f"{label}: fibers.csv has header {header} and {t.size} rows")
    else:
        ok = (
            np.array_equal(t, np.repeat(np.arange(days), n + 1))
            and np.array_equal(node, np.tile(np.arange(n + 1), days))
            and _same_bits(x, np.tile(grid.nodes, days))
        )
        values = values.reshape(days, n + 1)
        totals = _floats(total_col)
        recomputed = np.array([ip.total_population(ip.GridFunction(grid, v)) for v in values])
        if not (ok and _same_bits(recomputed, totals)):
            failures.append(f"{label}: fibers.csv does not re-parse to the written totals")
        if in_memory is not None and not any(
            _same_bits(values[: f.theta], np.array([g.values for g in f.fibers]))
            for f in in_memory
        ):
            failures.append(f"{label}: fibers.csv does not re-parse to the in-memory fibers")
    scalars = {"variant": label, "mean_total_population": mean, "certified_error": err,
               "tolerance": tol, "windows": int(report["windows"]),
               "total_steps": int(report["total_steps"]),
               "contraction_factor": float(report["contraction_factor"])}
    return scalars, failures


def timed_steps(ip, root: Path, inputs: dict) -> tuple[object, np.ndarray, list]:
    """Build the configured variant's operator and time single steps from u0.

    Returns the operator, the step times in microseconds and the states.
    """
    cfg = ip.load_config(root / inputs["config"])
    grid = ip.build_scenario_grid(cfg, inputs["nodes"])
    op = ip.build_operator(cfg, grid, inputs["variant"])
    u0 = ip.initial_condition(cfg.initial_id, cfg.initial_params, grid)
    count = workloads.STEP_SAMPLES
    states, times = [u0], np.empty(count)
    for k in range(count):
        start = time.perf_counter_ns()
        states.append(op.step(k, states[-1]))
        times[k] = time.perf_counter_ns() - start
    return op, times / 1000.0, states


def timed_matvecs(ip, op, states) -> np.ndarray:
    """Time the kernel apply alone, ``matrices[k] @ g``, along the same states."""
    times = np.empty(len(states) - 1)
    for k, state in enumerate(states[:-1]):
        r = k % op.theta
        g = ip.models.growth_curve(op.growth.family, op.growth.scale_at(r) * op.profile_values,
                                   state.values)
        matrix = op.matrices[op.matrix_index[r]]
        start = time.perf_counter_ns()
        matrix @ g
        times[k] = time.perf_counter_ns() - start
    return times / 1000.0


def call_cli(ip, tracer, argv: list[str]) -> tuple[int, float]:
    """Run ``idepull <argv>`` in-process; traced, with spans on its calls."""
    scope = contextlib.nullcontext()
    if isinstance(tracer, Tracer):
        scope = interposed(tracer, (ip.cli, ip.reporting, ip.config), KEPT)
    with scope:
        start = time.perf_counter()
        code = ip.cli.main(argv)
        return code, time.perf_counter() - start


def check_hammerstein(ip, inputs: dict, out: Path, kept: dict | None) -> tuple[dict, list[str]]:
    """Check every variant directory the call wrote."""
    failures, variants = [], {}
    reference = None
    if "reference" in inputs:
        reference = workloads.load_reference(inputs["reference"])
        if reference is None:
            failures.append(f"no reference {inputs['reference']!r}")
        elif reference["config_sha256"] != inputs["config_sha256"]:
            failures.append("config differs from the one the reference was made from")
            reference = None
    in_memory = None if kept is None else kept.get("attractor.pullback_fibers", [])
    for v in inputs["variants"]:
        scalars, found = check_attractor_dir(ip, out / (v or ""), reference, in_memory)
        variants[scalars["variant"]] = scalars
        failures.extend(found)
    return variants, failures


def hammerstein_layers(ip, tracer: Tracer, root: Path, inputs: dict, out: Path,
                       variants: dict) -> dict:
    """Per-layer figures of a traced CLI call, plus timed steps on its operator."""
    with tracer.span("reporting.read_fibers_csv"):
        ip.reporting.read_fibers_csv(out / inputs["fibers_csv"])
    op, step_us, states = timed_steps(ip, root, inputs)
    matvec_us = timed_matvecs(ip, op, states)
    files = sorted(out.rglob("*.csv"))
    n1 = op.grid.n + 1
    return {
        "dynamics.distinct_matrices": len(op.matrices),
        "dynamics.matrix_bytes": sum(m.nbytes for m in op.matrices),
        "dynamics.step_us.p50": float(np.percentile(step_us, 50)),
        "dynamics.step_us.p99": float(np.percentile(step_us, 99)),
        "dynamics.matvec_us.p50": float(np.percentile(matvec_us, 50)),
        # Computed from n: a dense matvec (2 flops, one 8-byte matrix entry
        # per pair) plus six elementwise operations and five vectors per node.
        "dynamics.step_flops": 2 * n1 * n1 + 6 * n1,
        "dynamics.step_bytes": 8 * n1 * n1 + 5 * 8 * n1,
        "attractor.sweep_steps": sum(v["total_steps"] for v in variants.values()),
        "attractor.windows": sum(v["windows"] for v in variants.values()),
        # Derived: the run drivers' own time, outside every call they make
        # into other functions of the package.
        "reporting.emit_s": tracer.self_time("reporting.run_attractor",
                                             "reporting.compare_inhomogeneities"),
        "reporting.emit_rows": sum(_data_rows(p) for p in files),
        "reporting.emit_bytes": sum(p.stat().st_size for p in files),
    }


def build_system(ip, arrays):
    """build_semilinear on the generated matrices, constant forcing and a kappa tanh term."""
    forcing, kappa = arrays["forcing"], float(arrays["kappa"])

    def nonlinearity(u):
        return forcing + kappa * np.tanh(u)

    return ip.build_semilinear(list(arrays["matrices"]), nonlinearity, kappas=[kappa])


def solve_semilinear(ip, tracer, arrays, tol: float) -> dict:
    """The semilinear-d128 top-level call: build, pullback limit, fixed point."""
    with tracer.span("semilinear.build_semilinear"):
        system = build_system(ip, arrays)
    with tracer.span("semilinear.pullback_limit"):
        fibers, report = ip.pullback_limit(system, tol)

    def period_map(u):
        return ip.general_solution(system, system.theta, 0, u)

    def distance(a, b):
        return float(np.max(np.abs(a - b)))

    factor = system.gamma * ip.contraction_product(system)
    problem = ip.IterateContractionProblem(period_map, distance, 1, factor)
    x0 = np.zeros(system.dim)
    with tracer.span("attractor.fixed_point_iterate"):
        fixed_point, bound = ip.fixed_point_iterate(problem, x0, tol)
    return {"system": system, "fibers": fibers, "report": report, "fixed_point": fixed_point,
            "bound": bound, "problem": problem, "x0": x0}


def check_semilinear(result) -> tuple[dict, list[str]]:
    report, bound = result["report"], result["bound"]
    gap = float(np.max(np.abs(result["fibers"][0] - result["fixed_point"])))
    allowed = report.tail_bound + bound
    failures = []
    if not (math.isfinite(allowed) and gap <= allowed):
        failures.append(f"pullback_limit and fixed_point_iterate differ by {gap!r}, "
                        f"above the sum of their bounds {allowed!r}")
    system = result["system"]
    scalars = {"gap": gap, "pullback_tail_bound": report.tail_bound,
               "fixed_point_bound": bound, "periods": report.periods,
               "q": report.factor, "gamma": system.gamma,
               "estimated": sorted(system.estimated)}
    return scalars, failures


def semilinear_counts(ip, solved: dict, tol: float) -> dict:
    """Periods of the pullback limit and windows of the fixed-point budget."""
    problem, x0 = solved["problem"], solved["x0"]
    d0 = problem.distance(x0, problem.step(x0))
    budget = ip.required_iterations(problem.factor, d0, tol, problem.order)
    return {"semilinear.periods": solved["report"].periods,
            "attractor.fixed_point_windows": budget.windows}


def load_arrays(root: Path, rel: str) -> dict:
    with np.load(root / rel) as data:
        return {k: data[k] for k in data.files}


def run(spec: dict) -> dict:
    root = Path(spec["root"])
    out = Path(spec["out"])
    inputs = spec["inputs"]
    traced = spec["mode"] == "traced"
    tracer = Tracer(spec["run_id"]) if traced else NullTracer()
    failures: list[str] = []
    layers: dict = {}
    result = {"mode": spec["mode"]}

    import idepull as ip
    import idepull.cli
    import idepull.reporting

    if not Path(ip.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"idepull imported from {ip.__file__}, not from the checkout's src/")

    if spec["mode"] == "step-probe":
        probe = inputs["probe"] if inputs["kind"] == "semilinear" else inputs
        _, step_us, _ = timed_steps(ip, root, probe)
        result.update(step_us_p50=float(np.percentile(step_us, 50)), blas_threads=blas_threads(),
                      failures=[])
        return result

    if inputs["kind"] == "hammerstein":
        cfg = ip.load_config(root / inputs["config"])
        op = ip.build_operator(cfg, ip.build_scenario_grid(cfg, inputs["nodes"]))
        setup_s = time.monotonic() - spec["t0"]
        del op, cfg
        if spec["mode"] == "setup":
            return dict(result, setup_s=setup_s, failures=[])
        with tracer.span("workload"):
            code, wall_s = call_cli(ip, tracer, inputs["argv"] + ["--out", str(out / "run")])
        rss, memory = peak_rss_mb()
        if code != 0:
            failures.append(f"idepull {inputs['argv'][0]} exited with {code}")
        else:
            kept = tracer.kept if traced else None
            result["variants"], found = check_hammerstein(ip, inputs, out / "run", kept)
            failures.extend(found)
            if traced:
                layers.update(hammerstein_layers(ip, tracer, root, inputs, out / "run",
                                                 result["variants"]))
        if traced:
            probe = inputs["probe"]
            with tracer.span("probe"):
                solved = solve_semilinear(ip, tracer, load_arrays(root, probe["arrays"]),
                                          probe["tol"])
            failures.extend(check_semilinear(solved)[1])
            layers.update(semilinear_counts(ip, solved, probe["tol"]))
    else:
        arrays = load_arrays(root, inputs["arrays"])
        system = build_system(ip, arrays)
        setup_s = time.monotonic() - spec["t0"]
        del system
        if spec["mode"] == "setup":
            return dict(result, setup_s=setup_s, failures=[])
        with tracer.span("workload"):
            start = time.perf_counter()
            solved = solve_semilinear(ip, tracer, arrays, inputs["tol"])
            wall_s = time.perf_counter() - start
        rss, memory = peak_rss_mb()
        result["semilinear"], found = check_semilinear(solved)
        failures.extend(found)
        if traced:
            layers.update(semilinear_counts(ip, solved, inputs["tol"]))
            probe = inputs["probe"]
            with tracer.span("probe"):
                code, _ = call_cli(ip, tracer, probe["argv"] + ["--out", str(out / "probe")])
            if code != 0:
                failures.append(f"probe idepull {probe['argv'][0]} exited with {code}")
            else:
                variants, found = check_hammerstein(ip, probe, out / "probe", tracer.kept)
                failures.extend(found)
                layers.update(hammerstein_layers(ip, tracer, root, probe, out / "probe", variants))

    if traced:
        # Each layer's spans come from the workload call or from its probe.
        layers.update({name: tracer.total(*spans) for name, spans in LAYER_SPANS.items()})
        result["layers"] = layers
    result.update(setup_s=setup_s, wall_s=wall_s, peak_rss_mb=rss, memory=memory,
                  failures=failures, blas_threads=blas_threads(),
                  idepull_version=ip.__version__)
    if traced:
        tracer.dump(spec["trace"])
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    spec["t0"] = float(sys.argv[2])
    try:
        result = run(spec)
    finally:
        shutil.rmtree(spec["out"], ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
