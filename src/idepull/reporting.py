"""Run drivers and CSV artifacts.

Numeric CSV cells use the shortest round-trip decimal representation, so
re-parsing an emitted file reproduces the in-memory values bit for bit.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attractor import (
    ContractionCertificate,
    apriori_distance_bound,
    certify_contraction,
    closed_form_fully_in_range,
    pullback_fibers,
    required_iterations,
    step_constants_closed_form,
    step_constants_numeric,
)
from .config import ScenarioConfig, build_operator, build_scenario_grid, initial_condition
from .exceptions import ConfigError, NoContractionError
from .grid import sup_norm, total_population
from .models import SEASON_PATTERNS
from .semilinear import build_semilinear, contraction_product, pullback_limit
from .dynamics import trajectory

__all__ = [
    "RunReport",
    "TrajectoryReport",
    "ComparisonReport",
    "SemilinearRunReport",
    "run_attractor",
    "run_simulation",
    "compare_inhomogeneities",
    "lipschitz_report",
    "run_convergence",
    "run_semilinear",
    "read_csv_rows",
    "read_report_csv",
    "read_totals_csv",
    "read_fibers_csv",
]

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


def read_report_csv(path) -> dict[str, str]:
    _, rows = read_csv_rows(path)
    return {key: value for key, value in rows}


def read_totals_csv(path) -> tuple[np.ndarray, np.ndarray]:
    _, rows = read_csv_rows(path)
    t = np.array([int(r[0]) for r in rows])
    totals = np.array([float(r[1]) for r in rows])
    return t, totals


def read_fibers_csv(path) -> list[tuple[int, int, float, float]]:
    _, rows = read_csv_rows(path)
    return [(int(r[0]), int(r[1]), float(r[2]), float(r[3])) for r in rows]


@dataclass(frozen=True)
class RunReport:
    """Scalar summary of a certified attractor run."""

    variant: str
    length: float
    nodes: int
    theta: int
    tolerance: float
    rule: str
    window: int
    contraction_factor: float
    contraction_factor_numeric: float
    distance_bound: float
    distance_bound_mode: str
    windows: int
    total_steps: int
    certified_error: float
    lipschitz_source: str
    fiber_totals: tuple[float, ...]
    fiber_sup_norms: tuple[float, ...]
    mean_total_population: float
    wall_time_s: float


_REPORT_KEYS = (
    "schema_version", "command", "variant", "length", "nodes", "theta",
    "tolerance", "rule", "window", "contraction_factor",
    "contraction_factor_numeric", "distance_bound",
    "distance_bound_mode", "windows", "total_steps", "certified_error",
    "lipschitz_source", "mean_total_population", "sup_norm_min",
    "sup_norm_max", "wall_time_s",
)


def _write_report_csv(path: Path, command: str, report: RunReport) -> None:
    values = {
        "schema_version": 1,
        "command": command,
        "variant": report.variant,
        "length": report.length,
        "nodes": report.nodes,
        "theta": report.theta,
        "tolerance": report.tolerance,
        "rule": report.rule,
        "window": report.window,
        "contraction_factor": report.contraction_factor,
        "contraction_factor_numeric": report.contraction_factor_numeric,
        "distance_bound": report.distance_bound,
        "distance_bound_mode": report.distance_bound_mode,
        "windows": report.windows,
        "total_steps": report.total_steps,
        "certified_error": report.certified_error,
        "lipschitz_source": report.lipschitz_source,
        "mean_total_population": report.mean_total_population,
        "sup_norm_min": min(report.fiber_sup_norms),
        "sup_norm_max": max(report.fiber_sup_norms),
        "wall_time_s": report.wall_time_s,
    }
    _write_csv(path, ("key", "value"), [(k, values[k]) for k in _REPORT_KEYS])


def _certificate_for(op) -> tuple[ContractionCertificate, str]:
    lams = step_constants_closed_form(op)
    source = "closed-form" if closed_form_fully_in_range(op) else "numeric"
    return certify_contraction(lams, op.theta), source


def _states_csv_rows(states, grid):
    for t, state in enumerate(states):
        for i, (x, v) in enumerate(zip(grid.nodes, state.values)):
            yield (t, i, float(x), float(v))


def run_attractor(
    cfg: ScenarioConfig,
    out_dir,
    *,
    nodes: int | None = None,
    tol: float | None = None,
    variant: str | None = None,
) -> RunReport:
    """Certified pullback run; writes fibers.csv, totals.csv, report.csv."""
    started = time.perf_counter()
    out = Path(out_dir)
    tol = cfg.tolerance if tol is None else tol
    grid = build_scenario_grid(cfg, nodes)
    op = build_operator(cfg, grid, variant)
    u0 = initial_condition(cfg.initial_id, cfg.initial_params, grid)

    certificate, source = _certificate_for(op)
    numeric_factor = certify_contraction(step_constants_numeric(op), op.theta).factor
    if not certificate.valid:
        raise NoContractionError(
            f"window contraction factor {certificate.factor} is not below 1"
        )
    bound = apriori_distance_bound(op, u0, op.theta, cfg.distance_bound_mode)
    budget = required_iterations(certificate.factor, bound, tol, op.theta)
    fibers = pullback_fibers(op, certificate, budget, u0, cfg.max_steps)

    extension = trajectory(
        op, op.theta - 1, max(0, cfg.horizon + 1 - op.theta), fibers.fibers[-1]
    )
    states = (fibers.fibers + extension.states[1:])[: cfg.horizon + 1]

    totals = tuple(total_population(f) for f in fibers.fibers)
    sups = tuple(sup_norm(f) for f in fibers.fibers)
    label = variant if variant is not None else (cfg.variant or "custom")
    report = RunReport(
        variant=label,
        length=cfg.length,
        nodes=grid.n,
        theta=op.theta,
        tolerance=tol,
        rule=cfg.rule,
        window=certificate.window,
        contraction_factor=certificate.factor,
        contraction_factor_numeric=numeric_factor,
        distance_bound=budget.distance_bound,
        distance_bound_mode=cfg.distance_bound_mode,
        windows=budget.windows,
        total_steps=budget.total_steps,
        certified_error=fibers.certified_error,
        lipschitz_source=source,
        fiber_totals=totals,
        fiber_sup_norms=sups,
        mean_total_population=float(np.mean(totals)),
        wall_time_s=time.perf_counter() - started,
    )

    _write_csv(out / "fibers.csv", ("t", "node", "x", "value"), _states_csv_rows(states, grid))
    _write_csv(
        out / "totals.csv",
        ("t", "total_population"),
        [(t, total_population(s)) for t, s in enumerate(states)],
    )
    _write_report_csv(out / "report.csv", "attractor", report)
    return report


@dataclass(frozen=True)
class TrajectoryReport:
    variant: str
    nodes: int
    steps: int
    totals: tuple[float, ...]
    wall_time_s: float


def run_simulation(
    cfg: ScenarioConfig,
    out_dir,
    *,
    nodes: int | None = None,
    variant: str | None = None,
) -> TrajectoryReport:
    """Plain forward orbit from the configured initial state over the horizon."""
    started = time.perf_counter()
    out = Path(out_dir)
    grid = build_scenario_grid(cfg, nodes)
    op = build_operator(cfg, grid, variant)
    u0 = initial_condition(cfg.initial_id, cfg.initial_params, grid)
    segment = trajectory(op, 0, cfg.horizon, u0)

    totals = tuple(total_population(s) for s in segment.states)
    _write_csv(
        out / "trajectory.csv", ("t", "node", "x", "value"),
        _states_csv_rows(segment.states, grid),
    )
    _write_csv(
        out / "totals.csv", ("t", "total_population"),
        [(t, v) for t, v in enumerate(totals)],
    )
    label = variant if variant is not None else (cfg.variant or "custom")
    return TrajectoryReport(label, grid.n, segment.steps, totals, time.perf_counter() - started)


@dataclass(frozen=True)
class ComparisonReport:
    variants: tuple[str, ...]
    means: tuple[float, ...]
    best: str
    reports: dict


def compare_inhomogeneities(
    cfg: ScenarioConfig,
    out_dir,
    *,
    nodes: int | None = None,
    tol: float | None = None,
) -> ComparisonReport:
    """Run all four seasonal support placements and rank their means.

    Per-variant artifacts land in subdirectories h1/..h4/ of ``out_dir``;
    the ranking table is written to comparison.csv.
    """
    out = Path(out_dir)
    variants = tuple(sorted(SEASON_PATTERNS))
    reports = {
        v: run_attractor(cfg, out / v, nodes=nodes, tol=tol, variant=v) for v in variants
    }

    means = tuple(reports[v].mean_total_population for v in variants)
    best = variants[int(np.argmax(means))]
    _write_csv(
        out / "comparison.csv",
        ("variant", "mean_total_population", "certified_error", "total_steps", "best"),
        [
            (v, reports[v].mean_total_population, reports[v].certified_error,
             reports[v].total_steps, v == best)
            for v in variants
        ],
    )
    return ComparisonReport(variants, means, best, reports)


def lipschitz_report(
    cfg: ScenarioConfig,
    out_dir,
    *,
    nodes: int | None = None,
    variant: str | None = None,
) -> dict:
    """Closed-form versus quadrature step constants, plus the budget summary."""
    out = Path(out_dir)
    grid = build_scenario_grid(cfg, nodes)
    op = build_operator(cfg, grid, variant)
    u0 = initial_condition(cfg.initial_id, cfg.initial_params, grid)

    numeric = step_constants_numeric(op)
    closed = step_constants_closed_form(op)
    in_range = closed_form_fully_in_range(op)

    certificate = certify_contraction(closed, op.theta)
    rows = []
    for r in range(op.theta):
        kb_closed = closed[r] / op.growth.beta(r) if op.growth.beta(r) else 0.0
        kb_numeric = numeric[r] / op.growth.beta(r) if op.growth.beta(r) else 0.0
        rows.append((r, op.growth.beta(r), kb_closed, kb_numeric, closed[r], numeric[r]))
    _write_csv(
        out / "lipschitz.csv",
        ("time_class", "beta", "kernel_bound_closed", "kernel_bound_numeric",
         "lipschitz_closed", "lipschitz_numeric"),
        rows,
    )

    summary = {
        "contraction_factor": certificate.factor,
        "valid": certificate.valid,
        "closed_form_in_range": in_range,
    }
    if certificate.valid:
        bound = apriori_distance_bound(op, u0, op.theta, cfg.distance_bound_mode)
        budget = required_iterations(certificate.factor, bound, cfg.tolerance, op.theta)
        summary.update(
            distance_bound=bound, windows=budget.windows, total_steps=budget.total_steps
        )
    return summary


def run_convergence(
    cfg: ScenarioConfig,
    out_dir,
    *,
    nodes: int | None = None,
    tol: float | None = None,
    variant: str | None = None,
) -> list[dict]:
    """Self-convergence study: rerun the attractor at n and 2n nodes."""
    out = Path(out_dir)
    base = nodes if nodes is not None else cfg.nodes
    levels = (base, 2 * base)
    reports = [
        run_attractor(cfg, out / f"n{n}", nodes=n, tol=tol, variant=variant) for n in levels
    ]

    rows = []
    previous = None
    for n, rep in zip(levels, reports):
        delta = abs(rep.mean_total_population - previous) if previous is not None else 0.0
        rows.append(
            {
                "nodes": n,
                "mean_total_population": rep.mean_total_population,
                "certified_error": rep.certified_error,
                "delta_vs_previous": delta,
            }
        )
        previous = rep.mean_total_population
    _write_csv(
        out / "convergence.csv",
        ("nodes", "mean_total_population", "certified_error", "delta_vs_previous"),
        [(r["nodes"], r["mean_total_population"], r["certified_error"],
          r["delta_vs_previous"]) for r in rows],
    )
    return rows


@dataclass(frozen=True)
class SemilinearRunReport:
    dimension: int
    theta: int
    contraction_factor: float
    periods: int
    last_update: float
    tail_bound: float
    estimated: tuple[str, ...]
    fibers: tuple


def _make_zero(params, dim):
    return (lambda u: np.zeros(dim)), 0.0


def _make_constant(params, dim):
    value = params.get("value", 1.0)
    if np.isscalar(value):
        c = np.full(dim, float(value))
    else:
        c = np.asarray(value, dtype=float)
        if c.shape != (dim,):
            raise ConfigError(f"semilinear constant value needs {dim} entries")
    return (lambda u: c), 0.0


def _make_bounded_sigmoid(params, dim):
    scale = float(params.get("scale", 1.0))
    return (lambda u: scale * np.tanh(u)), abs(scale)


_SEMILINEAR_NONLINEARITIES = {
    "zero": _make_zero,
    "constant": _make_constant,
    "bounded-sigmoid": _make_bounded_sigmoid,
}


def run_semilinear(cfg: ScenarioConfig, out_dir) -> SemilinearRunReport:
    """Pullback fibers of the configured semilinear demo system."""
    if cfg.semilinear is None:
        raise ConfigError("config has no 'semilinear' section")
    sc = cfg.semilinear
    out = Path(out_dir)

    make = _SEMILINEAR_NONLINEARITIES[sc.nonlinearity]
    nonlinearity, kappa = make(sc.nonlinearity_params, sc.dimension)
    kappas = sc.kappas if sc.kappas is not None else (kappa,) * len(sc.matrices)
    system = build_semilinear(
        [np.array(m, dtype=float) for m in sc.matrices],
        nonlinearity,
        kappas=kappas,
        gamma=sc.gamma,
        alphas=sc.alphas,
    )
    u0 = np.asarray(sc.initial, dtype=float) if sc.initial is not None else None
    fibers, report = pullback_limit(system, sc.tolerance, u0)

    _write_csv(
        out / "fibers.csv",
        ("t", "component", "value"),
        [
            (t, i, float(v))
            for t, fib in enumerate(fibers)
            for i, v in enumerate(fib)
        ],
    )
    _write_csv(
        out / "report.csv",
        ("key", "value"),
        [
            ("command", "semilinear"),
            ("dimension", sc.dimension),
            ("theta", system.theta),
            ("contraction_factor", contraction_product(system)),
            ("periods", report.periods),
            ("last_update", report.last_update),
            ("tail_bound", report.tail_bound),
            ("estimated", ";".join(sorted(report.estimated)) or "none"),
        ],
    )
    return SemilinearRunReport(
        dimension=sc.dimension,
        theta=system.theta,
        contraction_factor=report.factor,
        periods=report.periods,
        last_update=report.last_update,
        tail_bound=report.tail_bound,
        estimated=tuple(sorted(report.estimated)),
        fibers=fibers,
    )
