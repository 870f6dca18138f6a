"""Run drivers and CSV artifacts.

A float cell is the float's shortest round-trip text (``repr``), so
re-parsing an emitted file reproduces the in-memory values bit for bit.
A states file (``fibers.csv``, ``trajectory.csv``) is written in binary,
one day at a time as one joined ``bytes``; each node's ``,node,x,`` tail
is encoded once per file.  A day's value cells come from one ``orjson``
call, whose shortest digits are ``repr``'s; the cells that ``repr`` writes
in exponent or non-finite notation (nonzero ``|v|`` outside
``[1e-4, 1e16)``, and NaN) are then overwritten with their encoded
``repr``.  Every other CSV goes through ``csv.writer``, with rows of
Python ``int``, ``float`` and ``str`` values.  Both paths write the same
bytes for the same cells, ``\r\n`` line ends included.

``compare`` assembles the kernel matrices once and runs each variant on
that operator with the variant's forcing swapped in.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, fields, replace
from itertools import chain, islice
from pathlib import Path

import numpy as np
import orjson

from .attractor import (
    ContractionCertificate,
    ErrorBudget,
    apriori_distance_bound,
    certify_contraction,
    pullback_fibers,
    required_iterations,
    step_constants_closed_form,
    step_constants_numeric,
)
from .config import (
    ScenarioConfig,
    build_inhomogeneity,
    build_operator,
    build_semilinear_system,
    initial_condition,
)
from .exceptions import (
    BoundFormulaOutOfRangeError,
    ConfigError,
    DivergentInputError,
    NoContractionError,
)
from .grid import sup_norm, total_population
from .models import SEASON_PATTERNS
from .semilinear import PullbackReport, pullback_limit
from .dynamics import orbit

__all__ = [
    "RunReport",
    "ComparisonReport",
    "run_attractor",
    "run_simulation",
    "compare_inhomogeneities",
    "lipschitz_report",
    "run_convergence",
    "run_semilinear",
    "read_csv_rows",
    "read_fibers_csv",
]

def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


def read_fibers_csv(path) -> list[tuple[int, int, float, float]]:
    _, rows = read_csv_rows(path)
    return [(int(r[0]), int(r[1]), float(r[2]), float(r[3])) for r in rows]


@dataclass(frozen=True)
class RunReport:
    """Summary of a certified attractor run; report.csv holds its non-tuple fields in order."""

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
    steps_used: int
    certified_error: float
    lipschitz_source: str
    mean_total_population: float
    sup_norm_min: float
    sup_norm_max: float
    wall_time_s: float
    fiber_totals: tuple[float, ...]
    fiber_sup_norms: tuple[float, ...]


def _write_report_csv(path: Path, command: str, rows) -> None:
    """Write report.csv: ``schema_version``, ``command``, then the key/value ``rows``."""
    _write_csv(path, ("key", "value"), [("schema_version", 1), ("command", command), *rows])


def _states_day(t: int, values, pieces: list) -> bytes:
    """Day ``t`` of a states file, as the bytes ``csv.writer`` would write.

    ``pieces`` holds a day as (tail, value, line break and next day) per
    node: the ``,{i},{x!r},`` tails are encoded once per file, and each day
    fills in its value cells and its separators.  One ``orjson.dumps``
    formats the values with ``repr``'s digits; it writes ``1e-5``, ``1e16``
    and ``null`` where ``repr`` writes ``1e-05``, ``1e+16`` and ``nan``, so
    the cells outside ``1e-4 <= |v| < 1e16`` (zeros aside) are overwritten
    with their encoded ``repr``.
    """
    day = b"%d" % t
    cells = orjson.dumps(values.tolist())[1:-1].split(b",")
    magnitude = np.abs(values)
    for i in np.flatnonzero(~((magnitude >= 1e-4) & (magnitude < 1e16)) & (values != 0)):
        cells[i] = repr(float(values[i])).encode()
    pieces[1::3] = cells
    pieces[2::3] = [b"\r\n" + day] * len(cells)
    pieces[-1] = b"\r\n"
    return day + b"".join(pieces)


def _write_states_csv(out: Path, name: str, states, grid) -> tuple[float, ...]:
    """Write ``<name>.csv`` (one row per node per day) and ``totals.csv``.

    Writes the bytes ``csv.writer`` would (``repr`` cells, ``\\r\\n`` line
    ends) to a binary file, one :func:`_states_day` per day.  ``states`` is
    read once, taking each day's total population as the day is written,
    so the lazy streams that ``simulate`` and ``attractor`` pass have one
    streamed day held at a time.  Returns the total population of each day.
    """
    out.mkdir(parents=True, exist_ok=True)
    nodes = grid.nodes.tolist()
    pieces = [b""] * (3 * len(nodes))
    pieces[0::3] = [f",{i},{x!r},".encode() for i, x in enumerate(nodes)]
    totals = []
    with open(out / f"{name}.csv", "wb") as fh:
        fh.write(b"t,node,x,value\r\n")
        for t, s in enumerate(states):
            # the day's cells are freed before its total is taken: taking it
            # while they were held raised the peak RSS of `idepull compare`
            fh.write(_states_day(t, s.values, pieces))
            totals.append(total_population(s))
    _write_csv(out / "totals.csv", ("t", "total_population"), enumerate(totals))
    return tuple(totals)


def _budget(op, u0, cfg: ScenarioConfig, factor: float) -> ErrorBudget:
    """The iteration budget under the configured distance bound mode."""
    try:
        bound = apriori_distance_bound(op, u0, cfg.distance_bound_mode)
    except BoundFormulaOutOfRangeError as exc:
        raise ConfigError(
            f"config.distance_bound: {exc}; use distance_bound: trajectory"
        ) from exc
    return required_iterations(factor, bound, cfg.tolerance, op.theta)


def run_attractor(cfg: ScenarioConfig, out_dir) -> RunReport:
    """Certified pullback run; writes fibers.csv, totals.csv, report.csv."""
    started = time.perf_counter()
    return _attractor_on(build_operator(cfg), cfg, out_dir, started)


def _attractor_on(op, cfg: ScenarioConfig, out_dir, started: float) -> RunReport:
    """``run_attractor`` on the assembled operator ``op`` of ``cfg``.

    ``fibers.csv`` holds days 0..horizon: the theta fibers, then the orbit
    stepped on from the last fiber at time theta - 1, one lazy step per
    day past the period, so one continuation state is held at a time.
    ``started`` is the ``time.perf_counter()`` that ``wall_time_s`` counts from.
    """
    out = Path(out_dir)
    grid = op.grid
    u0 = initial_condition(cfg.initial_id, cfg.initial_params, grid)

    certificate = certify_contraction(step_constants_closed_form(op))
    source = "closed-form" if op.masses_closed_form else "numeric"
    numeric_factor = certify_contraction(step_constants_numeric(op)).factor
    if not certificate.valid:
        raise NoContractionError(
            f"window contraction factor {certificate.factor} is not below 1"
        )
    budget = _budget(op, u0, cfg, certificate.factor)
    fibers = pullback_fibers(op, certificate, budget, u0, cfg.max_steps)

    continuation = islice(orbit(op, op.theta - 1, fibers.fibers[-1]), 1, None)
    states = islice(chain(fibers.fibers, continuation), cfg.horizon + 1)
    _write_states_csv(out, "fibers", states, grid)
    totals = tuple(map(total_population, fibers.fibers))
    sups = tuple(sup_norm(f) for f in fibers.fibers)
    report = RunReport(
        variant=cfg.variant or "custom",
        length=cfg.length,
        nodes=grid.n,
        theta=op.theta,
        tolerance=cfg.tolerance,
        rule=cfg.rule,
        window=op.theta,
        contraction_factor=certificate.factor,
        contraction_factor_numeric=numeric_factor,
        distance_bound=budget.distance_bound,
        distance_bound_mode=cfg.distance_bound_mode,
        windows=budget.windows,
        total_steps=budget.total_steps,
        steps_used=fibers.steps_used,
        certified_error=fibers.certified_error,
        lipschitz_source=source,
        mean_total_population=float(np.mean(totals)),
        sup_norm_min=min(sups),
        sup_norm_max=max(sups),
        wall_time_s=time.perf_counter() - started,
        fiber_totals=totals,
        fiber_sup_norms=sups,
    )
    rows = ((field.name, getattr(report, field.name)) for field in fields(report))
    _write_report_csv(
        out / "report.csv", "attractor", [(k, v) for k, v in rows if not isinstance(v, tuple)]
    )
    return report


def run_simulation(cfg: ScenarioConfig, out_dir) -> tuple[float, ...]:
    """Plain forward orbit from the configured initial state over the horizon;
    writes trajectory.csv and totals.csv and returns the total of each day."""
    out = Path(out_dir)
    op = build_operator(cfg)
    u0 = initial_condition(cfg.initial_id, cfg.initial_params, op.grid)
    states = islice(orbit(op, 0, u0), cfg.horizon + 1)
    return _write_states_csv(out, "trajectory", states, op.grid)


@dataclass(frozen=True)
class ComparisonReport:
    variants: tuple[str, ...]
    means: tuple[float, ...]
    best: str
    reports: dict


def compare_inhomogeneities(cfg: ScenarioConfig, out_dir) -> ComparisonReport:
    """Run all four seasonal support placements and rank their means.

    Per-variant artifacts land in subdirectories h1/..h4/ of ``out_dir``,
    each as ``run_attractor`` writes it for that variant; the ranking table
    is written to comparison.csv.  The variants differ only in the forcing,
    so the kernel matrices are assembled once, in the first run, and each
    later run swaps its forcing into that operator.  A config with
    ``inhomogeneity.amplitudes`` has no placement to vary, so it is refused
    before any run.
    """
    if cfg.amplitudes is not None:
        raise ConfigError("config.inhomogeneity.amplitudes: compare ranks the variants "
                          "h1..h4, so it needs 'variant', not 'amplitudes'")
    out = Path(out_dir)
    variants = tuple(sorted(SEASON_PATTERNS))
    reports, op = {}, None
    for v in variants:
        started = time.perf_counter()
        run_cfg = replace(cfg, variant=v)
        if op is None:
            op = build_operator(run_cfg)
        else:
            op = op.with_inhomogeneity(build_inhomogeneity(run_cfg))
        reports[v] = _attractor_on(op, run_cfg, out / v, started)

    means = tuple(reports[v].mean_total_population for v in variants)
    best = variants[int(np.argmax(means))]
    _write_csv(
        out / "comparison.csv",
        ("variant", "mean_total_population", "certified_error", "total_steps", "best"),
        [
            (v, reports[v].mean_total_population, reports[v].certified_error,
             reports[v].total_steps, "true" if v == best else "false")
            for v in variants
        ],
    )
    return ComparisonReport(variants, means, best, reports)


def lipschitz_report(
    cfg: ScenarioConfig, out_dir
) -> tuple[ContractionCertificate, ErrorBudget | None]:
    """Closed-form versus quadrature step constants in lipschitz.csv; returns the
    closed-form certificate and its budget, ``None`` for an invalid certificate."""
    out = Path(out_dir)
    op = build_operator(cfg)
    u0 = initial_condition(cfg.initial_id, cfg.initial_params, op.grid)

    closed = step_constants_closed_form(op)
    certificate = certify_contraction(closed)
    rows = zip(range(op.theta), map(op.growth.beta, range(op.theta)), op.kernel_masses,
               op.row_sum_masses, closed, step_constants_numeric(op))
    _write_csv(
        out / "lipschitz.csv",
        ("time_class", "beta", "kernel_bound_closed", "kernel_bound_numeric",
         "lipschitz_closed", "lipschitz_numeric"),
        rows,
    )

    return certificate, _budget(op, u0, cfg, certificate.factor) if certificate.valid else None


def run_convergence(cfg: ScenarioConfig, out_dir) -> list[dict]:
    """Self-convergence study: rerun the attractor at n and 2n nodes."""
    out = Path(out_dir)
    levels = (cfg.nodes, 2 * cfg.nodes)
    reports = [run_attractor(replace(cfg, nodes=n), out / f"n{n}") for n in levels]
    means = [rep.mean_total_population for rep in reports]
    rows = [
        {"nodes": n, "mean_total_population": mean, "certified_error": rep.certified_error,
         "delta_vs_previous": abs(mean - means[i - 1]) if i else 0.0}
        for i, (n, rep, mean) in enumerate(zip(levels, reports, means))
    ]
    _write_csv(out / "convergence.csv", rows[0].keys(), (r.values() for r in rows))
    return rows


def run_semilinear(
    cfg: ScenarioConfig, out_dir
) -> tuple[tuple[np.ndarray, ...], PullbackReport]:
    """Pullback fibers of the system ``build_semilinear_system`` assembles;
    writes fibers.csv and report.csv and returns ``pullback_limit``'s
    fibers and report."""
    system = build_semilinear_system(cfg)
    sc = cfg.semilinear
    out = Path(out_dir)
    u0 = np.asarray(sc.initial, dtype=float) if sc.initial is not None else None
    # an overflow is refused as the divergence it leads to, so numpy stays quiet
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            fibers, report = pullback_limit(system, sc.tolerance, u0)
    except DivergentInputError as exc:
        raise ConfigError(f"config.semilinear: {exc}") from exc

    _write_csv(
        out / "fibers.csv",
        ("t", "component", "value"),
        ((t, i, v) for t, fib in enumerate(fibers) for i, v in enumerate(fib.tolist())),
    )
    _write_report_csv(
        out / "report.csv",
        "semilinear",
        [
            ("dimension", sc.dimension),
            ("theta", system.theta),
            ("contraction_factor", report.factor),
            ("periods", report.periods),
            ("last_update", report.last_update),
            ("tail_bound", report.tail_bound),
            ("estimated", ";".join(sorted(system.estimated)) or "none"),
        ],
    )
    return fibers, report
