"""Reference functions that only the tests call.

Each one is independent of the run pipeline: a one-sided Hausdorff distance
between finite sets of grid functions, the growth stage evaluated from its
spec, the forward attraction rate of a finite start set, the semilinear
transition matrix as a plain matrix product, readers of the report and
totals CSV files, and the fenced code blocks of README.md.
``tests/test_exports.py`` keeps in the package only the public names and
members that some caller outside the tests needs.
"""

from __future__ import annotations

import re
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np

from idepull.attractor import AttractorFibers
from idepull.dynamics import orbit
from idepull.exceptions import TimeOrderError
from idepull.grid import GridFunction, sup_distance
from idepull.models import GrowthSpec, growth_curve
from idepull.reporting import read_csv_rows
from idepull.semilinear import SemilinearSystem


def hausdorff_semidistance(
    first: Sequence[GridFunction], second: Sequence[GridFunction]
) -> float:
    """One-sided Hausdorff distance between two finite sets of functions.

    Returns ``max over a in first of min over b in second`` of their
    sup-distance; zero whenever ``first`` is contained in ``second``.
    """
    if not first or not second:
        raise ValueError("hausdorff semidistance needs nonempty sets")
    return max(min(sup_distance(a, b) for b in second) for a in first)


def growth_eval(spec: GrowthSpec, t: int, x, z):
    """Evaluate g_t(x, z) = growth_curve(scale_t * profile(x), z)."""
    b = spec.scale_at(t) * np.asarray(spec.profile(np.asarray(x, dtype=float)), dtype=float)
    return growth_curve(spec.family, b, z)


def attraction_rate(
    op,
    fibers: AttractorFibers,
    starts: Sequence[GridFunction],
    tau: int,
    horizon: int,
) -> np.ndarray:
    """Distances from an evolving bounded set to the fibers.

    Entry j is the Hausdorff semidistance of the set flowed from time
    ``tau`` to ``tau + j`` to the single fiber at that time, for
    j = 0, ..., horizon.  Each start flows through its own
    :func:`~idepull.dynamics.orbit`, which makes ``horizon`` steps.
    """
    if not starts:
        raise ValueError("attraction_rate needs a nonempty start set")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    sets = islice(zip(*(orbit(op, tau, s) for s in starts)), horizon + 1)
    return np.array([hausdorff_semidistance(states, [fibers.fiber(tau + j)])
                     for j, states in enumerate(sets)])


def transition(sys: SemilinearSystem, t: int, tau: int) -> np.ndarray:
    """Transition matrix L_{t-1} ... L_tau, the identity when t == tau."""
    if t < tau:
        raise TimeOrderError(f"target time {t} precedes initial time {tau}")
    phi = np.eye(sys.dim)
    for s in range(tau, t):
        phi = sys.matrices[s % sys.theta] @ phi
    return phi


def read_report_csv(path) -> dict[str, str]:
    _, rows = read_csv_rows(path)
    return {key: value for key, value in rows}


def read_totals_csv(path) -> tuple[np.ndarray, np.ndarray]:
    _, rows = read_csv_rows(path)
    t = np.array([int(r[0]) for r in rows])
    totals = np.array([float(r[1]) for r in rows])
    return t, totals


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(lang: str) -> str:
    """The one ```lang fenced block of README.md."""
    (block,) = re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                          flags=re.M | re.S)
    return block
