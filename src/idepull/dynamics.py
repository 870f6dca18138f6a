"""Collocated right-hand sides and time stepping.

The Hammerstein step replaces the dispersal integral by the quadrature sum
and collocates at the nodes, so one step is a dense matrix-vector product
against a kernel matrix cached per distinct rate value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import GridMismatchError, TimeOrderError
from .grid import Grid, GridFunction
from .models import (
    GrowthSpec,
    InhomogeneitySpec,
    KernelSpec,
    growth_curve,
    inhomogeneity_eval,
    kernel_eval,
)

__all__ = [
    "HammersteinOperator",
    "PointwiseOperator",
    "TrajectorySegment",
    "build_hammerstein",
    "build_pointwise",
    "general_solution",
    "trajectory",
    "replay_matches",
]

DEFAULT_MATRIX_BUDGET_BYTES = 8 * 1024**3


def _lcm(values) -> int:
    out = 1
    for v in values:
        out = math.lcm(out, v)
    return out


@dataclass(frozen=True, eq=False)
class HammersteinOperator:
    """Nystrom-collocated dispersal-growth step with seasonal support.

    One application computes K_t @ g_t(u) + h_t at the nodes, where K_t is
    the weighted kernel matrix of the time class t mod theta.  Matrices,
    forcing vectors, and the growth profile samples are precomputed; the
    operator is immutable and safe to share between workers.
    """

    kernel: KernelSpec
    growth: GrowthSpec
    inhomogeneity: InhomogeneitySpec
    grid: Grid
    theta: int
    matrices: tuple[np.ndarray, ...]
    matrix_index: tuple[int, ...]
    forcing: tuple[np.ndarray, ...]
    profile_values: np.ndarray

    def step(self, t: int, u: GridFunction) -> GridFunction:
        if u.grid != self.grid:
            raise GridMismatchError("state lives on a different grid")
        r = t % self.theta
        b = self.growth.scale_at(r) * self.profile_values
        g = growth_curve(self.growth.family, b, u.values)
        return GridFunction(self.grid, self.matrices[self.matrix_index[r]] @ g + self.forcing[r])

    def forcing_sup(self) -> float:
        """Largest node magnitude of the support over one period."""
        return max(float(np.max(np.abs(h))) for h in self.forcing)


def build_hammerstein(
    kernel: KernelSpec,
    growth: GrowthSpec,
    inhomogeneity: InhomogeneitySpec,
    grid: Grid,
    theta: int | None = None,
    matrix_budget_bytes: int = DEFAULT_MATRIX_BUDGET_BYTES,
) -> HammersteinOperator:
    """Assemble the collocated operator, caching one matrix per distinct rate.

    ``theta`` defaults to the least common multiple of the component
    periods; an explicit value must be a common multiple of them.
    """
    periods = (kernel.period, growth.period, inhomogeneity.theta)
    if theta is None:
        theta = _lcm(periods)
    for p in periods:
        if theta % p != 0:
            raise ValueError(
                f"period {theta} is not a common multiple of component periods {periods}"
            )

    distinct: dict[float, int] = {}
    index = []
    for r in range(theta):
        a = kernel.rate_at(r)
        if a not in distinct:
            distinct[a] = len(distinct)
        index.append(distinct[a])

    bytes_needed = len(distinct) * (grid.n + 1) ** 2 * 8
    if bytes_needed > matrix_budget_bytes:
        warnings.warn(
            f"kernel matrix cache needs {bytes_needed / 1024**3:.2f} GiB, above the "
            f"configured budget of {matrix_budget_bytes / 1024**3:.2f} GiB",
            ResourceWarning,
            stacklevel=2,
        )

    x = grid.nodes[:, None]
    y = grid.nodes[None, :]
    matrices = []
    for a, _ in sorted(distinct.items(), key=lambda kv: kv[1]):
        r = next(s for s in range(theta) if kernel.rate_at(s) == a)
        mat = kernel_eval(kernel, r, x, y)
        mat *= grid.weights
        mat.setflags(write=False)
        matrices.append(mat)

    forcing = []
    for r in range(theta):
        h = np.asarray(inhomogeneity_eval(inhomogeneity, r, grid.nodes, grid.length), dtype=float)
        h.setflags(write=False)
        forcing.append(h)

    profile_values = np.asarray(growth.profile(grid.nodes), dtype=float)
    if np.min(profile_values) < 0:
        raise ValueError("growth profile must be nonnegative on the habitat")
    profile_values.setflags(write=False)

    return HammersteinOperator(
        kernel=kernel,
        growth=growth,
        inhomogeneity=inhomogeneity,
        grid=grid,
        theta=int(theta),
        matrices=tuple(matrices),
        matrix_index=tuple(index),
        forcing=tuple(forcing),
        profile_values=profile_values,
    )


@dataclass(frozen=True, eq=False)
class PointwiseOperator:
    """Saturating pointwise step u(x) -> b_t(x) u(x) / (1 + |u(x)|).

    Contractive with per-step constant sup_x b_t(x) although not compact;
    no support term enters.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    scales: tuple[float, ...]
    grid: Grid
    profile_values: np.ndarray

    @property
    def theta(self) -> int:
        return len(self.scales)

    def sup_rate(self, t: int) -> float:
        """Node-max of b_t, the contraction constant of the step."""
        return self.scales[t % len(self.scales)] * float(np.max(np.abs(self.profile_values)))

    def step(self, t: int, u: GridFunction) -> GridFunction:
        if u.grid != self.grid:
            raise GridMismatchError("state lives on a different grid")
        b = self.scales[t % len(self.scales)] * self.profile_values
        return GridFunction(self.grid, b * u.values / (1.0 + np.abs(u.values)))


def build_pointwise(
    profile: Callable[[np.ndarray], np.ndarray], scales, grid: Grid
) -> PointwiseOperator:
    if np.isscalar(scales):
        scales = (float(scales),)
    else:
        scales = tuple(float(s) for s in scales)
    values = np.asarray(profile(grid.nodes), dtype=float)
    if np.min(values) < 0:
        raise ValueError("pointwise profile must be nonnegative")
    values.setflags(write=False)
    return PointwiseOperator(profile, scales, grid, values)


def general_solution(op, t: int, tau: int, u: GridFunction) -> GridFunction:
    """State at time ``t`` of the solution through ``(tau, u)``.

    Identity when t == tau, otherwise the stepwise composition of the
    steps at tau, ..., t-1 (so the process property holds bit for bit).
    """
    if t < tau:
        raise TimeOrderError(f"target time {t} precedes initial time {tau}")
    state = u
    for s in range(tau, t):
        state = op.step(s, state)
    return state


@dataclass(frozen=True, eq=False)
class TrajectorySegment:
    """Forward solution states u_tau, ..., u_{tau+steps}."""

    start: int
    states: tuple[GridFunction, ...]

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    def state_at(self, t: int) -> GridFunction:
        if not self.start <= t <= self.start + self.steps:
            raise IndexError(f"time {t} outside segment [{self.start}, {self.start + self.steps}]")
        return self.states[t - self.start]


def trajectory(op, tau: int, steps: int, u0: GridFunction) -> TrajectorySegment:
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    states = [u0]
    state = u0
    for s in range(tau, tau + steps):
        state = op.step(s, state)
        states.append(state)
    return TrajectorySegment(tau, tuple(states))


def replay_matches(op, segment: TrajectorySegment) -> bool:
    """Exact determinism check: recomputing each step reproduces the segment."""
    for offset in range(segment.steps):
        recomputed = op.step(segment.start + offset, segment.states[offset])
        if not np.array_equal(recomputed.values, segment.states[offset + 1].values):
            return False
    return True
