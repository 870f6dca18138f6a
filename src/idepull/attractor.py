"""Contraction certification and certified pullback computation of fibers.

The chain is: per-step Lipschitz constants -> window contraction factor
(:func:`certify_contraction`) -> a-priori distance bound
(:func:`apriori_distance_bound`) -> iteration budget
(:func:`required_iterations`) -> pullback sweep (:func:`pullback_fibers`).
Every fiber artifact carries the certified error

    factor^windows / (1 - factor) * distance_bound

valid uniformly over all times, which is the quantity the budget drives
below the requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .exceptions import (
    BoundFormulaOutOfRangeError,
    BudgetExceededError,
    DivergentInputError,
    NoContractionError,
)
from .grid import GridFunction, sup_distance, sup_norm
from .models import growth_curve, growth_sup_bound, kernel_bound, kernel_bound_numeric
from .dynamics import HammersteinOperator, general_solution, trajectory

__all__ = [
    "ContractionCertificate",
    "ErrorBudget",
    "AttractorFibers",
    "IterateContractionProblem",
    "certify_contraction",
    "closed_form_fully_in_range",
    "step_constants_closed_form",
    "step_constants_numeric",
    "apriori_distance_bound",
    "required_iterations",
    "pullback_fibers",
    "attraction_rate",
    "fixed_point_iterate",
]

DEFAULT_MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class ContractionCertificate:
    """Window contraction factor for a sequence of per-step constants.

    ``factor`` is the largest product of ``window`` consecutive step
    constants (over all window starts); the certificate is usable only
    when it is below one.
    """

    window: int
    step_constants: tuple[float, ...]
    factor: float
    periodic: bool = True

    @property
    def valid(self) -> bool:
        return self.factor < 1.0


def certify_contraction(
    step_constants: Sequence[float], window: int, periodic: bool = True
) -> ContractionCertificate:
    """Compute the worst window product of per-step Lipschitz constants.

    With ``periodic=True`` the sequence is treated as one period of a
    periodic schedule and every cyclic start is examined; otherwise the
    sequence is a finite window and must be at least ``window`` long.
    A factor >= 1 yields an invalid certificate, not an exception.
    """
    lams = tuple(float(v) for v in step_constants)
    if not lams:
        raise ValueError("step constants must not be empty")
    if any(not math.isfinite(v) or v < 0 for v in lams):
        raise ValueError("step constants must be finite and >= 0")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")

    p = len(lams)
    if periodic:
        starts = range(p)
    else:
        if p < window:
            raise ValueError(f"need at least {window} constants, got {p}")
        starts = range(p - window + 1)

    factor = 0.0
    for tau in starts:
        prod = 1.0
        for r in range(tau, tau + window):
            prod *= lams[r % p] if periodic else lams[r]
        factor = max(factor, prod)
    return ContractionCertificate(int(window), lams, factor, periodic)


def _kernel_bound_or_numeric(op: HammersteinOperator, r: int) -> float:
    try:
        return kernel_bound(op.kernel, r, op.grid.length)
    except BoundFormulaOutOfRangeError:
        return kernel_bound_numeric(op.kernel, r, op.grid)


def step_constants_closed_form(op: HammersteinOperator) -> tuple[float, ...]:
    """Closed-form per-step Lipschitz constants over one period.

    Falls back to the quadrature bound for time classes where the closed
    form is out of range (tent kernels on wide supports).
    """
    return tuple(op.growth.beta(r) * _kernel_bound_or_numeric(op, r) for r in range(op.theta))


def step_constants_numeric(op: HammersteinOperator) -> tuple[float, ...]:
    """Per-step Lipschitz constants of the discretized operator itself.

    Uses the cached weighted kernel matrices: the discrete mass bound is
    the largest absolute row sum, so no kernel re-evaluation is needed.
    """
    mass = [float(np.max(np.sum(np.abs(m), axis=1))) for m in op.matrices]
    return tuple(
        op.growth.beta(r) * mass[op.matrix_index[r]] for r in range(op.theta)
    )


def closed_form_fully_in_range(op: HammersteinOperator) -> bool:
    """Whether the closed-form kernel bound is valid for every time class."""
    for r in range(op.theta):
        try:
            kernel_bound(op.kernel, r, op.grid.length)
        except BoundFormulaOutOfRangeError:
            return False
    return True


def apriori_distance_bound(
    op: HammersteinOperator,
    u0: GridFunction,
    window: int,
    mode: str = "upper-bound",
) -> float:
    """Bound on sup_s ||u0 - phi(s, s-window, u0)|| entering the budget.

    Both modes return ||u0|| + sup_s l1(s-1) + sup_t ||h_t|| where l1 is the
    kernel mass bound times a bound on the growth output:

    - ``"upper-bound"``: the state-independent growth sup bound; cheap and
      matches the budget arithmetic of the seasonal example scenario.
    - ``"trajectory"``: the growth output actually reached by flowing u0
      over one window, evaluated for every start in one period; sharper
      but costs theta * (window - 1) steps.

    The supremum over all integer times collapses to one period by
    periodicity.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    forcing_sup = op.forcing_sup()
    theta = op.theta

    if mode == "upper-bound":
        l1 = max(
            _kernel_bound_or_numeric(op, r) * growth_sup_bound(op.growth, r)
            for r in range(theta)
        )
    elif mode == "trajectory":
        l1 = 0.0
        for s in range(theta):
            state = general_solution(op, s - 1, s - window, u0)
            r = (s - 1) % theta
            b = op.growth.scale_at(r) * op.profile_values
            g_sup = float(np.max(np.abs(growth_curve(op.growth.family, b, state.values))))
            l1 = max(l1, _kernel_bound_or_numeric(op, r) * g_sup)
    else:
        raise ValueError(f"unknown distance bound mode {mode!r}")

    return sup_norm(u0) + l1 + forcing_sup


@dataclass(frozen=True)
class ErrorBudget:
    """Iteration budget meeting a tolerance under a window contraction.

    ``windows`` is the smallest t with factor^t / (1 - factor) *
    distance_bound <= tol; ``total_steps`` is window * windows.
    """

    distance_bound: float
    tol: float
    window: int
    windows: int
    total_steps: int


def required_iterations(
    factor: float, distance_bound: float, tol: float, window: int
) -> ErrorBudget:
    """Smallest window count driving the certified error below ``tol``."""
    if not 0.0 <= factor:
        raise ValueError(f"contraction factor must be >= 0, got {factor}")
    if factor >= 1.0:
        raise NoContractionError(f"contraction factor {factor} is not below 1")
    if distance_bound < 0 or not math.isfinite(distance_bound):
        raise ValueError(f"distance bound must be finite and >= 0, got {distance_bound}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")

    def met(t: int) -> bool:
        return factor**t * distance_bound / (1.0 - factor) <= tol

    if distance_bound == 0.0:
        t = 0
    else:
        if factor == 0.0:
            t = 0 if met(0) else 1
        else:
            guess = (math.log(tol * (1.0 - factor)) - math.log(distance_bound)) / math.log(factor)
            t = max(0, math.ceil(guess) - 2)
            while not met(t):
                t += 1
            while t > 0 and met(t - 1):
                t -= 1
    return ErrorBudget(float(distance_bound), float(tol), int(window), t, int(window) * t)


@dataclass(frozen=True, eq=False)
class AttractorFibers:
    """Periodic attractor fibers with their certified sup-norm error."""

    theta: int
    fibers: tuple[GridFunction, ...]
    certified_error: float
    budget: ErrorBudget

    def fiber(self, t: int) -> GridFunction:
        return self.fibers[t % self.theta]


def pullback_fibers(
    op: HammersteinOperator,
    certificate: ContractionCertificate,
    budget: ErrorBudget,
    u0: GridFunction,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> AttractorFibers:
    """Approximate the periodic fibers by one pullback sweep.

    Starts from ``u0`` at time -total_steps and sweeps forward; the states
    reached at times 0, ..., theta-1 are the fibers.  Each carries the
    certified error factor^windows / (1 - factor) * distance_bound.
    """
    if not certificate.valid:
        raise NoContractionError(
            f"contraction factor {certificate.factor} is not below 1"
        )
    if budget.window != certificate.window:
        raise ValueError(
            f"budget window {budget.window} does not match certificate window {certificate.window}"
        )
    theta = op.theta
    total = budget.total_steps + theta - 1
    if total > max_steps:
        raise BudgetExceededError(
            f"certified sweep needs {total} steps, above the budget of {max_steps}"
        )

    state = general_solution(op, 0, -budget.total_steps, u0)
    fibers = trajectory(op, 0, theta - 1, state).states

    certified = (
        certificate.factor**budget.windows
        / (1.0 - certificate.factor)
        * budget.distance_bound
    )
    return AttractorFibers(theta, fibers, certified, budget)


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
    j = 0, ..., horizon.
    """
    if not starts:
        raise ValueError("attraction_rate needs a nonempty start set")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    states = list(starts)
    out = np.empty(horizon + 1)
    for j in range(horizon + 1):
        t = tau + j
        out[j] = max(sup_distance(s, fibers.fiber(t)) for s in states)
        if j < horizon:
            states = [op.step(t, s) for s in states]
    return out


@dataclass(frozen=True)
class IterateContractionProblem:
    """A self-map whose ``order``-fold iterate contracts with the given factor.

    ``step`` is the map itself; ``distance`` the metric on states.  The
    single-step map need not contract.
    """

    step: Callable[[Any], Any]
    distance: Callable[[Any, Any], float]
    order: int
    factor: float


def fixed_point_iterate(
    problem: IterateContractionProblem, x0: Any, tol: float
) -> tuple[Any, float]:
    """Iterate to the unique fixed point with a certified error bound.

    Runs ``windows`` blocks of ``order`` steps with windows minimal so that
        factor^windows / (1 - factor) * d(x0, F^order(x0)) <= tol,
    returning the final state and that certified bound.
    """
    if problem.order < 1:
        raise ValueError(f"iterate order must be >= 1, got {problem.order}")
    if not 0.0 <= problem.factor:
        raise ValueError(f"contraction factor must be >= 0, got {problem.factor}")
    if problem.factor >= 1.0:
        raise NoContractionError(f"contraction factor {problem.factor} is not below 1")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")

    def advance(state):
        for _ in range(problem.order):
            state = problem.step(state)
        return state

    first = advance(x0)
    d0 = float(problem.distance(x0, first))
    if not math.isfinite(d0):
        raise DivergentInputError(f"distance after one window is {d0}")
    if d0 == 0.0:
        return x0, 0.0

    budget = required_iterations(problem.factor, d0, tol, problem.order)
    if budget.windows == 0:
        return x0, d0 / (1.0 - problem.factor)
    state = first
    for _ in range(budget.windows - 1):
        state = advance(state)
    bound = problem.factor**budget.windows / (1.0 - problem.factor) * d0
    return state, bound
