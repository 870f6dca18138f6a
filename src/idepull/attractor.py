"""Contraction certification and certified pullback computation of fibers.

The chain is: per-step Lipschitz constants -> period contraction factor
(:func:`certify_contraction`) -> a-priori distance bound
(:func:`apriori_distance_bound`) -> iteration budget
(:func:`required_iterations`) -> pullback sweep (:func:`pullback_fibers`).
The window is the period theta: the log-products of the theta cyclic
windows of any length w average w/theta times the period's, so no window
contracts where the period does not.  Every fiber artifact carries the
certified error

    factor^windows / (1 - factor) * distance_bound

valid uniformly over all times, which is the quantity the budget drives
below the requested tolerance.

The sweep compares every day's state with the state one period earlier
and stops at the first repeat.  A step depends on time only through
t mod theta and is deterministic, so once u(t) equals u(t - theta) bit for
bit, u(s + theta) equals u(s) for every s >= t - theta: the last theta
states are the full budgeted sweep's fibers, byte for byte, class for
class.  On the shipped config at n = 1000 the first repeat comes at t =
theta + 47 (h3, h4) or theta + 61 (h1, h2), so the sweep takes 412 or 426
of its 8 760 budgeted steps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Sequence

import numpy as np

from .exceptions import (
    BudgetExceededError,
    DivergentInputError,
    GridMismatchError,
    NoContractionError,
)
from .grid import GridFunction, sup_norm
from .models import growth_lipschitz, growth_sup_bound
from .dynamics import HammersteinOperator, orbit

__all__ = [
    "ContractionCertificate",
    "ErrorBudget",
    "AttractorFibers",
    "IterateContractionProblem",
    "certify_contraction",
    "step_constants_closed_form",
    "step_constants_numeric",
    "apriori_distance_bound",
    "required_iterations",
    "pullback_fibers",
    "fixed_point_iterate",
]

DEFAULT_MAX_STEPS = 10_000_000
DISTANCE_BOUND_MODES = ("upper-bound", "trajectory")


@dataclass(frozen=True)
class ContractionCertificate:
    """Period contraction factor for one period of per-step constants.

    ``factor`` is the largest product of theta cyclically consecutive step
    constants (over all starts); the certificate is usable only when it is
    below one.
    """

    factor: float

    @property
    def valid(self) -> bool:
        return self.factor < 1.0


def certify_contraction(step_constants: Sequence[float]) -> ContractionCertificate:
    """Compute the worst period product of per-step Lipschitz constants.

    The sequence is one period of a periodic schedule, so the window is its
    length.  Every cyclic start is examined, because the rotations multiply
    left to right from 1 and round differently.  A factor >= 1 yields an
    invalid certificate, not an exception.
    """
    lams = tuple(float(v) for v in step_constants)
    if not lams:
        raise ValueError("step constants must not be empty")
    if any(not math.isfinite(v) or v < 0 for v in lams):
        raise ValueError("step constants must be finite and >= 0")

    theta = len(lams)
    cycled = lams * 2
    # the leading 0.0 makes constants of -0.0 give the factor +0.0
    factor = max(0.0, *(math.prod(cycled[tau:tau + theta]) for tau in range(theta)))
    return ContractionCertificate(factor)


def step_constants_closed_form(op: HammersteinOperator) -> tuple[float, ...]:
    """Closed-form per-step Lipschitz constants over one period.

    The growth Lipschitz constant times the certified kernel mass
    ``op.kernel_masses``, which is the row-sum mass of the discretized
    operator for time classes where the closed form is out of range.
    """
    return tuple(growth_lipschitz(op.growth, r) * m for r, m in enumerate(op.kernel_masses))


def step_constants_numeric(op: HammersteinOperator) -> tuple[float, ...]:
    """Per-step Lipschitz constants of the discretized operator itself.

    The growth Lipschitz constant times ``op.row_sum_masses``, so no kernel
    re-evaluation is needed.  A pair table's mass comes from the first
    matrix it gathered; read before a table has been applied, it gathers
    that table's matrix once.
    """
    return tuple(growth_lipschitz(op.growth, r) * m for r, m in enumerate(op.row_sum_masses))


def apriori_distance_bound(
    op: HammersteinOperator,
    u0: GridFunction,
    mode: str = "upper-bound",
) -> float:
    """Bound on sup_s ||u0 - phi(s, s-theta, u0)|| entering the budget.

    Both modes return ||u0|| + sup_s l1(s-1) + sup_t ||h_t|| where l1 is the
    kernel mass bound times a bound on the growth output:

    - ``"upper-bound"``: the state-independent growth sup bound; cheap and
      matches the budget arithmetic of the seasonal example scenario.
      Ricker growth with a profile node value of 0 has no such bound and
      raises ``BoundFormulaOutOfRangeError``.
    - ``"trajectory"``: the growth output actually reached by flowing u0
      over one period, evaluated for every start in one period; sharper.
      Start s flows from time s - theta to s - 1, so at each time t every
      live start is at t: the theta starts are the columns of one array,
      start t + theta joins with u0 at t < 0, start t + 1 is read at t,
      and the later live starts take one ``step_block`` per time.  Each
      of the 2 theta - 1 times has one matrix whatever the rate
      schedule, so the column steps go through GEMMs, not single steps.
      At worst (no starts merge) a call is theta - 1 columns wide, and
      its growth output and product are (n+1) x (theta - 1) arrays
      beside the (n+1) x theta block: three arrays of about 0.6 MB at
      n = 200 and theta = 365, or 2.9 MB at n = 1000.

      Under contraction the starts meet: after a few dozen steps two
      neighbouring columns hold the same bits, and from then on they
      take the same steps.  An index ``lead`` marks the merged run: the
      live columns from start t + 1 up to ``lead`` equal column ``lead``,
      so only columns ``lead`` onwards are stepped, and the retiring
      start is read from column ``lead``.  After each step ``lead``
      advances while its column and the next have equal ``tobytes()``.
      A step depends only on t mod theta and the state, and all live
      columns are at the same t, so merged columns stay equal, as the
      sweep's stop rule assumes of a repeated state.  Bytes, not values,
      are compared so that ``0.0`` and ``-0.0`` never merge.  Merging
      narrows the block, and GEMMs of other widths may round otherwise,
      so the bound is the unmerged one up to rounding.  On the
      shipped config at n = 200 this cuts the theta * (theta - 1) =
      132 860 column steps to under 18 000.

    The supremum over all integer times collapses to one period by
    periodicity.  In either mode a ``u0`` on another grid than ``op``'s
    raises ``GridMismatchError``.
    """
    if u0.grid != op.grid:
        raise GridMismatchError("state lives on a different grid")
    forcing_sup = op.forcing_sup()
    theta = op.theta
    masses = op.kernel_masses

    if mode == "upper-bound":
        profile_min = float(np.min(op.profile_values))
        l1 = max(masses[r] * growth_sup_bound(op.growth, r, profile_min) for r in range(theta))
    elif mode == "trajectory":
        # column s holds start s, which is at time t for s - theta <= t <= s - 1;
        # the live columns [t + 1, lead) equal column lead and are not stepped
        block = np.empty((op.grid.n + 1, theta))
        l1 = 0.0
        lead = 0
        for t in range(-theta, theta - 1):
            if t < 0:
                block[:, t + theta] = u0.values
            if t >= -1:
                g_sup = float(np.max(np.abs(op.growth_output(t, block[:, lead]))))
                l1 = max(l1, masses[t % theta] * g_sup)
            lead = max(lead, t + 2)
            live_end = min(theta, t + theta + 1)
            if lead < live_end:
                block[:, lead:live_end] = op.step_block(t, block[:, lead:live_end])
            while lead + 1 < live_end and block[:, lead].tobytes() == block[:, lead + 1].tobytes():
                lead += 1
    else:
        raise ValueError(f"unknown distance bound mode {mode!r}")

    return sup_norm(u0) + l1 + forcing_sup


@dataclass(frozen=True)
class ErrorBudget:
    """Iteration budget meeting a tolerance under a window contraction.

    ``windows`` is the least t whose certified error factor**t / (1 -
    factor) * distance_bound, as :func:`_apriori_error` states it, is at
    most tol; ``total_steps`` is window * windows.
    """

    distance_bound: float
    window: int
    windows: int

    @property
    def total_steps(self) -> int:
        return self.window * self.windows


def _require_count(value, name: str) -> None:
    """Refuse ``value`` unless it is an int or numpy integer (not a bool) of at least 1."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _require_contraction(factor: float, tol: float | None = None) -> None:
    """Refuse a factor outside [0, 1) and, when given, a tolerance outside (0, inf)."""
    if not 0.0 <= factor:
        raise ValueError(f"contraction factor must be >= 0, got {factor}")
    if factor >= 1.0:
        raise NoContractionError(f"contraction factor {factor} is not below 1")
    if tol is not None and not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


# Relative slack on each log term of an underflowed a-priori error: about
# 2 000 times the few-ulp rounding of log, log1p, the product and the sum.
_LOG_SLACK = 2.0**-40


def _apriori_error(factor: float, windows: int, distance_bound: float) -> float:
    """The certified error factor^windows / (1 - factor) * distance_bound.

    Where ``factor**windows`` and the product are normal floats (or factor
    or bound is 0) it is that product, evaluated left to right.  Where
    either underflows below ``sys.float_info.min``, the product can fall
    below the exact error, to 0 at worst; there it is
    exp(windows log(factor) - log1p(-factor) + log(distance_bound)), its
    exponent raised by ``_LOG_SLACK`` times the size of its three terms,
    then one float up: never 0 and never below the exact error.  That
    raise, about a relative 1e-9, can make the log form exceed the product
    one window earlier where the factor is within about 1e-9 of 1; there
    the count :func:`required_iterations` finds meets ``tol`` while its
    predecessor does not, but need not be the least.
    """
    power = factor**windows
    error = power / (1.0 - factor) * distance_bound
    if factor > 0.0 and distance_bound > 0.0 and min(power, error) < sys.float_info.min:
        logs = (windows * math.log(factor), -math.log1p(-factor), math.log(distance_bound))
        exponent = math.fsum(logs) + _LOG_SLACK * sum(map(abs, logs))
        return math.nextafter(math.exp(exponent), math.inf)
    return error


def required_iterations(
    factor: float, distance_bound: float, tol: float, window: int
) -> ErrorBudget:
    """Least window count t whose certified error, as :func:`pullback_fibers`
    prints it, is at most ``tol``: doubles t from 0 to a count that meets
    ``tol``, then bisects until t meets it and t - 1 does not.  ``window``
    is an int or numpy integer (not a bool) of at least 1."""
    _require_contraction(factor, tol)
    if distance_bound < 0 or not math.isfinite(distance_bound):
        raise ValueError(f"distance bound must be finite and >= 0, got {distance_bound}")
    _require_count(window, "window")

    def met(t: int) -> bool:
        return _apriori_error(factor, t, distance_bound) <= tol

    miss, hit = -1, 0  # met(-1) is never asked
    while not met(hit):
        miss, hit = hit, 2 * hit + 1
    while hit - miss > 1:
        mid = (miss + hit) // 2
        miss, hit = (miss, mid) if met(mid) else (mid, hit)
    return ErrorBudget(float(distance_bound), int(window), hit)


@dataclass(frozen=True, eq=False)
class AttractorFibers:
    """Periodic attractor fibers with their certified sup-norm error.

    ``steps_used`` counts the steps the sweep took: the first t >= theta
    whose state u(t) equals u(t - theta) bit for bit, otherwise the
    budget's ``total_steps + theta - 1``.
    """

    theta: int
    fibers: tuple[GridFunction, ...]
    certified_error: float
    steps_used: int

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
    certified error factor**windows / (1 - factor) * distance_bound, the
    number :func:`required_iterations` compared with the tolerance.
    The budget must have the period as window.

    The sweep steps through :func:`~idepull.dynamics.orbit` and keeps a
    ring of the last theta states, slot t mod theta for time t.  It stops
    at the first t >= theta whose state equals ``ring[t % theta]``, the
    state at t - theta, by ``tobytes()``; from there the orbit is periodic
    (see the module notes), so the ring holds the fibers in class order
    and ``steps_used`` is t.  The bytes are compared, not the values, so a
    0.0 that became -0.0 does not stop the sweep.  Without a repeat the
    sweep ends after total_steps + theta - 1 steps with the last period in
    the ring.  The ``max_steps`` guard reads that full count.
    """
    _require_contraction(certificate.factor)
    theta = op.theta
    if budget.window != theta:
        raise ValueError(f"budget window {budget.window} must be the period {theta}")
    total = budget.total_steps + theta - 1
    if total > max_steps:
        raise BudgetExceededError(
            f"certified sweep needs {total} steps, above the budget of {max_steps}"
        )

    # ring[t % theta] holds u(t - theta) until u(t) replaces it
    ring: list[GridFunction] = [u0] * theta
    steps = total
    for t, state in enumerate(islice(orbit(op, 0, u0), total + 1)):
        if t >= theta and state.values.tobytes() == ring[t % theta].values.tobytes():
            steps = t
            break
        ring[t % theta] = state

    certified = _apriori_error(certificate.factor, budget.windows, budget.distance_bound)
    return AttractorFibers(theta, tuple(ring), certified, steps)


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

    Runs windows x_k = F^order(x_{k-1}) of ``order`` steps and stops at the
    first k with factor / (1 - factor) * d(x_k, x_{k-1}) <= tol, and never
    after the a-priori count ``required_iterations(factor, d(x0, x1), tol,
    order).windows``.  Returns x_k and the smaller of that a-posteriori
    bound and the a-priori error factor**k / (1 - factor) * d(x0, x1),
    which the budget compared with ``tol``; with no window to run (k = 0)
    it returns x0 and that a-priori error alone.  ``problem.order`` is an
    int or numpy integer (not a bool) of at least 1.
    """
    _require_count(problem.order, "iterate order")
    _require_contraction(problem.factor, tol)

    def advance(state):
        for _ in range(problem.order):
            state = problem.step(state)
        return state

    first = advance(x0)
    d0 = float(problem.distance(x0, first))
    if not math.isfinite(d0):
        raise DivergentInputError(f"distance after one window is {d0}")

    budget = required_iterations(problem.factor, d0, tol, problem.order)
    if budget.windows == 0:
        return x0, _apriori_error(problem.factor, 0, d0)
    tail = problem.factor / (1.0 - problem.factor)
    state, update, k = first, d0, 1
    while k < budget.windows and tail * update > tol:
        previous, state = state, advance(state)
        update = float(problem.distance(previous, state))
        if not math.isfinite(update):
            raise DivergentInputError(f"distance after window {k + 1} is {update}")
        k += 1
    return state, min(tail * update, _apriori_error(problem.factor, k, d0))
