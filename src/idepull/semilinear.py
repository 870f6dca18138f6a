"""Finite-dimensional semilinear difference equations u' = L_t u + K_t(u).

Constants follow one norm family throughout: vectors carry the max-norm
and matrices its induced operator norm (max absolute row sum).  The
pullback limit is certified through the per-period contraction factor
gamma * prod (alpha_r + gamma * kappa_r) < 1.  The induced norm is
submultiplicative, so ||Phi(t, tau)|| <= prod ||L_r|| and gamma = 1 holds
whenever every alpha_r >= ||L_r||, as the default alphas are; the
products over the windows of one period are formed only when some
declared alpha_r is below its matrix's norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from .attractor import IterateContractionProblem, fixed_point_iterate
from .dynamics import trajectory
from .exceptions import BudgetExceededError, TimeOrderError

__all__ = [
    "SemilinearSystem",
    "PullbackReport",
    "build_semilinear",
    "variation_of_constants",
    "gronwall_bound",
    "contraction_product",
    "pullback_limit",
]

Nonlinearity = Callable[[np.ndarray], np.ndarray]

_SLACK = 1.0 + 1e-9

# random pairs per slot that the declared-kappa check draws
_CHECK_PAIRS = 200

# most periods pullback_limit applies before it raises BudgetExceededError
MAX_PERIODS = 100_000


def _mat_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, ord=np.inf))


def _vec_norm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


@dataclass(frozen=True, eq=False)
class SemilinearSystem:
    """Periodic semilinear system with its estimate constants.

    ``gamma`` and ``alphas`` bound the transition operators via
    ||Phi(t, tau)|| <= gamma * prod alpha_r on windows of at most theta
    steps (t - tau <= theta), so a longer window takes one factor gamma
    per piece of at most theta steps; ``kappas`` are the declared per-slot
    Lipschitz constants of the nonlinearities.
    """

    matrices: tuple[np.ndarray, ...]
    nonlinearities: tuple[Nonlinearity, ...]
    kappas: tuple[float, ...]
    gamma: float
    alphas: tuple[float, ...]
    # no constant is sampled; report.csv's estimated row and perfbench read it (ROADMAP item 18)
    estimated: ClassVar[frozenset[str]] = frozenset()

    @property
    def theta(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    def step(self, t: int, u: np.ndarray) -> np.ndarray:
        r = t % self.theta
        return self.matrices[r] @ u + self.nonlinearities[r](u)


def _norm_pairs(
    k: Nonlinearity, dim: int, rng: np.random.Generator, pairs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of ||k(a) - k(b)|| and ||a - b|| over random pairs (a, b).

    The ``pairs`` states a, then the ``pairs`` states b, are drawn from
    ``rng`` as one block each; ``k`` is called once per state, and its
    value is broadcast to ``dim`` entries, which leaves the norm as it is.
    The differences are formed in place, so the sampler holds three
    blocks of ``pairs`` x ``dim``.  A non-finite ||k(a) - k(b)|| (``k``
    returned NaN or inf, or the difference overflowed) raises
    ``ValueError``.
    """
    u = rng.normal(scale=3.0, size=(pairs, dim))
    v = rng.normal(scale=3.0, size=(pairs, dim))
    diff = np.empty_like(u)
    # an overflow is refused below as a non-finite value, so numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore"):
        for row, a, b in zip(diff, u, v):
            row[...] = k(a)
            row -= k(b)
    num = np.max(np.abs(diff, out=diff), axis=1, initial=0.0)
    if not np.isfinite(num).all():
        raise ValueError("nonlinearity gave a non-finite value on sampled states")
    u -= v
    return num, np.max(np.abs(u, out=u), axis=1, initial=0.0)


def _per_slot(values, theta: int, what: str) -> tuple:
    """``values`` with one entry per period slot; a single entry is broadcast."""
    values = tuple(values)
    if len(values) == 1:
        values *= theta
    if len(values) != theta:
        raise ValueError(f"got {len(values)} {what} for {theta} period slots")
    return values


def build_semilinear(
    matrices: Sequence[np.ndarray],
    nonlinearities: Sequence[Nonlinearity] | Nonlinearity,
    *,
    kappas: Sequence[float],
    gamma: float | None = None,
    alphas: Sequence[float] | None = None,
    rng: np.random.Generator | None = None,
) -> SemilinearSystem:
    """Normalize inputs, fill in missing constants, and check given ones.

    ``kappas`` is required.  Defaults: alpha_r is the row-sum norm of L_r
    and gamma the largest ratio ||Phi(t, tau)|| / prod alpha_r over the
    windows of one period (at least 1).  When every alpha_r >= ||L_r||, as
    the default alphas are, that ratio is at most 1 because the induced
    norm is submultiplicative, so gamma is 1 and no window product is
    formed; the windows are multiplied out only when some alpha_r is below
    its matrix's norm.  Default alphas and gamma are exact.  A declared
    gamma below that ratio, or a declared kappa_r below a difference
    quotient of K_r over random pairs, raises ``ValueError``, as does a
    non-finite matrix entry, declared constant or nonlinearity value.
    """
    mats = tuple(np.array(m, dtype=float) for m in matrices)
    if not mats:
        raise ValueError("need at least one matrix")
    d = mats[0].shape[0]
    for r, m in enumerate(mats):
        if m.shape != (d, d):
            raise ValueError(f"matrices must share shape ({d}, {d}), got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError(f"matrix {r} has a non-finite entry")
        m.setflags(write=False)

    theta = len(mats)
    nls = _per_slot([nonlinearities] if callable(nonlinearities) else nonlinearities,
                    theta, "nonlinearities")

    kappas = _per_slot((float(k) for k in kappas), theta, "kappas")
    if not all(0 <= k < math.inf for k in kappas):
        raise ValueError(f"kappas must be finite and nonnegative, got {kappas}")

    norms = [_mat_norm(m) for m in mats]
    if alphas is None:
        alphas = tuple(max(n, np.finfo(float).tiny) for n in norms)
    alphas = _per_slot((float(a) for a in alphas), theta, "alphas")
    if not all(0 < a < math.inf for a in alphas):
        raise ValueError(f"alphas must be finite and positive, got {alphas}")

    if all(a >= n for a, n in zip(alphas, norms)):
        # ||Phi|| <= prod ||L_r|| <= prod alpha_r on every window
        ratio, window = 1.0, None
    else:
        ratio, window = _worst_transition_ratio(mats, alphas)
    if gamma is None:
        gamma = max(1.0, ratio)
    gamma = float(gamma)
    if not 1.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and >= 1, got {gamma}")
    if ratio > gamma * _SLACK:
        raise ValueError(
            f"transition norm bound violated on window {window}: "
            f"||Phi|| / prod alpha = {ratio} > gamma = {gamma}"
        )

    _check_kappas(nls, kappas, d, np.random.default_rng(0) if rng is None else rng)
    return SemilinearSystem(mats, nls, kappas, gamma, alphas)


def _worst_transition_ratio(mats, alphas) -> tuple[float, tuple[int, int] | None]:
    """Largest ||Phi(s, tau)|| / prod alpha_r over the windows of one period.

    Returns the ratio and the window (tau, s) on which it is reached.  A
    window whose prod alpha underflows to 0, or whose ||Phi|| overflows,
    raises ``ValueError``.
    """
    theta, d = len(mats), mats[0].shape[0]
    worst, window = 0.0, None
    for tau in range(theta):
        phi = np.eye(d)
        prod = 1.0
        for s in range(tau, tau + theta):
            phi = mats[s % theta] @ phi
            prod *= alphas[s % theta]
            norm = _mat_norm(phi)
            if prod == 0.0 or not math.isfinite(norm):
                raise ValueError(
                    f"||Phi|| / prod alpha is out of float range on window {(tau, s + 1)}: "
                    f"||Phi|| = {norm}, prod alpha = {prod}"
                )
            ratio = norm / prod
            if ratio > worst:
                worst, window = ratio, (tau, s + 1)
    return worst, window


def _check_kappas(nls, kappas, d: int, rng: np.random.Generator) -> None:
    for r, k in enumerate(nls):
        lhs, den = _norm_pairs(k, d, rng, _CHECK_PAIRS)
        if np.any(lhs > kappas[r] * den * _SLACK + 1e-15):
            raise ValueError(f"declared kappa {kappas[r]} violated at slot {r}")


def variation_of_constants(sys: SemilinearSystem, t: int, tau: int, u: np.ndarray) -> np.ndarray:
    """Solution via Phi(t,tau) u + sum_s Phi(t, s+1) K_s(phi(s, tau, u)).

    The inner states are the stepwise solution; the transition factors are
    accumulated backward so the assembly is a genuinely different
    computational route than plain iteration (they agree to rounding).
    """
    if t < tau:
        raise TimeOrderError(f"target time {t} precedes initial time {tau}")
    u = np.asarray(u, dtype=float)
    if t == tau:
        return u.copy()

    inner = trajectory(sys, tau, t - 1 - tau, u)

    acc = np.zeros(sys.dim)
    back = np.eye(sys.dim)  # Phi(t, s+1), built from s = t-1 downward
    for s in range(t - 1, tau - 1, -1):
        acc = acc + back @ np.asarray(sys.nonlinearities[s % sys.theta](inner[s - tau]))
        back = back @ sys.matrices[s % sys.theta]
    return back @ u + acc


def gronwall_bound(sys: SemilinearSystem, t: int, tau: int, delta0: float) -> float:
    """Certified separation bound gamma^m * delta0 * prod (alpha_r + gamma kappa_r).

    gamma bounds ||Phi|| / prod alpha_r only on windows of at most theta
    steps, so the bound chains m = max(1, ceil((t - tau) / theta)) pieces
    of at most theta steps, each with its own factor gamma.
    """
    if t < tau:
        raise TimeOrderError(f"target time {t} precedes initial time {tau}")
    if delta0 < 0:
        raise ValueError(f"initial separation must be >= 0, got {delta0}")
    prod = 1.0
    for r in range(tau, t):
        prod *= sys.alphas[r % sys.theta] + sys.gamma * sys.kappas[r % sys.theta]
    pieces = max(1, math.ceil((t - tau) / sys.theta))
    return sys.gamma**pieces * delta0 * prod


def contraction_product(sys: SemilinearSystem) -> float:
    """Per-period product prod_r (alpha_r + gamma * kappa_r)."""
    prod = 1.0
    for r in range(sys.theta):
        prod *= sys.alphas[r] + sys.gamma * sys.kappas[r]
    return prod


@dataclass(frozen=True)
class PullbackReport:
    """Outcome of the pullback limit: periods used and certified tail."""

    periods: int
    last_update: float
    tail_bound: float
    factor: float


def pullback_limit(
    sys: SemilinearSystem,
    tol: float,
    u0: np.ndarray | None = None,
) -> tuple[tuple[np.ndarray, ...], PullbackReport]:
    """Periodic fibers by deepening the pullback one period at a time.

    Starting ever further in the past is, by periodicity, the same as
    applying one more period to the previous sweep.  The tuple of the
    theta fibers of one period is iterated by :func:`fixed_point_iterate`
    with factor gamma * q in the largest per-class max-norm, so it stops
    once the tail gamma q / (1 - gamma q) * last_update is at most ``tol``
    and reports that tail.  gamma * q >= 1 raises ``NoContractionError``,
    and a sweep that has not settled after ``MAX_PERIODS`` periods raises
    ``BudgetExceededError``.
    """
    theta = sys.theta
    q = contraction_product(sys)
    periods, last_update = 0, math.nan

    def period(start: np.ndarray) -> tuple[np.ndarray, ...]:
        nonlocal periods
        if periods >= MAX_PERIODS:
            raise BudgetExceededError(
                f"pullback limit did not settle within {MAX_PERIODS} periods (q = {q})"
            )
        periods += 1
        return trajectory(sys, 0, theta - 1, start)

    def update(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> float:
        nonlocal last_update
        last_update = max(_vec_norm(x - y) for x, y in zip(a, b))
        return last_update

    problem = IterateContractionProblem(
        lambda fibers: period(sys.step(theta - 1, fibers[-1])), update, 1, sys.gamma * q
    )
    start = np.zeros(sys.dim) if u0 is None else np.array(u0, dtype=float)
    fibers, tail = fixed_point_iterate(problem, period(start), tol)
    return fibers, PullbackReport(periods, last_update, tail, q)
