"""Finite-dimensional semilinear difference equations u' = L_t u + K_t(u).

Constants follow one norm family throughout: vectors carry the max-norm
and matrices its induced operator norm (max absolute row sum).  The
pullback limit is certified through the per-period contraction product
prod (alpha_r + gamma * kappa_r) < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import trajectory
from .exceptions import BudgetExceededError, NoContractionError, TimeOrderError

__all__ = [
    "SemilinearSystem",
    "PullbackReport",
    "build_semilinear",
    "transition",
    "variation_of_constants",
    "gronwall_bound",
    "contraction_product",
    "pullback_limit",
]

Nonlinearity = Callable[[np.ndarray], np.ndarray]

_SLACK = 1.0 + 1e-9


def _mat_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, ord=np.inf))


def _vec_norm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


@dataclass(frozen=True, eq=False)
class SemilinearSystem:
    """Periodic semilinear system with its estimate constants.

    ``gamma`` and ``alphas`` bound the transition operators via
    ||Phi(t, tau)|| <= gamma * prod alpha_r; ``kappas`` are per-slot
    Lipschitz constants of the nonlinearities.  ``estimated`` names the
    constants that were sampled rather than user-certified.
    """

    matrices: tuple[np.ndarray, ...]
    nonlinearities: tuple[Nonlinearity, ...]
    kappas: tuple[float, ...]
    gamma: float
    alphas: tuple[float, ...]
    estimated: frozenset[str]

    @property
    def theta(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    def step(self, t: int, u: np.ndarray) -> np.ndarray:
        r = t % self.theta
        return self.matrices[r] @ u + self.nonlinearities[r](u)


def _sample_kappa(k: Nonlinearity, dim: int, rng: np.random.Generator, pairs: int = 10_000) -> float:
    u = rng.normal(scale=3.0, size=(pairs, dim))
    v = rng.normal(scale=3.0, size=(pairs, dim))
    kappa = 0.0
    for a, b in zip(u, v):
        den = _vec_norm(a - b)
        if den == 0.0:
            continue
        kappa = max(kappa, _vec_norm(np.asarray(k(a)) - np.asarray(k(b))) / den)
    return kappa


def build_semilinear(
    matrices: Sequence[np.ndarray],
    nonlinearities: Sequence[Nonlinearity] | Nonlinearity,
    *,
    kappas: Sequence[float] | None = None,
    gamma: float | None = None,
    alphas: Sequence[float] | None = None,
    rng: np.random.Generator | None = None,
) -> SemilinearSystem:
    """Normalize inputs, fill in missing constants, and check given ones.

    Defaults: alpha_r is the row-sum norm of L_r, gamma the largest ratio
    ||Phi(t, tau)|| / prod alpha_r over the windows of one period (at
    least 1), and kappa_r the largest difference quotient of K_r over
    random pairs.  Sampled constants are recorded in ``estimated`` and are
    not certificates.  A declared gamma below that ratio, or a declared
    kappa_r below a sampled difference quotient, raises ``ValueError``.
    """
    mats = tuple(np.array(m, dtype=float) for m in matrices)
    if not mats:
        raise ValueError("need at least one matrix")
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError(f"matrices must share shape ({d}, {d}), got {m.shape}")
        m.setflags(write=False)

    if callable(nonlinearities):
        nls = (nonlinearities,) * len(mats)
    else:
        nls = tuple(nonlinearities)
        if len(nls) == 1:
            nls = nls * len(mats)
    if len(nls) != len(mats):
        raise ValueError(f"got {len(nls)} nonlinearities for {len(mats)} matrices")

    rng = np.random.default_rng(0) if rng is None else rng
    estimated = set()

    if kappas is None:
        kappas = tuple(_sample_kappa(k, d, rng) for k in nls)
        estimated.add("kappas")
    else:
        kappas = tuple(float(k) for k in kappas)
        if len(kappas) == 1:
            kappas = kappas * len(mats)
    if len(kappas) != len(mats) or any(k < 0 for k in kappas):
        raise ValueError("kappas must be nonnegative, one per period slot")

    if alphas is None:
        alphas = tuple(max(_mat_norm(m), np.finfo(float).tiny) for m in mats)
        estimated.add("alphas")
    else:
        alphas = tuple(float(a) for a in alphas)
        if len(alphas) == 1:
            alphas = alphas * len(mats)
    if len(alphas) != len(mats) or any(a <= 0 for a in alphas):
        raise ValueError("alphas must be positive, one per period slot")

    ratio, window = _worst_transition_ratio(mats, alphas)
    if gamma is None:
        gamma = max(1.0, ratio)
        estimated.add("gamma")
    gamma = float(gamma)
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if ratio > gamma * _SLACK:
        raise ValueError(
            f"transition norm bound violated on window {window}: "
            f"||Phi|| / prod alpha = {ratio} > gamma = {gamma}"
        )

    _check_kappas(nls, kappas, d, rng)
    return SemilinearSystem(mats, nls, kappas, gamma, alphas, frozenset(estimated))


def _worst_transition_ratio(mats, alphas) -> tuple[float, tuple[int, int] | None]:
    """Largest ||Phi(s, tau)|| / prod alpha_r over the windows of one period.

    Returns the ratio and the window (tau, s) on which it is reached.
    """
    theta, d = len(mats), mats[0].shape[0]
    worst, window = 0.0, None
    for tau in range(theta):
        phi = np.eye(d)
        prod = 1.0
        for s in range(tau, tau + theta):
            phi = mats[s % theta] @ phi
            prod *= alphas[s % theta]
            ratio = _mat_norm(phi) / prod
            if ratio > worst:
                worst, window = ratio, (tau, s + 1)
    return worst, window


def _check_kappas(nls, kappas, d: int, rng: np.random.Generator, samples: int = 200) -> None:
    for r, k in enumerate(nls):
        u = rng.normal(scale=3.0, size=(samples, d))
        v = rng.normal(scale=3.0, size=(samples, d))
        for a, b in zip(u, v):
            lhs = _vec_norm(np.asarray(k(a)) - np.asarray(k(b)))
            if lhs > kappas[r] * _vec_norm(a - b) * _SLACK + 1e-15:
                raise ValueError(f"declared kappa {kappas[r]} violated at slot {r}")


def transition(sys: SemilinearSystem, t: int, tau: int) -> np.ndarray:
    """Transition matrix L_{t-1} ... L_tau, the identity when t == tau."""
    if t < tau:
        raise TimeOrderError(f"target time {t} precedes initial time {tau}")
    phi = np.eye(sys.dim)
    for s in range(tau, t):
        phi = sys.matrices[s % sys.theta] @ phi
    return phi


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

    inner = trajectory(sys, tau, t - 1 - tau, u).states

    acc = np.zeros(sys.dim)
    back = np.eye(sys.dim)  # Phi(t, s+1), built from s = t-1 downward
    for s in range(t - 1, tau - 1, -1):
        acc = acc + back @ np.asarray(sys.nonlinearities[s % sys.theta](inner[s - tau]))
        back = back @ sys.matrices[s % sys.theta]
    return back @ u + acc


def gronwall_bound(sys: SemilinearSystem, t: int, tau: int, delta0: float) -> float:
    """Certified separation bound gamma * delta0 * prod (alpha_r + gamma kappa_r)."""
    if t < tau:
        raise TimeOrderError(f"target time {t} precedes initial time {tau}")
    if delta0 < 0:
        raise ValueError(f"initial separation must be >= 0, got {delta0}")
    prod = 1.0
    for r in range(tau, t):
        prod *= sys.alphas[r % sys.theta] + sys.gamma * sys.kappas[r % sys.theta]
    return sys.gamma * delta0 * prod


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
    estimated: frozenset[str]


def pullback_limit(
    sys: SemilinearSystem,
    tol: float,
    u0: np.ndarray | None = None,
    max_periods: int = 100_000,
) -> tuple[tuple[np.ndarray, ...], PullbackReport]:
    """Periodic fibers by deepening the pullback one period at a time.

    Starting ever further in the past is, by periodicity, the same as
    applying one more period to the previous sweep.  When gamma * q < 1
    the geometric tail gamma q / (1 - gamma q) * last_update certifies the
    remaining error, and iteration stops once both the update (the largest
    max-norm move of a per-class fiber) and that tail are at most ``tol``.
    Otherwise it stops on the update alone and reports an infinite tail.
    """
    q = contraction_product(sys)
    if q >= 1.0:
        raise NoContractionError(f"per-period contraction product {q} is not below 1")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")

    theta, d = sys.theta, sys.dim
    gq = sys.gamma * q
    state = np.zeros(d) if u0 is None else np.asarray(u0, dtype=float)
    fibers: tuple[np.ndarray, ...] | None = None
    for period in range(1, max_periods + 1):
        segment = trajectory(sys, 0, theta, state)
        new, state = segment.states[:theta], segment.states[theta]
        if fibers is not None:
            update = max(_vec_norm(a - b) for a, b in zip(new, fibers))
            tail = gq / (1.0 - gq) * update if gq < 1.0 else math.inf
            if update <= tol and (tail <= tol or gq >= 1.0):
                report = PullbackReport(period, update, tail, q, sys.estimated)
                return tuple(f.copy() for f in new), report
        fibers = new
    raise BudgetExceededError(
        f"pullback limit did not settle within {max_periods} periods (q = {q})"
    )
