"""Catalog of dispersal kernels, growth maps, and seasonal forcing.

Each spec is an immutable value object carrying, besides the pointwise
formulas, the closed-form bound data used by the contraction certificates:
the kernel mass bound sup_x int |k(x,y)| dy, the growth sup bound, and the
growth Lipschitz constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import BoundFormulaOutOfRangeError
from .grid import Grid

__all__ = [
    "KERNEL_FAMILIES",
    "GROWTH_FAMILIES",
    "SEASON_PATTERNS",
    "KernelSpec",
    "GrowthSpec",
    "InhomogeneitySpec",
    "kernel_eval",
    "kernel_bound",
    "kernel_bound_numeric",
    "growth_curve",
    "growth_sup_bound",
    "growth_lipschitz",
    "inhomogeneity_eval",
    "hammerstein_lipschitz",
    "half_contraction_amplitude",
    "seasonal_scales",
]

KERNEL_FAMILIES = ("laplace", "gauss", "tent")
GROWTH_FAMILIES = ("logistic", "beverton_holt", "ricker")

# Four-season support schedules: amplitude per quarter (levels low, high).
SEASON_PATTERNS = {
    "h1": (0, 0, 1, 1),
    "h2": (0, 1, 0, 1),
    "h3": (1, 1, 0, 0),
    "h4": (1, 0, 1, 0),
}


def _as_positive_tuple(value, what: str) -> tuple[float, ...]:
    if np.isscalar(value):
        seq = (float(value),)
    else:
        seq = tuple(float(v) for v in value)
    if not seq:
        raise ValueError(f"{what} schedule must not be empty")
    for v in seq:
        if not math.isfinite(v) or v <= 0:
            raise ValueError(f"{what} must be positive and finite, got {v}")
    return seq


@dataclass(frozen=True)
class KernelSpec:
    """Dispersal kernel family with a constant or periodic rate parameter.

    Families (rate a > 0):
      laplace:  (a/2) exp(-a |x-y|)
      gauss:    (a/sqrt(pi)) exp(-a^2 (x-y)^2)
      tent:     max(0, a - a^2 |x-y|)
    """

    family: str
    rates: tuple[float, ...]

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        object.__setattr__(self, "rates", _as_positive_tuple(self.rates, "kernel rate"))

    @property
    def period(self) -> int:
        return len(self.rates)

    def rate_at(self, t: int) -> float:
        return self.rates[t % len(self.rates)]


def kernel_eval(spec: KernelSpec, t: int, x, y):
    """Evaluate the kernel at time ``t``; broadcasts over array arguments.

    Every operation runs in place on one buffer of the broadcast shape, so
    an n x n kernel matrix never holds more than one n x n array.
    """
    a = spec.rate_at(t)
    k = np.subtract(x, y, out=np.empty(np.broadcast_shapes(np.shape(x), np.shape(y))))
    np.abs(k, out=k)
    if spec.family == "laplace":  # (a/2) exp(-a s)
        k *= -a
        np.exp(k, out=k)
        k *= 0.5 * a
    elif spec.family == "gauss":  # a/sqrt(pi) exp(-(a s)^2)
        k *= a
        np.square(k, out=k)
        np.negative(k, out=k)
        np.exp(k, out=k)
        k *= a / math.sqrt(math.pi)
    else:  # tent: max(0, a - a^2 s)
        k *= a * a
        np.subtract(a, k, out=k)
        np.maximum(0.0, k, out=k)
    return k if k.ndim else k[()]


def kernel_bound(spec: KernelSpec, t: int, length: float) -> float:
    """Closed form for sup_x int |k_t(x, y)| dy over the habitat.

    laplace: 1 - exp(-a L / 2);  gauss: erf(a L / 2);  tent: a L - (a L)^2 / 4.
    The tent formula is only the true supremum while a*L <= 2 (support wider
    than the habitat); outside that window it undercuts the actual bound and
    a :class:`BoundFormulaOutOfRangeError` is raised instead.
    """
    a = spec.rate_at(t)
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    q = a * length
    if spec.family == "laplace":
        return -math.expm1(-0.5 * q)
    if spec.family == "gauss":
        return math.erf(0.5 * q)
    value = q - 0.25 * q * q
    if q > 2.0 or value < 0.0 or value > 1.0:
        raise BoundFormulaOutOfRangeError(
            f"tent bound formula invalid for rate*length = {q} (needs <= 2); "
            "use the quadrature bound instead"
        )
    return value


def kernel_bound_numeric(spec: KernelSpec, t: int, grid: Grid) -> float:
    """Quadrature estimate of sup_x int |k_t(x, y)| dy on a grid.

    Maximum over collocation rows of the weighted absolute row sum; this is
    also the exact mass bound of the discretized operator.
    """
    k = kernel_eval(spec, t, grid.nodes[:, None], grid.nodes[None, :])
    return float(np.max(np.abs(k) @ grid.weights))


@dataclass(frozen=True)
class GrowthSpec:
    """Growth map family with profile b_t(x) = scale_t * profile(x).

    Families (z the local population, b = b_t(x) >= 0):
      logistic:       max(0, b z (1 - z))
      beverton_holt:  b z / (1 + |z|)
      ricker:         z exp(-b |z|)

    ``profile_sup`` is sup |profile| over the habitat; together with the
    scale schedule it yields the per-time bound beta_t = scale_t * profile_sup
    from which the sup bound and the Lipschitz constant are derived.  It must
    not be below the profile's values: ``build_hammerstein`` refuses a
    ``profile_sup`` below the profile's largest node value.
    """

    family: str
    profile: Callable[[np.ndarray], np.ndarray]
    scales: tuple[float, ...]
    profile_sup: float

    def __post_init__(self):
        if self.family not in GROWTH_FAMILIES:
            raise ValueError(f"unknown growth family {self.family!r}")
        object.__setattr__(self, "scales", _as_positive_tuple(self.scales, "growth scale"))
        if not math.isfinite(self.profile_sup) or self.profile_sup < 0:
            raise ValueError(f"profile_sup must be finite and >= 0, got {self.profile_sup}")

    @property
    def period(self) -> int:
        return len(self.scales)

    def scale_at(self, t: int) -> float:
        return self.scales[t % len(self.scales)]

    def beta(self, t: int) -> float:
        """Per-time bound on sup_x b_t(x)."""
        return self.scale_at(t) * self.profile_sup


def growth_curve(family: str, b, z):
    """Growth output for profile values ``b`` and population ``z`` (vectorized)."""
    b = np.asarray(b, dtype=float)
    z = np.asarray(z, dtype=float)
    if family == "logistic":
        return np.maximum(0.0, b * z * (1.0 - z))
    if family == "beverton_holt":
        return b * z / (1.0 + np.abs(z))
    if family == "ricker":
        return z * np.exp(-b * np.abs(z))
    raise ValueError(f"unknown growth family {family!r}")


def growth_sup_bound(spec: GrowthSpec, t: int, profile_min: float) -> float:
    """Bound on sup_{x,z} |g_t(x, z)| over profile values of at least ``profile_min``.

    beta/4 (logistic), beta (beverton_holt).  For ricker, |z| exp(-b |z|)
    peaks at |z| = 1/b with value 1/(e b), largest where b is smallest, so
    the exact sup is 1/(e scale_t profile_min).  A ricker profile reaching 0
    leaves g_t(x, z) = z unbounded and raises
    ``BoundFormulaOutOfRangeError``.
    """
    beta = spec.beta(t)
    if spec.family == "logistic":
        return 0.25 * beta
    if spec.family == "beverton_holt":
        return beta
    if profile_min <= 0:
        raise BoundFormulaOutOfRangeError(
            "ricker growth is unbounded where the profile is 0, so it has no sup bound"
        )
    return 1.0 / (math.e * spec.scale_at(t) * profile_min)


def growth_lipschitz(spec: GrowthSpec, t: int) -> float:
    """Global Lipschitz constant of z -> g_t(x, z), uniform in x.

    beta_t for logistic and beverton_holt.  For ricker it is 1 whatever
    beta_t: the slope of z exp(-b |z|) is exp(-b |z|) (1 - b |z|), which
    equals 1 at z = 0 and has absolute value at most 1 for every b >= 0.
    """
    if spec.family == "ricker":
        return 1.0
    return spec.beta(t)


@dataclass(frozen=True)
class InhomogeneitySpec:
    """Seasonal support: amplitude(season(t)) * cos(pi x / length).

    ``amplitudes`` holds one level per season; the named variants h1..h4
    are the four (low, high) placements from the seasonal catalog.
    """

    amplitudes: tuple[float, ...]
    theta: int

    def __post_init__(self):
        amps = tuple(float(v) for v in self.amplitudes)
        if not amps:
            raise ValueError("amplitudes must not be empty")
        for v in amps:
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"amplitudes must be finite and >= 0, got {v}")
        object.__setattr__(self, "amplitudes", amps)
        if self.theta < 1:
            raise ValueError(f"period must be >= 1, got {self.theta}")

    @classmethod
    def from_variant(
        cls, variant: str, theta: int, levels: tuple[float, float] = (1.0, 2.0)
    ) -> "InhomogeneitySpec":
        if variant not in SEASON_PATTERNS:
            raise ValueError(f"unknown inhomogeneity variant {variant!r}")
        amps = tuple(levels[i] for i in SEASON_PATTERNS[variant])
        return cls(amps, theta)

    def amplitude_at(self, t: int) -> float:
        """Amplitude of the season holding integer time ``t``.

        The period splits into m = len(amplitudes) equal half-open seasons:
        day ((t-1) mod theta) + 1 in (0, theta] lies in ((k-1) theta/m,
        k theta/m] for k = (m day + theta - 1) // theta, exact in integers.
        """
        day = ((t - 1) % self.theta) + 1
        m = len(self.amplitudes)
        return self.amplitudes[(m * day + self.theta - 1) // self.theta - 1]


def inhomogeneity_eval(spec: InhomogeneitySpec, t: int, x, length: float):
    """Support density at time ``t``; broadcasts over ``x``."""
    x = np.asarray(x, dtype=float)
    return spec.amplitude_at(t) * np.cos(math.pi * x / length)


def hammerstein_lipschitz(
    kernel: KernelSpec, growth: GrowthSpec, t: int, length: float
) -> float:
    """Lipschitz constant of the Hammerstein step at time ``t``.

    Product of the growth Lipschitz constant and the closed-form kernel
    mass bound; raises when the closed form is out of range (tent).
    """
    return growth_lipschitz(growth, t) * kernel_bound(kernel, t, length)


def half_contraction_amplitude(
    theta: int, rate: float, length: float, profile_sup: float
) -> float:
    """Scale amplitude C making the per-period Lipschitz product exactly 1/2.

    With the seasonal schedule scale_r = C (1 + sin(2 pi r / theta) / 2), the
    Laplace-kernel step constants are
        lambda_r = C * profile_sup * (1 + sin(2 pi r/theta)/2) * (1 - e^{-rate*length/2})
    and C is chosen so their product over one period equals 1/2.  Evaluated
    in log space; the product recomputed from the result matches 1/2 to
    roughly 1e-13 relative.
    """
    if theta < 1:
        raise ValueError(f"period must be >= 1, got {theta}")
    if rate <= 0 or length <= 0 or profile_sup <= 0:
        raise ValueError("rate, length, and profile_sup must be positive")
    log_bound = math.log(kernel_bound(KernelSpec("laplace", rate), 0, length))
    log_seasonal = sum(
        math.log1p(0.5 * math.sin(2.0 * math.pi * r / theta)) for r in range(theta)
    )
    log_c = -(math.log(2.0) + log_seasonal) / theta - math.log(profile_sup) - log_bound
    return math.exp(log_c)


def seasonal_scales(theta: int, amplitude: float) -> tuple[float, ...]:
    """Sinusoidal annual schedule amplitude * (1 + sin(2 pi r / theta)/2)."""
    if theta < 1:
        raise ValueError(f"period must be >= 1, got {theta}")
    return tuple(
        amplitude * (1.0 + 0.5 * math.sin(2.0 * math.pi * r / theta))
        for r in range(theta)
    )
