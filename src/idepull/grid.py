"""Quadrature grids and node-sampled state functions on a symmetric interval.

States live on the habitat [-length/2, length/2] and are represented by
their values at the quadrature nodes.  Integrals become weighted sums,
and the sup-norm is taken as the maximum over nodes; that is all the
collocated dynamics ever evaluate.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import GridMismatchError

__all__ = [
    "QUADRATURE_RULES",
    "Grid",
    "GridFunction",
    "build_grid",
    "total_population",
    "sup_norm",
    "sup_distance",
]


def _trapezoid_nodes_weights(length: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes = np.linspace(-0.5 * length, 0.5 * length, n + 1)
    # Weights assembled from node gaps so the weight total telescopes to
    # exactly nodes[-1] - nodes[0] = length.
    gaps = np.diff(nodes)
    weights = np.zeros(n + 1)
    weights[:-1] += 0.5 * gaps
    weights[1:] += 0.5 * gaps
    return nodes, weights


QUADRATURE_RULES: dict[str, Callable[[float, int], tuple[np.ndarray, np.ndarray]]] = {
    "trapezoid": _trapezoid_nodes_weights,
}

# one numpy array holds at most intp-max bytes, and a grid holds n + 1 floats
_MAX_SUBINTERVALS = np.iinfo(np.intp).max // np.dtype(float).itemsize - 1


@dataclass(frozen=True, eq=False)
class Grid:
    """Quadrature nodes and weights on [-length/2, length/2].

    Nodes are strictly increasing with the interval endpoints included;
    weights are nonnegative and sum to the interval length.
    """

    length: float
    nodes: np.ndarray
    weights: np.ndarray
    rule: str

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n(self) -> int:
        """Number of subintervals (node count minus one)."""
        return len(self.nodes) - 1

    # nodes and weights are fully determined by (length, n, rule)
    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return (
            self.length == other.length
            and self.n == other.n
            and self.rule == other.rule
        )


def build_grid(length: float, n: int, rule: str = "trapezoid") -> Grid:
    """Construct a quadrature grid with ``n`` subintervals.

    Parameters
    ----------
    length : float
        Habitat length; the domain is [-length/2, length/2].  Must be > 0.
    n : int
        Number of subintervals, an integer (not a bool) of at least 1 whose
        n + 1 nodes fit in one numpy array.
    rule : str
        Quadrature rule tag; only ``"trapezoid"`` is currently registered.
    """
    if not np.isfinite(length) or length <= 0:
        raise ValueError(f"grid length must be positive, got {length}")
    # an int is whole as it stands: float() of a huge one overflows
    whole = isinstance(n, numbers.Real) and not isinstance(n, (bool, np.bool_)) and (
        isinstance(n, (int, np.integer)) or float(n).is_integer())
    if not whole or n < 1:
        raise ValueError(f"subinterval count must be an integer >= 1, got {n!r}")
    if n > _MAX_SUBINTERVALS:
        raise ValueError(f"subinterval count {n} exceeds {_MAX_SUBINTERVALS}, "
                         "the most whose nodes fit in one array")
    try:
        builder = QUADRATURE_RULES[rule]
    except KeyError:
        raise ValueError(f"unknown quadrature rule {rule!r}") from None
    nodes, weights = builder(float(length), int(n))
    return Grid(float(length), nodes, weights, rule)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A state function sampled at the nodes of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n + 1,):
            raise ValueError(
                f"expected {self.grid.n + 1} node values, got shape {values.shape}"
            )
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "GridFunction":
        return cls(grid, np.full(grid.n + 1, float(value)))


def _require_same_grid(f: GridFunction, g: GridFunction) -> None:
    if f.grid != g.grid:
        raise GridMismatchError("grid functions live on different grids")


def total_population(u: GridFunction) -> float:
    """Total population carried by a density, as the quadrature sum."""
    return float(np.dot(u.grid.weights, u.values))


def sup_norm(f: GridFunction) -> float:
    """Maximum absolute node value."""
    return float(np.max(np.abs(f.values)))


def sup_distance(f: GridFunction, g: GridFunction) -> float:
    """Sup-norm distance between two functions on the same grid."""
    _require_same_grid(f, g)
    return float(np.max(np.abs(f.values - g.values)))
