"""Collocated right-hand sides and time stepping.

The Hammerstein step replaces the dispersal integral by the quadrature sum
and collocates at the nodes, so one step is a dense matrix-vector product
against the weighted kernel matrix of one distinct rate value; a block of
states at one time steps as one matrix product.  Each entry of the
operator's ``matrices`` applies itself, as ``K @ x``.  With fewer than
``DISTANCE_TABLE_MIN_RATES`` distinct rates each entry is a dense matrix
evaluated directly on the node grid.  With more, each entry holds its
rate's weighted kernel values on the table of distinct (distance, weight)
pairs and gathers its matrix from them, with the same bits, whenever it is
applied.  The certified mass of each matrix is decided when it is
assembled, and so is a dense matrix's row-sum mass.  A pair table takes its
row-sum mass from the first matrix it gathers, usually in a step, so
assembly gathers a matrix only for a class that certifies with its row-sum
mass.  The operator reads both masses per time class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import count, islice
from typing import Callable, Iterator

import numpy as np

from .exceptions import BoundFormulaOutOfRangeError, GridMismatchError, TimeOrderError
from .grid import Grid, GridFunction
from .models import (
    GrowthSpec,
    InhomogeneitySpec,
    KernelSpec,
    growth_curve,
    growth_lipschitz,
    inhomogeneity_eval,
    kernel_bound,
    kernel_eval,
)

__all__ = [
    "HammersteinOperator",
    "PointwiseOperator",
    "build_hammerstein",
    "build_pointwise",
    "orbit",
    "general_solution",
]

# fewest distinct kernel rates whose matrices are kept as weighted values on
# the table of distinct (distance, weight) pairs and gathered when one is
# applied; with fewer they stay dense, since a gather costs more than the
# product it feeds: medians of 1.6 ms against 0.39 ms at n = 1000 on one
# CPU with one OpenBLAS thread (see build_hammerstein)
DISTANCE_TABLE_MIN_RATES = 64


def _row_sum_mass(matrix: np.ndarray) -> float:
    """Largest row sum of a weighted kernel matrix, the mass of its step.

    The registered kernels and the weights are nonnegative, so the plain row
    sums are the absolute row sums.
    """
    return float(np.max(np.sum(matrix, axis=1)))


class _PairTableKernel:
    """One rate's weighted kernel matrix, kept on the grid's pair table.

    ``index`` maps every entry (i, j) of the (n+1) x (n+1) matrix to its
    (|x_i - x_j|, w_j) pair and is shared by every rate; ``values`` holds
    this rate's weighted kernel values on those pairs.  ``K @ x`` gathers
    the matrix by one ``np.take``, with the bits of the dense one, and
    multiplies: a GEMV for a vector, a GEMM for a block.  The row-sum mass
    is taken from the first matrix gathered and kept.
    """

    __slots__ = ("_index", "_values", "_row_sum_mass")

    def __init__(self, index: np.ndarray, values: np.ndarray):
        self._index = index
        self._values = values
        self._row_sum_mass: float | None = None

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        return self._gather() @ other

    def _gather(self) -> np.ndarray:
        matrix = np.take(self._values, self._index)
        if self._row_sum_mass is None:
            self._row_sum_mass = _row_sum_mass(matrix)
        return matrix

    @property
    def row_sum_mass(self) -> float:
        """Row-sum mass of the matrix; read before any product, it gathers one."""
        if self._row_sum_mass is None:
            self._gather()
        return self._row_sum_mass

    @property
    def nbytes(self) -> int:
        """Bytes of the values held; the shared pair index is not counted."""
        return self._values.nbytes


@dataclass(frozen=True, eq=False)
class HammersteinOperator:
    """Nystrom-collocated dispersal-growth step with seasonal support.

    One application computes K_t @ g_t(u) + h_t at the nodes, where K_t is
    the weighted kernel matrix of the time class t mod theta.  ``matrices``
    holds one kernel per distinct rate, ``matrix_index`` the one of each
    class, and each entry of ``matrices`` applies itself, as ``K @ x``: a
    dense matrix, or with at least ``DISTANCE_TABLE_MIN_RATES`` distinct
    rates a pair table that gathers its matrix when it is applied.  Forcing
    vectors and the growth profile samples are precomputed; the operator is
    immutable.

    Per time class, ``row_sum_masses`` is the mass of the discretized
    operator itself, the largest absolute row sum of the class's matrix.
    A dense store's masses are taken when it is assembled, one per matrix;
    a pair table takes its own from the first matrix it gathers, usually in
    a step, so a read of ``row_sum_masses`` gathers only the tables that
    have not yet been applied.  ``kernel_masses`` is the certified mass
    bound sup_x int |k_t(x, y)| dy: the closed form
    :func:`~idepull.models.kernel_bound` or, where that is out of range
    (tent kernels on wide supports), the row-sum mass, taken when the
    operator is built.  ``masses_closed_form`` tells whether every class
    has its closed form.
    """

    growth: GrowthSpec
    inhomogeneity: InhomogeneitySpec
    grid: Grid
    theta: int
    matrices: tuple[np.ndarray | _PairTableKernel, ...]
    matrix_index: tuple[int, ...]
    forcing: tuple[np.ndarray, ...]
    profile_values: np.ndarray
    kernel_masses: tuple[float, ...]
    masses_closed_form: bool
    # one per dense matrix; empty for a store of pair tables
    _dense_row_sums: tuple[float, ...]

    @property
    def row_sum_masses(self) -> tuple[float, ...]:
        masses = self._dense_row_sums or tuple(k.row_sum_mass for k in self.matrices)
        return tuple(masses[i] for i in self.matrix_index)

    def step(self, t: int, u: GridFunction) -> GridFunction:
        if u.grid != self.grid:
            raise GridMismatchError("state lives on a different grid")
        return GridFunction(self.grid, self.step_block(t, u.values[:, None])[:, 0])

    def step_block(self, t: int, values: np.ndarray) -> np.ndarray:
        """Step an (n+1) x m block whose columns are states at time ``t``.

        Returns the block of next states at time ``t + 1``, through one
        ``@`` with the kernel of ``t``: each entry of ``matrices`` applies
        itself, and a pair table gathers its matrix once per call.  ``step``
        is the block of one column, a matrix-vector product (GEMV).  A block
        of several columns is a GEMM, which adds in another order and may
        differ from ``step`` in the last digits.
        """
        if values.ndim != 2 or values.shape[0] != self.grid.n + 1:
            raise ValueError(f"block of shape {values.shape} does not hold states on the grid")
        r = t % self.theta
        out = self.matrices[self.matrix_index[r]] @ self.growth_output(r, values)
        out += self.forcing[r][:, None]
        return out

    def growth_output(self, t: int, values: np.ndarray) -> np.ndarray:
        """Growth stage g_t(x, u(x)) at the nodes, for the node ``values`` of u.

        ``values`` is a node vector or an (n+1) x m block of them; the
        profile runs down axis 0.
        """
        b = self.growth.scale_at(t) * self.profile_values
        if np.ndim(values) == 2:
            b = b[:, None]
        return growth_curve(self.growth.family, b, values)

    def with_inhomogeneity(self, inhomogeneity: InhomogeneitySpec) -> "HammersteinOperator":
        """The same step with another seasonal support.

        The kernel matrices, with the row-sum masses the pair tables have
        taken or will take, the masses and the growth samples are shared;
        only the forcing vectors are built anew, as ``build_hammerstein``
        builds them, so the result equals a fresh build bit for bit.
        """
        if self.theta % inhomogeneity.theta != 0:
            raise ValueError(f"period {self.theta} is not a multiple of the support "
                             f"period {inhomogeneity.theta}")
        return replace(self, inhomogeneity=inhomogeneity,
                       forcing=_forcing(inhomogeneity, self.grid, self.theta))

    def forcing_sup(self) -> float:
        """Largest node magnitude of the support over one period."""
        return max(float(np.max(np.abs(h))) for h in self.forcing)


def build_hammerstein(
    kernel: KernelSpec,
    growth: GrowthSpec,
    inhomogeneity: InhomogeneitySpec,
    grid: Grid,
    theta: int | None = None,
) -> HammersteinOperator:
    """Assemble the collocated operator, one kernel per distinct rate.

    The kernels depend on |x - y| alone and :func:`~idepull.models.kernel_eval`
    is elementwise, and entry (i, j) of a matrix is fl(k(|x_i - x_j|) w_j).
    With fewer than ``DISTANCE_TABLE_MIN_RATES`` (64) distinct rates each
    matrix is evaluated directly on the node grid, multiplied by the
    quadrature weights and stored dense.  With more, the distinct node
    distances are sorted into a table once (1 349 of them at n = 400), and
    the (distance, weight) pairs that occur on the grid (4 944) are indexed
    by one (n+1) x (n+1) intp array.  Each rate is evaluated on the distance
    table and its weighted values on the pairs are kept: 40 KB per rate at
    n = 400 against 1.3 MB dense, so 365 rates hold 14 MB rather than
    470 MB.  Each entry of ``matrices`` applies itself, as ``K @ x``: a
    dense matrix, or a pair table that gathers a matrix with the bits of the
    direct evaluation whenever it is applied.  Each step gathers the matrix
    of its class, and a pair table takes its row-sum mass from the first
    one it gathers, so assembly gathers none but the one exception below.
    Few rates stay dense because every step would then pay a gather, which
    costs more than the product: medians of 1.6 ms against 0.39 ms for the
    GEMV at n = 1000, on one CPU with one OpenBLAS thread.
    The sort is paid once and allocates about 49 MB at its peak at
    n = 1000.

    The certified mass of each matrix is taken right after it is assembled,
    and so is a dense matrix's row-sum mass.  A class whose closed form is
    out of range certifies with its row-sum mass, so its pair table gathers
    once here.
    ``theta`` defaults to the least common multiple of the component
    periods; an explicit value must be a positive common multiple of them.
    The profile must be finite and nonnegative at the nodes and at most
    ``growth.profile_sup`` there, since the certificate reads its bounds
    from ``profile_sup``.
    """
    periods = (kernel.period, growth.period, inhomogeneity.theta)
    if theta is None:
        theta = math.lcm(*periods)
    if theta < 1:
        raise ValueError(f"period must be >= 1, got {theta}")
    for p in periods:
        if theta % p != 0:
            raise ValueError(
                f"period {theta} is not a common multiple of component periods {periods}"
            )

    profile_values = _profile_at_nodes(growth.profile, grid)
    if np.max(profile_values) > growth.profile_sup:
        raise ValueError(f"profile_sup {growth.profile_sup} is below the profile's largest "
                         f"node value {np.max(profile_values)}")

    # one dense matrix or pair table per distinct rate, in order of first
    # appearance
    rates = [kernel.rate_at(r) for r in range(theta)]
    gather = len(set(rates)) >= DISTANCE_TABLE_MIN_RATES
    if gather:
        table, pair_distance, pair_weight, pair_index = _pair_table(grid)
    else:
        x = grid.nodes[:, None]
        y = grid.nodes[None, :]
    distinct: dict[float, int] = {}
    stored, dense_row_sums, bounds, index = [], [], [], []
    closed = True
    for r, a in enumerate(rates):
        if a not in distinct:
            distinct[a] = len(stored)
            if gather:
                values = kernel_eval(kernel, r, table, 0.0)[pair_distance] * pair_weight
                values.setflags(write=False)
                stored.append(_PairTableKernel(pair_index, values))
            else:
                mat = kernel_eval(kernel, r, x, y)
                mat *= grid.weights
                mat.setflags(write=False)
                stored.append(mat)
                dense_row_sums.append(_row_sum_mass(mat))
            try:
                bounds.append(kernel_bound(kernel, r, grid.length))
            except BoundFormulaOutOfRangeError:
                bounds.append(stored[-1].row_sum_mass if gather else dense_row_sums[-1])
                closed = False
        index.append(distinct[a])

    return HammersteinOperator(
        growth=growth,
        inhomogeneity=inhomogeneity,
        grid=grid,
        theta=int(theta),
        matrices=tuple(stored),
        matrix_index=tuple(index),
        forcing=_forcing(inhomogeneity, grid, theta),
        profile_values=profile_values,
        kernel_masses=tuple(bounds[i] for i in index),
        masses_closed_form=closed,
        _dense_row_sums=tuple(dense_row_sums),
    )


def _pair_table(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (distance, weight) pairs of the grid's matrix entries.

    Returns the sorted distinct node distances |x_i - x_j|, each occurring
    pair's position in that table and its weight, in the pairs' sorted
    order, and the (n+1) x (n+1) intp index of every entry (i, j) into the
    pairs.
    """
    n1 = grid.n + 1
    table, distance_index = np.unique(np.abs(grid.nodes[:, None] - grid.nodes[None, :]),
                                      return_inverse=True)
    weights, weight_index = np.unique(grid.weights, return_inverse=True)
    codes = distance_index.reshape(n1, n1) * weights.size + weight_index
    occurs = np.zeros(table.size * weights.size, dtype=bool)
    occurs[codes] = True
    pairs = np.flatnonzero(occurs)
    # left writeable: np.take copies a read-only index on every call
    pair_index = (np.cumsum(occurs) - 1)[codes]
    return table, pairs // weights.size, weights[pairs % weights.size], pair_index


def _forcing(inhomogeneity: InhomogeneitySpec, grid: Grid, theta: int) -> tuple[np.ndarray, ...]:
    """Read-only forcing vectors h_r at the nodes for r = 0, ..., theta - 1.

    One vector per distinct amplitude, shared by every time class that has
    it.  Amplitudes are told apart by their bits, so ``0.0`` and ``-0.0``
    keep their own vectors and their own signed zeros.
    """
    distinct: dict[str, np.ndarray] = {}
    forcing = []
    for r in range(theta):
        key = inhomogeneity.amplitude_at(r).hex()
        if key not in distinct:
            h = np.asarray(inhomogeneity_eval(inhomogeneity, r, grid.nodes, grid.length),
                           dtype=float)
            h.setflags(write=False)
            distinct[key] = h
        forcing.append(distinct[key])
    return tuple(forcing)


@dataclass(frozen=True, eq=False)
class PointwiseOperator:
    """Saturating pointwise step u(x) -> b_t(x) u(x) / (1 + |u(x)|).

    The Beverton-Holt growth stage alone, with no dispersal and no support
    term.  Contractive with per-step constant sup_x b_t(x) although not
    compact.  ``growth.profile_sup`` is the profile's largest node value.
    """

    growth: GrowthSpec
    grid: Grid
    profile_values: np.ndarray

    def sup_rate(self, t: int) -> float:
        """Node-max of b_t, the contraction constant of the step."""
        return growth_lipschitz(self.growth, t)

    def step(self, t: int, u: GridFunction) -> GridFunction:
        if u.grid != self.grid:
            raise GridMismatchError("state lives on a different grid")
        b = self.growth.scale_at(t) * self.profile_values
        return GridFunction(self.grid, growth_curve(self.growth.family, b, u.values))


def build_pointwise(
    profile: Callable[[np.ndarray], np.ndarray], scales, grid: Grid
) -> PointwiseOperator:
    """Pointwise operator of a profile and a positive scale or scale schedule."""
    values = _profile_at_nodes(profile, grid)
    growth = GrowthSpec("beverton_holt", profile, scales, float(np.max(values)))
    return PointwiseOperator(growth, grid, values)


def _profile_at_nodes(profile: Callable[[np.ndarray], np.ndarray], grid: Grid) -> np.ndarray:
    """Read-only node values of a growth profile, refused unless finite and >= 0."""
    values = np.asarray(profile(grid.nodes), dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("growth profile must be finite on the habitat")
    if np.min(values) < 0:
        raise ValueError("growth profile must be nonnegative on the habitat")
    values.setflags(write=False)
    return values


def orbit(op, tau: int, u0: GridFunction) -> Iterator[GridFunction]:
    """Forward solution states u_tau, u_{tau+1}, ... through ``(tau, u0)``.

    The one loop that steps a forward orbit of one state.  It is lazy and
    endless: each state is stepped only when it is asked for, so a consumer
    that takes k + 1 states (``itertools.islice``) makes k steps.
    """
    state = u0
    for s in count(tau):
        yield state
        state = op.step(s, state)


def general_solution(op, t: int, tau: int, u: GridFunction) -> GridFunction:
    """State at time ``t`` of the solution through ``(tau, u)``.

    Identity when t == tau, otherwise the stepwise composition of the
    steps at tau, ..., t-1 (so the process property holds bit for bit).
    """
    if t < tau:
        raise TimeOrderError(f"target time {t} precedes initial time {tau}")
    return next(islice(orbit(op, tau, u), t - tau, None))
