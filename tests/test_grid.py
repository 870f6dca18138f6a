import math

import numpy as np
import pytest

from idepull import (
    GridFunction,
    GridMismatchError,
    build_grid,
    sup_distance,
    sup_norm,
    total_population,
)
from oracles import hausdorff_semidistance


def test_trapezoid_grid_small():
    g = build_grid(6.0, 3)
    assert np.array_equal(g.nodes, [-3.0, -1.0, 1.0, 3.0])
    assert np.array_equal(g.weights, [1.0, 2.0, 2.0, 1.0])


def test_endpoint_only_grid():
    g = build_grid(6.0, 1)
    assert np.array_equal(g.nodes, [-3.0, 3.0])
    assert np.array_equal(g.weights, [3.0, 3.0])


def test_weights_sum_to_length():
    g = build_grid(2.0, 4)
    assert math.fsum(g.weights) == 2.0


def test_grid_invariants_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        length = float(np.exp(rng.uniform(np.log(0.05), np.log(200.0))))
        n = int(rng.integers(1, 2000))
        g = build_grid(length, n)
        assert g.nodes[0] == -length / 2 and g.nodes[-1] == length / 2
        assert np.all(np.diff(g.nodes) > 0)
        assert np.all(g.weights > 0)
        assert math.fsum(g.weights) == length


def test_build_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_grid(0.0, 10)
    with pytest.raises(ValueError):
        build_grid(-1.0, 10)
    with pytest.raises(ValueError):
        build_grid(1.0, 0)
    with pytest.raises(ValueError):
        build_grid(1.0, 4, rule="simpson")


@pytest.mark.parametrize("n", [2.5, True, np.True_, math.nan, math.inf])
def test_build_grid_rejects_non_integral_count(n):
    # 2.5 used to build 2 subintervals and True 1, without a word
    with pytest.raises(ValueError, match="integer"):
        build_grid(4.0, n)


@pytest.mark.parametrize("n", [10**20, int("1" * 401), 1e20], ids=["1e20", "401-digits", "float"])
def test_build_grid_refuses_counts_no_array_holds(n):
    # 401 digits used to overflow float(n), 10**20 to fail inside np.linspace
    with pytest.raises(ValueError, match="fit in one array"):
        build_grid(4.0, n)


def test_build_grid_accepts_integral_counts():
    assert build_grid(4.0, 4.0).n == 4
    assert build_grid(4.0, np.int64(3)).n == 3


def test_grid_equals_only_grids():
    assert (build_grid(6.0, 4) == "grid") is False
    assert build_grid(6.0, 4) != build_grid(6.0, 5)


def test_grid_function_length_check():
    g = build_grid(1.0, 4)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(4))


def test_integrate_constant_and_odd():
    g = build_grid(6.0, 12)
    assert total_population(GridFunction.constant(g, 1.0)) == pytest.approx(6.0, abs=1e-14)
    odd = GridFunction(g, g.nodes)
    assert total_population(odd) == pytest.approx(0.0, abs=1e-13)


def test_integrate_square_weighted_sum():
    # hand-evaluated weighted sum: weights (0.5, 1, 0.5) against values (1, 0, 1)
    g = build_grid(2.0, 2)
    f = GridFunction(g, g.nodes * g.nodes)
    assert total_population(f) == pytest.approx(1.0, abs=1e-15)


def test_integrate_linear():
    rng = np.random.default_rng(11)
    g = build_grid(5.0, 37)
    for _ in range(50):
        fv = rng.normal(size=g.n + 1)
        gv = rng.normal(size=g.n + 1)
        a, b = rng.normal(size=2)
        lhs = total_population(GridFunction(g, a * fv + b * gv))
        rhs = a * total_population(GridFunction(g, fv)) + b * total_population(GridFunction(g, gv))
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))


def test_trapezoid_exact_on_affine():
    rng = np.random.default_rng(3)
    for _ in range(50):
        length = float(rng.uniform(0.5, 20.0))
        n = int(rng.integers(1, 400))
        a, b = rng.normal(size=2) * 5
        g = build_grid(length, n)
        f = GridFunction(g, a * g.nodes + b)
        scale = abs(a) * length**2 + abs(b) * length
        assert abs(total_population(f) - b * length) <= 1e-12 * (1 + scale)


def test_total_population_examples():
    g = build_grid(6.0, 10)
    assert total_population(GridFunction.constant(g, 2.0)) == pytest.approx(12.0, abs=1e-13)
    assert total_population(GridFunction.constant(g, 0.0)) == 0.0


def test_total_population_cosine():
    # analytic integral of cos(pi x / 6) over [-3, 3] is 12 / pi
    g = build_grid(6.0, 1000)
    u = GridFunction(g, np.cos(np.pi * g.nodes / 6.0))
    assert total_population(u) == pytest.approx(12.0 / np.pi, abs=1e-5)


def test_sup_norm_examples():
    g = build_grid(6.0, 6)
    f = GridFunction(g, g.nodes)
    assert sup_norm(f) == 3.0
    assert sup_distance(f, f) == 0.0
    g2 = build_grid(2.0, 2)
    a = GridFunction(g2, [1.0, -4.0, 2.0])
    b = GridFunction(g2, [0.0, 0.0, 0.0])
    assert sup_distance(a, b) == 4.0


def test_sup_distance_grid_mismatch():
    a = GridFunction.constant(build_grid(2.0, 2), 1.0)
    b = GridFunction.constant(build_grid(2.0, 3), 1.0)
    with pytest.raises(GridMismatchError):
        sup_distance(a, b)


def test_sup_distance_is_metric():
    rng = np.random.default_rng(5)
    g = build_grid(4.0, 17)
    for _ in range(200):
        f1 = GridFunction(g, rng.normal(size=g.n + 1))
        f2 = GridFunction(g, rng.normal(size=g.n + 1))
        f3 = GridFunction(g, rng.normal(size=g.n + 1))
        d12 = sup_distance(f1, f2)
        d21 = sup_distance(f2, f1)
        assert d12 >= 0
        assert d12 == d21
        assert sup_distance(f1, f1) == 0.0
        assert d12 <= sup_distance(f1, f3) + sup_distance(f3, f2) + 1e-15


def test_hausdorff_semidistance():
    g = build_grid(2.0, 4)
    zero = GridFunction.constant(g, 0.0)
    one = GridFunction.constant(g, 1.0)
    two = GridFunction.constant(g, 2.0)
    assert hausdorff_semidistance([one], [one]) == 0.0
    assert hausdorff_semidistance([one], [one, two]) == 0.0
    # brute force over pairs: max(min(|0-1|), min(|2-1|)) = 1
    assert hausdorff_semidistance([zero, two], [one]) == 1.0
    with pytest.raises(ValueError):
        hausdorff_semidistance([], [one])


def test_hausdorff_zero_on_subset():
    rng = np.random.default_rng(9)
    g = build_grid(3.0, 8)
    fns = [GridFunction(g, rng.normal(size=g.n + 1)) for _ in range(5)]
    assert hausdorff_semidistance(fns[:3], fns) == 0.0
