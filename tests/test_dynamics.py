import numpy as np
import pytest

import idepull as ip
from idepull import (
    GridFunction,
    GridMismatchError,
    TimeOrderError,
    build_grid,
    build_hammerstein,
    build_pointwise,
    general_solution,
    replay_matches,
    sup_distance,
    sup_norm,
    trajectory,
)

def zero_growth(grid_length=6.0, theta=4, variant="h1"):
    kernel = ip.KernelSpec("laplace", 2.0)
    growth = ip.growth_spec(
        "beverton_holt", lambda x: np.zeros_like(x), (1.0,), profile_sup=0.0
    )
    inhom = ip.InhomogeneitySpec.from_variant(variant, theta)
    grid = build_grid(grid_length, 32)
    return build_hammerstein(kernel, growth, inhom, grid, theta=theta), grid


class TestHammersteinApply:
    def test_zero_population_returns_forcing(self, seasonal_op):
        op, grid = seasonal_op
        u = GridFunction.constant(grid, 0.0)
        for t in (0, 3, 7):
            v = op.step(t, u)
            assert np.array_equal(v.values, op.forcing[t % op.theta])

    def test_zero_growth_returns_forcing(self):
        op, grid = zero_growth()
        u = GridFunction.from_callable(grid, lambda x: np.cos(x) + 2)
        for t in range(4):
            v = op.step(t, u)
            assert np.array_equal(v.values, op.forcing[t])

    def test_lipschitz_bound_single_state(self):
        # forcing off: ||H(u)|| <= lambda * ||u|| with the closed-form constant
        kernel = ip.KernelSpec("laplace", 10.0)
        growth = ip.growth_spec(
            "beverton_holt", lambda x: np.ones_like(x), (0.8,), profile_sup=1.0
        )
        inhom = ip.InhomogeneitySpec((0.0,), 1)
        grid = build_grid(6.0, 1000)
        op = build_hammerstein(kernel, growth, inhom, grid, theta=1)
        u = GridFunction.constant(grid, 1.0)
        lam = ip.hammerstein_lipschitz(kernel, growth, 0, 6.0)
        assert sup_norm(op.step(0, u)) <= lam * sup_norm(u) + 1e-12

    def test_grid_mismatch(self, seasonal_op):
        op, _ = seasonal_op
        other = GridFunction.constant(build_grid(6.0, 12), 1.0)
        with pytest.raises(GridMismatchError):
            op.step(0, other)

    def test_discrete_lipschitz_property(self, seasonal_op, rng):
        op, grid = seasonal_op
        lams = ip.step_constants_numeric(op)
        for t in range(op.theta):
            for _ in range(200 // op.theta + 1):
                u = GridFunction(grid, rng.normal(size=grid.n + 1))
                v = GridFunction(grid, rng.normal(size=grid.n + 1))
                lhs = sup_distance(op.step(t, u), op.step(t, v))
                rhs = lams[t] * sup_distance(u, v)
                assert lhs <= rhs + 1e-12 * (1 + rhs)

    def test_boundedness(self, seasonal_op, rng):
        op, grid = seasonal_op
        for t in range(op.theta):
            bound = (
                ip.kernel_bound_numeric(op.kernel, t, grid)
                * ip.growth_sup_bound(op.growth, t)
                + float(np.max(np.abs(op.forcing[t])))
            )
            for scale in (0.1, 1.0, 25.0):
                u = GridFunction(grid, rng.normal(scale=scale, size=grid.n + 1))
                assert sup_norm(op.step(t, u)) <= bound + 1e-12

    def test_periodicity_exact(self, seasonal_op, rng):
        op, grid = seasonal_op
        u = GridFunction(grid, rng.normal(size=grid.n + 1))
        for t in (-3, 0, 2, 11):
            a = op.step(t, u)
            b = op.step(t + op.theta, u)
            assert np.array_equal(a.values, b.values)

    def test_matrix_cache_dedupes_constant_rate(self, seasonal_op):
        op, _ = seasonal_op
        assert len(op.matrices) == 1
        assert len(op.forcing) == op.theta

    def test_matrix_budget_warning(self):
        kernel = ip.KernelSpec("laplace", 2.0)
        growth = ip.growth_spec(
            "beverton_holt", lambda x: np.ones_like(x), (0.5,), profile_sup=1.0
        )
        inhom = ip.InhomogeneitySpec.from_variant("h1", 4)
        grid = build_grid(6.0, 64)
        with pytest.warns(ResourceWarning):
            build_hammerstein(kernel, growth, inhom, grid, theta=4, matrix_budget_bytes=1024)

    def test_period_validation(self):
        kernel = ip.KernelSpec("laplace", (1.0, 2.0, 3.0))
        growth = ip.growth_spec(
            "beverton_holt", lambda x: np.ones_like(x), (0.5, 0.6), profile_sup=1.0
        )
        inhom = ip.InhomogeneitySpec.from_variant("h1", 6)
        grid = build_grid(4.0, 16)
        op = build_hammerstein(kernel, growth, inhom, grid)
        assert op.theta == 6
        assert len(op.matrices) == 3
        with pytest.raises(ValueError):
            build_hammerstein(kernel, growth, inhom, grid, theta=4)


class TestGeneralSolution:
    def test_identity_at_equal_times(self, seasonal_op, rng):
        op, grid = seasonal_op
        u = GridFunction(grid, rng.normal(size=grid.n + 1))
        assert general_solution(op, 5, 5, u) is u

    def test_rejects_backward_time(self, seasonal_op):
        op, grid = seasonal_op
        with pytest.raises(TimeOrderError):
            general_solution(op, 1, 3, GridFunction.constant(grid, 0.0))

    def test_process_property_bit_exact(self, seasonal_op, rng):
        op, grid = seasonal_op
        for _ in range(100):
            tau = int(rng.integers(-15, 10))
            s = tau + int(rng.integers(0, 8))
            t = s + int(rng.integers(0, 8))
            u = GridFunction(grid, rng.normal(size=grid.n + 1))
            direct = general_solution(op, t, tau, u)
            threaded = general_solution(op, t, s, general_solution(op, s, tau, u))
            assert np.array_equal(direct.values, threaded.values)

    def test_period_shift_bit_exact(self, seasonal_op, rng):
        op, grid = seasonal_op
        u = GridFunction(grid, rng.normal(size=grid.n + 1))
        a = general_solution(op, 9, 2, u)
        b = general_solution(op, 9 + op.theta, 2 + op.theta, u)
        assert np.array_equal(a.values, b.values)


class TestTrajectory:
    def test_zero_steps(self, seasonal_op):
        op, grid = seasonal_op
        u = GridFunction.constant(grid, 1.0)
        seg = trajectory(op, 3, 0, u)
        assert seg.steps == 0
        assert seg.state_at(3) is u

    def test_one_step(self, seasonal_op):
        op, grid = seasonal_op
        u = GridFunction.constant(grid, 1.0)
        seg = trajectory(op, 2, 1, u)
        assert np.array_equal(seg.state_at(3).values, op.step(2, u).values)

    def test_replay_is_exact(self, seasonal_op, rng):
        op, grid = seasonal_op
        u = GridFunction(grid, rng.normal(size=grid.n + 1))
        seg = trajectory(op, -4, 17, u)
        assert replay_matches(op, seg)

    def test_negative_steps_rejected(self, seasonal_op):
        op, grid = seasonal_op
        with pytest.raises(ValueError):
            trajectory(op, 0, -1, GridFunction.constant(grid, 0.0))


class TestPointwise:
    def make(self, scales=(1.0,)):
        grid = build_grid(6.0, 40)
        op = build_pointwise(lambda x: 0.25 * np.abs(x) + 0.5, scales, grid)
        return op, grid

    def test_zero_fixed(self):
        op, grid = self.make()
        v = op.step(0, GridFunction.constant(grid, 0.0))
        assert np.array_equal(v.values, np.zeros(grid.n + 1))

    def test_half_at_one(self):
        grid = build_grid(6.0, 40)
        op = build_pointwise(lambda x: np.ones_like(x), (1.0,), grid)
        v = op.step(0, GridFunction.constant(grid, 1.0))
        assert np.allclose(v.values, 0.5, atol=1e-15)

    def test_contraction_ratio(self, rng):
        op, grid = self.make(scales=(0.9, 1.4))
        for t in (0, 1):
            lam = op.sup_rate(t)
            for _ in range(100):
                u = GridFunction(grid, rng.normal(scale=2.0, size=grid.n + 1))
                v = GridFunction(grid, rng.normal(scale=2.0, size=grid.n + 1))
                lhs = sup_distance(op.step(t, u), op.step(t, v))
                assert lhs <= lam * sup_distance(u, v) + 1e-12
