import dataclasses
import math
import sys
import time
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import idepull as ip
from idepull import (
    BudgetExceededError,
    DivergentInputError,
    GridFunction,
    IterateContractionProblem,
    NoContractionError,
    apriori_distance_bound,
    certify_contraction,
    fixed_point_iterate,
    general_solution,
    pullback_fibers,
    required_iterations,
    sup_distance,
    sup_norm,
    trajectory,
)
from idepull.attractor import _apriori_error
from conftest import CountingOperator, first_repeat_steps, make_seasonal_operator
from oracles import attraction_rate, hausdorff_semidistance

class TestCertify:
    def test_constant_sequence(self):
        cert = certify_contraction([0.9] * 7)
        assert cert.factor == pytest.approx(0.9**7, rel=1e-14)
        assert cert.valid

    def test_boundary_of_contraction(self):
        cert = certify_contraction([1.0] * 5)
        assert cert.factor == 1.0
        assert not cert.valid

    def test_periodic_worst_start(self):
        # one step expands by 2, but the period (2, 0.1) contracts from both starts
        cert = certify_contraction([2.0, 0.1])
        assert cert.factor == pytest.approx(0.2, rel=1e-14)

    @pytest.mark.parametrize("period", [1, 6, 7, 8, 15])
    def test_cyclic_factor_matches_left_to_right_loop(self, period):
        # constants around 1, so the rotations round differently
        lams = np.random.default_rng(11).uniform(0.5, 1.5, size=period).tolist()
        expected = 0.0
        for tau in range(period):
            prod = 1.0
            for r in range(tau, tau + period):
                prod *= lams[r % period]
            expected = max(expected, prod)
        assert certify_contraction(lams).factor == expected

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            certify_contraction([])
        with pytest.raises(ValueError):
            certify_contraction([-0.1])

    def test_numeric_constants_are_absolute_row_sums(self, seasonal_op):
        op, _ = seasonal_op
        lams = ip.step_constants_numeric(op)
        mass = float(np.max(np.sum(np.abs(op.matrices[0]), axis=1)))
        assert lams[0] == op.growth.beta(0) * mass
        assert op.row_sum_masses[0] == mass

    @pytest.mark.parametrize("family", ip.KERNEL_FAMILIES)
    def test_assembled_matrices_are_nonnegative(self, family):
        # the row-sum mass is the absolute row sum only for nonnegative
        # matrices; the tent rates lie on both sides of its support edge a L = 2
        op, _ = make_seasonal_operator(n=40, theta=3, rate=(0.1, 0.5, 4.0),
                                       kernel_family=family)
        assert len(op.matrices) == 3
        for m in op.matrices:
            assert m.min() >= 0

    def test_half_contraction_schedule(self):
        amplitude = ip.half_contraction_amplitude(365, 10.0, 6.0, 9.0)
        kernel = ip.KernelSpec("laplace", 10.0)
        growth = ip.GrowthSpec(
            "beverton_holt",
            lambda x: 2 * np.abs(x) + 3,
            ip.seasonal_scales(365, amplitude),
            profile_sup=9.0,
        )
        lams = [ip.hammerstein_lipschitz(kernel, growth, r, 6.0) for r in range(365)]
        cert = certify_contraction(lams)
        assert abs(cert.factor - 0.5) <= 1e-10


def zero_operator(theta):
    """Zero profile and zero forcing: every state from 0 steps to 0."""
    grid = ip.build_grid(4.0, 16)
    kernel = ip.KernelSpec("laplace", 2.0)
    growth = ip.GrowthSpec(
        "beverton_holt", lambda x: np.zeros_like(x), (1.0,), profile_sup=0.0
    )
    inhom = ip.InhomogeneitySpec((0.0,), 1)
    return ip.build_hammerstein(kernel, growth, inhom, grid, theta=theta), grid


class TestDistanceBound:
    def test_zero_everything(self):
        op, grid = zero_operator(theta=1)
        u0 = GridFunction.constant(grid, 0.0)
        assert apriori_distance_bound(op, u0, "upper-bound") == 0.0
        assert apriori_distance_bound(op, u0, "trajectory") == 0.0

    def test_upper_bound_formula(self, seasonal_op):
        op, grid = seasonal_op
        u0 = GridFunction(grid, np.cos(grid.nodes) + 1.0)
        got = apriori_distance_bound(op, u0, "upper-bound")
        kernel = ip.KernelSpec("laplace", 2.0)  # the kernel of seasonal_op
        manual = sup_norm(u0) + max(
            ip.kernel_bound(kernel, r, grid.length)
            * ip.growth_sup_bound(op.growth, r, float(np.min(op.profile_values)))
            for r in range(op.theta)
        ) + op.forcing_sup()
        assert got == pytest.approx(manual, rel=1e-14)

    def test_trajectory_mode_not_larger(self, seasonal_op):
        # beverton-holt saturates, so the reached growth cannot exceed its sup
        op, grid = seasonal_op
        u0 = GridFunction.constant(grid, 2.0)
        loose = apriori_distance_bound(op, u0, "upper-bound")
        sharp = apriori_distance_bound(op, u0, "trajectory")
        assert sharp <= loose + 1e-12

    def test_ricker_upper_bound_not_below_trajectory(self):
        # beta_t * min b_t = 0.25 < 1: the old ricker sup beta_t / e gave an
        # upper bound of 3.116 below the trajectory mode's 3.465
        cfg = ip.parse_config("""
schema_version: 1
grid: {length: 1.0, nodes: 40}
kernel: {family: laplace, dispersal: 2.0}
growth: {family: ricker, profile: flat, profile_params: {value: 0.5}, alpha: 1.0}
inhomogeneity: {variant: h4}
period: 4
tolerance: 1.0e-8
initial: {id: default}
""")
        grid = ip.build_scenario_grid(cfg)
        op = ip.build_operator(cfg, grid)
        u0 = ip.initial_condition(cfg.initial_id, cfg.initial_params, grid)
        loose = apriori_distance_bound(op, u0, "upper-bound")
        sharp = apriori_distance_bound(op, u0, "trajectory")
        assert loose >= sharp > 3.4

    def test_unknown_mode(self, seasonal_op):
        op, grid = seasonal_op
        with pytest.raises(ValueError):
            apriori_distance_bound(op, GridFunction.constant(grid, 0.0), "exact")


def stepwise_trajectory_bound(op, u0):
    """The trajectory distance bound flowing each start alone, one step at a time."""
    theta = op.theta
    l1 = 0.0
    for s in range(theta):
        state = general_solution(op, s - 1, s - theta, u0)
        r = (s - 1) % theta
        g_sup = float(np.max(np.abs(op.growth_output(r, state.values))))
        l1 = max(l1, op.kernel_masses[r] * g_sup)
    return sup_norm(u0) + l1 + op.forcing_sup()


def unmerged_trajectory_bound(op, u0):
    """The trajectory distance bound as a wavefront that steps every live start.

    The block flow of ``apriori_distance_bound`` without merging equal
    columns: theta * (theta - 1) column steps, one GEMM per time.
    """
    theta = op.theta
    block = np.empty((op.grid.n + 1, theta))
    l1 = 0.0
    for t in range(-theta, theta - 1):
        if t < 0:
            block[:, t + theta] = u0.values
        if t >= -1:
            g_sup = float(np.max(np.abs(op.growth_output(t, block[:, t + 1]))))
            l1 = max(l1, op.kernel_masses[t % theta] * g_sup)
        live = slice(max(0, t + 2), min(theta, t + theta + 1))
        block[:, live] = op.step_block(t, block[:, live])
    return sup_norm(u0) + l1 + op.forcing_sup()


def shipped_operator_n200(**changes):
    """Operator and initial state of the shipped config at n = 200."""
    path = Path(__file__).resolve().parents[1] / "configs" / "seasonal_beverton_holt.yaml"
    cfg = dataclasses.replace(ip.load_config(path), nodes=200, **changes)
    grid = ip.build_scenario_grid(cfg)
    op = ip.build_operator(cfg, grid)
    return cfg, op, ip.initial_condition(cfg.initial_id, cfg.initial_params, grid)


def record_block_widths(monkeypatch):
    """Wrap ``HammersteinOperator.step_block``; the list gets each call's width."""
    widths = []
    real = ip.HammersteinOperator.step_block

    def recording(self, t, values):
        widths.append(values.shape[1])
        return real(self, t, values)

    monkeypatch.setattr(ip.HammersteinOperator, "step_block", recording)
    return widths


def never_merging_operator_n200():
    """The shipped config at n = 200 with zero forcing levels.

    Every state decays toward 0 without two starts meeting bit for bit, so
    the bound steps all theta (theta - 1) = 132 860 columns.
    """
    return shipped_operator_n200(levels=(0.0, 0.0))


class TestTrajectoryBoundBlocks:
    # theta = 70 steps up to 69 live starts in one step_block call
    @pytest.mark.parametrize("theta", [1, 2, 3, 6, 70])
    @pytest.mark.parametrize("family", ["beverton_holt", "logistic", "ricker"])
    @pytest.mark.parametrize("periodic", [False, True])
    def test_matches_stepwise_oracle(self, family, theta, periodic):
        rate = tuple(1.5 + 0.5 * r for r in range(theta)) if periodic else 2.0
        op, grid = make_seasonal_operator(n=40, theta=theta, rate=rate, family=family)
        u0 = GridFunction(grid, 0.6 + 0.4 * np.cos(grid.nodes))
        got = apriori_distance_bound(op, u0, "trajectory")
        expected = stepwise_trajectory_bound(op, u0)
        # a GEMM column of step_block need not add as step's GEMV does, so
        # the bound is held to rounding and its budget exactly
        assert got == pytest.approx(expected, rel=1e-14, abs=0)
        for tol in (1e-6, 1e-10):
            assert (required_iterations(0.5, got, tol, theta).windows
                    == required_iterations(0.5, expected, tol, theta).windows)

    def test_one_block_step_per_time(self, monkeypatch):
        # no starts merge, so each of the 2 theta - 2 times with a live start
        # steps all of them in one call, up to theta - 1 = 364 columns wide
        _, op, u0 = never_merging_operator_n200()
        expected = unmerged_trajectory_bound(op, u0)
        widths = record_block_widths(monkeypatch)
        got = apriori_distance_bound(op, u0, "trajectory")
        assert len(widths) == 2 * op.theta - 2 == 728
        assert max(widths) == op.theta - 1
        assert sum(widths) == op.theta * (op.theta - 1)
        assert got == pytest.approx(expected, rel=1e-14, abs=0)

    def test_unmerged_block_memory(self):
        # the widest call makes a growth output and a product of (n+1) x 364
        # beside the (n+1) x 365 block: under four such blocks at its peak
        _, op, u0 = never_merging_operator_n200()
        tracemalloc.start()
        try:
            apriori_distance_bound(op, u0, "trajectory")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * (op.grid.n + 1) * op.theta * 8

    def test_grid_mismatch(self, seasonal_op):
        # the upper bound never steps u0, yet it reads ||u0||, so it refuses too
        op, _ = seasonal_op
        for mode in ("upper-bound", "trajectory"):
            with pytest.raises(ip.GridMismatchError, match="different grid"):
                apriori_distance_bound(op, GridFunction.constant(ip.build_grid(6.0, 12), 1.0),
                                       mode)

    @pytest.mark.parametrize("variant", ["h1", "h2", "h3", "h4"])
    def test_merged_starts_step_once(self, variant, monkeypatch):
        # shipped config at n = 200: the 365 starts reach the same bits within
        # about 70 steps, so the merged wavefront takes under 20 000 of the
        # 365 * 364 = 132 860 column steps, and gives the unmerged bound
        cfg, op, u0 = shipped_operator_n200(variant=variant)
        expected = unmerged_trajectory_bound(op, u0)
        widths = record_block_widths(monkeypatch)
        got = apriori_distance_bound(op, u0, "trajectory")
        assert sum(widths) <= 20_000
        assert got == pytest.approx(expected, rel=1e-14, abs=0)
        factor = certify_contraction(ip.step_constants_closed_form(op)).factor
        for tol in (cfg.tolerance, 1e-10):
            assert (required_iterations(factor, got, tol, op.theta).windows
                    == required_iterations(factor, expected, tol, op.theta).windows)

    def test_zero_starts_merge_at_once(self, monkeypatch):
        # every start steps from 0 to 0, so each joining start merges at the
        # first comparison: one column steps before the second start joins,
        # two (the merged run and the new start) while starts join, then one
        theta = 6
        op, grid = zero_operator(theta)
        widths = record_block_widths(monkeypatch)
        assert apriori_distance_bound(op, GridFunction.constant(grid, 0.0), "trajectory") == 0.0
        assert sum(widths) == 1 + 2 * (theta - 1) + (theta - 2)

    def test_block_memory_stays_small(self):
        # shipped config at n = 200: the 365 starts are one (n+1) x 365 array
        # (0.59 MB), and they merge within about 70 steps, so no step_block
        # call is wider than 63 columns and the temporaries stay narrow
        _, op, u0 = shipped_operator_n200()
        tracemalloc.start()
        try:
            apriori_distance_bound(op, u0, "trajectory")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.theta == 365
        assert peak < 1_000_000


class TestKernelMasses:
    # rate * length = 1.2 for class 0 (closed form), 6 for class 1 (out of range)
    @pytest.fixture
    def tent_op(self):
        return make_seasonal_operator(n=200, theta=2, rate=(0.2, 1.0), kernel_family="tent")

    def test_fallback_reads_cached_matrices(self, tent_op, monkeypatch):
        op, grid = tent_op
        calls = []
        real = ip.models.kernel_eval
        # dynamics binds kernel_eval by name, so both modules are patched
        for module in (ip.models, ip.dynamics):
            monkeypatch.setattr(
                module, "kernel_eval", lambda *args: calls.append(args) or real(*args)
            )
        u0 = GridFunction.constant(grid, 2.0)
        ip.step_constants_closed_form(op)
        apriori_distance_bound(op, u0, "upper-bound")
        apriori_distance_bound(op, u0, "trajectory")
        assert calls == []

    def test_closed_form_or_row_sum_per_class(self, tent_op):
        op, _ = tent_op
        kernel = ip.KernelSpec("tent", (0.2, 1.0))  # the kernel of tent_op
        lams = ip.step_constants_closed_form(op)
        assert lams[0] == op.growth.beta(0) * ip.kernel_bound(kernel, 0, 6.0)
        assert lams[1] == ip.step_constants_numeric(op)[1]
        assert op.kernel_masses[0] == ip.kernel_bound(kernel, 0, 6.0)
        assert op.kernel_masses[1] == op.row_sum_masses[1]
        assert not op.masses_closed_form

    @pytest.mark.parametrize("family", ip.KERNEL_FAMILIES)
    def test_assembled_masses(self, family, monkeypatch):
        # periodic rates; the tent rates lie on both sides of its support edge a L = 2
        calls = []
        real = ip.dynamics.kernel_eval
        monkeypatch.setattr(
            ip.dynamics, "kernel_eval", lambda *args: calls.append(args) or real(*args)
        )
        op, grid = make_seasonal_operator(n=40, theta=6, rate=(0.1, 0.5, 4.0),
                                          kernel_family=family)
        kernel = ip.KernelSpec(family, (0.1, 0.5, 4.0))
        assert len(calls) == 3
        fallback = False
        for r in range(op.theta):
            matrix = op.matrices[op.matrix_index[r]]
            row_sum = float(np.max(np.sum(np.abs(matrix), axis=1)))
            assert op.row_sum_masses[r] == row_sum
            try:
                assert op.kernel_masses[r] == ip.kernel_bound(kernel, r, grid.length)
            except ip.BoundFormulaOutOfRangeError:
                assert op.kernel_masses[r] == row_sum
                fallback = True
        assert fallback == (family == "tent")
        assert op.masses_closed_form == (not fallback)


def _exact_error(factor: float, windows: int, bound: float) -> Decimal:
    """factor^windows / (1 - factor) * bound in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        f = Decimal(factor)
        return (f**windows if windows else Decimal(1)) / (1 - f) * Decimal(bound)


def _assert_stated_from_above(factor: float, windows: int, bound: float) -> None:
    """Where factor**windows or the product falls below the least normal float,
    the stated error is at least the exact one; elsewhere it is the product,
    within a few roundings of it."""
    stated = Decimal(_apriori_error(factor, windows, bound))
    exact = _exact_error(factor, windows, bound)
    power = factor**windows
    if min(power, power / (1.0 - factor) * bound) < sys.float_info.min:
        assert stated >= exact > 0
    else:
        assert stated >= exact * (1 - Decimal(2) ** -50)


class TestRequiredIterations:
    # factors 1 - 1e-6 ... 1 - 1e-16, where a one-window walk would take up to
    # about 1e19 steps
    NEAR_ONE = [
        (1.0 - gap, bound, tol)
        for gap in (1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16)
        for bound in (1.0, 1e300)
        for tol in (5e-324, 1e-300, 1e-100, 1e-20, 1e-8)
    ]

    def test_worked_example(self):
        budget = required_iterations(0.5, 1.0, 0.5, window=3)
        assert budget.windows == 2
        assert budget.total_steps == 6

    def test_zero_distance(self):
        budget = required_iterations(0.5, 0.0, 1e-9, window=4)
        assert budget.windows == 0
        assert budget.total_steps == 0

    @pytest.mark.parametrize("factor, bound, tol, windows", [
        (0.0, 1.0, 0.5, 1),
        (0.0, 0.5, 1.0, 0),
        (0.0, 1e300, 1e-300, 1),
        (0.0, 5e-324, 1e-300, 0),
        (0.0, 0.0, 1e-300, 0),
        (5e-324, 0.0, 1e-300, 0),
        (0.999, 0.0, 1e-300, 0),
    ])
    def test_zero_factor_or_bound(self, factor, bound, tol, windows):
        # the search asks 0 windows first
        budget = required_iterations(factor, bound, tol, window=3)
        assert budget.windows == windows
        assert budget.total_steps == 3 * windows

    @pytest.mark.parametrize("factor, bound, tol, windows, least", [
        # 0.5**1075 underflows to 0, so the product read 1 075 windows, whose
        # exact error is 4.9e-24
        (0.5, 1e300, 1e-300, 1995, 1995),
        # the product read 2 587 windows and a certified error of 0; the
        # exact error first drops below 5e-324 at 2 597 windows, and the
        # stated one is at least 5e-324, which needs an exact error below half
        (0.7497, 10.0, 5e-324, 2600, 2597),
    ])
    def test_underflowed_power_is_stated_from_above(self, factor, bound, tol, windows, least):
        budget = required_iterations(factor, bound, tol, 1)
        assert budget.windows == windows
        stated = _apriori_error(factor, windows, bound)
        assert 0.0 < stated <= tol
        assert Decimal(stated) >= _exact_error(factor, windows, bound)
        assert _exact_error(factor, least, bound) <= tol < _exact_error(factor, least - 1, bound)

    @pytest.mark.parametrize("factor, bound, tol", NEAR_ONE)
    def test_near_one_factor_returns(self, factor, bound, tol):
        started = time.perf_counter()
        t = required_iterations(factor, bound, tol, window=1).windows
        assert time.perf_counter() - started < 1.0
        assert _apriori_error(factor, t, bound) <= tol
        assert t == 0 or _apriori_error(factor, t - 1, bound) > tol

    def test_small_counts_match_a_scan(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            factor = float(rng.uniform(0.01, 0.99))
            bound = math.ldexp(rng.uniform(1.0, 2.0), int(rng.integers(-1074, 1024)))
            tol = math.ldexp(rng.uniform(1.0, 2.0), int(rng.integers(-1074, 1024)))
            least = 0
            while _apriori_error(factor, least, bound) > tol:
                least += 1
            assert required_iterations(factor, bound, tol, window=1).windows == least

    def test_apriori_error_is_never_zero(self):
        factors = (5e-324, 1e-300, 0.5, 0.7497, 1.0 - 1e-16)
        bounds = (5e-324, 1e-300, 1.0, 1e300, sys.float_info.max)
        for factor in factors:
            for bound in bounds:
                for windows in (0, 1, 2, 1075, 10**6, 2**64):
                    assert _apriori_error(factor, windows, bound) > 0.0

    def test_apriori_error_bounds_the_exact_error(self):
        # windows on both sides of where factor**windows or the product
        # leaves the normal floats
        for factor in (1e-300, 0.1, 0.5, 0.7497, 0.99, 1.0 - 1e-6):
            for bound in (5e-324, 1e-300, 1.0, 1e300, sys.float_info.max):
                edge = math.log(sys.float_info.min) / math.log(factor)
                for windows in {max(0, int(edge * s) + k) for s in (0.5, 1.0, 1.5)
                                for k in range(-3, 4)}:
                    _assert_stated_from_above(factor, windows, bound)

    def test_no_contraction(self):
        with pytest.raises(NoContractionError):
            required_iterations(1.0, 1.0, 1e-6, window=2)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            required_iterations(0.5, 1.0, tol, window=2)

    def test_half_factor_closed_form(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            l2 = float(rng.uniform(1e-3, 50.0))
            tol = float(rng.uniform(1e-10, 1e-2))
            budget = required_iterations(0.5, l2, tol, window=9)
            expected = max(0, math.ceil(math.log2(2.0 * l2 / tol)))
            assert budget.windows == expected
            assert budget.total_steps == 9 * expected

    def test_budget_meets_tolerance_minimally(self):
        # bounds and tolerances log-uniform over every positive float, the
        # subnormals included: tol * (1 - factor) used to underflow to 0
        rng = np.random.default_rng(18)
        for _ in range(2000):
            factor = float(rng.uniform(0.05, 0.95))
            l2 = math.ldexp(rng.uniform(1.0, 2.0), int(rng.integers(-1074, 1024)))
            tol = math.ldexp(rng.uniform(1.0, 2.0), int(rng.integers(-1074, 1024)))
            budget = required_iterations(factor, l2, tol, window=2)
            t = budget.windows
            assert _apriori_error(factor, t, l2) <= tol
            if t > 0:
                assert _apriori_error(factor, t - 1, l2) > tol
            _assert_stated_from_above(factor, t, l2)


class Countdown:
    """u -> max(u - 1, 0) at every node, with a declared period; counts its steps."""

    def __init__(self, theta):
        self.theta, self.calls = theta, 0

    def step(self, t, u):
        self.calls += 1
        return GridFunction(u.grid, np.maximum(u.values - 1.0, 0.0))


def tight_fibers(op, grid, u0=None, tol=1e-12, lams=None):
    lams = ip.step_constants_numeric(op) if lams is None else lams
    cert = certify_contraction(lams)
    u0 = GridFunction.constant(grid, 1.0) if u0 is None else u0
    bound = apriori_distance_bound(op, u0, "upper-bound")
    budget = required_iterations(cert.factor, bound, tol, op.theta)
    return pullback_fibers(op, cert, budget, u0), cert


class TestPullbackFibers:
    def test_pure_forcing_fibers(self):
        kernel = ip.KernelSpec("laplace", 2.0)
        growth = ip.GrowthSpec(
            "beverton_holt", lambda x: np.zeros_like(x), (1.0,), profile_sup=0.0
        )
        inhom = ip.InhomogeneitySpec.from_variant("h3", 6)
        grid = ip.build_grid(6.0, 24)
        op = ip.build_hammerstein(kernel, growth, inhom, grid, theta=6)
        fibers, _ = tight_fibers(op, grid, u0=GridFunction.constant(grid, 3.0))
        for t in range(6):
            assert np.array_equal(fibers.fiber(t).values, op.forcing[(t - 1) % 6])

    def test_scalar_affine_surrogate_via_generic_solver(self):
        problem = IterateContractionProblem(
            step=lambda x: 0.3 * x + 0.7, distance=lambda a, b: abs(a - b), order=1,
            factor=0.3,
        )
        x, err = fixed_point_iterate(problem, 10.0, 1e-13)
        assert abs(x - 1.0) <= max(err, 1e-12)

    def test_invalid_certificate_rejected(self, seasonal_op):
        op, grid = seasonal_op
        cert = certify_contraction([1.2] * op.theta)
        budget = ip.ErrorBudget(1.0, op.theta, 3)
        with pytest.raises(NoContractionError):
            pullback_fibers(op, cert, budget, GridFunction.constant(grid, 1.0))

    def test_window_mismatch_rejected(self, seasonal_op):
        # the budget must use the period as window
        op, grid = seasonal_op
        u0 = GridFunction.constant(grid, 1.0)
        lams = ip.step_constants_numeric(op)
        cert = certify_contraction(lams)
        other = ip.ErrorBudget(1.0, op.theta + 1, 3)
        with pytest.raises(ValueError, match="period"):
            pullback_fibers(op, cert, other, u0)

    def test_budget_guard(self, seasonal_op):
        op, grid = seasonal_op
        cert = certify_contraction(ip.step_constants_numeric(op))
        bound = apriori_distance_bound(op, GridFunction.constant(grid, 1.0))
        budget = required_iterations(cert.factor, bound, 1e-9, op.theta)
        with pytest.raises(BudgetExceededError):
            pullback_fibers(op, cert, budget, GridFunction.constant(grid, 1.0), max_steps=10)

    def test_consecutive_fibers_are_exact_steps(self, seasonal_op):
        op, grid = seasonal_op
        fibers, _ = tight_fibers(op, grid)
        for t in range(op.theta - 1):
            stepped = op.step(t, fibers.fiber(t))
            assert np.array_equal(stepped.values, fibers.fiber(t + 1).values)

    def test_wrap_invariance_within_certified_error(self, seasonal_op):
        op, grid = seasonal_op
        fibers, _ = tight_fibers(op, grid, tol=1e-10)
        wrapped = op.step(op.theta - 1, fibers.fiber(op.theta - 1))
        assert sup_distance(wrapped, fibers.fiber(0)) <= 2 * fibers.certified_error

    def test_periodic_closure(self, seasonal_op):
        op, grid = seasonal_op
        fibers, _ = tight_fibers(op, grid, tol=1e-10)
        state = fibers.fiber(op.theta - 1)
        for t in range(op.theta - 1, 2 * op.theta - 1):
            state = op.step(t, state)
            assert sup_distance(state, fibers.fiber(t + 1)) <= 2 * fibers.certified_error

    def test_uniqueness_surrogate(self, seasonal_op, rng):
        op, grid = seasonal_op
        u0a = GridFunction(grid, rng.uniform(0, 4, size=grid.n + 1))
        u0b = GridFunction(grid, rng.uniform(0, 4, size=grid.n + 1))
        fa, _ = tight_fibers(op, grid, u0=u0a, tol=1e-11)
        fb, _ = tight_fibers(op, grid, u0=u0b, tol=1e-11)
        err = max(fa.certified_error, fb.certified_error)
        for t in range(op.theta):
            assert sup_distance(fa.fiber(t), fb.fiber(t)) <= 2 * err

    def test_certified_error_below_tolerance(self, seasonal_op):
        op, grid = seasonal_op
        fibers, cert = tight_fibers(op, grid, tol=1e-8)
        bound = apriori_distance_bound(op, GridFunction.constant(grid, 1.0))
        budget = required_iterations(cert.factor, bound, 1e-8, op.theta)
        assert fibers.certified_error <= 1e-8
        assert fibers.certified_error == (
            cert.factor**budget.windows
            / (1 - cert.factor)
            * budget.distance_bound
        )

    def test_certified_error_is_the_budgeted_number(self):
        # factor**t * bound / (1 - factor) and factor**t / (1 - factor) * bound
        # round apart here: meeting the tolerance in the first order at 14
        # windows would print an error one ulp above it
        op, grid = make_seasonal_operator(n=8, theta=2)
        factor = float.fromhex("0x1.2626121024076p-1")
        bound = float.fromhex("0x1.6c3e28bb1e39cp+5")
        tol = float.fromhex("0x1.761331bf29b4fp-5")
        budget = required_iterations(factor, bound, tol, 2)
        fibers = pullback_fibers(op, ip.ContractionCertificate(factor), budget,
                                 GridFunction.constant(grid, 1.0))
        assert fibers.certified_error <= tol
        assert budget.windows == 15
        assert fibers.certified_error == float.fromhex("0x1.add1ac5fdb9e1p-6")

    def test_error_estimate_against_depth_trajectories(self, seasonal_op, rng):
        # the certified chain: distance from depth-t*T trajectories decays
        # like factor^t/(1-factor) times the one-window displacement
        op, grid = seasonal_op
        theta = op.theta
        lams = ip.step_constants_numeric(op)
        cert = certify_contraction(lams)
        u0 = GridFunction(grid, rng.uniform(0, 3, size=grid.n + 1))
        fibers, _ = tight_fibers(op, grid, u0=u0, tol=1e-12)

        d_one = max(
            sup_distance(u0, general_solution(op, s + theta, s, u0)) for s in range(theta)
        )
        t_max = 12
        states = {s: u0 for s in range(theta)}
        for t in range(1, t_max + 1):
            for s in range(theta):
                states[s] = general_solution(op, s + t * theta, s + (t - 1) * theta, states[s])
            measured = max(sup_distance(fibers.fiber(s), states[s]) for s in range(theta))
            bound = cert.factor**t / (1 - cert.factor) * d_one
            assert measured <= bound + 2 * fibers.certified_error + 1e-12

    def test_per_window_contraction_of_pairs(self, seasonal_op, rng):
        op, grid = seasonal_op
        cert = certify_contraction(ip.step_constants_numeric(op))
        u = GridFunction(grid, rng.uniform(0, 3, size=grid.n + 1))
        v = GridFunction(grid, rng.uniform(0, 3, size=grid.n + 1))
        for start in range(-2, 3):
            du = general_solution(op, start + op.theta, start, u)
            dv = general_solution(op, start + op.theta, start, v)
            assert sup_distance(du, dv) <= (cert.factor + 1e-12) * sup_distance(u, v)
            u, v = du, dv

    @staticmethod
    def full_sweep_bits(op, budget, u0):
        # an explicit op.step loop over the whole budget, independent of the
        # orbit loop the sweep steps through
        state = u0
        for t in range(-budget.total_steps, 0):
            state = op.step(t, state)
        bits = [state.values.tobytes()]
        for t in range(op.theta - 1):
            state = op.step(t, state)
            bits.append(state.values.tobytes())
        return bits

    def test_early_stop_matches_full_sweep_bits(self, seasonal_op):
        op, grid = seasonal_op
        u0 = GridFunction.constant(grid, 1.0)
        cert = certify_contraction(ip.step_constants_numeric(op))
        bound = apriori_distance_bound(op, u0)
        budget = required_iterations(cert.factor, bound, 1e-12, op.theta)
        fibers = pullback_fibers(op, cert, budget, u0)
        assert [f.values.tobytes() for f in fibers.fibers] == self.full_sweep_bits(op, budget, u0)
        assert fibers.steps_used == first_repeat_steps(op, u0, budget.total_steps)
        assert fibers.steps_used < budget.total_steps + op.theta - 1

    def test_mid_period_stop_keeps_class_order(self, seasonal_op):
        # the first repeat comes 2 days into a period, u(32) == u(26) with
        # theta = 6, and the sweep makes no step past it
        op, grid = seasonal_op
        counting = CountingOperator(op)
        u0 = GridFunction.constant(grid, 1.0)
        cert = certify_contraction(ip.step_constants_numeric(op))
        budget = required_iterations(cert.factor, apriori_distance_bound(op, u0), 1e-12, op.theta)
        fibers = pullback_fibers(counting, cert, budget, u0)
        assert counting.calls == fibers.steps_used == 32
        assert fibers.steps_used == first_repeat_steps(op, u0, budget.total_steps)
        assert [f.values.tobytes() for f in fibers.fibers] == self.full_sweep_bits(op, budget, u0)
        for t in range(op.theta):
            stepped = op.step(t, fibers.fiber(t))
            assert stepped.values.tobytes() == fibers.fiber(t + 1).values.tobytes()

    def test_period_one_stops_at_fixed_point(self):
        op, grid = make_seasonal_operator(theta=1)
        u0 = GridFunction.constant(grid, 1.0)
        fibers, cert = tight_fibers(op, grid, u0=u0)
        budget = required_iterations(cert.factor, apriori_distance_bound(op, u0), 1e-12, op.theta)
        assert fibers.steps_used == first_repeat_steps(op, u0, budget.total_steps)
        assert fibers.steps_used < budget.total_steps
        assert [f.values.tobytes() for f in fibers.fibers] == self.full_sweep_bits(
            op, budget, u0)
        assert op.step(0, fibers.fiber(0)).values.tobytes() == fibers.fiber(0).values.tobytes()

    def test_zero_windows_compares_no_step(self, seasonal_op):
        # a budget of no windows sweeps theta - 1 steps from u0, and no state
        # is old enough to be compared
        op, grid = seasonal_op
        counting = CountingOperator(op)
        u0 = GridFunction.constant(grid, 1.0)
        cert = certify_contraction(ip.step_constants_numeric(op))
        budget = ip.ErrorBudget(0.0, op.theta, 0)
        fibers = pullback_fibers(counting, cert, budget, u0)
        assert fibers.steps_used == counting.calls == op.theta - 1
        assert [f.values.tobytes() for f in fibers.fibers] == [
            f.values.tobytes() for f in trajectory(op, 0, op.theta - 1, u0)]

    @pytest.mark.parametrize("theta", [1, 3])
    def test_match_on_last_budgeted_step(self, theta):
        # u(t) = max(c - t, 0) first repeats at t = c + theta: with c =
        # theta * windows - 1 that is the last budgeted step, and one window
        # fewer runs out one step short of it
        grid = ip.build_grid(1.0, 4)
        windows = 4
        op = Countdown(theta)
        u0 = GridFunction.constant(grid, float(theta * windows - 1))
        cert = certify_contraction([0.5] * theta)
        exhausted = theta * windows + theta - 1
        budget = ip.ErrorBudget(1.0, theta, windows)
        fibers = pullback_fibers(op, cert, budget, u0)
        assert op.calls == fibers.steps_used == exhausted
        assert fibers.steps_used == first_repeat_steps(op, u0, budget.total_steps)
        assert [f.values.tobytes() for f in fibers.fibers] == self.full_sweep_bits(op, budget, u0)
        assert all(np.all(f.values == 0.0) for f in fibers.fibers)

        short = ip.ErrorBudget(1.0, theta, windows - 1)
        fibers = pullback_fibers(Countdown(theta), cert, short, u0)
        assert fibers.steps_used == exhausted - theta
        assert [f.values.tobytes() for f in fibers.fibers] == self.full_sweep_bits(op, short, u0)

    def test_signed_zero_flip_does_not_stop(self):
        # P(u) = -u from zeros alternates 0.0 and -0.0: equal values, unequal bits
        grid = ip.build_grid(1.0, 4)

        class Negate:
            theta = 1

            def step(self, t, u):
                return GridFunction(u.grid, -u.values)

        op = Negate()
        u0 = GridFunction(grid, np.zeros(grid.n + 1))
        budget = ip.ErrorBudget(1.0, 1, 10)
        fibers = pullback_fibers(op, certify_contraction([0.5]), budget, u0)
        assert fibers.steps_used == budget.total_steps
        assert [f.values.tobytes() for f in fibers.fibers] == self.full_sweep_bits(op, budget, u0)

    def test_short_budget_sweeps_in_full(self, seasonal_op):
        # the test operator reaches its exact fixed point after 6 periods
        op, grid = seasonal_op
        u0 = GridFunction.constant(grid, 1.0)
        cert = certify_contraction(ip.step_constants_numeric(op))
        budget = ip.ErrorBudget(1.0, op.theta, 3)
        fibers = pullback_fibers(op, cert, budget, u0)
        assert fibers.steps_used == budget.total_steps + op.theta - 1
        assert [f.values.tobytes() for f in fibers.fibers] == self.full_sweep_bits(op, budget, u0)


@st.composite
def sweep_scenarios(draw):
    """A small contractive scenario, a start state and a tolerance."""
    theta = draw(st.integers(1, 6))
    n = draw(st.integers(4, 32))
    length = draw(st.floats(2.0, 6.0))
    family = draw(st.sampled_from(["laplace", "gauss", "tent"]))
    # tent rates reach past its closed-form range (rate * length <= 2)
    high = 4.0 / length if family == "tent" else 4.0
    rates = draw(st.lists(st.floats(0.3 / length, high), min_size=theta, max_size=theta))
    scales = draw(st.lists(st.floats(0.05, 0.9), min_size=theta, max_size=theta))
    growth = ip.GrowthSpec(draw(st.sampled_from(["beverton_holt", "logistic"])),
                           np.ones_like, tuple(scales), profile_sup=1.0)
    levels = (draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 2.0)))
    inhom = ip.InhomogeneitySpec.from_variant(
        draw(st.sampled_from(["h1", "h2", "h3", "h4"])), theta, levels)
    grid = ip.build_grid(length, n)
    op = ip.build_hammerstein(ip.KernelSpec(family, tuple(rates)), growth, inhom, grid, theta)
    u0 = GridFunction.constant(grid, draw(st.floats(0.0, 3.0)))
    return op, u0, 10.0 ** draw(st.floats(-12.0, -1.0))


class TestSweepProperty:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(sweep_scenarios())
    def test_sweep_matches_full_budget_bits(self, scenario):
        op, u0, tol = scenario
        cert = certify_contraction(ip.step_constants_closed_form(op))
        assume(cert.valid)
        budget = required_iterations(cert.factor, apriori_distance_bound(op, u0), tol, op.theta)
        fibers = pullback_fibers(op, cert, budget, u0)

        full = TestPullbackFibers.full_sweep_bits(op, budget, u0)
        assert [f.values.tobytes() for f in fibers.fibers] == full
        assert fibers.steps_used == first_repeat_steps(op, u0, budget.total_steps)


def stepwise_attraction_rate(op, fibers, starts, tau, horizon):
    """The distance series by an explicit ``op.step`` loop over the whole set."""
    states, out = list(starts), []
    for j in range(horizon + 1):
        out.append(hausdorff_semidistance(states, [fibers.fiber(tau + j)]))
        if j < horizon:
            states = [op.step(tau + j, s) for s in states]
    return np.array(out)


def growth_off_operator():
    kernel = ip.KernelSpec("laplace", 2.0)
    growth = ip.GrowthSpec(
        "beverton_holt", lambda x: np.zeros_like(x), (1.0,), profile_sup=0.0
    )
    inhom = ip.InhomogeneitySpec.from_variant("h2", 4)
    grid = ip.build_grid(4.0, 20)
    return ip.build_hammerstein(kernel, growth, inhom, grid, theta=4), grid


class TestAttractionRate:
    def test_start_on_attractor(self, seasonal_op):
        op, grid = seasonal_op
        fibers, _ = tight_fibers(op, grid, tol=1e-11)
        series = attraction_rate(op, fibers, [fibers.fiber(0)], 0, horizon=3 * op.theta)
        assert np.all(series <= 2 * fibers.certified_error + 1e-15)

    def test_decay_contract(self, seasonal_op, rng):
        op, grid = seasonal_op
        lams = ip.step_constants_numeric(op)
        fibers, cert = tight_fibers(op, grid, tol=1e-11)
        tau = 0
        starts = [GridFunction(grid, rng.uniform(0, 5, size=grid.n + 1)) for _ in range(3)]
        diam0 = max(sup_distance(s, fibers.fiber(tau)) for s in starts)
        horizon = 4 * op.theta
        series = attraction_rate(op, fibers, starts, tau, horizon)
        prod = 1.0
        for j in range(horizon + 1):
            assert series[j] <= prod * diam0 + 2 * fibers.certified_error + 1e-12
            prod *= lams[(tau + j) % op.theta]

    def test_period_halving(self, seasonal_op, rng):
        op, grid = seasonal_op
        fibers, cert = tight_fibers(op, grid, tol=1e-12)
        starts = [GridFunction(grid, rng.uniform(0, 5, size=grid.n + 1))]
        series = attraction_rate(op, fibers, starts, 0, 5 * op.theta)
        floor = 2 * fibers.certified_error
        for k in range(5):
            a = series[k * op.theta]
            b = series[(k + 1) * op.theta]
            assert b <= cert.factor * a + floor + 1e-12

    def test_empty_set_rejected(self, seasonal_op):
        op, grid = seasonal_op
        fibers, _ = tight_fibers(op, grid)
        with pytest.raises(ValueError):
            attraction_rate(op, fibers, [], 0, 5)

    def test_one_step_collapse_when_growth_off(self, rng):
        # zero step constants: everything lands on the forcing after one step
        op, grid = growth_off_operator()
        fibers, _ = tight_fibers(op, grid)
        starts = [GridFunction(grid, rng.uniform(0, 9, size=grid.n + 1)) for _ in range(2)]
        series = attraction_rate(op, fibers, starts, 0, 6)
        assert np.all(series[1:] <= 2 * fibers.certified_error + 1e-15)

    @pytest.mark.parametrize("tau", [0, -5, 3])
    def test_steps_each_start_horizon_times(self, seasonal_op, rng, tau):
        op, grid = seasonal_op
        fibers, _ = tight_fibers(op, grid)
        starts = [GridFunction(grid, rng.uniform(0, 5, size=grid.n + 1)) for _ in range(3)]
        for horizon in (1, 7):
            counting = CountingOperator(op)
            attraction_rate(counting, fibers, starts, tau, horizon)
            assert counting.calls == len(starts) * horizon

    @pytest.mark.parametrize("case", ["on-attractor", "three-starts", "one-start", "growth-off"])
    def test_matches_stepwise_loop(self, seasonal_op, rng, case):
        # the start sets and horizons of the tests above; each series equals
        # a whole-set op.step loop bit for bit
        op, grid = growth_off_operator() if case == "growth-off" else seasonal_op
        fibers, _ = tight_fibers(op, grid)

        def uniform(count, high):
            return [GridFunction(grid, rng.uniform(0, high, size=grid.n + 1))
                    for _ in range(count)]

        starts, horizon = {
            "on-attractor": lambda: ([fibers.fiber(0)], 3 * op.theta),
            "three-starts": lambda: (uniform(3, 5), 4 * op.theta),
            "one-start": lambda: (uniform(1, 5), 5 * op.theta),
            "growth-off": lambda: (uniform(2, 9), 6),
        }[case]()
        series = attraction_rate(op, fibers, starts, 0, horizon)
        expected = stepwise_attraction_rate(op, fibers, starts, 0, horizon)
        assert series.tobytes() == expected.tobytes()


class TestFixedPointIterate:
    def test_affine_scalar(self):
        problem = IterateContractionProblem(
            step=lambda x: 0.5 * x + 1.0, distance=lambda a, b: abs(a - b), order=1,
            factor=0.5,
        )
        x, err = fixed_point_iterate(problem, 0.0, 1e-12)
        assert err <= 1e-12
        assert abs(x - 2.0) <= 1e-12

    def test_rotation_contractive_second_iterate(self):
        def step(p):
            x, y = p
            return (1.2 * y, 0.4 * x)

        def dist(p, q):
            return max(abs(p[0] - q[0]), abs(p[1] - q[1]))

        problem = IterateContractionProblem(step=step, distance=dist, order=2, factor=0.48)
        x0 = (3.0, -2.0)
        x, err = fixed_point_iterate(problem, x0, 1e-10)
        # the bound is exactly tight for this linear map, so allow rounding
        assert err <= 1e-10
        assert dist(x, (0.0, 0.0)) <= err * (1 + 1e-12)

        # the certified bound dominates the true error at every window
        first = step(step(x0))
        d0 = dist(x0, first)
        state = first
        for t in range(1, 30):
            bound = 0.48**t / (1 - 0.48) * d0
            assert dist(state, (0.0, 0.0)) <= bound * (1 + 1e-12)
            state = step(step(state))

    def test_already_fixed(self):
        problem = IterateContractionProblem(
            step=lambda x: x, distance=lambda a, b: abs(a - b), order=1, factor=0.0
        )
        x, err = fixed_point_iterate(problem, 4.2, 1e-15)
        assert x == 4.2 and err == 0.0

    def test_stops_on_a_posteriori_bound(self):
        # the map is constant, so the second window moves nothing; the a-priori
        # count for the declared factor 0.9 would be about 290 windows
        calls = []

        def step(x):
            calls.append(x)
            return 2.0

        problem = IterateContractionProblem(
            step=step, distance=lambda a, b: abs(a - b), order=1, factor=0.9
        )
        x, err = fixed_point_iterate(problem, 0.0, 1e-12)
        assert len(calls) <= 2
        assert x == 2.0 and err <= 1e-12

    def test_no_contraction(self):
        problem = IterateContractionProblem(
            step=lambda x: x, distance=lambda a, b: abs(a - b), order=1, factor=1.0
        )
        with pytest.raises(NoContractionError):
            fixed_point_iterate(problem, 1.0, 1e-6)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_tolerance(self, tol):
        problem = IterateContractionProblem(
            step=lambda x: 0.5 * x, distance=lambda a, b: abs(a - b), order=1, factor=0.5
        )
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            fixed_point_iterate(problem, 1.0, tol)

    def test_divergent_input(self):
        problem = IterateContractionProblem(
            step=lambda x: 0.5 * x, distance=lambda a, b: abs(a - b), order=1, factor=0.5
        )
        with pytest.raises(DivergentInputError):
            fixed_point_iterate(problem, float("inf"), 1e-6)
        # a wrongly declared factor: the second window overflows
        problem = IterateContractionProblem(
            step=lambda x: 1e200 * x, distance=lambda a, b: abs(a - b), order=1, factor=0.5
        )
        with pytest.raises(DivergentInputError):
            fixed_point_iterate(problem, 1.0, 1e-6)


def zero_horizon_rate():
    op, grid = make_seasonal_operator(n=8, theta=2)
    fibers, _ = tight_fibers(op, grid)
    return attraction_rate(op, fibers, [fibers.fiber(0)], 0, horizon=0)


# (id, a refused call, the exception type, its exact message)
REFUSALS = [
    ("negative-factor", lambda: required_iterations(-0.5, 1.0, 1e-6, 2), ValueError,
     "contraction factor must be >= 0, got -0.5"),
    ("infinite-bound", lambda: required_iterations(0.5, math.inf, 1e-6, 2), ValueError,
     "distance bound must be finite and >= 0, got inf"),
    ("nan-bound", lambda: required_iterations(0.5, math.nan, 1e-6, 2), ValueError,
     "distance bound must be finite and >= 0, got nan"),
    ("negative-bound", lambda: required_iterations(0.5, -1.0, 1e-6, 2), ValueError,
     "distance bound must be finite and >= 0, got -1.0"),
    ("zero-window", lambda: required_iterations(0.5, 1.0, 1e-6, 0), ValueError,
     "window must be >= 1, got 0"),
    # int() would truncate 2.7 to a window of 2, and True would pass as 1
    ("fractional-window", lambda: required_iterations(0.5, 1.0, 1e-6, 2.7), ValueError,
     "window must be an integer, got 2.7"),
    ("bool-window", lambda: required_iterations(0.5, 1.0, 1e-6, True), ValueError,
     "window must be an integer, got True"),
    ("zero-horizon", zero_horizon_rate, ValueError, "horizon must be >= 1, got 0"),
    ("zero-order", lambda: fixed_point_iterate(IterateContractionProblem(
        step=lambda x: x / 2, distance=lambda a, b: abs(a - b), order=0, factor=0.5),
        1.0, 1e-6), ValueError, "iterate order must be >= 1, got 0"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal_messages(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
