import tracemalloc
from itertools import islice

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
    sup_distance,
    sup_norm,
)
from idepull.dynamics import orbit
from conftest import CountingOperator, make_seasonal_operator


def zero_growth(grid_length=6.0, theta=4, variant="h1"):
    kernel = ip.KernelSpec("laplace", 2.0)
    growth = ip.GrowthSpec(
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
        u = GridFunction(grid, np.cos(grid.nodes) + 2)
        for t in range(4):
            v = op.step(t, u)
            assert np.array_equal(v.values, op.forcing[t])

    def test_lipschitz_bound_single_state(self):
        # forcing off: ||H(u)|| <= lambda * ||u|| with the closed-form constant
        kernel = ip.KernelSpec("laplace", 10.0)
        growth = ip.GrowthSpec(
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
        kernel = ip.KernelSpec("laplace", 2.0)  # the kernel of seasonal_op
        for t in range(op.theta):
            bound = (
                ip.kernel_bound_numeric(kernel, t, grid)
                * ip.growth_sup_bound(op.growth, t, float(np.min(op.profile_values)))
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

    def test_period_validation(self):
        kernel = ip.KernelSpec("laplace", (1.0, 2.0, 3.0))
        growth = ip.GrowthSpec(
            "beverton_holt", lambda x: np.ones_like(x), (0.5, 0.6), profile_sup=1.0
        )
        inhom = ip.InhomogeneitySpec.from_variant("h1", 6)
        grid = build_grid(4.0, 16)
        op = build_hammerstein(kernel, growth, inhom, grid)
        assert op.theta == 6
        assert len(op.matrices) == 3
        with pytest.raises(ValueError):
            build_hammerstein(kernel, growth, inhom, grid, theta=4)

    @pytest.mark.parametrize("theta", [0, -2])
    def test_nonpositive_period_refused(self, theta):
        # both pass the common-multiple check, and the operator they gave had
        # no matrices: its step failed with ZeroDivisionError or IndexError
        kernel = ip.KernelSpec("laplace", 2.0)
        growth = ip.GrowthSpec("beverton_holt", lambda x: np.ones_like(x), (0.5,),
                               profile_sup=1.0)
        inhom = ip.InhomogeneitySpec.from_variant("h1", 2)
        with pytest.raises(ValueError, match="period must be >= 1"):
            build_hammerstein(kernel, growth, inhom, build_grid(4.0, 16), theta=theta)

    def test_profile_sup_below_node_values_refused(self):
        # the shipped profile 2|x| + 3 reaches 9.0 at the habitat ends; a
        # declared 1.0 used to certify a factor of 1.06e-81 at scale 0.6
        kernel = ip.KernelSpec("laplace", 10.0)
        growth = ip.GrowthSpec(
            "beverton_holt", lambda x: 2 * np.abs(x) + 3, (0.6,), profile_sup=1.0
        )
        inhom = ip.InhomogeneitySpec.from_variant("h4", 365)
        with pytest.raises(ValueError, match="profile_sup"):
            build_hammerstein(kernel, growth, inhom, build_grid(6.0, 100), theta=365)

    def test_non_finite_profile_refused(self):
        # NaN passes both range checks, and all-NaN fibers repeat their bytes,
        # so the sweep would stop early with a finite certified error
        kernel = ip.KernelSpec("laplace", 10.0)
        growth = ip.GrowthSpec(
            "beverton_holt", lambda x: np.where(np.abs(x) < 1, np.nan, 2 * np.abs(x) + 3),
            (0.6,), profile_sup=9.0,
        )
        inhom = ip.InhomogeneitySpec.from_variant("h4", 4)
        with pytest.raises(ValueError, match="finite"):
            build_hammerstein(kernel, growth, inhom, build_grid(6.0, 50), theta=4)


# periodic rates per family; rates repeat so that the cache dedupes them.
# Tent at a L = 0.6, 1.8 | 2.4, 12 sits on both sides of the support edge,
# and its clamp writes zeros; gauss at rate 15 on length 6 underflows to
# subnormals and 0.
PERIODIC_RATES = {
    "laplace": (2.0, 0.5, 2.0, 15.0),
    "gauss": (2.0, 0.5, 2.0, 15.0),
    "tent": (0.1, 0.3, 0.4, 2.0),
}


def distinct_rates(count, first=1.0):
    return tuple(first + 0.25 * i for i in range(count))


def assert_applies_direct_bits(op, kernel, grid, rng):
    """Check every class's kernel as perfbench applies it.

    ``op.matrices[op.matrix_index[r]] @ g`` must have the bits of the
    directly evaluated matrix's product for a vector, a block and the
    identity block, which keeps every entry, subnormals included.
    """
    x, y = grid.nodes[:, None], grid.nodes[None, :]
    vector = rng.uniform(0.0, 3.0, size=grid.n + 1)
    blocks = (vector, block_of(rng, grid, 3), np.eye(grid.n + 1))
    for r in range(op.theta):
        direct = ip.models.kernel_eval(kernel, r, x, y) * grid.weights
        applied = op.matrices[op.matrix_index[r]]
        for g in blocks:
            assert (applied @ g).tobytes() == (direct @ g).tobytes()


def recorded_shapes(monkeypatch):
    """Record the shapes of the x and y arguments of every kernel evaluation."""
    shapes = []

    def recording_eval(spec, t, x, y):
        shapes.append((np.shape(x), np.shape(y)))
        return ip.models.kernel_eval(spec, t, x, y)

    monkeypatch.setattr(ip.dynamics, "kernel_eval", recording_eval)
    return shapes


class TestAssembly:
    @pytest.mark.parametrize("n", [1, 7, 40])
    @pytest.mark.parametrize("family", sorted(PERIODIC_RATES))
    def test_gathered_matrices_keep_direct_bits(self, family, n, rng):
        # the edge rates, then enough larger rates for the distance table
        edge = PERIODIC_RATES[family]
        extra = ip.dynamics.DISTANCE_TABLE_MIN_RATES - len(set(edge))
        rates = edge + distinct_rates(extra, first=2 * max(edge))
        op, grid = make_seasonal_operator(n=n, theta=len(rates), rate=rates,
                                          kernel_family=family)
        kernel = ip.KernelSpec(family, rates)
        assert len(op.matrices) == ip.dynamics.DISTANCE_TABLE_MIN_RATES
        assert_applies_direct_bits(op, kernel, grid, rng)
        # the edge rates give the zero and subnormal entries the tables keep
        x, y = grid.nodes[:, None], grid.nodes[None, :]
        widest = ip.models.kernel_eval(kernel, len(edge) - 1, x, y) * grid.weights
        if family != "laplace":
            assert np.any(widest == 0.0)
        if family == "gauss" and n == 40:
            assert np.any((widest > 0.0) & (widest < np.finfo(float).tiny))

    @pytest.mark.parametrize("count", [6, ip.dynamics.DISTANCE_TABLE_MIN_RATES])
    def test_perfbench_reads_of_the_store(self, count, rng):
        # perfbench reads the store as len(op.matrices), the sum of the
        # entries' nbytes and op.matrices[op.matrix_index[r]] @ g; the
        # schedule repeats two rates, so there are two more classes than rates
        rates = distinct_rates(count)
        rates += rates[:2]
        op, grid = make_seasonal_operator(theta=len(rates), rate=rates)
        assert type(op.matrices) is tuple
        assert len(op.matrices) == count
        n1 = grid.n + 1
        if count < ip.dynamics.DISTANCE_TABLE_MIN_RATES:
            held = n1 * n1
        else:
            # the distinct (|x_i - x_j|, w_j) pairs that occur on the grid
            distances = np.abs(grid.nodes[:, None] - grid.nodes[None, :])
            weights = np.broadcast_to(grid.weights, (n1, n1))
            held = len(set(zip(distances.ravel().tolist(), weights.ravel().tolist())))
            assert held < n1 * n1
        assert sum(m.nbytes for m in op.matrices) == count * held * 8
        assert_applies_direct_bits(op, ip.KernelSpec("laplace", rates), grid, rng)

    @pytest.mark.parametrize("count", [2, "below"])
    def test_few_rates_evaluate_the_node_grid(self, monkeypatch, count):
        # below the minimum the table's sort and index would cost more than
        # the direct evaluations they replace
        if count == "below":
            count = ip.dynamics.DISTANCE_TABLE_MIN_RATES - 1
        shapes = recorded_shapes(monkeypatch)
        op, grid = make_seasonal_operator(n=30, theta=count, rate=distinct_rates(count))
        assert len(op.matrices) == count
        assert shapes == [((31, 1), (1, 31))] * count

    def test_lone_rate_evaluates_the_node_grid(self, monkeypatch):
        shapes = recorded_shapes(monkeypatch)
        op, grid = make_seasonal_operator(n=30, theta=4, rate=2.0)
        assert len(op.matrices) == 1
        assert shapes == [((31, 1), (1, 31))]

    def test_many_rates_keep_tables_not_matrices(self):
        # 365 gauss rates at n = 120 are 42.7 MB as dense matrices; the pair
        # tables, their index and the assembly's transients stay far below
        n, count = 120, 365
        dense = count * (n + 1) ** 2 * 8
        tracemalloc.start()
        try:
            op, _ = make_seasonal_operator(n=n, theta=count, rate=distinct_rates(count, 5.0),
                                           kernel_family="gauss")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(op.matrices) == count
        assert peak < dense / 4

    def test_many_rates_evaluate_the_table(self, monkeypatch):
        count = ip.dynamics.DISTANCE_TABLE_MIN_RATES
        shapes = recorded_shapes(monkeypatch)
        make_seasonal_operator(n=30, theta=count, rate=distinct_rates(count))
        # one evaluation per rate, each on the 1-D table of distinct distances
        assert len(shapes) == count
        assert all(len(sx) == 1 and sx[0] < 31 * 31 and sy == () for sx, sy in shapes)


# 64 distinct rates, the fewest kept as pair tables, with one class more per
# family that repeats a rate; on length 6 the tent's closed form covers
# a L <= 2, so its last two distinct rates are out of range
TABLE_RATES = {
    "laplace": distinct_rates(64) + (1.0,),
    "gauss": distinct_rates(64) + (1.0,),
    "tent": tuple(0.005 * (i + 1) for i in range(62)) + (0.4, 2.0, 2.0),
}


def recorded_gathers(monkeypatch):
    """Record every pair-table gather as (kernel, gathered matrix)."""
    gathers = []
    real = ip.dynamics._PairTableKernel._gather

    def recording_gather(kernel):
        matrix = real(kernel)
        gathers.append((kernel, matrix))
        return matrix

    monkeypatch.setattr(ip.dynamics._PairTableKernel, "_gather", recording_gather)
    return gathers


class TestRowSumMasses:
    @pytest.mark.parametrize("family", sorted(TABLE_RATES))
    def test_assembly_gathers_only_certified_row_sums(self, family, monkeypatch):
        # a class out of the closed form's range certifies with its row-sum
        # mass, so its table gathers once when the operator is built; no
        # other table gathers then
        rates = TABLE_RATES[family]
        gathers = recorded_gathers(monkeypatch)
        op, grid = make_seasonal_operator(n=30, theta=len(rates), rate=rates,
                                          kernel_family=family)
        assert len(op.matrices) == ip.dynamics.DISTANCE_TABLE_MIN_RATES
        kernel = ip.KernelSpec(family, rates)
        out_of_range = []
        for r in range(op.theta):
            try:
                ip.kernel_bound(kernel, r, grid.length)
            except ip.BoundFormulaOutOfRangeError:
                if op.matrix_index[r] not in out_of_range:
                    out_of_range.append(op.matrix_index[r])
        assert len(out_of_range) == (2 if family == "tent" else 0)
        assert [k for k, _ in gathers] == [op.matrices[i] for i in out_of_range]

    @pytest.mark.parametrize("first", ["read", "sweep"])
    @pytest.mark.parametrize("family", sorted(TABLE_RATES))
    def test_masses_are_first_gather_row_sums(self, family, first, monkeypatch):
        rates = TABLE_RATES[family]
        gathers = recorded_gathers(monkeypatch)
        op, grid = make_seasonal_operator(n=30, theta=len(rates), rate=rates,
                                          kernel_family=family)
        if first == "sweep":
            u0 = GridFunction.constant(grid, 2.0)
            certificate = ip.certify_contraction(ip.step_constants_closed_form(op))
            budget = ip.required_iterations(
                certificate.factor, ip.apriori_distance_bound(op, u0), 1e-6, op.theta)
            fibers = ip.pullback_fibers(op, certificate, budget, u0)
            # every class has stepped, so every table has gathered
            assert fibers.steps_used >= op.theta
            swept = len(gathers)
        masses = op.row_sum_masses
        if first == "sweep":
            assert len(gathers) == swept
        else:
            # each table gathered once: at assembly or in this read
            assert sorted(id(k) for k, _ in gathers) == sorted(map(id, op.matrices))
        taken = {}
        for k, matrix in gathers:
            taken.setdefault(id(k), matrix)
        for r in range(op.theta):
            matrix = taken[id(op.matrices[op.matrix_index[r]])]
            assert masses[r].hex() == float(np.max(np.sum(matrix, axis=1))).hex()
        # a second read, and the operators that share the kernels, gather nothing
        before = len(gathers)
        swapped = op.with_inhomogeneity(ip.InhomogeneitySpec.from_variant("h1", op.theta))
        assert op.row_sum_masses == masses
        assert swapped.row_sum_masses == masses
        assert ip.step_constants_numeric(swapped) == ip.step_constants_numeric(op)
        assert len(gathers) == before


class TestForcing:
    @pytest.mark.parametrize("levels", [(1.0, 2.0), (0.0, -0.0), (1.5, 1.5)])
    @pytest.mark.parametrize("variant", ["h1", "h2", "h3", "h4"])
    def test_forcing_is_the_support_evaluation(self, variant, levels):
        op, grid = make_seasonal_operator(n=20, theta=8, variant=variant, levels=levels)
        for r in range(op.theta):
            h = ip.inhomogeneity_eval(op.inhomogeneity, r, grid.nodes, grid.length)
            assert op.forcing[r].tobytes() == np.asarray(h, dtype=float).tobytes()
            assert not op.forcing[r].flags.writeable
        # one shared vector per distinct amplitude, told apart by its bits
        amplitudes = {op.inhomogeneity.amplitude_at(r).hex() for r in range(op.theta)}
        assert len({id(h) for h in op.forcing}) == len(amplitudes)
        if levels == (0.0, -0.0):
            assert len({h.tobytes() for h in op.forcing}) == len(amplitudes)

    @pytest.mark.parametrize("levels", [(1.0, 2.0), (0.0, -0.0)])
    def test_swapped_support_equals_a_fresh_build(self, levels):
        op, _ = make_seasonal_operator(n=20, theta=8, rate=(1.0, 2.0), variant="h4",
                                       levels=levels)
        for variant in ("h1", "h2", "h3", "h4"):
            fresh, _ = make_seasonal_operator(n=20, theta=8, rate=(1.0, 2.0),
                                              variant=variant, levels=levels)
            swapped = op.with_inhomogeneity(fresh.inhomogeneity)
            assert swapped.inhomogeneity == fresh.inhomogeneity
            assert [h.tobytes() for h in swapped.forcing] == [h.tobytes() for h in fresh.forcing]
            assert swapped.matrices is op.matrices
            assert swapped.kernel_masses == fresh.kernel_masses
            assert swapped.row_sum_masses == fresh.row_sum_masses

    def test_swapped_support_period_checked(self, seasonal_op):
        op, _ = seasonal_op
        with pytest.raises(ValueError, match="period"):
            op.with_inhomogeneity(ip.InhomogeneitySpec.from_variant("h1", 4))


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


class TestOrbit:
    def test_zero_steps(self, seasonal_op):
        op, grid = seasonal_op
        u = GridFunction.constant(grid, 1.0)
        states = tuple(islice(orbit(op, 3, u), 1))
        assert len(states) == 1
        assert states[0] is u

    def test_one_step(self, seasonal_op):
        op, grid = seasonal_op
        u = GridFunction.constant(grid, 1.0)
        states = tuple(islice(orbit(op, 2, u), 2))
        assert np.array_equal(states[1].values, op.step(2, u).values)

    def test_steps_only_on_demand(self, seasonal_op):
        # k + 1 states cost k steps, through each consumer
        op, grid = seasonal_op
        u = GridFunction.constant(grid, 1.0)
        counting = CountingOperator(op)
        states = orbit(counting, 0, u)
        assert next(states) is u and counting.calls == 0
        next(states)
        assert counting.calls == 1
        for consume, steps in [(lambda o: tuple(islice(orbit(o, 2, u), 6)), 5),
                               (lambda o: tuple(islice(orbit(o, 2, u), 1)), 0),
                               (lambda o: general_solution(o, 9, 2, u), 7),
                               (lambda o: general_solution(o, 2, 2, u), 0)]:
            counting = CountingOperator(op)
            consume(counting)
            assert counting.calls == steps


def block_of(rng, grid, m):
    return rng.uniform(0.0, 3.0, size=(grid.n + 1, m))


def stepped_columns(op, grid, t, block):
    return [op.step(t, GridFunction(grid, block[:, j].copy())).values
            for j in range(block.shape[1])]


class TestStepBlock:
    def test_lone_column_keeps_step_bits(self, seasonal_op, rng):
        # step is the one-column block: both give the written-out GEMV's bits,
        # whether the matrices are dense or gathered from pair tables
        count = ip.dynamics.DISTANCE_TABLE_MIN_RATES
        gathered = make_seasonal_operator(theta=count, rate=distinct_rates(count))
        for op, grid in (seasonal_op, gathered):
            block = block_of(rng, grid, 1)
            v = block[:, 0].copy()
            for t in (-7, 0, 5, 11, count + 3):
                r = t % op.theta
                expected = (op.matrices[op.matrix_index[r]] @ op.growth_output(r, v)
                            + op.forcing[r])
                assert op.step(t, GridFunction(grid, v)).values.tobytes() == expected.tobytes()
                assert op.step_block(t, block)[:, 0].tobytes() == expected.tobytes()
        assert not isinstance(gathered[0].matrices[0], np.ndarray)

    @pytest.mark.parametrize("theta", [6, 1])
    def test_shared_matrix_block_near_step(self, theta, rng):
        # several columns go through one GEMM
        op, grid = make_seasonal_operator(theta=theta)
        block = block_of(rng, grid, 8)
        for t in (-7, 0, 4, 11):
            got = op.step_block(t, block)
            for j, expected in enumerate(stepped_columns(op, grid, t, block)):
                np.testing.assert_allclose(got[:, j], expected, rtol=1e-13, atol=0)

    def test_per_day_scales(self, rng):
        # alpha list: one matrix, a growth scale per day
        cfg = ip.parse_config("""
schema_version: 1
grid: {length: 6.0, nodes: 30}
kernel: {family: laplace, dispersal: 2.0}
growth: {family: beverton_holt, profile: vee, alpha: [0.04, 0.05, 0.06]}
inhomogeneity: {variant: h2}
period: 3
tolerance: 1.0e-8
initial: {id: default}
""")
        grid = ip.build_scenario_grid(cfg)
        op = ip.build_operator(cfg, grid)
        block = block_of(rng, grid, 5)
        for t in (0, 1, 2, 4, -1):
            g = op.growth_output(t, block)
            for j in range(block.shape[1]):
                assert g[:, j].tobytes() == op.growth_output(t, block[:, j].copy()).tobytes()
            got = op.step_block(t, block)
            for j, expected in enumerate(stepped_columns(op, grid, t, block)):
                np.testing.assert_allclose(got[:, j], expected, rtol=1e-13, atol=0)

    def test_block_shape_checked(self, seasonal_op, rng):
        op, grid = seasonal_op
        with pytest.raises(ValueError):
            op.step_block(0, rng.uniform(size=(grid.n, 1)))
        with pytest.raises(ValueError):
            op.step_block(0, rng.uniform(size=grid.n + 1))


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

    @pytest.mark.parametrize("scales", [(0.5, np.nan, -2.0), (np.inf,), (-0.1,), np.nan, (),
                                        (0.0,)],
                             ids=["nan-and-negative", "inf", "negative", "scalar-nan", "empty",
                                  "zero"])
    def test_bad_scales_refused(self, scales):
        # an empty schedule used to build an operator of period 0
        with pytest.raises(ValueError, match="scale"):
            self.make(scales=scales)

    def test_step_and_rate_are_the_written_out_law(self, rng):
        scales = (0.9, 1.4, 0.3)
        op, grid = self.make(scales=scales)
        assert op.growth.period == 3
        u = rng.normal(scale=2.0, size=grid.n + 1)
        for t in range(-1, 4):
            b = scales[t % 3] * op.profile_values
            expected = b * u / (1.0 + np.abs(u))
            assert op.step(t, GridFunction(grid, u)).values.tobytes() == expected.tobytes()
            assert op.sup_rate(t) == scales[t % 3] * float(np.max(op.profile_values))

    def test_non_finite_profile_refused(self):
        grid = build_grid(6.0, 40)
        with pytest.raises(ValueError, match="finite"):
            build_pointwise(lambda x: np.where(x == x[0], np.nan, 1.0), (1.0,), grid)

    def test_contraction_ratio(self, rng):
        op, grid = self.make(scales=(0.9, 1.4))
        for t in (0, 1):
            lam = op.sup_rate(t)
            for _ in range(100):
                u = GridFunction(grid, rng.normal(scale=2.0, size=grid.n + 1))
                v = GridFunction(grid, rng.normal(scale=2.0, size=grid.n + 1))
                lhs = sup_distance(op.step(t, u), op.step(t, v))
                assert lhs <= lam * sup_distance(u, v) + 1e-12


def step_on_other_grid():
    op = build_pointwise(np.ones_like, 1.0, build_grid(6.0, 4))
    return op.step(0, GridFunction.constant(build_grid(6.0, 8), 1.0))


# (id, a refused call, the exception type, its exact message)
REFUSALS = [
    ("pointwise-other-grid", step_on_other_grid, GridMismatchError,
     "state lives on a different grid"),
    ("negative-profile", lambda: build_pointwise(lambda x: x, 1.0, build_grid(6.0, 4)),
     ValueError, "growth profile must be nonnegative on the habitat"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal_messages(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
