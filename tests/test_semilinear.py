import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import idepull.semilinear as semilinear
from idepull import (
    BudgetExceededError,
    NoContractionError,
    TimeOrderError,
    build_semilinear,
    contraction_product,
    general_solution,
    gronwall_bound,
    pullback_limit,
    variation_of_constants,
)
from idepull.cli import main
from idepull.config import load_config
from idepull.reporting import run_semilinear
from oracles import transition


def norm(v):
    return float(np.max(np.abs(v)))


def random_system(rng, dim=None, theta=None, nl_scale=0.2):
    dim = int(rng.integers(1, 9)) if dim is None else dim
    theta = int(rng.integers(1, 4)) if theta is None else theta
    mats = [rng.normal(scale=0.3, size=(dim, dim)) for _ in range(theta)]
    scale = float(rng.uniform(0.0, nl_scale))
    return build_semilinear(
        mats, lambda u: scale * np.tanh(u), kappas=(scale,) * theta, rng=rng
    )


class TestTransition:
    def test_identity(self, rng):
        sys = random_system(rng, dim=3)
        assert np.array_equal(transition(sys, 5, 5), np.eye(3))

    def test_scalar_power(self):
        sys = build_semilinear([0.5 * np.eye(2)], lambda u: np.zeros(2), kappas=(0.0,))
        assert np.allclose(transition(sys, 3, 0), 0.125 * np.eye(2), atol=1e-15)

    def test_cocycle(self, rng):
        sys = random_system(rng, dim=4, theta=3)
        for _ in range(20):
            tau = int(rng.integers(-6, 6))
            s = tau + int(rng.integers(0, 5))
            t = s + int(rng.integers(0, 5))
            lhs = transition(sys, t, s) @ transition(sys, s, tau)
            rhs = transition(sys, t, tau)
            assert np.allclose(lhs, rhs, atol=1e-12 * (1 + np.max(np.abs(rhs))))

    def test_rejects_backward(self, rng):
        sys = random_system(rng, dim=2)
        with pytest.raises(TimeOrderError):
            transition(sys, 0, 1)


class TestVariationOfConstants:
    def test_matches_stepwise_on_random_systems(self, rng):
        for _ in range(30):
            sys = random_system(rng)
            u = rng.normal(size=sys.dim)
            tau = int(rng.integers(-10, 10))
            t = tau + int(rng.integers(0, 51))
            voc = variation_of_constants(sys, t, tau, u)
            stp = general_solution(sys, t, tau, u)
            assert norm(voc - stp) <= 1e-10 * (1 + norm(stp))

    def test_identity_at_equal_times(self, rng):
        sys = random_system(rng, dim=3)
        u = rng.normal(size=3)
        assert np.array_equal(variation_of_constants(sys, 2, 2, u), u)

    def test_linear_flow_when_no_nonlinearity(self, rng):
        mats = [rng.normal(scale=0.4, size=(3, 3)) for _ in range(2)]
        sys = build_semilinear(mats, lambda u: np.zeros(3), kappas=(0.0, 0.0))
        u = rng.normal(size=3)
        voc = variation_of_constants(sys, 7, 1, u)
        assert np.allclose(voc, transition(sys, 7, 1) @ u, atol=1e-13)

    def test_scalar_constant_forcing_fixed_point(self):
        # u' = 0.5 u + c has the entire bounded solution 2c
        c = 0.8
        sys = build_semilinear([np.array([[0.5]])], lambda u: np.array([c]), kappas=(0.0,))
        state = np.array([0.0])
        for t in range(200):
            state = sys.step(t, state)
        assert state[0] == pytest.approx(2 * c, abs=1e-12)


class TestGronwall:
    def test_linear_case(self):
        mats = [np.diag([0.7, 0.2]), np.diag([0.4, 0.6])]
        sys = build_semilinear(mats, lambda u: np.zeros(2), kappas=(0.0, 0.0), gamma=1.0)
        expected = 1.5 * 0.7 * 0.6
        assert gronwall_bound(sys, 2, 0, 1.5) == pytest.approx(expected, rel=1e-14)

    def test_empty_window(self, rng):
        sys = random_system(rng, dim=2)
        assert gronwall_bound(sys, 3, 3, 2.0) == sys.gamma * 2.0

    @pytest.mark.parametrize("t", range(6))
    def test_window_gamma_per_period(self, t):
        # gamma = 2.5 bounds ||L^k|| / 0.6^k only for k <= theta = 1: u = (0, 1)
        # and v = 0 are 1.0 apart after two steps, above 2.5 * 0.6^2 = 0.9
        sys = build_semilinear([[[0.5, 1.0], [0.0, 0.5]]], lambda u: np.zeros(2),
                               kappas=[0.0], alphas=[0.6])
        assert sys.gamma == 2.5
        u = np.array([0.0, 1.0])
        separation = norm(general_solution(sys, t, 0, u) - general_solution(sys, t, 0, 0 * u))
        assert separation <= gronwall_bound(sys, t, 0, 1.0)

    def test_dominates_measured_separation(self, rng):
        for _ in range(100):
            sys = random_system(rng)
            u = rng.normal(scale=2.0, size=sys.dim)
            v = rng.normal(scale=2.0, size=sys.dim)
            tau = int(rng.integers(-5, 5))
            t = tau + int(rng.integers(0, 25))
            separation = norm(general_solution(sys, t, tau, u) - general_solution(sys, t, tau, v))
            bound = gronwall_bound(sys, t, tau, norm(u - v))
            assert separation <= bound * (1 + 1e-9) + 1e-12


class TestPullbackLimit:
    def test_zero_nonlinearity_zero_fibers(self):
        sys = build_semilinear([0.6 * np.eye(3)], lambda u: np.zeros(3), kappas=(0.0,))
        fibers, report = pullback_limit(sys, 1e-13, u0=np.ones(3) * 5)
        assert norm(fibers[0]) <= 1e-12
        assert report.factor == pytest.approx(0.6, rel=1e-14)

    def test_scalar_constant_forcing(self):
        sys = build_semilinear([np.array([[0.5]])], lambda u: np.array([1.0]), kappas=(0.0,))
        fibers, report = pullback_limit(sys, 1e-13)
        assert fibers[0][0] == pytest.approx(2.0, abs=1e-12)
        assert report.last_update <= 1e-13

    def test_two_periodic_demo_against_brute_force(self):
        mats = [np.diag([0.9, 0.1]), np.diag([0.1, 0.9])]
        sys = build_semilinear(
            mats, lambda u: np.array([0.3, 0.7]), kappas=(0.0, 0.0)
        )
        tol = 1e-11
        fibers, report = pullback_limit(sys, tol)
        state = np.zeros(2)
        brute = {}
        for t in range(1000):
            brute[t % 2] = state
            state = sys.step(t, state)
        for k in range(2):
            assert norm(fibers[k] - brute[k]) <= tol + report.tail_bound + 1e-12

    def test_fibers_are_periodic_and_invariant(self, rng):
        sys = random_system(rng, dim=3, theta=2, nl_scale=0.1)
        q = contraction_product(sys)
        if q >= 1.0:
            pytest.skip("sampled system not contractive")
        tol = 1e-12
        fibers, _ = pullback_limit(sys, tol)
        step_lip = max(
            np.linalg.norm(m, ord=np.inf) + k for m, k in zip(sys.matrices, sys.kappas)
        )
        for k in range(2):
            stepped = sys.step(k, fibers[k])
            assert norm(stepped - fibers[(k + 1) % 2]) <= tol * (1 + step_lip)

    def test_forward_attraction_rate(self, rng):
        mats = [np.diag([0.9, 0.1]), np.diag([0.1, 0.9])]
        sys = build_semilinear(mats, lambda u: 0.05 * np.tanh(u), kappas=(0.05,) * 2)
        q = contraction_product(sys)
        assert q < 1
        tol = 1e-9
        fibers, _ = pullback_limit(sys, 1e-13)
        for _ in range(10):
            start = rng.normal(scale=5.0, size=2)
            diam = norm(start - fibers[0])
            periods = max(1, math.ceil(math.log(tol / (sys.gamma * diam)) / math.log(q)))
            state = start
            for t in range(2 * periods):
                state = sys.step(t, state)
            assert norm(state - fibers[0]) <= tol * (1 + 1e-6) + 1e-13

    def test_tail_bound_meets_tolerance(self):
        # factor 0.9: the tail 0.9 / 0.1 * update is nine times the last update
        sys = build_semilinear([np.array([[0.9]])], lambda u: np.array([1.0]), kappas=(0.0,))
        tol = 1e-10
        fibers, report = pullback_limit(sys, tol)
        assert report.tail_bound <= tol
        assert abs(fibers[0][0] - 10.0) <= report.tail_bound + 1e-12

    def test_no_contraction_rejected(self):
        sys = build_semilinear([1.1 * np.eye(2)], lambda u: np.zeros(2), kappas=(0.0,))
        with pytest.raises(NoContractionError):
            pullback_limit(sys, 1e-9)

    def test_stops_on_tail_before_update(self):
        # factor 0.2: the tail 0.2 / 0.8 * update is a quarter of the last update
        sys = build_semilinear([np.array([[0.2]])], lambda u: np.array([1.0]), kappas=(0.0,))
        tol = 1e-12
        fibers, report = pullback_limit(sys, tol, u0=np.zeros(1))
        assert report.tail_bound <= tol < report.last_update
        assert report.periods == 19
        # the tail is exact for this affine map, so allow the fiber's rounding
        assert abs(fibers[0][0] - 1.25) <= report.tail_bound + 1e-15

    def test_gamma_q_at_least_one_rejected(self, tmp_path):
        # q = alpha = 0.6 < 1, but gamma * q = 1.5 leaves no certificate
        sys = build_semilinear(
            [np.array([[0.5, 1.0], [0.0, 0.5]])], lambda u: np.zeros(2),
            kappas=(0.0,), gamma=2.5, alphas=(0.6,),
        )
        assert contraction_product(sys) < 1.0
        with pytest.raises(NoContractionError):
            pullback_limit(sys, 1e-9)

        demo = Path("configs/semilinear_demo.yaml").read_text()
        text = demo[: demo.index("semilinear:")] + """semilinear:
  dimension: 2
  matrices:
    - [[0.5, 1.0], [0.0, 0.5]]
  alphas: [0.6]
  gamma: 2.5
  kappas: [0.0]
"""
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        assert main(["semilinear", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_tolerance(self, tol):
        sys = build_semilinear([np.array([[0.5]])], lambda u: np.array([1.0]), kappas=(0.0,))
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            pullback_limit(sys, tol)

    def test_max_periods_guard(self, monkeypatch):
        monkeypatch.setattr(semilinear, "MAX_PERIODS", 5)
        sys = build_semilinear([np.array([[0.9]])], lambda u: np.array([1.0]), kappas=(0.0,))
        with pytest.raises(BudgetExceededError, match="did not settle within 5 periods"):
            pullback_limit(sys, 1e-10)

    def test_shipped_demo_settles_after_15_periods(self, tmp_path):
        _, report = run_semilinear(load_config("configs/semilinear_demo.yaml"), tmp_path)
        assert report.periods == 15
        assert report.tail_bound <= 1e-12


class TestBuilder:
    def test_estimated_constants_are_flagged(self, rng):
        mats = [rng.normal(scale=0.2, size=(3, 3))]
        sys = build_semilinear(mats, lambda u: 0.1 * np.tanh(u), rng=rng)
        # default alphas are the exact norms and gamma is exactly 1: not sampled
        assert {"kappas"} == set(sys.estimated)
        assert sys.gamma >= 1.0
        assert sys.kappas[0] <= 0.1 + 1e-12

    def test_declared_constants_not_flagged(self, rng):
        mats = [rng.normal(scale=0.2, size=(2, 2))]
        alphas = (float(np.linalg.norm(mats[0], ord=np.inf)),)
        sys = build_semilinear(
            mats, lambda u: np.zeros(2), kappas=(0.0,), gamma=1.0, alphas=alphas
        )
        assert sys.estimated == frozenset()

    def test_transition_bound_holds_on_samples(self, rng):
        sys = random_system(rng, dim=4, theta=3)
        for tau in range(3):
            prod = 1.0
            phi = np.eye(4)
            for s in range(tau, tau + 3):
                phi = sys.matrices[s % 3] @ phi
                prod *= sys.alphas[s % 3]
                assert np.linalg.norm(phi, ord=np.inf) <= sys.gamma * prod * (1 + 1e-12)

    def test_sampled_kappa_not_rechecked(self):
        # a sampled kappa is a lower estimate, so a fresh sample may exceed it
        sys = build_semilinear([0.3 * np.eye(3)] * 8, lambda u: 0.2 * np.tanh(u))
        assert "kappas" in sys.estimated

    def test_wrong_kappa_rejected(self, rng):
        mats = [np.eye(2) * 0.5]
        with pytest.raises(ValueError):
            build_semilinear(mats, lambda u: 5.0 * np.tanh(u), kappas=(0.1,), rng=rng)

    def test_declared_gamma_must_bound_transitions(self):
        # ||Phi|| / prod alpha = 2 / 0.5 = 4 on the one-step window
        with pytest.raises(ValueError, match="transition norm bound"):
            build_semilinear(
                [2.0 * np.eye(2)], lambda u: np.zeros(2), kappas=(0.0,), alphas=(0.5,),
                gamma=1.0,
            )

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError):
            build_semilinear([np.eye(2)], lambda u: np.zeros(2), kappas=(0.0,), gamma=0.5)

    def test_zero_alpha_product_refused_not_divided(self):
        # alpha = 1e-201 < ||L|| = 1e-200: the window loop runs, and prod alpha
        # underflows to 0 on the two-step window
        with pytest.raises(ValueError, match=r"window \(0, 2\)"):
            build_semilinear(
                [1e-200 * np.eye(2)] * 2, lambda u: np.zeros(2), kappas=(0.0,), alphas=(1e-201,)
            )

    def test_nan_matrix_entry_refused(self):
        with pytest.raises(ValueError, match="matrix 1 has a non-finite entry"):
            build_semilinear(
                [np.eye(2), np.array([[0.5, np.nan], [0.0, 0.5]])], lambda u: np.zeros(2),
                kappas=(0.0,),
            )

    @pytest.mark.parametrize("key", ["kappas", "alphas", "gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_declared_constant_refused(self, key, value):
        declared = {"kappas": (0.0,), key: value if key == "gamma" else (value,)}
        with pytest.raises(ValueError, match=f"{key[:5]}.* must be finite"):
            build_semilinear([0.5 * np.eye(2)], lambda u: np.zeros(2), **declared)

    @pytest.mark.parametrize("kappas", [(0.0,), None], ids=["declared", "sampled"])
    def test_nan_nonlinearity_refused(self, kappas):
        with pytest.raises(ValueError, match="non-finite value on sampled states"):
            build_semilinear([0.5 * np.eye(2)], lambda u: np.full(2, np.nan), kappas=kappas)


@st.composite
def dominated_systems(draw):
    """Signed matrices of one period and alphas at or above their row-sum norms."""
    dim = draw(st.integers(1, 8))
    theta = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    mats = list(np.random.default_rng(seed).normal(scale=draw(st.floats(0.1, 3.0)),
                                                   size=(theta, dim, dim)))
    stretch = draw(st.lists(st.sampled_from([1.0, 1.0 + 1e-12, 1.5, 4.0]),
                            min_size=theta, max_size=theta))
    return mats, tuple(float(np.linalg.norm(m, ord=np.inf)) * c for m, c in zip(mats, stretch))


class TestWindowProducts:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(dominated_systems())
    def test_dominating_alphas_give_gamma_one(self, system):
        mats, alphas = system
        ratio, _ = semilinear._worst_transition_ratio(mats, alphas)
        assert ratio <= 1.0 + 1e-12
        for declared in (alphas, None):
            sys = build_semilinear(mats, lambda u: np.zeros(len(u)), kappas=(0.0,),
                                   alphas=declared)
            assert sys.gamma == 1.0

    @pytest.fixture
    def window_calls(self, monkeypatch):
        calls = []
        loop = semilinear._worst_transition_ratio

        def counted(mats, alphas):
            calls.append(alphas)
            return loop(mats, alphas)

        monkeypatch.setattr(semilinear, "_worst_transition_ratio", counted)
        return calls

    def test_loop_skipped_when_alphas_bound_the_norms(self, rng, window_calls):
        mats = [rng.normal(size=(4, 4)) for _ in range(3)]
        norms = [float(np.linalg.norm(m, ord=np.inf)) for m in mats]
        build_semilinear(mats, lambda u: np.zeros(4), kappas=(0.0,))
        build_semilinear(mats, lambda u: np.zeros(4), kappas=(0.0,), alphas=norms, gamma=2.0)
        assert window_calls == []

    def test_loop_runs_when_an_alpha_is_below_its_norm(self, rng, window_calls):
        mats = [rng.normal(size=(4, 4)) for _ in range(3)]
        alphas = [float(np.linalg.norm(m, ord=np.inf)) for m in mats]
        alphas[1] *= 0.9
        sys = build_semilinear(mats, lambda u: np.zeros(4), kappas=(0.0,), alphas=alphas)
        assert window_calls == [tuple(alphas)]
        assert sys.gamma > 1.0


def reference_pairs(k, dim, rng, pairs):
    """The per-pair sampler loop: the same draws, one pair at a time."""
    u = rng.normal(scale=3.0, size=(pairs, dim))
    v = rng.normal(scale=3.0, size=(pairs, dim))
    for a, b in zip(u, v):
        yield norm(np.asarray(k(a)) - np.asarray(k(b))), norm(a - b)


NONLINEARITIES = {
    "array": (3, lambda u: 0.4 * np.tanh(u) + 0.1 * np.sin(3.0 * u[::-1])),
    # a scalar value steps by broadcasting, so it serves every dimension
    "scalar": (3, lambda u: float(0.7 * np.sin(u[0] - u[2]))),
    "list": (2, lambda u: [0.3 * np.tanh(u[0] - u[1]), 0.2 * u[0]]),
}


class TestPairSampler:
    @pytest.mark.parametrize("name", NONLINEARITIES)
    def test_sampled_kappa_matches_per_pair_loop(self, name):
        dim, k = NONLINEARITIES[name]
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        sys = build_semilinear([0.5 * np.eye(dim)] * 2, [k, k], rng=rng)
        expected = tuple(
            max((num / den for num, den in reference_pairs(k, dim, ref_rng, 10_000) if den > 0),
                default=0.0)
            for _ in range(2)
        )
        assert sys.kappas == expected
        assert rng.normal() == ref_rng.normal()

    @pytest.mark.parametrize("name", NONLINEARITIES)
    @pytest.mark.parametrize("shrink", [1.0, 1.0 - 1e-6])
    def test_declared_check_matches_per_pair_loop(self, name, shrink):
        # kappas at the worst quotient the check draws pass (its slack admits
        # them); slot 1 slightly below it fails, and the check stops there
        dim, k = NONLINEARITIES[name]
        draws = np.random.default_rng(11)
        kappas = [max(n / d for n, d in reference_pairs(k, dim, draws, 200)) for _ in range(3)]
        kappas[1] *= shrink

        ref_rng = np.random.default_rng(11)
        failing = next((r for r, kappa in enumerate(kappas)
                        if any(n > kappa * d * semilinear._SLACK + 1e-15
                               for n, d in reference_pairs(k, dim, ref_rng, 200))), None)
        assert failing == (None if shrink == 1.0 else 1)

        rng = np.random.default_rng(11)
        if failing is None:
            build_semilinear([0.5 * np.eye(dim)] * 3, k, kappas=kappas, rng=rng)
        else:
            with pytest.raises(ValueError, match=f"violated at slot {failing}"):
                build_semilinear([0.5 * np.eye(dim)] * 3, k, kappas=kappas, rng=rng)
        assert rng.normal() == ref_rng.normal()


def small_system():
    return build_semilinear([0.5 * np.eye(2)], lambda u: np.zeros(2), kappas=(0.0,))


# (id, a refused call, the exception type, its exact message)
REFUSALS = [
    ("no-matrices", lambda: build_semilinear([], lambda u: u), ValueError,
     "need at least one matrix"),
    ("unequal-shapes", lambda: build_semilinear([np.eye(2), np.eye(3)], lambda u: 0 * u),
     ValueError, "matrices must share shape (2, 2), got (3, 3)"),
    ("variation-of-constants-reversed",
     lambda: variation_of_constants(small_system(), 0, 1, np.zeros(2)), TimeOrderError,
     "target time 0 precedes initial time 1"),
    ("gronwall-reversed", lambda: gronwall_bound(small_system(), 0, 1, 1.0), TimeOrderError,
     "target time 0 precedes initial time 1"),
    ("gronwall-negative-separation", lambda: gronwall_bound(small_system(), 1, 0, -1.0),
     ValueError, "initial separation must be >= 0, got -1.0"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal_messages(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
