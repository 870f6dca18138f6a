import math

import numpy as np
import pytest

from idepull import (
    NoContractionError,
    TimeOrderError,
    build_semilinear,
    contraction_product,
    general_solution,
    gronwall_bound,
    pullback_limit,
    transition,
    variation_of_constants,
)


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


class TestBuilder:
    def test_estimated_constants_are_flagged(self, rng):
        mats = [rng.normal(scale=0.2, size=(3, 3))]
        sys = build_semilinear(mats, lambda u: 0.1 * np.tanh(u), rng=rng)
        assert {"kappas", "alphas", "gamma"} == set(sys.estimated)
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
