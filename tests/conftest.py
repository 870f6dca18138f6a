import numpy as np
import pytest

import idepull as ip


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_seasonal_operator(
    n=48,
    theta=6,
    length=6.0,
    rate=2.0,
    family="beverton_holt",
    kernel_family="laplace",
    scale=0.08,
    variant="h4",
    levels=(1.0, 2.0),
):
    """Small contractive seasonal scenario used across the unit tests."""
    grid = ip.build_grid(length, n)
    kernel = ip.KernelSpec(kernel_family, rate)
    scales = tuple(scale * (1.0 + 0.4 * np.sin(2 * np.pi * r / theta)) for r in range(theta))
    growth = ip.GrowthSpec(
        family, lambda x: 2 * np.abs(x) + 3, scales, profile_sup=2 * length / 2 + 3
    )
    inhom = ip.InhomogeneitySpec.from_variant(variant, theta, levels)
    op = ip.build_hammerstein(kernel, growth, inhom, grid, theta=theta)
    return op, grid


@pytest.fixture
def seasonal_op():
    return make_seasonal_operator()


def first_repeat_steps(op, u0, total_steps):
    """Steps a sweep from ``u0`` takes under the exact-repeat stop rule.

    An explicit ``op.step`` loop, independent of the library's orbit loop:
    the first t >= theta whose state equals the state at t - theta by
    bytes, or the exhausted count total_steps + theta - 1.
    """
    theta = op.theta
    exhausted = total_steps + theta - 1
    seen = [u0.values.tobytes()]
    state = u0
    for t in range(1, exhausted + 1):
        state = op.step(t - 1, state)
        seen.append(state.values.tobytes())
        if t >= theta and seen[t] == seen[t - theta]:
            return t
    return exhausted


class CountingOperator:
    """Delegates ``step`` to an operator and counts the calls."""

    def __init__(self, op):
        self.op, self.theta, self.calls = op, op.theta, 0

    def step(self, t, u):
        self.calls += 1
        return self.op.step(t, u)
