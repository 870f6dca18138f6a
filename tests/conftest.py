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
