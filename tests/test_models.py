import math
from pathlib import Path

import numpy as np
import pytest

from idepull import (
    BoundFormulaOutOfRangeError,
    GrowthSpec,
    InhomogeneitySpec,
    KernelSpec,
    build_grid,
    build_hammerstein,
    growth_lipschitz,
    growth_sup_bound,
    half_contraction_amplitude,
    hammerstein_lipschitz,
    inhomogeneity_eval,
    kernel_bound,
    kernel_bound_numeric,
    kernel_eval,
    seasonal_scales,
    step_constants_closed_form,
)
from idepull.cli import main
from idepull.models import growth_curve
from oracles import growth_eval


def flat(value):
    return lambda x: np.full_like(np.asarray(x, dtype=float), value)


class TestKernels:
    def test_eval_closed_forms(self):
        laplace = KernelSpec("laplace", 2.0)
        assert kernel_eval(laplace, 0, 0.3, 0.3) == pytest.approx(1.0, abs=1e-15)
        tent = KernelSpec("tent", 1.0)
        assert kernel_eval(tent, 0, 1.0, -1.0) == 0.0
        gauss = KernelSpec("gauss", 1.0)
        assert kernel_eval(gauss, 0, 0.5, 0.5) == pytest.approx(1 / math.sqrt(math.pi), abs=1e-12)

    def test_eval_nonnegative_and_continuous_samples(self):
        rng = np.random.default_rng(2)
        for family in ("laplace", "gauss", "tent"):
            spec = KernelSpec(family, 1.7)
            x = rng.uniform(-3, 3, size=500)
            y = rng.uniform(-3, 3, size=500)
            assert np.all(kernel_eval(spec, 0, x, y) >= 0)

    def test_matrix_matches_formulas_exactly(self):
        x = np.linspace(-3.0, 3.0, 41)[:, None]
        y = np.linspace(-3.0, 3.0, 41)[None, :]
        s = np.abs(x - y)
        a = 1.7
        expected = {
            "laplace": 0.5 * a * np.exp(-a * s),
            "gauss": a / math.sqrt(math.pi) * np.exp(-((a * s) ** 2)),
            "tent": np.maximum(0.0, a - a * a * s),
        }
        for family, values in expected.items():
            assert np.array_equal(kernel_eval(KernelSpec(family, a), 0, x, y), values)

    def test_bound_laplace_machine_precision(self):
        spec = KernelSpec("laplace", 10.0)
        assert abs(kernel_bound(spec, 0, 6.0) - (1.0 - math.exp(-30.0))) <= 2e-16

    def test_bound_gauss(self):
        spec = KernelSpec("gauss", 1.0)
        assert kernel_bound(spec, 0, 2.0) == pytest.approx(math.erf(1.0), abs=1e-15)

    def test_bound_tent(self):
        spec = KernelSpec("tent", 0.5)
        assert kernel_bound(spec, 0, 2.0) == pytest.approx(0.75, abs=1e-15)

    def test_bound_tent_out_of_range(self):
        # beyond rate*length = 2 the closed form undercuts the true bound
        with pytest.raises(BoundFormulaOutOfRangeError):
            kernel_bound(KernelSpec("tent", 2.0), 0, 3.0)
        with pytest.raises(BoundFormulaOutOfRangeError):
            kernel_bound(KernelSpec("tent", 5.0), 0, 1.0)

    def test_numeric_bound_matches_closed_forms(self):
        grid = build_grid(6.0, 2000)
        spec = KernelSpec("laplace", 10.0)
        assert abs(kernel_bound_numeric(spec, 0, grid) - kernel_bound(spec, 0, 6.0)) <= 1e-3
        grid2 = build_grid(2.0, 2000)
        spec2 = KernelSpec("gauss", 1.0)
        assert abs(kernel_bound_numeric(spec2, 0, grid2) - kernel_bound(spec2, 0, 2.0)) <= 1e-6

    def test_numeric_bound_random_families(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            length = float(rng.uniform(1.0, 6.0))
            grid = build_grid(length, 2000)
            for family, tol in (("laplace", 5e-3), ("gauss", 1e-6), ("tent", 5e-3)):
                if family == "tent":
                    rate = float(rng.uniform(0.2, 2.0)) / length
                else:
                    rate = float(rng.uniform(0.5, 5.0))
                spec = KernelSpec(family, rate)
                err = abs(kernel_bound_numeric(spec, 0, grid) - kernel_bound(spec, 0, length))
                assert err <= tol

    def test_numeric_bound_refines_toward_closed_form(self):
        for family, rate, length in (
            ("laplace", 10.0, 6.0),
            ("gauss", 1.0, 2.0),
            ("tent", 0.5, 2.0),
        ):
            spec = KernelSpec(family, rate)
            target = kernel_bound(spec, 0, length)
            errs = [
                abs(kernel_bound_numeric(spec, 0, build_grid(length, n)) - target)
                for n in (250, 500, 1000, 2000)
            ]
            for coarse, fine in zip(errs, errs[1:]):
                assert fine <= coarse + 1e-15

    def test_periodic_rates(self):
        spec = KernelSpec("laplace", (1.0, 2.0, 3.0))
        assert spec.rate_at(4) == 2.0
        assert spec.rate_at(-1) == 3.0
        with pytest.raises(ValueError):
            KernelSpec("laplace", 0.0)
        with pytest.raises(ValueError):
            KernelSpec("cauchy", 1.0)


class TestGrowth:
    def test_zero_at_zero(self):
        for family in ("logistic", "beverton_holt", "ricker"):
            spec = GrowthSpec(family, flat(1.5), (1.0,), profile_sup=1.5)
            assert growth_eval(spec, 0, 0.3, 0.0) == 0.0

    def test_closed_form_values(self):
        bh = GrowthSpec("beverton_holt", flat(2.0), (1.0,), profile_sup=2.0)
        assert growth_eval(bh, 0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        logi = GrowthSpec("logistic", flat(1.0), (1.0,), profile_sup=1.0)
        assert growth_eval(logi, 0, 0.0, 2.0) == 0.0

    def test_sup_bounds(self):
        logi = GrowthSpec("logistic", flat(4.0), (1.0,), profile_sup=4.0)
        assert growth_sup_bound(logi, 0, 4.0) == pytest.approx(1.0, abs=1e-15)
        bh = GrowthSpec("beverton_holt", flat(2.0), (1.0,), profile_sup=2.0)
        assert growth_sup_bound(bh, 0, 2.0) == pytest.approx(2.0, abs=1e-15)
        # sup_z z exp(-e z) = 1/e^2, at z = 1/e
        ricker = GrowthSpec("ricker", flat(math.e), (1.0,), profile_sup=math.e)
        assert growth_sup_bound(ricker, 0, math.e) == pytest.approx(math.exp(-2), abs=1e-15)

    def test_ricker_sup_bound_is_set_by_the_smallest_profile_value(self):
        # beta_t * min b_t = 0.5 * 0.25 < 1, where beta_t / e is no bound
        spec = GrowthSpec("ricker", flat(0.5), (0.5,), profile_sup=0.5)
        bound = growth_sup_bound(spec, 0, 0.5)
        assert bound == pytest.approx(4.0 / math.e, rel=1e-15)
        assert growth_eval(spec, 0, 0.0, 4.0) == pytest.approx(bound, rel=1e-15)
        assert bound > spec.beta(0) / math.e
        with pytest.raises(BoundFormulaOutOfRangeError):
            growth_sup_bound(spec, 0, 0.0)

    @pytest.mark.parametrize(
        "family,scale,profile_value",
        [
            ("logistic", 1.0, 3.0),
            ("beverton_holt", 0.7, 2.0),
            ("ricker", 1.0, 1.5),
            ("ricker", 0.3, 1.5),
        ],
    )
    def test_lipschitz_bound_sampled(self, family, scale, profile_value):
        spec = GrowthSpec(family, flat(profile_value), (scale,), profile_sup=profile_value)
        lip = growth_lipschitz(spec, 0)
        rng = np.random.default_rng(99)
        x = rng.uniform(-3, 3, size=1000)
        z = rng.uniform(-5, 5, size=1000)
        zbar = rng.uniform(-5, 5, size=1000)
        lhs = np.abs(growth_eval(spec, 0, x, z) - growth_eval(spec, 0, x, zbar))
        assert np.all(lhs <= lip * np.abs(z - zbar) + 1e-12)

    @pytest.mark.parametrize(
        "family,scale,profile_value",
        [
            ("logistic", 1.0, 3.0),
            ("beverton_holt", 0.7, 2.0),
            ("ricker", 1.0, 1.5),
            ("ricker", 0.5, 0.5),
        ],
    )
    def test_sup_bound_sampled(self, family, scale, profile_value):
        spec = GrowthSpec(family, flat(profile_value), (scale,), profile_sup=profile_value)
        bound = growth_sup_bound(spec, 0, profile_value)
        rng = np.random.default_rng(100)
        x = rng.uniform(-3, 3, size=1000)
        z = rng.uniform(-8, 8, size=1000)
        assert np.all(np.abs(growth_eval(spec, 0, x, z)) <= bound + 1e-12)

    def test_periodic_scales(self):
        spec = GrowthSpec("beverton_holt", flat(1.0), (0.5, 1.5), profile_sup=1.0)
        assert spec.beta(0) == 0.5
        assert spec.beta(3) == 1.5
        assert max(spec.beta(t) for t in range(10)) < math.inf
        with pytest.raises(ValueError):
            GrowthSpec("beverton_holt", flat(1.0), (0.0,), profile_sup=1.0)


class TestRicker:
    # beta = 0.3 * 1.5 = 0.45 < 1, yet the slope of z exp(-b|z|) at z = 0 is 1
    def spec(self):
        return GrowthSpec("ricker", flat(1.5), (0.3,), profile_sup=1.5)

    def test_lipschitz_constant_is_one(self):
        spec = self.spec()
        assert spec.beta(0) == pytest.approx(0.45, rel=1e-15)
        assert growth_lipschitz(spec, 0) == 1.0
        z = 1e-3
        slope = growth_eval(spec, 0, 0.0, z) / z
        assert 0.45 < slope <= growth_lipschitz(spec, 0)

    def test_step_constants_are_kernel_masses(self):
        grid = build_grid(6.0, 40)
        support = InhomogeneitySpec.from_variant("h4", 4)
        op = build_hammerstein(KernelSpec("laplace", 2.0), self.spec(), support, grid)
        assert step_constants_closed_form(op) == op.kernel_masses

    def test_shipped_scenario_with_ricker_growth_exceeds_budget(self, tmp_path, capsys):
        text = (
            Path("configs/seasonal_beverton_holt.yaml").read_text()
            .replace("family: beverton_holt", "family: ricker")
            .replace("alpha: auto", "alpha: 0.05")
        )
        cfg = tmp_path / "ricker.yaml"
        cfg.write_text(text)
        argv = ["attractor", "--config", str(cfg), "--out", str(tmp_path / "out"),
                "--nodes", "100"]
        assert main(argv) == 3
        assert "certified sweep needs" in capsys.readouterr().err


class TestSeasons:
    def test_season_assignment_full_year(self):
        spec = InhomogeneitySpec((1.0, 2.0, 3.0, 4.0), 365)
        assert spec.amplitude_at(1) == 1.0
        assert spec.amplitude_at(91) == 1.0
        assert spec.amplitude_at(92) == 2.0
        assert spec.amplitude_at(182) == 2.0
        assert spec.amplitude_at(183) == 3.0
        assert spec.amplitude_at(273) == 3.0
        assert spec.amplitude_at(274) == 4.0
        assert spec.amplitude_at(365) == 4.0
        assert spec.amplitude_at(0) == 4.0  # t = 0 is congruent to the period

    def test_variant_amplitudes(self):
        theta = 365
        h1 = InhomogeneitySpec.from_variant("h1", theta)
        # summer amplitude of h1 is the low level, cos(0) = 1
        assert inhomogeneity_eval(h1, 100, 0.0, 6.0) == pytest.approx(1.0, abs=1e-15)
        h4 = InhomogeneitySpec.from_variant("h4", theta)
        assert inhomogeneity_eval(h4, 300, 0.0, 6.0) == pytest.approx(1.0, abs=1e-15)
        for variant in ("h1", "h2", "h3", "h4"):
            spec = InhomogeneitySpec.from_variant(variant, theta)
            assert inhomogeneity_eval(spec, 50, 3.0, 6.0) == pytest.approx(0.0, abs=1e-15)
            assert inhomogeneity_eval(spec, 50, -3.0, 6.0) == pytest.approx(0.0, abs=1e-15)

    def test_periodicity_exact(self):
        spec = InhomogeneitySpec.from_variant("h2", 365)
        x = np.linspace(-3, 3, 7)
        for t in range(-400, 400, 13):
            a = inhomogeneity_eval(spec, t, x, 6.0)
            b = inhomogeneity_eval(spec, t + 365, x, 6.0)
            assert np.array_equal(a, b)

    def test_custom_amplitude_list(self):
        spec = InhomogeneitySpec((1.0, 3.0, 2.0), 12)
        assert spec.amplitude_at(1) == 1.0
        assert spec.amplitude_at(5) == 3.0
        assert spec.amplitude_at(12) == 2.0


class TestLipschitzAndAmplitude:
    def test_hammerstein_lipschitz_laplace_bh(self):
        kernel = KernelSpec("laplace", 10.0)
        growth = GrowthSpec("beverton_holt", flat(1.0), (0.3,), profile_sup=1.0)
        lam = hammerstein_lipschitz(kernel, growth, 0, 6.0)
        assert lam == pytest.approx(0.3 * (1.0 - math.exp(-30.0)), rel=1e-14)

    def test_hammerstein_lipschitz_zero_growth(self):
        kernel = KernelSpec("laplace", 10.0)
        growth = GrowthSpec("beverton_holt", flat(0.0), (1.0,), profile_sup=0.0)
        assert hammerstein_lipschitz(kernel, growth, 0, 6.0) == 0.0

    def test_hammerstein_lipschitz_gauss(self):
        kernel = KernelSpec("gauss", 1.0)
        growth = GrowthSpec("beverton_holt", flat(1.0), (2.0,), profile_sup=1.0)
        lam = hammerstein_lipschitz(kernel, growth, 0, 2.0)
        assert lam == pytest.approx(2.0 * math.erf(1.0), rel=1e-14)

    def _period_product(self, theta, rate, length, sup, amplitude):
        bound = -math.expm1(-0.5 * rate * length)
        value = 1.0
        for r in range(theta):
            value *= amplitude * sup * (1 + 0.5 * math.sin(2 * math.pi * r / theta)) * bound
        return value

    def test_half_contraction_self_consistency(self):
        amplitude = half_contraction_amplitude(365, 10.0, 6.0, 9.0)
        assert abs(self._period_product(365, 10.0, 6.0, 9.0, amplitude) - 0.5) <= 1e-10
        # headline scale sanity (the certified check is the product above)
        assert 0.10 < amplitude < 0.14

    def test_half_contraction_degenerate_period(self):
        amplitude = half_contraction_amplitude(1, 2.0, 4.0, 3.0)
        expected = 1.0 / (2.0 * 3.0 * (-math.expm1(-4.0)))
        assert amplitude == pytest.approx(expected, rel=1e-13)

    def test_half_contraction_other_shapes(self):
        for theta, rate, length, sup in ((7, 1.0, 3.0, 2.0), (52, 4.0, 5.0, 6.0)):
            amplitude = half_contraction_amplitude(theta, rate, length, sup)
            assert abs(self._period_product(theta, rate, length, sup, amplitude) - 0.5) <= 1e-10

    def test_seasonal_scales_shape(self):
        scales = seasonal_scales(4, 2.0)
        assert len(scales) == 4
        assert scales[0] == pytest.approx(2.0, abs=1e-15)
        assert scales[1] == pytest.approx(3.0, abs=1e-12)
        assert all(s > 0 for s in scales)


# (id, a refused call, its exact ValueError message)
REFUSALS = [
    ("kernel-bound-zero-length", lambda: kernel_bound(KernelSpec("laplace", 1.0), 0, 0.0),
     "length must be positive, got 0.0"),
    ("kernel-bound-negative-length", lambda: kernel_bound(KernelSpec("gauss", 1.0), 0, -1.0),
     "length must be positive, got -1.0"),
    ("growth-unknown-family", lambda: GrowthSpec("gompertz", flat(1.0), (1.0,), 1.0),
     "unknown growth family 'gompertz'"),
    ("growth-infinite-profile-sup", lambda: GrowthSpec("logistic", flat(1.0), (1.0,), math.inf),
     "profile_sup must be finite and >= 0, got inf"),
    ("growth-negative-profile-sup", lambda: GrowthSpec("logistic", flat(1.0), (1.0,), -1.0),
     "profile_sup must be finite and >= 0, got -1.0"),
    ("growth-curve-unknown-family", lambda: growth_curve("gompertz", 1.0, 1.0),
     "unknown growth family 'gompertz'"),
    ("no-amplitudes", lambda: InhomogeneitySpec((), 4), "amplitudes must not be empty"),
    ("negative-amplitude", lambda: InhomogeneitySpec((1.0, -0.5), 4),
     "amplitudes must be finite and >= 0, got -0.5"),
    ("inhomogeneity-zero-period", lambda: InhomogeneitySpec((1.0,), 0),
     "period must be >= 1, got 0"),
    ("unknown-variant", lambda: InhomogeneitySpec.from_variant("h9", 4),
     "unknown inhomogeneity variant 'h9'"),
    ("half-contraction-zero-period", lambda: half_contraction_amplitude(0, 2.0, 6.0, 9.0),
     "period must be >= 1, got 0"),
    ("half-contraction-zero-rate", lambda: half_contraction_amplitude(4, 0.0, 6.0, 9.0),
     "rate, length, and profile_sup must be positive"),
    ("half-contraction-negative-length", lambda: half_contraction_amplitude(4, 2.0, -6.0, 9.0),
     "rate, length, and profile_sup must be positive"),
    ("half-contraction-zero-profile-sup", lambda: half_contraction_amplitude(4, 2.0, 6.0, 0.0),
     "rate, length, and profile_sup must be positive"),
    ("seasonal-scales-zero-period", lambda: seasonal_scales(0, 1.0),
     "period must be >= 1, got 0"),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal_messages(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError
    assert str(err.value) == message
