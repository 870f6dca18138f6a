import numpy as np
import pytest

import idepull as ip
from idepull import build_grid, parse_config
from idepull.cli import main
from idepull.reporting import (
    compare_inhomogeneities,
    lipschitz_report,
    read_csv_rows,
    read_fibers_csv,
    read_report_csv,
    read_totals_csv,
    run_attractor,
    run_convergence,
    run_semilinear,
    run_simulation,
)

SMALL = """
schema_version: 1
grid: {length: 6.0, nodes: 40}
kernel: {family: laplace, dispersal: 2.0}
growth:
  family: beverton_holt
  profile: vee
  alpha: 0.05
inhomogeneity: {variant: h4}
period: 6
tolerance: 1.0e-8
initial: {id: default}
horizon: 7
"""

SEMI = SMALL + """
semilinear:
  dimension: 2
  matrices:
    - [[0.9, 0.0], [0.0, 0.1]]
    - [[0.1, 0.0], [0.0, 0.9]]
  nonlinearity: {name: constant, value: [1.0, 1.0]}
  kappas: [0.0, 0.0]
  tolerance: 1.0e-12
"""


@pytest.fixture
def small_cfg():
    return parse_config(SMALL)


class TestRunAttractor:
    def test_artifacts_roundtrip(self, small_cfg, tmp_path):
        report = run_attractor(small_cfg, tmp_path)
        grid = build_grid(small_cfg.length, report.nodes)

        parsed = read_report_csv(tmp_path / "report.csv")
        assert float(parsed["mean_total_population"]) == report.mean_total_population
        assert float(parsed["contraction_factor"]) == report.contraction_factor
        assert float(parsed["certified_error"]) == report.certified_error
        assert int(parsed["total_steps"]) == report.total_steps
        assert float(parsed["sup_norm_max"]) == max(report.fiber_sup_norms)

        t, totals = read_totals_csv(tmp_path / "totals.csv")
        assert list(t) == list(range(small_cfg.horizon + 1))
        assert tuple(totals[: report.theta]) == report.fiber_totals

        rows = read_fibers_csv(tmp_path / "fibers.csv")
        assert len(rows) == (small_cfg.horizon + 1) * (grid.n + 1)
        by_t = {}
        for tt, node, x, value in rows:
            by_t.setdefault(tt, []).append(value)
        for tt in range(report.theta):
            values = np.array(by_t[tt])
            assert float(np.max(np.abs(values))) == report.fiber_sup_norms[tt]
            assert float(np.dot(grid.weights, values)) == totals[tt]

    def test_mean_matches_totals_recomputation(self, small_cfg, tmp_path):
        report = run_attractor(small_cfg, tmp_path)
        _, totals = read_totals_csv(tmp_path / "totals.csv")
        assert abs(report.mean_total_population - np.mean(totals[: report.theta])) <= 1e-12

    def test_overrides(self, small_cfg, tmp_path):
        report = run_attractor(small_cfg, tmp_path, nodes=24, tol=1e-5, variant="h1")
        assert report.nodes == 24
        assert report.tolerance == 1e-5
        assert report.variant == "h1"
        assert report.certified_error <= 1e-5


class TestSimulate:
    def test_trajectory_written(self, small_cfg, tmp_path):
        report = run_simulation(small_cfg, tmp_path)
        assert report.steps == small_cfg.horizon
        t, totals = read_totals_csv(tmp_path / "totals.csv")
        assert len(totals) == small_cfg.horizon + 1
        assert tuple(totals) == report.totals


class TestCompare:
    def test_four_variants_and_best_marked(self, small_cfg, tmp_path):
        comparison = compare_inhomogeneities(small_cfg, tmp_path)
        assert comparison.variants == ("h1", "h2", "h3", "h4")
        header, rows = read_csv_rows(tmp_path / "comparison.csv")
        assert header == ["variant", "mean_total_population", "certified_error", "total_steps", "best"]
        best_rows = [r for r in rows if r[4] == "true"]
        assert len(best_rows) == 1
        assert best_rows[0][0] == comparison.best
        for row, mean in zip(rows, comparison.means):
            assert float(row[1]) == mean
        for v in comparison.variants:
            assert (tmp_path / v / "fibers.csv").exists()

    def test_equal_levels_give_equal_means(self, tmp_path):
        cfg = parse_config(SMALL.replace("{variant: h4}", "{variant: h4, levels: [1.5, 1.5]}"))
        comparison = compare_inhomogeneities(cfg, tmp_path)
        err = 2 * max(r.certified_error for r in comparison.reports.values())
        spread = max(comparison.means) - min(comparison.means)
        assert spread <= 2 * err + 1e-15

    def test_zero_support_small_growth_means_near_zero(self, tmp_path):
        cfg = parse_config(
            SMALL.replace("{variant: h4}", "{variant: h4, levels: [0.0, 0.0]}")
            .replace("alpha: 0.05", "alpha: 0.001")
        )
        comparison = compare_inhomogeneities(cfg, tmp_path)
        assert max(abs(m) for m in comparison.means) <= 1e-2


class TestLipschitzAndConvergence:
    def test_lipschitz_table(self, small_cfg, tmp_path):
        summary = lipschitz_report(small_cfg, tmp_path)
        header, rows = read_csv_rows(tmp_path / "lipschitz.csv")
        assert len(rows) == small_cfg.period
        lams_closed = [float(r[4]) for r in rows]
        cert = ip.certify_contraction(lams_closed, small_cfg.period)
        assert summary["contraction_factor"] == cert.factor
        assert summary["valid"]
        for r in rows:
            assert abs(float(r[4]) - float(r[5])) <= 5e-3

    def test_convergence_rows(self, small_cfg, tmp_path):
        rows = run_convergence(small_cfg, tmp_path, nodes=20)
        assert [r["nodes"] for r in rows] == [20, 40]
        assert rows[1]["delta_vs_previous"] >= 0
        assert (tmp_path / "convergence.csv").exists()

    def test_tent_out_of_range_falls_back_to_numeric(self, tmp_path):
        # rate * length = 4 > 2: closed form invalid, quadrature bound used
        cfg = parse_config(
            SMALL.replace("family: laplace", "family: tent")
            .replace("dispersal: 2.0", "dispersal: 0.6666666666666666")
        )
        report = run_attractor(cfg, tmp_path)
        assert report.lipschitz_source == "numeric"
        assert report.contraction_factor < 1.0


class TestSemilinearRun:
    def test_demo_fibers(self, tmp_path):
        cfg = parse_config(SEMI)
        report = run_semilinear(cfg, tmp_path)
        assert report.dimension == 2
        assert report.theta == 2
        # brute-force forward oracle
        state = np.zeros(2)
        for t in range(2000):
            state = np.diag([0.9, 0.1]) @ state + np.array([1.0, 1.0]) if t % 2 == 0 else \
                np.diag([0.1, 0.9]) @ state + np.array([1.0, 1.0])
        assert np.max(np.abs(np.asarray(report.fibers[0]) - state)) <= 1e-10
        parsed = read_report_csv(tmp_path / "report.csv")
        assert int(parsed["periods"]) == report.periods

    def test_missing_section(self, small_cfg, tmp_path):
        with pytest.raises(ip.ConfigError):
            run_semilinear(small_cfg, tmp_path)


class TestCliExitCodes:
    def write(self, tmp_path, text, name="cfg.yaml"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_success(self, tmp_path):
        cfg = self.write(tmp_path, SMALL)
        assert main(["attractor", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 0
        assert main(["lipschitz", "--config", cfg, "--out", str(tmp_path / "lip")]) == 0
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "cmp")]) == 0

    def test_config_error_is_1(self, tmp_path):
        bad = self.write(tmp_path, SMALL.replace("tolerance: 1.0e-8", "tolerance: 0"))
        assert main(["attractor", "--config", bad, "--out", str(tmp_path / "out")]) == 1
        missing = str(tmp_path / "nope.yaml")
        assert main(["attractor", "--config", missing, "--out", str(tmp_path / "out")]) == 1

    def test_bad_registry_value_is_config_error(self, tmp_path, capsys):
        bad = self.write(tmp_path, SMALL.replace("family: beverton_holt", "family: hassell"))
        assert main(["attractor", "--config", bad, "--out", str(tmp_path / "out")]) == 1
        assert "configuration error: config." in capsys.readouterr().err

    def test_usage_error_is_1(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["attractor", "--config"])
        assert err.value.code == 1

    def test_no_contraction_is_2(self, tmp_path):
        text = SMALL.replace("alpha: 0.05", "alpha: 3.0")
        cfg = self.write(tmp_path, text)
        assert main(["attractor", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_budget_exceeded_is_3(self, tmp_path):
        text = SMALL + "\nmax_steps: 10\n"
        cfg = self.write(tmp_path, text)
        assert main(["attractor", "--config", cfg, "--out", str(tmp_path / "out")]) == 3

    def test_variant_override(self, tmp_path):
        cfg = self.write(tmp_path, SMALL)
        out = tmp_path / "var"
        assert main(["attractor", "--config", cfg, "--out", str(out), "--variant", "h2",
                     "--nodes", "24"]) == 0
        parsed = read_report_csv(out / "report.csv")
        assert parsed["variant"] == "h2"
        assert int(parsed["nodes"]) == 24

    def test_semilinear_command(self, tmp_path):
        cfg = self.write(tmp_path, SEMI)
        assert main(["semilinear", "--config", cfg, "--out", str(tmp_path / "sl")]) == 0

    def test_convergence_command(self, tmp_path):
        cfg = self.write(tmp_path, SMALL)
        assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "conv"),
                     "--nodes", "16"]) == 0
