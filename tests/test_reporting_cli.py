import csv
import io
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import fields, replace
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import idepull as ip
from idepull import build_grid, cli, parse_config, reporting
from idepull.cli import main
from idepull.reporting import (
    compare_inhomogeneities,
    lipschitz_report,
    read_csv_rows,
    read_fibers_csv,
    run_attractor,
    run_convergence,
    run_semilinear,
    run_simulation,
)
from conftest import first_repeat_steps
from oracles import read_report_csv, read_totals_csv

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

# factor one float below 1, tolerance 1e-300, start 1e300: the a-priori
# count is about 1.3e19 windows, and one period reaches the fixed point 0
NEAR_ONE_SEMI = """
schema_version: 1
grid: {length: 6.0, nodes: 20}
kernel: {family: laplace, dispersal: 2.0}
growth: {family: beverton_holt, profile: vee, alpha: 0.05}
inhomogeneity: {variant: h4}
period: 1
tolerance: 1.0e-8
initial: {id: default}
semilinear:
  dimension: 1
  matrices: [[[0.0]]]
  nonlinearity: {name: zero}
  kappas: [0.9999999999999999]
  tolerance: 1.0e-300
  initial: [1.0e+300]
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
        assert float(parsed["sup_norm_max"]) == report.sup_norm_max

        t, totals = read_totals_csv(tmp_path / "totals.csv")
        assert list(t) == list(range(small_cfg.horizon + 1))
        assert tuple(totals[: report.theta]) == report.fiber_totals

        rows = read_fibers_csv(tmp_path / "fibers.csv")
        assert len(rows) == (small_cfg.horizon + 1) * (grid.n + 1)
        by_t = {}
        for tt, node, x, value in rows:
            by_t.setdefault(tt, []).append(value)
        sups = []
        for tt in range(report.theta):
            values = np.array(by_t[tt])
            sups.append(float(np.max(np.abs(values))))
            assert float(np.dot(grid.weights, values)) == totals[tt]
        assert (min(sups), max(sups)) == (report.sup_norm_min, report.sup_norm_max)

    def test_report_csv_is_the_scalar_fields(self, small_cfg, tmp_path):
        report = run_attractor(small_cfg, tmp_path)
        _, rows = read_csv_rows(tmp_path / "report.csv")
        assert rows[:2] == [["schema_version", "1"], ["command", "attractor"]]
        scalars = [f.name for f in fields(report)
                   if not isinstance(getattr(report, f.name), tuple)]
        assert [key for key, _ in rows[2:]] == scalars
        for key, cell in rows[2:]:
            value = getattr(report, key)
            assert type(value)(cell) == value, key

    def test_wall_time_includes_emission(self, small_cfg, tmp_path, monkeypatch):
        write = reporting._write_states_csv

        def slow_fibers(out, name, states, grid):
            if name == "fibers":
                time.sleep(0.2)
            return write(out, name, states, grid)

        monkeypatch.setattr(reporting, "_write_states_csv", slow_fibers)
        assert run_attractor(small_cfg, tmp_path).wall_time_s >= 0.2

    def test_horizon_shorter_than_period(self, small_cfg, tmp_path):
        # fibers.csv holds 3 of the 6 fibers; the report still totals all 6
        full = run_attractor(small_cfg, tmp_path / "full")
        short = run_attractor(replace(small_cfg, horizon=2), tmp_path / "short")
        assert len(short.fiber_totals) == short.theta == 6
        assert short.fiber_totals == full.fiber_totals
        _, totals = read_totals_csv(tmp_path / "short" / "totals.csv")
        assert tuple(totals) == full.fiber_totals[:3]

    def test_days_past_the_period_match_the_trajectory_tuple(
        self, small_cfg, tmp_path, monkeypatch
    ):
        # the lazy continuation writes what the fibers followed by the
        # tuple of the orbit's states after the last fiber write
        swept = []

        def recording(*args):
            swept.append(ip.pullback_fibers(*args))
            return swept[-1]

        monkeypatch.setattr(reporting, "pullback_fibers", recording)
        cfg = replace(small_cfg, horizon=3 * small_cfg.period + 2)
        run_attractor(cfg, tmp_path / "stream")
        op = ip.build_operator(cfg)
        fibers = swept[0].fibers
        tail = tuple(islice(ip.orbit(op, op.theta - 1, fibers[-1]), 1,
                            cfg.horizon + 2 - op.theta))
        reporting._write_states_csv(tmp_path / "tuple", "fibers", fibers + tail, op.grid)
        for name in ("fibers.csv", "totals.csv"):
            assert ((tmp_path / "stream" / name).read_bytes()
                    == (tmp_path / "tuple" / name).read_bytes())

    def test_days_past_the_period_are_not_held(self, small_cfg, tmp_path):
        # each day keeps only its total (about 40 bytes with the list and
        # the returned tuple); holding its state would keep at least its
        # node values, 8 (n + 1) bytes
        horizons = (2 * small_cfg.period, 1000 * small_cfg.period)
        peaks = []
        for horizon in horizons:
            tracemalloc.start()
            try:
                run_attractor(replace(small_cfg, horizon=horizon), tmp_path / str(horizon))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_day = (peaks[1] - peaks[0]) / (horizons[1] - horizons[0])
        assert per_day < 8 * (small_cfg.nodes + 1) / 4

    def test_mean_matches_totals_recomputation(self, small_cfg, tmp_path):
        report = run_attractor(small_cfg, tmp_path)
        _, totals = read_totals_csv(tmp_path / "totals.csv")
        assert abs(report.mean_total_population - np.mean(totals[: report.theta])) <= 1e-12

    def test_overrides(self, small_cfg, tmp_path):
        report = run_attractor(replace(small_cfg, nodes=24, tolerance=1e-5, variant="h1"),
                               tmp_path)
        assert report.nodes == 24
        assert report.tolerance == 1e-5
        assert report.variant == "h1"
        assert report.certified_error <= 1e-5


def _csv_writer_bytes(states, grid) -> bytes:
    """What ``csv.writer`` writes for a states file's rows."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(("t", "node", "x", "value"))
    writer.writerows(
        (t, i, x, v)
        for t, s in enumerate(states)
        for i, (x, v) in enumerate(zip(grid.nodes.tolist(), s.values.tolist()))
    )
    return expected.getvalue().encode("utf-8")


class TestStatesWriter:
    # signed zero, the smallest subnormal, a large exponent, a small
    # exponent, a long shortest repr, and the non-finite values
    EDGE = (-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2, math.inf, math.nan, -2.5)
    # zeros of both signs and the floats on each side of the two bounds where
    # repr switches between fixed and exponent notation
    NOTATION_EDGES = (
        0.0, -0.0,
        1e-4, float(np.nextafter(1e-4, 0)),
        1e16, float(np.nextafter(1e16, 0)),
    )

    @staticmethod
    def _written_bytes(out: Path, days) -> tuple[bytes, bytes]:
        """The written file's bytes and ``csv.writer``'s, one grid node per value."""
        grid = build_grid(3.0, len(days[0]) - 1)
        states = [ip.GridFunction(grid, values) for values in days]
        with np.errstate(invalid="ignore", over="ignore"):  # the totals of inf and -inf
            reporting._write_states_csv(out, "fibers", states, grid)
        return (out / "fibers.csv").read_bytes(), _csv_writer_bytes(states, grid)

    @pytest.mark.parametrize("n", [1, 6])
    def test_bytes_match_csv_writer(self, tmp_path, n):
        grid = build_grid(3.0, n)
        days = 12  # two-digit day indices from t = 10
        states = [
            ip.GridFunction(grid, [self.EDGE[(t + i) % len(self.EDGE)] for i in range(n + 1)])
            for t in range(days)
        ]
        out = tmp_path / "new" / "dir"
        totals = reporting._write_states_csv(out, "fibers", states, grid)

        assert (out / "fibers.csv").read_bytes() == _csv_writer_bytes(states, grid)
        assert len(totals) == days
        t, written = read_totals_csv(out / "totals.csv")
        assert list(t) == list(range(days))
        assert np.array_equal(written, np.array(totals), equal_nan=True)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        | st.sampled_from(NOTATION_EDGES),
        min_size=2,
        max_size=40,
    ))
    def test_any_floats_match_csv_writer(self, values):
        # each day mixes cells of both notations; the second day reverses the first
        with tempfile.TemporaryDirectory() as out:
            written, expected = self._written_bytes(Path(out), [values, values[::-1]])
        assert written == expected

    def test_random_bit_patterns_match_csv_writer(self, tmp_path):
        bits = np.random.default_rng(20).integers(0, 2**64, 10**5, dtype=np.uint64)
        days = bits.view(np.float64).reshape(100, 1000)
        written, expected = self._written_bytes(tmp_path, days)
        assert written == expected

    def test_one_pass_generator_matches_tuple(self, tmp_path):
        grid = build_grid(3.0, 7)
        days = np.random.default_rng(22).random((9, grid.n + 1)) * 3.0
        days[:, ::3] = 1e-7  # exponent cells in every day
        states = tuple(ip.GridFunction(grid, values) for values in days)
        from_tuple = reporting._write_states_csv(tmp_path / "tuple", "fibers", states, grid)
        from_generator = reporting._write_states_csv(
            tmp_path / "generator", "fibers", (s for s in states), grid
        )
        assert from_generator == from_tuple
        for name in ("fibers.csv", "totals.csv"):
            assert ((tmp_path / "generator" / name).read_bytes()
                    == (tmp_path / "tuple" / name).read_bytes())

    def test_holds_one_day_not_one_file(self, tmp_path):
        # a fibers.csv of 367 days at n = 1000 is about 15 MB, one day of it
        # about 40 KB; the writer's peak stays a small multiple of one day
        grid = build_grid(6.0, 1000)
        days = np.random.default_rng(21).random((367, grid.n + 1)) * 3.0
        days[:, ::97] = 1e-7  # exponent cells in every day
        states = [ip.GridFunction(grid, values) for values in days]
        tracemalloc.start()
        try:
            reporting._write_states_csv(tmp_path, "fibers", states, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = (tmp_path / "fibers.csv").stat().st_size
        assert size > 14e6
        assert peak < 16 * size / len(states)


class TestSimulate:
    def test_trajectory_written(self, small_cfg, tmp_path):
        returned = run_simulation(small_cfg, tmp_path)
        t, totals = read_totals_csv(tmp_path / "totals.csv")
        assert len(totals) == small_cfg.horizon + 1
        assert tuple(totals) == returned


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

    @pytest.mark.parametrize("levels", [None, "[0.0, -0.0]"])
    def test_each_variant_is_its_attractor_run(self, tmp_path, levels):
        # compare assembles the kernel once and swaps the forcing; every
        # variant directory still holds run_attractor's bytes for that variant
        text = SMALL if levels is None else SMALL.replace(
            "{variant: h4}", f"{{variant: h4, levels: {levels}}}")
        cfg = parse_config(text)
        compare_inhomogeneities(cfg, tmp_path / "compare")
        for v in ("h1", "h2", "h3", "h4"):
            run_attractor(replace(cfg, variant=v), tmp_path / v)
            names = sorted(p.name for p in (tmp_path / v).iterdir())
            assert sorted(p.name for p in (tmp_path / "compare" / v).iterdir()) == names
            for name in names:
                got, expected = ((d / name).read_bytes().splitlines(keepends=True)
                                 for d in (tmp_path / "compare" / v, tmp_path / v))
                assert ([r for r in got if not r.startswith(b"wall_time_s,")]
                        == [r for r in expected if not r.startswith(b"wall_time_s,")])

    def test_kernel_assembled_once(self, small_cfg, tmp_path, monkeypatch):
        calls = []

        def counting_build(*args, **kwargs):
            calls.append(args)
            return ip.dynamics.build_hammerstein(*args, **kwargs)

        monkeypatch.setattr(ip.config, "build_hammerstein", counting_build)
        compare_inhomogeneities(small_cfg, tmp_path)
        assert len(calls) == 1

    def test_amplitudes_refused_before_any_run(self, tmp_path):
        # the amplitudes would win over every variant: four equal runs
        cfg = parse_config(SMALL.replace("{variant: h4}", "{amplitudes: [1.0, 2.0, 1.0, 2.0]}"))
        with pytest.raises(ip.ConfigError, match=r"config\.inhomogeneity\.amplitudes"):
            compare_inhomogeneities(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestLipschitzAndConvergence:
    def test_lipschitz_table(self, small_cfg, tmp_path):
        certificate, budget = lipschitz_report(small_cfg, tmp_path)
        header, rows = read_csv_rows(tmp_path / "lipschitz.csv")
        assert len(rows) == small_cfg.period
        lams_closed = [float(r[4]) for r in rows]
        cert = ip.certify_contraction(lams_closed)
        assert certificate.factor == cert.factor
        assert certificate.valid and budget is not None
        for r in rows:
            assert abs(float(r[4]) - float(r[5])) <= 5e-3

    def test_invalid_certificate_has_no_budget(self, tmp_path, capsys):
        text = SMALL.replace("alpha: 0.05", "alpha: 3.0")
        certificate, budget = lipschitz_report(parse_config(text), tmp_path / "lib")
        assert not certificate.valid and budget is None
        (tmp_path / "cfg.yaml").write_text(text)
        assert main(["lipschitz", "--config", str(tmp_path / "cfg.yaml"),
                     "--out", str(tmp_path / "cli")]) == 0
        assert capsys.readouterr().out == (
            f"window contraction factor {certificate.factor:.10g} (valid: False)\n")

    @pytest.mark.parametrize("scenario", ["shipped-n40", "zero-growth"])
    def test_lipschitz_cells_are_the_deciding_functions(self, scenario, tmp_path):
        # every cell equals its deciding function exactly; with zero growth
        # the step constants are 0 and the kernel masses are not
        if scenario == "shipped-n40":
            shipped = Path("configs/seasonal_beverton_holt.yaml").read_text()
            cfg = parse_config(shipped.replace("nodes: 1000", "nodes: 40"))
        else:
            cfg = parse_config(
                SMALL.replace("profile: vee", "profile: flat\n  profile_params: {value: 0.0}")
            )
        lipschitz_report(cfg, tmp_path)
        _, rows = read_csv_rows(tmp_path / "lipschitz.csv")
        op = ip.build_operator(cfg, ip.build_scenario_grid(cfg))
        columns = [[float(r[k]) for r in rows] for k in (2, 3, 4, 5)]
        assert columns == [
            list(op.kernel_masses),
            list(op.row_sum_masses),
            list(ip.step_constants_closed_form(op)),
            list(ip.step_constants_numeric(op)),
        ]

    def test_convergence_rows(self, small_cfg, tmp_path):
        rows = run_convergence(replace(small_cfg, nodes=20), tmp_path)
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
        assert report.contraction_factor == report.contraction_factor_numeric


class TestSemilinearRun:
    def test_demo_fibers(self, tmp_path):
        cfg = parse_config(SEMI)
        fibers, report = run_semilinear(cfg, tmp_path)
        assert len(fibers) == 2
        assert fibers[0].shape == (2,)
        # brute-force forward oracle
        state = np.zeros(2)
        for t in range(2000):
            state = np.diag([0.9, 0.1]) @ state + np.array([1.0, 1.0]) if t % 2 == 0 else \
                np.diag([0.1, 0.9]) @ state + np.array([1.0, 1.0])
        assert np.max(np.abs(np.asarray(fibers[0]) - state)) <= 1e-10
        parsed = read_report_csv(tmp_path / "report.csv")
        assert int(parsed["periods"]) == report.periods
        # every constant is declared, so none is named as estimated
        assert parsed["estimated"] == "none"

    def test_report_opens_with_schema_version(self, tmp_path):
        run_semilinear(parse_config(SEMI), tmp_path)
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[:3] == ["key,value", "schema_version,1", "command,semilinear"]

    def test_missing_section(self, small_cfg, tmp_path):
        with pytest.raises(ip.ConfigError):
            run_semilinear(small_cfg, tmp_path)


class TestCsvCells:
    INT_COLUMNS = {"t", "node", "component", "nodes", "time_class", "total_steps",
                   "steps_used", "schema_version", "theta", "window", "windows", "periods",
                   "dimension"}
    TEXT_COLUMNS = {"command", "variant", "rule", "distance_bound_mode",
                    "lipschitz_source", "estimated"}

    def test_cells_are_canonical(self, tmp_path):
        # floats as their shortest round-trip text, ints as decimal digits
        cfg = parse_config(SEMI)
        run_attractor(cfg, tmp_path / "attractor")
        compare_inhomogeneities(cfg, tmp_path / "compare")
        run_simulation(cfg, tmp_path / "simulate")
        lipschitz_report(cfg, tmp_path / "lipschitz")
        run_convergence(replace(cfg, nodes=20), tmp_path / "convergence")
        run_semilinear(cfg, tmp_path / "semilinear")
        paths = sorted(tmp_path.rglob("*.csv"))
        assert len(paths) == 28
        for path in paths:
            header, rows = read_csv_rows(path)
            assert rows, path
            for row in rows:
                # report.csv is a key/value table: the key names the value's type
                cells = [tuple(row)] if header == ["key", "value"] else zip(header, row)
                for name, cell in cells:
                    if name == "best":
                        assert cell in {"true", "false"}, (path, name, cell)
                    elif name in self.INT_COLUMNS:
                        assert cell == str(int(cell)), (path, name, cell)
                    elif name not in self.TEXT_COLUMNS:
                        assert cell == repr(float(cell)), (path, name, cell)


OVERFLOWING_START = "{id: custom-polynomial, coefficients: [1.0e+308, 1.0e+308]}"


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

    def test_report_holds_steps_used(self, tmp_path):
        cfg = self.write(tmp_path, SMALL)
        assert main(["attractor", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--tol", "1e-12"]) == 0
        parsed = read_report_csv(tmp_path / "out" / "report.csv")
        theta, total = int(parsed["theta"]), int(parsed["total_steps"])
        # the sweep stops on the first day whose state repeats the state one
        # period earlier bit for bit, well inside the budget
        cfg = parse_config(SMALL)
        grid = ip.build_scenario_grid(cfg)
        u0 = ip.initial_condition(cfg.initial_id, cfg.initial_params, grid)
        op = ip.build_operator(cfg, grid)
        assert int(parsed["steps_used"]) == first_repeat_steps(op, u0, total)
        assert int(parsed["steps_used"]) < total + theta - 1

    def test_config_error_is_1(self, tmp_path, capsys):
        bad = self.write(tmp_path, SMALL.replace("tolerance: 1.0e-8", "tolerance: 0"))
        assert main(["attractor", "--config", bad, "--out", str(tmp_path / "out")]) == 1
        capsys.readouterr()
        missing = str(tmp_path / "nope.yaml")
        assert main(["attractor", "--config", missing, "--out", str(tmp_path / "out")]) == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith("configuration error: ") and "nope.yaml" in stderr

    def test_compare_on_amplitudes_is_1(self, tmp_path, capsys):
        cfg = self.write(tmp_path, SMALL.replace("{variant: h4}", "{amplitudes: [1.0, 2.0]}"))
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "cmp")]) == 1
        err = capsys.readouterr().err
        assert "config.inhomogeneity.amplitudes" in err
        assert list((tmp_path / "cmp").iterdir()) == []

    @pytest.mark.parametrize("command", ["attractor", "simulate"])
    def test_variant_on_amplitudes_is_1(self, tmp_path, capsys, command):
        # the support comes from the amplitudes, so a variant would only mislabel the run
        cfg = self.write(tmp_path, SMALL.replace("{variant: h4}", "{amplitudes: [1.0, 2.0]}"))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), "--variant", "h2"]) == 1
        assert capsys.readouterr().err == ("configuration error: config.inhomogeneity: give "
                                           "exactly one of 'variant' or 'amplitudes'\n")
        assert list(out.iterdir()) == []

    def test_bad_registry_value_is_config_error(self, tmp_path, capsys):
        bad = self.write(tmp_path, SMALL.replace("family: beverton_holt", "family: hassell"))
        assert main(["attractor", "--config", bad, "--out", str(tmp_path / "out")]) == 1
        assert "configuration error: config." in capsys.readouterr().err

    def test_main_entry_exits_with_main(self, tmp_path, monkeypatch, capsys):
        argv = ["idepull", "attractor", "--config", str(tmp_path / "nope.yaml"),
                "--out", str(tmp_path / "out")]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as err:
            cli.main_entry()
        assert err.value.code == 1
        assert capsys.readouterr().err.startswith("configuration error: ")

    def test_module_run_exits_with_main(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(ip.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "idepull.cli", "attractor",
             "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("configuration error: ")

    def test_usage_error_is_1(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["attractor", "--config"])
        assert err.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["attractor", "--nodes", "0"],
        ["attractor", "--tol", "-1"],
        ["attractor", "--tol", "nan"],
        ["attractor", "--tol", "inf"],
        ["semilinear", "--tol", "1e-3"],
        ["attractor", "--nodes", "abc"],
    ])
    def test_bad_override_is_usage_error(self, tmp_path, capsys, argv):
        cfg = self.write(tmp_path, SEMI)
        with pytest.raises(SystemExit) as err:
            main(argv + ["--config", cfg, "--out", str(tmp_path / "out")])
        assert err.value.code == 1
        stderr = capsys.readouterr().err
        assert "error:" in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("old, new, path", [
        ("profile: vee", "profile: vee\n  profile_params: {offset: -3.0, slope: 2.0}",
         "config.growth.profile_params"),
        ("profile: vee", "profile: flat\n  profile_params: {value: -1.0}",
         "config.growth.profile_params"),
        ("profile: vee\n  alpha: 0.05", "profile: flat\n  profile_params: {value: 0.0}\n"
         "  alpha: auto", "config.growth.alpha"),
    ], ids=["negative-vee", "negative-flat", "auto-alpha-zero-profile"])
    def test_bad_profile_is_config_error(self, tmp_path, capsys, old, new, path):
        cfg = self.write(tmp_path, SMALL.replace(old, new))
        assert main(["attractor", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        stderr = capsys.readouterr().err
        assert f"configuration error: {path}" in stderr
        assert "Traceback" not in stderr

    def test_auto_alpha_on_gauss_refused_at_load(self, tmp_path, capsys):
        # semilinear never builds the operator, so only the parse can refuse this
        text = SEMI.replace("alpha: 0.05", "alpha: auto").replace("family: laplace",
                                                                  "family: gauss")
        cfg = self.write(tmp_path, text)
        assert main(["semilinear", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "configuration error: config.growth.alpha" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_profile_sup_below_maximum_is_config_error(self, tmp_path, capsys):
        # the exact maximum of the shipped vee profile is 9.0; with alpha 0.6
        # (no contraction) a declared 1.0 used to certify a factor of 1.06e-81
        shipped = Path("configs/seasonal_beverton_holt.yaml").read_text()
        text = shipped.replace("  alpha: auto", "  profile_sup: 1.0\n  alpha: 0.6")
        cfg = self.write(tmp_path, text)
        assert main(["attractor", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--nodes", "100"]) == 1
        assert "configuration error: config.growth.profile_sup" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("kappas: [0.0, 0.0]", "kappas: [0.0, 0.0, 0.0]"),
        ("kappas: [0.0, 0.0]", "kappas: [0.0, 0.0]\n  gamma: 0.5"),
        # with alphas 0.5 one step has ||Phi|| / alpha = 1.8 > gamma
        ("kappas: [0.0, 0.0]", "kappas: [0.0, 0.0]\n  alphas: [0.5, 0.5]\n  gamma: 1.0"),
        # prod alpha underflows to 0 on a two-step window
        ("kappas: [0.0, 0.0]", "kappas: [0.0, 0.0]\n  alphas: [1.0e-201]"),
    ], ids=["kappas-length", "gamma-below-one", "gamma-below-transition-ratio",
            "alpha-product-underflow"])
    def test_refused_semilinear_constants_are_config_errors(self, tmp_path, capsys, old, new):
        demo = Path("configs/semilinear_demo.yaml").read_text()
        cfg = self.write(tmp_path, demo.replace(old, new))
        assert main(["semilinear", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        stderr = capsys.readouterr().err
        assert "configuration error: config.semilinear" in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("command, old, new, path", [
        ("attractor", "profile: vee",
         "profile: vee\n  profile_params: {offset: 1.0e+308, slope: 1.0e+308}",
         "config.growth.profile_params"),
        ("attractor", "profile: vee\n  alpha: 0.05",
         "profile: vee\n  profile_params: {offset: 1.0e+308, slope: 1.0e+308}\n  alpha: auto",
         "config.growth.profile_params"),
        ("attractor", "{id: default}", OVERFLOWING_START, "initial"),
        ("simulate", "{id: default}", OVERFLOWING_START, "initial"),
        ("lipschitz", "{id: default}", OVERFLOWING_START, "initial"),
        ("semilinear", "value: [1.0, 1.0]", "value: 1.0e+308", "config.semilinear"),
        # sampled kappas: the sampled differences overflow
        ("semilinear", "{name: constant, value: [1.0, 1.0]}\n  kappas: [0.0, 0.0]",
         "{name: bounded-sigmoid, scale: 1.0e+308}", "config.semilinear"),
        # more nodes than one numpy array holds: refused before any allocation
        ("simulate", "nodes: 40", "nodes: 100000000000000000000", "config.grid.nodes"),
    ], ids=["profile", "profile-auto-alpha", "initial-attractor", "initial-simulate",
            "initial-lipschitz", "semilinear-divergence", "semilinear-sampled-kappas",
            "nodes-too-large"])
    def test_overflowing_input_is_config_error(self, tmp_path, capsys, command, old, new, path):
        # one stderr line and no numpy warning: warnings are raised as errors here
        assert old in SEMI
        cfg = self.write(tmp_path, SEMI.replace(old, new))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"configuration error: {path}: ")
        assert stderr.count("\n") == 1

    # a count that float() cannot hold, and one above numpy's array size limit;
    # both are refused before any allocation
    @pytest.mark.parametrize("nodes", ["1" * 401, "100000000000000000000"],
                             ids=["401-digits", "1e20"])
    def test_nodes_flag_too_large_is_config_error(self, tmp_path, capsys, nodes):
        cfg = self.write(tmp_path, SMALL)
        assert main(["attractor", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--nodes", nodes]) == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith("configuration error: config.grid.nodes: "
                                 f"subinterval count {nodes} exceeds ")
        assert stderr.count("\n") == 1

    @pytest.mark.parametrize("blocked", ["file", "file/below"])
    def test_unwritable_out_is_1_before_the_run(self, tmp_path, capsys, monkeypatch, blocked):
        cfg = self.write(tmp_path, SMALL)
        (tmp_path / "file").write_text("")

        def no_run(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(reporting, "run_attractor", no_run)
        assert main(["attractor", "--config", cfg, "--out", str(tmp_path / blocked)]) == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith("cannot write output: ")
        assert stderr.count("\n") == 1

    def test_ricker_zero_profile_needs_trajectory_bound(self, tmp_path, capsys):
        # ricker output is z itself where the profile is 0, so there is no sup bound
        text = SMALL.replace("family: beverton_holt", "family: ricker").replace(
            "profile: vee", "profile: vee\n  profile_params: {offset: 0.0, slope: 1.0}")
        cfg = self.write(tmp_path, text)
        for command in ("attractor", "lipschitz"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
            stderr = capsys.readouterr().err
            assert stderr.startswith("configuration error: config.distance_bound")
            assert "distance_bound: trajectory" in stderr
            assert stderr.count("\n") == 1
        cfg = self.write(tmp_path, text + "distance_bound: trajectory\n")
        assert main(["attractor", "--config", cfg, "--out", str(tmp_path / "traj")]) == 0

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

    # flag -> (value, the config line it replaces, the line holding that value)
    OVERRIDES = {
        "nodes": ("24", "nodes: 40", "nodes: 24"),
        "tol": ("1e-5", "tolerance: 1.0e-8", "tolerance: 1.0e-5"),
        "variant": ("h2", "{variant: h4}", "{variant: h2}"),
    }

    @staticmethod
    def outputs(out: Path) -> dict:
        # every file, less the wall_time_s rows, which differ from run to run
        return {
            path.relative_to(out): [line for line in path.read_text().splitlines()
                                    if not line.startswith("wall_time_s,")]
            for path in sorted(out.rglob("*")) if path.is_file()
        }

    @pytest.mark.parametrize("command, flags", [
        ("simulate", ("nodes", "variant")),
        ("attractor", ("nodes", "tol", "variant")),
        ("compare", ("nodes", "tol")),
        ("lipschitz", ("nodes", "variant")),
        ("convergence", ("nodes", "tol", "variant")),
    ])
    def test_override_flags_equal_config_values(self, tmp_path, capsys, command, flags):
        text, argv = SMALL, []
        for flag in flags:
            value, old, new = self.OVERRIDES[flag]
            text = text.replace(old, new)
            argv += [f"--{flag}", value]
        base = self.write(tmp_path, SMALL, "base.yaml")
        edited = self.write(tmp_path, text, "edited.yaml")
        capsys.readouterr()
        assert main([command, "--config", base, "--out", str(tmp_path / "flags")] + argv) == 0
        by_flags = capsys.readouterr().out
        assert main([command, "--config", edited, "--out", str(tmp_path / "config")]) == 0
        assert capsys.readouterr().out == by_flags
        written = self.outputs(tmp_path / "flags")
        assert written
        assert written == self.outputs(tmp_path / "config")

    def test_semilinear_command(self, tmp_path):
        cfg = self.write(tmp_path, SEMI)
        assert main(["semilinear", "--config", cfg, "--out", str(tmp_path / "sl")]) == 0

    def test_semilinear_near_one_factor(self, tmp_path):
        cfg = self.write(tmp_path, NEAR_ONE_SEMI)
        env = dict(os.environ, PYTHONPATH=str(Path(ip.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "idepull.cli", "semilinear",
             "--config", cfg, "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "tail_bound,0.0" in (tmp_path / "out" / "report.csv").read_text().splitlines()

    @pytest.mark.parametrize("command, config, flags, stdout", [
        ("simulate", "configs/seasonal_beverton_holt.yaml", ["--variant", "h1", "--nodes", "40"],
         "simulated 366 steps (variant h1, n=40); final total population 10.5458\n"),
        ("simulate", None, [],
         "simulated 7 steps (variant custom, n=40); final total population 8.48969\n"),
        ("semilinear", "configs/semilinear_demo.yaml", [],
         "semilinear demo: dim 2, period 2, factor 0.81, settled after 15 periods "
         "(tail bound 2.04e-13)\n"),
    ], ids=["simulate-h1", "simulate-amplitudes", "semilinear-demo"])
    def test_stdout(self, tmp_path, capsys, command, config, flags, stdout):
        # None: SMALL with its support from amplitudes, which names the run "custom"
        if config is None:
            config = self.write(tmp_path,
                                SMALL.replace("{variant: h4}", "{amplitudes: [1.0, 2.0]}"))
        assert main([command, "--config", config, "--out", str(tmp_path / "out")] + flags) == 0
        assert capsys.readouterr().out == stdout

    def test_convergence_command(self, tmp_path):
        cfg = self.write(tmp_path, SMALL)
        assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "conv"),
                     "--nodes", "16"]) == 0
