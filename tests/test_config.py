import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from idepull import (
    ConfigError,
    build_grid,
    build_operator,
    half_contraction_amplitude,
    initial_condition,
    load_config,
    parse_config,
    seasonal_scales,
)

GOOD = """
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


def test_parse_shipped_seasonal_config():
    cfg = load_config("configs/seasonal_beverton_holt.yaml")
    assert cfg.length == 6.0
    assert cfg.nodes == 1000
    assert cfg.period == 365
    assert cfg.tolerance == 1e-6
    assert cfg.kernel_family == "laplace"
    assert cfg.dispersal == (10.0,)
    assert cfg.growth_family == "beverton_holt"
    assert cfg.profile_id == "vee"
    assert cfg.profile_sup == 9.0
    # alpha: auto is resolved at parse time
    assert cfg.growth_scales == seasonal_scales(
        365, half_contraction_amplitude(365, 10.0, 6.0, 9.0))
    assert cfg.variant == "h4"
    assert cfg.initial_id == "default"
    assert cfg.horizon == 366


def test_parse_small_config():
    cfg = parse_config(GOOD)
    assert cfg.period == 6
    assert cfg.growth_scales == (0.05,)
    assert cfg.profile_sup == 9.0
    assert cfg.levels == (1.0, 2.0)
    assert cfg.distance_bound_mode == "upper-bound"
    assert cfg.max_steps == 10_000_000


def test_empty_document_lists_required_keys():
    with pytest.raises(ConfigError) as err:
        parse_config("")
    for key in ("grid", "kernel", "growth", "inhomogeneity", "period", "tolerance"):
        assert key in str(err.value)


def test_zero_tolerance_rejected():
    with pytest.raises(ConfigError, match="tolerance"):
        parse_config(GOOD.replace("tolerance: 1.0e-8", "tolerance: 0"))


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="config"):
        parse_config(GOOD + "\nextra_key: 1\n")
    with pytest.raises(ConfigError, match="config.grid"):
        parse_config(GOOD.replace("nodes: 40", "nodes: 40, spacing: 2"))
    with pytest.raises(ConfigError, match="config.growth"):
        parse_config(GOOD.replace("alpha: 0.05", "alpha: 0.05\n  extra: 1"))


def test_bad_yaml_rejected(monkeypatch):
    # with libyaml's loader where PyYAML has it, and with the Python one
    for loader in (getattr(yaml, "CSafeLoader", yaml.SafeLoader), yaml.SafeLoader):
        monkeypatch.setattr("idepull.config._YAML_LOADER", loader)
        with pytest.raises(ConfigError, match="YAML"):
            parse_config("grid: [unclosed")


def float_bits(node):
    """A parsed YAML tree with each float replaced by its ``float.hex``."""
    if isinstance(node, dict):
        return {float_bits(k): float_bits(v) for k, v in node.items()}
    if isinstance(node, list):
        return [float_bits(v) for v in node]
    if isinstance(node, float):
        return ("float", node.hex())
    return node


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_libyaml_loader_parses_like_the_python_loader():
    # the shipped configs, and a 365-rate schedule whose entries are written
    # as repr of random doubles, as a generated config holds them
    docs = [p.read_text() for p in sorted((Path(__file__).parents[1] / "configs").glob("*.yaml"))]
    rates = np.random.default_rng(365).uniform(5.0, 15.0, 365).tolist()
    docs.append(GOOD.replace("{family: laplace, dispersal: 2.0}",
                             "{family: gauss, dispersal: [" + ", ".join(map(repr, rates)) + "]}")
                .replace("period: 6", "period: 365"))
    assert len(docs) == 3
    for text in docs:
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        assert float_bits(fast) == float_bits(yaml.load(text, Loader=yaml.SafeLoader))
    assert fast["kernel"]["dispersal"] == rates
    assert parse_config(docs[-1]).dispersal == tuple(rates)


def test_unknown_variant_and_profile():
    with pytest.raises(ConfigError, match="variant"):
        parse_config(GOOD.replace("variant: h4", "variant: h9"))
    with pytest.raises(ConfigError, match="profile"):
        parse_config(GOOD.replace("profile: vee", "profile: bump"))


def test_unknown_registry_values_rejected_with_path():
    with pytest.raises(ConfigError, match=r"config\.grid\.rule"):
        parse_config(GOOD.replace("nodes: 40", "nodes: 40, rule: simpson"))
    with pytest.raises(ConfigError, match=r"config\.kernel\.family"):
        parse_config(GOOD.replace("family: laplace", "family: cauchy"))
    with pytest.raises(ConfigError, match=r"config\.growth\.family"):
        parse_config(GOOD.replace("family: beverton_holt", "family: hassell"))


def test_non_finite_numbers_rejected_with_path():
    with pytest.raises(ConfigError, match=r"config\.tolerance"):
        parse_config(GOOD.replace("tolerance: 1.0e-8", "tolerance: .nan"))
    with pytest.raises(ConfigError, match=r"config\.kernel\.dispersal"):
        parse_config(GOOD.replace("dispersal: 2.0", "dispersal: .inf"))
    with pytest.raises(ConfigError, match=r"config\.max_steps"):
        parse_config(GOOD + "\nmax_steps: 1" + "0" * 400 + "\n")
    with pytest.raises(ConfigError, match=r"config\.inhomogeneity\.amplitudes\[1\]"):
        parse_config(GOOD.replace("{variant: h4}", "{amplitudes: [1.0, .inf]}"))
    with pytest.raises(ConfigError, match=r"config\.growth\.profile_params\.offset"):
        parse_config(GOOD.replace("profile: vee", "profile: vee\n  profile_params: {offset: .nan}"))
    semilinear = """
semilinear:
  dimension: 2
  matrices: [[[0.5, 0.0], [0.0, 0.5]]]
  nonlinearity: {name: constant, value: [.nan, 1.0]}
"""
    with pytest.raises(ConfigError, match=r"config\.semilinear\.nonlinearity\.value\[0\]"):
        parse_config(GOOD + semilinear)


def test_variant_xor_amplitudes():
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(GOOD.replace("{variant: h4}", "{variant: h4, amplitudes: [1, 2]}"))
    cfg = parse_config(GOOD.replace("{variant: h4}", "{amplitudes: [1.0, 2.0, 0.5]}"))
    assert cfg.amplitudes == (1.0, 2.0, 0.5)


def test_alpha_forms():
    def scales(alpha):
        return parse_config(GOOD.replace("alpha: 0.05", f"alpha: {alpha}")).growth_scales

    assert scales("[0.05, 0.06, 0.05, 0.04, 0.05, 0.06]") == (0.05, 0.06, 0.05, 0.04, 0.05, 0.06)
    assert scales("[0.05]") == (0.05,)
    assert scales("3") == (3.0,)
    assert scales("{sinusoidal: 0.1}") == seasonal_scales(6, 0.1)
    with pytest.raises(ConfigError, match="alpha"):
        scales("[0.05, 0.06]")
    with pytest.raises(ConfigError, match="alpha"):
        scales("tuned")


@pytest.mark.parametrize("key, old", [
    ("config.kernel.dispersal", "dispersal: 2.0"),
    ("config.growth.alpha", "alpha: 0.05"),
], ids=["dispersal", "alpha"])
@pytest.mark.parametrize("value", [
    "true", "fast", "[]", "[1.0, 2.0]", "0", "[0.5, -1.0, 0.5, 0.5, 0.5, 0.5]", ".nan", ".inf",
], ids=["bool", "string", "empty", "length", "zero", "negative-entry", "nan", "inf"])
def test_schedule_errors_name_the_key(key, old, value):
    name = key.rsplit(".", 1)[1]
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
        parse_config(GOOD.replace(old, f"{name}: {value}"))


def test_auto_alpha_needs_constant_laplace():
    auto = GOOD.replace("alpha: 0.05", "alpha: auto")
    for old, new in [
        ("family: laplace", "family: gauss"),
        ("dispersal: 2.0", "dispersal: [2.0, 3.0, 2.0, 3.0, 2.0, 3.0]"),
        ("profile: vee", "profile: flat\n  profile_params: {value: 0.0}"),  # maximum 0
    ]:
        with pytest.raises(ConfigError, match=r"^config\.growth\.alpha: .*auto"):
            parse_config(auto.replace(old, new))


def test_dispersal_schedule_length():
    with pytest.raises(ConfigError, match="dispersal"):
        parse_config(GOOD.replace("dispersal: 2.0", "dispersal: [2.0, 3.0]"))
    cfg = parse_config(GOOD.replace("dispersal: 2.0", "dispersal: [2, 3, 2, 3, 2, 3]"))
    assert cfg.dispersal == (2.0, 3.0, 2.0, 3.0, 2.0, 3.0)


class TestInitialCondition:
    def setup_method(self):
        self.grid = build_grid(6.0, 6)  # nodes at -3, -2, ..., 3

    def test_default_profile(self):
        u = initial_condition("default", {}, self.grid)
        values = dict(zip(self.grid.nodes, u.values))
        assert values[0.0] == 0.5
        assert values[1.0] == 2.5  # both branches agree at the seam
        assert values[-1.0] == 2.5
        assert values[3.0] == 2.5

    def test_constant(self):
        u = initial_condition("constant", {"value": 2.5}, self.grid)
        assert np.all(u.values == 2.5)
        with pytest.raises(ConfigError):
            initial_condition("constant", {}, self.grid)

    def test_custom_polynomial(self):
        u = initial_condition("custom-polynomial", {"coefficients": [1.0, 0.0, 2.0]}, self.grid)
        assert u.values[-1] == pytest.approx(1 + 2 * 9, abs=1e-14)

    def test_unknown_id(self):
        with pytest.raises(ConfigError):
            initial_condition("bump", {}, self.grid)


def test_initial_params_must_match_id():
    with pytest.raises(ConfigError, match="config.initial"):
        parse_config(GOOD.replace("{id: default}", "{id: default, value: 2.0}"))
    with pytest.raises(ConfigError, match="config.initial"):
        parse_config(GOOD.replace("{id: default}", "{id: constant}"))
    cfg = parse_config(GOOD.replace("{id: default}", "{id: constant, value: 1.5}"))
    assert cfg.initial_params == {"value": 1.5}


def test_build_operator_variant_override():
    cfg = parse_config(GOOD)
    op_default = build_operator(cfg)
    op_h2 = build_operator(cfg, variant="h2")
    assert op_default.inhomogeneity.variant == "h4"
    assert op_h2.inhomogeneity.variant == "h2"
    assert op_default.theta == 6


def test_build_operator_auto_scales_halve_product():
    import idepull as ip

    text = GOOD.replace("alpha: 0.05", "alpha: auto").replace("period: 6", "period: 12")
    cfg = parse_config(text)
    op = build_operator(cfg)
    lams = ip.step_constants_closed_form(op)
    cert = ip.certify_contraction(lams)
    assert abs(cert.factor - 0.5) <= 1e-10


def test_semilinear_section_validation():
    with pytest.raises(ConfigError, match="matrices"):
        parse_config(GOOD + "\nsemilinear: {dimension: 2}\n")
    text = GOOD + """
semilinear:
  dimension: 2
  matrices:
    - [[0.5, 0.0], [0.0, 0.5]]
  nonlinearity: {name: constant, value: [1.0, 1.0]}
  kappas: [0.0]
"""
    cfg = parse_config(text)
    assert cfg.semilinear.dimension == 2
    assert cfg.semilinear.nonlinearity == "constant"
    assert cfg.semilinear.kappas == (0.0,)


def test_undeclared_kappas_are_the_registry_constant():
    base = GOOD + """
semilinear:
  dimension: 2
  matrices:
    - [[0.5, 0.0], [0.0, 0.5]]
    - [[0.4, 0.0], [0.0, 0.4]]
"""
    assert parse_config(base).semilinear.kappas == (0.0, 0.0)
    sigmoid = base + "  nonlinearity: {name: bounded-sigmoid, scale: -0.7}\n"
    assert parse_config(sigmoid).semilinear.kappas == (0.7, 0.7)


def test_nonlinearity_keys_checked_against_name():
    base = GOOD + """
semilinear:
  dimension: 2
  matrices:
    - [[0.5, 0.0], [0.0, 0.5]]
  nonlinearity: {NL}
"""
    for nl in ("{name: zero, value: 5.0}", "{name: bounded-sigmoid, value: 3.0}"):
        with pytest.raises(ConfigError, match=r"config\.semilinear\.nonlinearity: unknown keys"):
            parse_config(base.replace("{NL}", nl))
    parse_config(base.replace("{NL}", "{name: bounded-sigmoid, scale: 0.5}"))
    with pytest.raises(ConfigError, match=r"config\.semilinear\.nonlinearity\.value"):
        parse_config(base.replace("{NL}", "{name: constant, value: [1.0, 1.0, 1.0]}"))


def test_profile_sup_is_exact_supremum():
    def sup(text):
        return build_operator(parse_config(text)).growth.profile_sup

    assert sup(GOOD) == 9.0  # vee 3 + 2 |x| on [-3, 3]
    assert sup(Path("configs/seasonal_beverton_holt.yaml").read_text()) == 9.0
    assert sup(Path("configs/semilinear_demo.yaml").read_text()) == 9.0
    # 7 subintervals: x = 0, where 5 - |x| peaks, is not a node
    odd = GOOD.replace("nodes: 40", "nodes: 7")
    assert sup(odd.replace("profile: vee", "profile: vee\n  profile_params: "
                           "{offset: 5.0, slope: -1.0}")) == 5.0
    assert sup(GOOD.replace("profile: vee", "profile: flat\n  profile_params: "
                            "{value: 2.5}")) == 2.5
    assert sup(GOOD.replace("profile: vee", "profile: vee\n  profile_sup: 12.0")) == 12.0


def test_declared_profile_sup_not_below_exact_maximum():
    declared = GOOD.replace("profile: vee", "profile: vee\n  profile_sup: SUP")
    with pytest.raises(ConfigError, match=r"config\.growth\.profile_sup"):
        parse_config(declared.replace("SUP", "8.999"))  # the exact maximum is 9.0
    for value in (9.0, 12.0):
        assert parse_config(declared.replace("SUP", str(value))).profile_sup == value


@pytest.mark.parametrize("profile", [
    "profile: vee\n  profile_params: {offset: -3.0, slope: 2.0}",
    "profile: flat\n  profile_params: {value: -1.0}",
], ids=["vee", "flat"])
def test_negative_profile_rejected_at_parse_time(profile):
    with pytest.raises(ConfigError, match=r"config\.growth\.profile_params"):
        parse_config(GOOD.replace("profile: vee", profile))
