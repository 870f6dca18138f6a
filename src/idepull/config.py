"""Scenario configuration: YAML schema, validation, and model assembly.

The schema (version 1) is a nested key/value document; unknown keys are
rejected with their full key path.  See the repository README for the
documented schema and the shipped scenario files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping

import numpy as np
import yaml

from .exceptions import ConfigError
from .grid import QUADRATURE_RULES, Grid, GridFunction, build_grid
from .models import (
    GROWTH_FAMILIES,
    KERNEL_FAMILIES,
    InhomogeneitySpec,
    KernelSpec,
    SEASON_PATTERNS,
    GrowthSpec,
    half_contraction_amplitude,
    seasonal_scales,
)
from .dynamics import HammersteinOperator, build_hammerstein
from .attractor import DEFAULT_MAX_STEPS, DISTANCE_BOUND_MODES
from .semilinear import SemilinearSystem, build_semilinear

__all__ = [
    "ScenarioConfig",
    "SemilinearConfig",
    "parse_config",
    "load_config",
    "initial_condition",
    "build_scenario_grid",
    "build_operator",
    "build_inhomogeneity",
    "build_semilinear_system",
]

SCHEMA_VERSION = 1


def _vee(params: Mapping[str, float], length: float) -> tuple[Callable, tuple[float, float]]:
    offset = float(params.get("offset", 3.0))
    slope = float(params.get("slope", 2.0))
    # affine in |x| on [0, L/2], so the profile's extremes are at x = 0 and |x| = L/2;
    # slope * (L/2) overflows only where the maximum does
    low, high = sorted((offset, offset + slope * (length / 2)))
    return (lambda x: offset + slope * np.abs(x)), (low, high)


def _flat(params: Mapping[str, float], length: float) -> tuple[Callable, tuple[float, float]]:
    value = float(params.get("value", 1.0))
    return (lambda x: np.full_like(np.asarray(x, dtype=float), value)), (value, value)


# name -> (parameter keys, builder(params, length) -> (profile, exact (min, max) on the habitat))
PROFILES = {
    "vee": ({"offset", "slope"}, _vee),
    "flat": ({"value"}, _flat),
}


def _zero(params: Mapping, dim: int):
    return (lambda u: np.zeros(dim)), 0.0


def _constant(params: Mapping, dim: int):
    value = params.get("value", 1.0)
    c = np.full(dim, float(value)) if np.isscalar(value) else np.asarray(value, dtype=float)
    return (lambda u: c), 0.0


def _bounded_sigmoid(params: Mapping, dim: int):
    scale = float(params.get("scale", 1.0))
    return (lambda u: scale * np.tanh(u)), abs(scale)


# name -> (parameter keys, builder(params, dim) -> (nonlinearity, Lipschitz constant))
NONLINEARITIES = {
    "zero": (set(), _zero),
    "constant": ({"value"}, _constant),
    "bounded-sigmoid": ({"scale"}, _bounded_sigmoid),
}


def _default_density(params: Mapping, x: np.ndarray) -> np.ndarray:
    return np.where(np.abs(x) <= 1.0, 2.0 * x * x + 0.5, 2.5)


def _constant_density(params: Mapping, x: np.ndarray) -> np.ndarray:
    return np.full_like(x, float(params["value"]))


def _polynomial_density(params: Mapping, x: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polyval(x, np.asarray(params["coefficients"], dtype=float))


# id -> (required parameter keys, builder(params, nodes) -> node values)
INITIAL_CONDITIONS = {
    "default": (set(), _default_density),
    "constant": ({"value"}, _constant_density),
    "custom-polynomial": ({"coefficients"}, _polynomial_density),
}


@dataclass(frozen=True)
class SemilinearConfig:
    dimension: int
    matrices: tuple
    nonlinearity: str
    nonlinearity_params: dict
    kappas: tuple[float, ...]
    gamma: float | None
    alphas: tuple | None
    tolerance: float
    initial: tuple | None


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed scenario with every setting resolved: ``growth_scales`` is the
    growth scale schedule (``alpha: auto`` already tuned) and ``profile_sup``
    the profile bound the certificate uses."""

    length: float
    nodes: int
    rule: str
    kernel_family: str
    dispersal: tuple[float, ...]
    growth_family: str
    profile_id: str
    profile_params: dict
    profile_sup: float
    growth_scales: tuple[float, ...]
    variant: str | None
    amplitudes: tuple[float, ...] | None
    levels: tuple[float, float]
    period: int
    tolerance: float
    initial_id: str
    initial_params: dict
    horizon: int
    max_steps: int
    distance_bound_mode: str
    semilinear: SemilinearConfig | None


def _err(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise _err(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: Mapping, allowed, path: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise _err(path, f"unknown keys {unknown}; allowed keys are {sorted(allowed)}")


def _section(value, path: str, allowed) -> dict:
    """A section of the document: a mapping with no keys outside ``allowed``."""
    _reject_unknown(_require_mapping(value, path), allowed, path)
    return value


def _require_known(value: str, known, path: str, what: str) -> None:
    if value not in known:
        raise _err(path, f"unknown {what} {value!r}; expected one of {sorted(known)}")


def _is_number(value) -> bool:
    """A finite int or float (YAML's .nan and .inf are floats, bools are not numbers)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _get(mapping: Mapping, key: str, path: str, read=None, *, required=True, default=None,
         **options):
    """``mapping[key]`` under the schema's one absence rule: a key that is
    missing or null is absent.  An absent key raises where ``required`` and
    reads as ``default`` otherwise; a present value is returned as
    ``read(value, key_path, **options)`` where ``read`` is given."""
    value = mapping.get(key)
    if value is None:
        if required:
            raise _err(path, f"missing required key '{key}'")
        return default
    return value if read is None else read(value, f"{path}.{key}", **options)


def _require_keys(mapping: Mapping, keys, path: str) -> None:
    """Refuse the keys among ``keys`` that :func:`_get` reads as absent, together."""
    missing = [k for k in keys if _get(mapping, k, path, required=False) is None]
    if missing:
        raise _err(path, f"missing required keys {missing}")


def _number(value, path: str, positive=False) -> float:
    if not _is_number(value):
        raise _err(path, f"expected a finite number, got {value!r}")
    if positive and value <= 0:
        raise _err(path, f"must be positive, got {value}")
    return float(value)


def _integer(value, path: str, least=None) -> int:
    _number(value, path)
    if isinstance(value, float) and not value.is_integer():
        raise _err(path, f"expected an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise _err(path, f"must be >= {least}, got {value}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise _err(path, f"expected a string, got {value!r}")
    return value


def _number_list(value, path: str, least=None, dim=None) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise _err(path, f"expected a nonempty list of numbers, got {value!r}")
    out = []
    for i, v in enumerate(value):
        if not _is_number(v):
            raise _err(f"{path}[{i}]", f"expected a finite number, got {v!r}")
        out.append(float(v))
    if dim is not None and len(out) != dim:
        raise _err(path, f"expected {dim} entries, got {len(out)}")
    if least is not None and any(v < least for v in out):
        raise _err(path, f"entries must be >= {least}")
    return tuple(out)


def _registry_params(params: Mapping, keys, path: str, *, name=None, required=False,
                     dim=None) -> dict:
    """The parameters of a registry entry that takes ``keys``, checked: no
    other key, each of them present where ``required``, and each value a
    finite number, or a nonempty list of them for a list-valued key:
    ``coefficients``, and where ``dim`` is given a ``value`` of ``dim``
    entries, which is kept as the list given.  Absent parameters are left out.
    ``name``, where given, is the key of the section that names the entry:
    it is allowed and is not a parameter."""
    _reject_unknown(params, {*keys, name} if name else keys, path)
    if required:
        _require_keys(params, sorted(keys), path)
    checked = {}
    for key, value in params.items():
        if key == name:
            continue
        if key == "coefficients":
            value = _get(params, key, path, _number_list, required=False)
        elif key == "value" and dim is not None and isinstance(value, list):
            _number_list(value, f"{path}.{key}", dim=dim)
        else:
            value = _get(params, key, path, _number, required=False)
        if value is not None:
            checked[key] = value
    return checked


def _schedule(value, path: str, period: int) -> tuple[float, ...]:
    """A positive schedule: a number, or a list of 1 or ``period`` numbers."""
    if isinstance(value, (list, tuple)):
        entries = _number_list(value, path)
        if len(entries) not in (1, period):
            raise _err(path, f"schedule length {len(entries)} must be 1 or the period {period}")
    elif _is_number(value):
        entries = (float(value),)
    else:
        raise _err(path, f"expected a finite number or a list of numbers, got {value!r}")
    if any(v <= 0 for v in entries):
        raise _err(path, f"must be positive, got {value!r}")
    return entries


def _parse_semilinear(raw, path: str) -> SemilinearConfig:
    raw = _section(raw, path, {
        "dimension", "matrices", "nonlinearity", "kappas", "gamma", "alphas",
        "tolerance", "initial",
    })
    dim = _get(raw, "dimension", path, _integer, least=1)

    mats_raw = _get(raw, "matrices", path)
    if not isinstance(mats_raw, list) or not mats_raw:
        raise _err(f"{path}.matrices", "expected a nonempty list of matrices")
    matrices = []
    for i, m in enumerate(mats_raw):
        if not isinstance(m, list):
            raise _err(f"{path}.matrices[{i}]", f"expected a list of rows, got {m!r}")
        if len(m) != dim:
            raise _err(f"{path}.matrices[{i}]", f"expected {dim} rows")
        matrices.append(tuple(_number_list(row, f"{path}.matrices[{i}][{j}]", dim=dim)
                              for j, row in enumerate(m)))

    nl_path = f"{path}.nonlinearity"
    nl_raw = _get(raw, "nonlinearity", path, _require_mapping, required=False,
                  default={"name": "zero"})
    name = _get(nl_raw, "name", nl_path, _string)
    _require_known(name, NONLINEARITIES, f"{nl_path}.name", "nonlinearity")
    keys, build = NONLINEARITIES[name]
    params = _registry_params(nl_raw, keys, nl_path, name="name", dim=dim)

    return SemilinearConfig(
        dimension=dim,
        matrices=tuple(matrices),
        nonlinearity=name,
        nonlinearity_params=params,
        kappas=_get(raw, "kappas", path, _number_list, required=False,
                    default=(build(params, dim)[1],) * len(matrices)),
        alphas=_get(raw, "alphas", path, _number_list, required=False),
        gamma=_get(raw, "gamma", path, _number, required=False),
        tolerance=_get(raw, "tolerance", path, _number, required=False, default=1e-10,
                       positive=True),
        initial=_get(raw, "initial", path, _number_list, required=False, dim=dim),
    )


_TOP_KEYS = {
    "schema_version", "grid", "kernel", "growth", "inhomogeneity", "period",
    "tolerance", "initial", "horizon", "max_steps", "distance_bound", "semilinear",
}
_REQUIRED_TOP = ("schema_version", "grid", "kernel", "growth", "inhomogeneity",
                 "period", "tolerance", "initial")


# libyaml's safe loader where PyYAML was built with it: the same trees, bit
# for bit, about 8 times faster on a 365-rate config
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document; errors carry the key path.

    A key that is missing or null is absent: an absent optional key takes
    its default, and an absent required key is refused as missing.
    """
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if raw is None:
        raise ConfigError(
            "config is empty; required keys are " + ", ".join(_REQUIRED_TOP)
        )
    raw = _section(raw, "config", _TOP_KEYS)
    _require_keys(raw, _REQUIRED_TOP, "config")

    version = _get(raw, "schema_version", "config", _integer)
    if version != SCHEMA_VERSION:
        raise _err("config.schema_version", f"expected {SCHEMA_VERSION}, got {version}")

    period = _get(raw, "period", "config", _integer, least=1)
    tol = _get(raw, "tolerance", "config", _number, positive=True)

    grid_raw = _get(raw, "grid", "config", _section, allowed={"length", "nodes", "rule"})
    length = _get(grid_raw, "length", "config.grid", _number, positive=True)
    nodes = _get(grid_raw, "nodes", "config.grid", _integer, least=1)
    rule = _get(grid_raw, "rule", "config.grid", _string, required=False, default="trapezoid")
    _require_known(rule, QUADRATURE_RULES, "config.grid.rule", "quadrature rule")

    kernel_raw = _get(raw, "kernel", "config", _section, allowed={"family", "dispersal"})
    kfamily = _get(kernel_raw, "family", "config.kernel", _string)
    _require_known(kfamily, KERNEL_FAMILIES, "config.kernel.family", "kernel family")
    dispersal = _get(kernel_raw, "dispersal", "config.kernel", _schedule, period=period)

    growth_raw = _get(raw, "growth", "config", _section,
                      allowed={"family", "profile", "profile_params", "profile_sup", "alpha"})
    gfamily = _get(growth_raw, "family", "config.growth", _string)
    _require_known(gfamily, GROWTH_FAMILIES, "config.growth.family", "growth family")
    profile_id = _get(growth_raw, "profile", "config.growth", _string)
    _require_known(profile_id, PROFILES, "config.growth.profile", "profile")
    keys, build = PROFILES[profile_id]
    profile_params = _registry_params(
        _get(growth_raw, "profile_params", "config.growth", _require_mapping, required=False,
             default={}),
        keys, "config.growth.profile_params")
    low, high = build(profile_params, length)[1]
    if low < 0:
        raise _err("config.growth.profile_params",
                   f"profile {profile_id!r} falls to {low} on the habitat; it must be >= 0")
    if not math.isfinite(high):
        raise _err("config.growth.profile_params",
                   f"profile {profile_id!r} rises to {high} on the habitat; it must be finite")
    profile_sup = _get(growth_raw, "profile_sup", "config.growth", _number, required=False,
                       default=high, positive=True)
    if profile_sup < high:
        raise _err("config.growth.profile_sup", f"must be at least the profile's maximum "
                   f"{high} on the habitat, got {profile_sup}")

    alpha = _get(growth_raw, "alpha", "config.growth")
    if alpha == "auto":
        if kfamily != "laplace" or len(dispersal) != 1:
            raise _err("config.growth.alpha",
                       "'auto' requires a laplace kernel with a constant dispersal rate")
        if profile_sup <= 0:
            raise _err("config.growth.alpha", "'auto' needs a profile whose maximum is > 0")
        growth_scales = seasonal_scales(period, half_contraction_amplitude(
            period, dispersal[0], length, profile_sup))
    elif isinstance(alpha, str):
        raise _err("config.growth.alpha", f"unknown schedule {alpha!r}; use 'auto', "
                   "a number, a list, or {sinusoidal: C}")
    elif isinstance(alpha, dict):
        _reject_unknown(alpha, {"sinusoidal"}, "config.growth.alpha")
        growth_scales = seasonal_scales(period, _get(
            alpha, "sinusoidal", "config.growth.alpha", _number, positive=True))
    else:
        growth_scales = _schedule(alpha, "config.growth.alpha", period)

    inhom_raw = _get(raw, "inhomogeneity", "config", _section,
                     allowed={"variant", "amplitudes", "levels"})
    variant = _get(inhom_raw, "variant", "config.inhomogeneity", _string, required=False)
    amplitudes = _get(inhom_raw, "amplitudes", "config.inhomogeneity", _number_list,
                      required=False, least=0)
    if (variant is None) == (amplitudes is None):
        raise _err("config.inhomogeneity", "give exactly one of 'variant' or 'amplitudes'")
    if amplitudes is None:
        _require_known(variant, SEASON_PATTERNS, "config.inhomogeneity.variant", "variant")
    levels_raw = _get(inhom_raw, "levels", "config.inhomogeneity", required=False,
                      default=[1.0, 2.0])
    levels = _number_list(levels_raw, "config.inhomogeneity.levels")
    if len(levels) != 2:
        raise _err("config.inhomogeneity.levels", f"expected [low, high], got {levels_raw!r}")
    if any(v < 0 for v in levels):
        raise _err("config.inhomogeneity.levels", "levels must be >= 0")

    initial_raw = _get(raw, "initial", "config", _require_mapping)
    initial_id = _get(initial_raw, "id", "config.initial", _string)
    _require_known(initial_id, INITIAL_CONDITIONS, "config.initial.id", "initial condition")
    initial_params = _registry_params(initial_raw, INITIAL_CONDITIONS[initial_id][0],
                                      "config.initial", name="id", required=True)

    horizon = _get(raw, "horizon", "config", _integer, required=False, default=period + 1,
                   least=0)
    max_steps = _get(raw, "max_steps", "config", _integer, required=False,
                     default=DEFAULT_MAX_STEPS, least=1)

    mode = _get(raw, "distance_bound", "config", _string, required=False, default="upper-bound")
    _require_known(mode, DISTANCE_BOUND_MODES, "config.distance_bound", "distance bound mode")

    return ScenarioConfig(
        length=length,
        nodes=nodes,
        rule=rule,
        kernel_family=kfamily,
        dispersal=dispersal,
        growth_family=gfamily,
        profile_id=profile_id,
        profile_params=profile_params,
        profile_sup=profile_sup,
        growth_scales=growth_scales,
        variant=variant,
        amplitudes=amplitudes,
        levels=(levels[0], levels[1]),
        period=period,
        tolerance=tol,
        initial_id=initial_id,
        initial_params=initial_params,
        horizon=horizon,
        max_steps=max_steps,
        distance_bound_mode=mode,
        semilinear=_get(raw, "semilinear", "config", _parse_semilinear, required=False),
    )


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    return parse_config(text)


def initial_condition(name: str, params: Mapping[str, Any], grid: Grid) -> GridFunction:
    """Build the initial density from its registry id.

    ``default`` is the boundary-heavy density 2 x^2 + 0.5 on [-1, 1] and
    2.5 elsewhere (continuous at |x| = 1); ``constant`` takes ``value``;
    ``custom-polynomial`` evaluates ``coefficients`` in ascending degree.
    Parameters are checked as ``parse_config`` checks ``config.initial``, and
    start values that are not finite at some node, or whose quadrature total
    is not finite, are refused.
    """
    _require_known(name, INITIAL_CONDITIONS, "initial.id", "initial condition")
    keys, build = INITIAL_CONDITIONS[name]
    with np.errstate(over="ignore", invalid="ignore"):
        values = build(_registry_params(params, keys, "initial", required=True), grid.nodes)
        total = np.dot(grid.weights, values)
    if not np.isfinite(values).all():
        raise _err("initial", f"the {name!r} start values are not finite at every node")
    if not np.isfinite(total):
        raise _err("initial", f"the {name!r} start values have no finite total population")
    return GridFunction(grid, values)


def build_scenario_grid(cfg: ScenarioConfig, nodes: int | None = None) -> Grid:
    """The scenario's grid, with ``nodes`` subintervals in place of ``cfg.nodes``
    when given; a node count the grid refuses is a configuration error."""
    nodes = cfg.nodes if nodes is None else nodes
    try:
        return build_grid(cfg.length, nodes, cfg.rule)
    except ValueError as exc:
        raise _err("config.grid.nodes", str(exc)) from exc


def build_operator(
    cfg: ScenarioConfig,
    grid: Grid | None = None,
    variant: str | None = None,
) -> HammersteinOperator:
    """Assemble the collocated operator for a scenario.

    ``grid`` defaults to the scenario grid; a ``variant`` given here replaces
    ``cfg.variant`` as a ``--variant`` override does.  The support is
    :func:`build_inhomogeneity`'s, which refuses a config that names both
    a variant and amplitudes.
    """
    if variant is not None:
        cfg = replace(cfg, variant=variant)
    grid = build_scenario_grid(cfg) if grid is None else grid
    profile = PROFILES[cfg.profile_id][1](cfg.profile_params, cfg.length)[0]
    growth = GrowthSpec(cfg.growth_family, profile, cfg.growth_scales, cfg.profile_sup)
    kernel = KernelSpec(cfg.kernel_family, cfg.dispersal)
    return build_hammerstein(kernel, growth, build_inhomogeneity(cfg), grid, theta=cfg.period)


def build_inhomogeneity(cfg: ScenarioConfig) -> InhomogeneitySpec:
    """The scenario's seasonal support, as :func:`build_operator` takes it.

    From ``inhomogeneity.amplitudes`` where the config has them, otherwise
    from ``cfg.variant`` and the configured levels.  A config with both,
    such as an amplitudes config given ``--variant``, raises ``ConfigError``
    as ``parse_config`` refuses a file naming both.
    """
    if cfg.amplitudes is not None:
        if cfg.variant is not None:
            raise _err("config.inhomogeneity", "give exactly one of 'variant' or 'amplitudes'")
        return InhomogeneitySpec(cfg.amplitudes, cfg.period)
    return InhomogeneitySpec.from_variant(cfg.variant, cfg.period, cfg.levels)


def build_semilinear_system(cfg: ScenarioConfig) -> SemilinearSystem:
    """The system of the ``semilinear`` section, as :func:`build_operator` is the
    scenario's; a missing section or constants ``build_semilinear`` refuses
    raise ``ConfigError``."""
    if cfg.semilinear is None:
        raise ConfigError("config has no 'semilinear' section")
    sc = cfg.semilinear
    nonlinearity = NONLINEARITIES[sc.nonlinearity][1](sc.nonlinearity_params, sc.dimension)[0]
    try:
        return build_semilinear([np.array(m, dtype=float) for m in sc.matrices], nonlinearity,
                                kappas=sc.kappas, gamma=sc.gamma, alphas=sc.alphas)
    except ValueError as exc:
        raise ConfigError(f"config.semilinear: {exc}") from exc
