"""Scenario configuration: YAML schema, validation, and model assembly.

The schema (version 1) is a nested key/value document; unknown keys are
rejected with their full key path.  See the repository README for the
documented schema and the shipped scenario files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "SCHEMA_VERSION",
    "PROFILES",
    "NONLINEARITIES",
    "INITIAL_CONDITIONS",
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
    # affine in |x| on [0, L/2], so the profile's extremes are at x = 0 and |x| = L/2
    low, high = sorted((offset, offset + slope * length / 2))
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


def _require_known(value: str, known, path: str, what: str) -> None:
    if value not in known:
        raise _err(path, f"unknown {what} {value!r}; known {what}s are {sorted(known)}")


def _is_number(value) -> bool:
    """A finite int or float (YAML's .nan and .inf are floats, bools are not numbers)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _get_number(mapping: Mapping, key: str, path: str, *, required=True, default=None,
                positive=False):
    if key not in mapping:
        if required:
            raise _err(path, f"missing required key '{key}'")
        return default
    value = mapping[key]
    if not _is_number(value):
        raise _err(f"{path}.{key}", f"expected a finite number, got {value!r}")
    if positive and value <= 0:
        raise _err(f"{path}.{key}", f"must be positive, got {value}")
    return value


def _get_int(mapping: Mapping, key: str, path: str, *, required=True, default=None,
             least=None):
    value = _get_number(mapping, key, path, required=required, default=default)
    if value is None:
        return None
    if isinstance(value, float) and not value.is_integer():
        raise _err(f"{path}.{key}", f"expected an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise _err(f"{path}.{key}", f"must be >= {least}, got {value}")
    return value


def _get_str(mapping: Mapping, key: str, path: str, *, required=True, default=None):
    if key not in mapping:
        if required:
            raise _err(path, f"missing required key '{key}'")
        return default
    value = mapping[key]
    if not isinstance(value, str):
        raise _err(f"{path}.{key}", f"expected a string, got {value!r}")
    return value


def _number_list(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise _err(path, f"expected a nonempty list of numbers, got {value!r}")
    out = []
    for i, v in enumerate(value):
        if not _is_number(v):
            raise _err(f"{path}[{i}]", f"expected a finite number, got {v!r}")
        out.append(float(v))
    return tuple(out)


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
    raw = _require_mapping(raw, path)
    allowed = {
        "dimension", "matrices", "nonlinearity", "kappas", "gamma", "alphas",
        "tolerance", "initial",
    }
    _reject_unknown(raw, allowed, path)

    dim = _get_int(raw, "dimension", path, least=1)

    if "matrices" not in raw:
        raise _err(path, "missing required key 'matrices'")
    mats_raw = raw["matrices"]
    if not isinstance(mats_raw, list) or not mats_raw:
        raise _err(f"{path}.matrices", "expected a nonempty list of matrices")
    matrices = []
    for i, m in enumerate(mats_raw):
        if not isinstance(m, list) or len(m) != dim:
            raise _err(f"{path}.matrices[{i}]", f"expected {dim} rows")
        rows = []
        for j, row in enumerate(m):
            rows.append(_number_list(row, f"{path}.matrices[{i}][{j}]"))
            if len(rows[-1]) != dim:
                raise _err(f"{path}.matrices[{i}][{j}]", f"expected {dim} entries")
        matrices.append(tuple(rows))

    nl_path = f"{path}.nonlinearity"
    nl_raw = _require_mapping(raw.get("nonlinearity", {"name": "zero"}), nl_path)
    name = _get_str(nl_raw, "name", nl_path)
    _require_known(name, NONLINEARITIES, f"{nl_path}.name", "nonlinearity")
    _reject_unknown(nl_raw, {"name"} | NONLINEARITIES[name][0], nl_path)
    params = {k: v for k, v in nl_raw.items() if k != "name"}
    for key, value in params.items():
        if key == "value" and isinstance(value, list):
            entries = _number_list(value, f"{nl_path}.{key}")
            if len(entries) != dim:
                raise _err(f"{nl_path}.{key}", f"expected {dim} entries, got {len(entries)}")
        else:
            _get_number(params, key, nl_path)

    if raw.get("kappas") is not None:
        kappas = _number_list(raw["kappas"], f"{path}.kappas")
    else:
        kappas = (NONLINEARITIES[name][1](params, dim)[1],) * len(matrices)
    alphas = _number_list(raw["alphas"], f"{path}.alphas") if raw.get("alphas") is not None else None
    gamma = _get_number(raw, "gamma", path, required=False)
    tol = _get_number(raw, "tolerance", path, required=False, default=1e-10, positive=True)
    initial = (
        _number_list(raw["initial"], f"{path}.initial")
        if raw.get("initial") is not None
        else None
    )
    if initial is not None and len(initial) != dim:
        raise _err(f"{path}.initial", f"expected {dim} entries, got {len(initial)}")

    return SemilinearConfig(
        dimension=dim,
        matrices=tuple(matrices),
        nonlinearity=name,
        nonlinearity_params=params,
        kappas=kappas,
        gamma=float(gamma) if gamma is not None else None,
        alphas=alphas,
        tolerance=float(tol),
        initial=initial,
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
    """Parse and validate a scenario document; errors carry the key path."""
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if raw is None:
        raise ConfigError(
            "config is empty; required keys are " + ", ".join(_REQUIRED_TOP)
        )
    raw = _require_mapping(raw, "config")
    _reject_unknown(raw, _TOP_KEYS, "config")
    missing = [k for k in _REQUIRED_TOP if k not in raw]
    if missing:
        raise ConfigError(f"config: missing required keys {missing}")

    version = _get_int(raw, "schema_version", "config")
    if version != SCHEMA_VERSION:
        raise _err("config.schema_version", f"expected {SCHEMA_VERSION}, got {version}")

    period = _get_int(raw, "period", "config", least=1)
    tol = _get_number(raw, "tolerance", "config", positive=True)

    grid_raw = _require_mapping(raw["grid"], "config.grid")
    _reject_unknown(grid_raw, {"length", "nodes", "rule"}, "config.grid")
    length = float(_get_number(grid_raw, "length", "config.grid", positive=True))
    nodes = _get_int(grid_raw, "nodes", "config.grid", least=1)
    rule = _get_str(grid_raw, "rule", "config.grid", required=False, default="trapezoid")
    _require_known(rule, QUADRATURE_RULES, "config.grid.rule", "quadrature rule")

    kernel_raw = _require_mapping(raw["kernel"], "config.kernel")
    _reject_unknown(kernel_raw, {"family", "dispersal"}, "config.kernel")
    kfamily = _get_str(kernel_raw, "family", "config.kernel")
    _require_known(kfamily, KERNEL_FAMILIES, "config.kernel.family", "kernel family")
    if "dispersal" not in kernel_raw:
        raise _err("config.kernel", "missing required key 'dispersal'")
    dispersal = _schedule(kernel_raw["dispersal"], "config.kernel.dispersal", period)

    growth_raw = _require_mapping(raw["growth"], "config.growth")
    _reject_unknown(
        growth_raw,
        {"family", "profile", "profile_params", "profile_sup", "alpha"},
        "config.growth",
    )
    gfamily = _get_str(growth_raw, "family", "config.growth")
    _require_known(gfamily, GROWTH_FAMILIES, "config.growth.family", "growth family")
    profile_id = _get_str(growth_raw, "profile", "config.growth")
    _require_known(profile_id, PROFILES, "config.growth.profile", "profile")
    profile_params = growth_raw.get("profile_params") or {}
    profile_params = _require_mapping(profile_params, "config.growth.profile_params")
    _reject_unknown(profile_params, PROFILES[profile_id][0], "config.growth.profile_params")
    for key in profile_params:
        _get_number(profile_params, key, "config.growth.profile_params")
    low, high = PROFILES[profile_id][1](profile_params, length)[1]
    if low < 0:
        raise _err("config.growth.profile_params",
                   f"profile {profile_id!r} falls to {low} on the habitat; it must be >= 0")
    profile_sup = float(_get_number(growth_raw, "profile_sup", "config.growth", required=False,
                                    default=high, positive=True))
    if profile_sup < high:
        raise _err("config.growth.profile_sup", f"must be at least the profile's maximum "
                   f"{high} on the habitat, got {profile_sup}")

    if "alpha" not in growth_raw:
        raise _err("config.growth", "missing required key 'alpha'")
    alpha = growth_raw["alpha"]
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
        c = _get_number(alpha, "sinusoidal", "config.growth.alpha", positive=True)
        growth_scales = seasonal_scales(period, float(c))
    else:
        growth_scales = _schedule(alpha, "config.growth.alpha", period)

    inhom_raw = _require_mapping(raw["inhomogeneity"], "config.inhomogeneity")
    _reject_unknown(inhom_raw, {"variant", "amplitudes", "levels"}, "config.inhomogeneity")
    variant = _get_str(inhom_raw, "variant", "config.inhomogeneity", required=False)
    amplitudes = None
    if inhom_raw.get("amplitudes") is not None:
        amplitudes = _number_list(inhom_raw["amplitudes"], "config.inhomogeneity.amplitudes")
        if any(a < 0 for a in amplitudes):
            raise _err("config.inhomogeneity.amplitudes", "entries must be >= 0")
    if (variant is None) == (amplitudes is None):
        raise _err("config.inhomogeneity", "give exactly one of 'variant' or 'amplitudes'")
    if variant is not None:
        _require_known(variant, SEASON_PATTERNS, "config.inhomogeneity.variant", "variant")
    levels_raw = inhom_raw.get("levels", [1.0, 2.0])
    levels = _number_list(levels_raw, "config.inhomogeneity.levels")
    if len(levels) != 2:
        raise _err("config.inhomogeneity.levels", f"expected [low, high], got {levels_raw!r}")
    if any(v < 0 for v in levels):
        raise _err("config.inhomogeneity.levels", "levels must be >= 0")

    initial_raw = _require_mapping(raw["initial"], "config.initial")
    initial_id = _get_str(initial_raw, "id", "config.initial")
    initial_params = {k: v for k, v in initial_raw.items() if k != "id"}
    _initial_builder(initial_id, initial_params, "config.initial")
    for key in initial_params:
        if key == "coefficients":
            initial_params[key] = _number_list(initial_params[key], "config.initial.coefficients")
        else:
            _get_number(initial_params, key, "config.initial")

    horizon = _get_int(raw, "horizon", "config", required=False, default=period + 1, least=0)
    max_steps = _get_int(raw, "max_steps", "config", required=False, default=DEFAULT_MAX_STEPS,
                         least=1)

    mode = _get_str(raw, "distance_bound", "config", required=False, default="upper-bound")
    _require_known(mode, DISTANCE_BOUND_MODES, "config.distance_bound", "distance bound mode")

    semilinear = None
    if raw.get("semilinear") is not None:
        semilinear = _parse_semilinear(raw["semilinear"], "config.semilinear")

    return ScenarioConfig(
        length=length,
        nodes=nodes,
        rule=rule,
        kernel_family=kfamily,
        dispersal=dispersal,
        growth_family=gfamily,
        profile_id=profile_id,
        profile_params=dict(profile_params),
        profile_sup=profile_sup,
        growth_scales=growth_scales,
        variant=variant,
        amplitudes=amplitudes,
        levels=(levels[0], levels[1]),
        period=period,
        tolerance=float(tol),
        initial_id=initial_id,
        initial_params=initial_params,
        horizon=horizon,
        max_steps=max_steps,
        distance_bound_mode=mode,
        semilinear=semilinear,
    )


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    return parse_config(text)


def _initial_builder(name: str, params: Mapping[str, Any], path: str) -> Callable:
    """Builder of a registered initial condition whose parameter keys match its id."""
    _require_known(name, INITIAL_CONDITIONS, f"{path}.id", "initial condition")
    keys, build = INITIAL_CONDITIONS[name]
    _reject_unknown(params, keys, path)
    missing = sorted(keys - set(params))
    if missing:
        raise _err(path, f"missing required keys {missing}")
    return build


def initial_condition(name: str, params: Mapping[str, Any], grid: Grid) -> GridFunction:
    """Build the initial density from its registry id.

    ``default`` is the boundary-heavy density 2 x^2 + 0.5 on [-1, 1] and
    2.5 elsewhere (continuous at |x| = 1); ``constant`` takes ``value``;
    ``custom-polynomial`` evaluates ``coefficients`` in ascending degree.
    """
    return GridFunction(grid, _initial_builder(name, params, "initial")(params, grid.nodes))


def build_scenario_grid(cfg: ScenarioConfig, nodes: int | None = None) -> Grid:
    return build_grid(cfg.length, nodes if nodes is not None else cfg.nodes, cfg.rule)


def build_operator(
    cfg: ScenarioConfig,
    grid: Grid | None = None,
    variant: str | None = None,
) -> HammersteinOperator:
    """Assemble the collocated operator for a scenario.

    ``grid`` defaults to the scenario grid and ``variant`` to ``cfg.variant``.
    A config with ``inhomogeneity.amplitudes`` takes its support from the
    amplitudes whatever the variant: a variant given here, or set with
    ``dataclasses.replace`` (as a ``--variant`` override is), then only
    names the run in its reports.
    """
    grid = build_scenario_grid(cfg) if grid is None else grid
    profile = PROFILES[cfg.profile_id][1](cfg.profile_params, cfg.length)[0]
    growth = GrowthSpec(cfg.growth_family, profile, cfg.growth_scales, cfg.profile_sup)
    kernel = KernelSpec(cfg.kernel_family, cfg.dispersal)
    return build_hammerstein(kernel, growth, build_inhomogeneity(cfg, variant), grid,
                             theta=cfg.period)


def build_inhomogeneity(cfg: ScenarioConfig, variant: str | None = None) -> InhomogeneitySpec:
    """The scenario's seasonal support, as :func:`build_operator` takes it.

    From ``inhomogeneity.amplitudes`` where the config has them, otherwise
    from ``variant`` (default ``cfg.variant``) and the configured levels.
    """
    if cfg.amplitudes is not None:
        return InhomogeneitySpec(cfg.amplitudes, cfg.period)
    chosen = variant if variant is not None else cfg.variant
    return InhomogeneitySpec.from_variant(chosen, cfg.period, cfg.levels)


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
