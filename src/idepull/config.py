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
    growth_spec,
    half_contraction_amplitude,
    seasonal_scales,
)
from .dynamics import HammersteinOperator, build_hammerstein

__all__ = [
    "SCHEMA_VERSION",
    "PROFILES",
    "INITIAL_IDS",
    "ScenarioConfig",
    "SemilinearConfig",
    "parse_config",
    "load_config",
    "initial_condition",
    "build_scenario_grid",
    "build_operator",
]

SCHEMA_VERSION = 1

INITIAL_IDS = ("default", "constant", "custom-polynomial")


def _vee(params: Mapping[str, float]) -> Callable[[np.ndarray], np.ndarray]:
    offset = float(params.get("offset", 3.0))
    slope = float(params.get("slope", 2.0))
    return lambda x: offset + slope * np.abs(x)


def _flat(params: Mapping[str, float]) -> Callable[[np.ndarray], np.ndarray]:
    value = float(params.get("value", 1.0))
    return lambda x: np.full_like(np.asarray(x, dtype=float), value)


PROFILES: dict[str, Callable[[Mapping[str, float]], Callable[[np.ndarray], np.ndarray]]] = {
    "vee": _vee,
    "flat": _flat,
}

_PROFILE_PARAM_KEYS = {"vee": {"offset", "slope"}, "flat": {"value"}}


@dataclass(frozen=True)
class SemilinearConfig:
    dimension: int
    matrices: tuple
    nonlinearity: str
    nonlinearity_params: dict
    kappas: tuple | None
    gamma: float | None
    alphas: tuple | None
    tolerance: float
    initial: tuple | None


@dataclass(frozen=True)
class ScenarioConfig:
    length: float
    nodes: int
    rule: str
    kernel_family: str
    dispersal: tuple[float, ...]
    growth_family: str
    profile_id: str
    profile_params: dict
    profile_sup: float | None
    alpha: Any
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


def _get_number(mapping: Mapping, key: str, path: str, *, required=True, default=None):
    if key not in mapping:
        if required:
            raise _err(path, f"missing required key '{key}'")
        return default
    value = mapping[key]
    if not _is_number(value):
        raise _err(f"{path}.{key}", f"expected a finite number, got {value!r}")
    return value


def _get_int(mapping: Mapping, key: str, path: str, *, required=True, default=None):
    value = _get_number(mapping, key, path, required=required, default=default)
    if value is None:
        return None
    if isinstance(value, float) and not value.is_integer():
        raise _err(f"{path}.{key}", f"expected an integer, got {value!r}")
    return int(value)


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


def _parse_semilinear(raw, path: str) -> SemilinearConfig:
    raw = _require_mapping(raw, path)
    allowed = {
        "dimension", "matrices", "nonlinearity", "kappas", "gamma", "alphas",
        "tolerance", "initial",
    }
    _reject_unknown(raw, allowed, path)

    dim = _get_int(raw, "dimension", path)
    if dim is None or dim < 1:
        raise _err(f"{path}.dimension", f"must be >= 1, got {dim}")

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

    nl_raw = _require_mapping(raw.get("nonlinearity", {"name": "zero"}), f"{path}.nonlinearity")
    _reject_unknown(nl_raw, {"name", "value", "scale"}, f"{path}.nonlinearity")
    name = _get_str(nl_raw, "name", f"{path}.nonlinearity")
    if name not in ("zero", "constant", "bounded-sigmoid"):
        raise _err(f"{path}.nonlinearity.name", f"unknown nonlinearity {name!r}")
    params = {k: v for k, v in nl_raw.items() if k != "name"}
    for key, value in params.items():
        if isinstance(value, list):
            _number_list(value, f"{path}.nonlinearity.{key}")
        else:
            _get_number(params, key, f"{path}.nonlinearity")

    kappas = _number_list(raw["kappas"], f"{path}.kappas") if raw.get("kappas") is not None else None
    alphas = _number_list(raw["alphas"], f"{path}.alphas") if raw.get("alphas") is not None else None
    gamma = _get_number(raw, "gamma", path, required=False)
    tol = _get_number(raw, "tolerance", path, required=False, default=1e-10)
    if tol <= 0:
        raise _err(f"{path}.tolerance", f"must be positive, got {tol}")
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


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document; errors carry the key path."""
    try:
        raw = yaml.safe_load(text)
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

    period = _get_int(raw, "period", "config")
    if period < 1:
        raise _err("config.period", f"must be >= 1, got {period}")

    tol = _get_number(raw, "tolerance", "config")
    if tol <= 0:
        raise _err("config.tolerance", f"must be positive, got {tol}")

    grid_raw = _require_mapping(raw["grid"], "config.grid")
    _reject_unknown(grid_raw, {"length", "nodes", "rule"}, "config.grid")
    length = _get_number(grid_raw, "length", "config.grid")
    if length <= 0:
        raise _err("config.grid.length", f"must be positive, got {length}")
    nodes = _get_int(grid_raw, "nodes", "config.grid")
    if nodes < 1:
        raise _err("config.grid.nodes", f"must be >= 1, got {nodes}")
    rule = _get_str(grid_raw, "rule", "config.grid", required=False, default="trapezoid")
    _require_known(rule, QUADRATURE_RULES, "config.grid.rule", "quadrature rule")

    kernel_raw = _require_mapping(raw["kernel"], "config.kernel")
    _reject_unknown(kernel_raw, {"family", "dispersal"}, "config.kernel")
    kfamily = _get_str(kernel_raw, "family", "config.kernel")
    _require_known(kfamily, KERNEL_FAMILIES, "config.kernel.family", "kernel family")
    if "dispersal" not in kernel_raw:
        raise _err("config.kernel", "missing required key 'dispersal'")
    disp_raw = kernel_raw["dispersal"]
    if isinstance(disp_raw, (list, tuple)):
        dispersal = _number_list(disp_raw, "config.kernel.dispersal")
        if len(dispersal) not in (1, period):
            raise _err(
                "config.kernel.dispersal",
                f"schedule length {len(dispersal)} must be 1 or the period {period}",
            )
    else:
        dispersal = (float(_get_number(kernel_raw, "dispersal", "config.kernel")),)
    if any(a <= 0 for a in dispersal):
        raise _err("config.kernel.dispersal", "rates must be positive")

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
    _reject_unknown(
        profile_params, _PROFILE_PARAM_KEYS[profile_id], "config.growth.profile_params"
    )
    for key in profile_params:
        _get_number(profile_params, key, "config.growth.profile_params")
    profile_sup = _get_number(growth_raw, "profile_sup", "config.growth", required=False)
    if profile_sup is not None and profile_sup <= 0:
        raise _err("config.growth.profile_sup", f"must be positive, got {profile_sup}")

    if "alpha" not in growth_raw:
        raise _err("config.growth", "missing required key 'alpha'")
    alpha = growth_raw["alpha"]
    if isinstance(alpha, str):
        if alpha != "auto":
            raise _err("config.growth.alpha", f"unknown schedule {alpha!r}; use 'auto', "
                       "a number, a list, or {sinusoidal: C}")
    elif isinstance(alpha, dict):
        _reject_unknown(alpha, {"sinusoidal"}, "config.growth.alpha")
        c = _get_number(alpha, "sinusoidal", "config.growth.alpha")
        if c <= 0:
            raise _err("config.growth.alpha.sinusoidal", f"must be positive, got {c}")
        alpha = {"sinusoidal": float(c)}
    elif isinstance(alpha, (list, tuple)):
        alpha = _number_list(alpha, "config.growth.alpha")
        if len(alpha) not in (1, period):
            raise _err(
                "config.growth.alpha",
                f"schedule length {len(alpha)} must be 1 or the period {period}",
            )
        if any(a <= 0 for a in alpha):
            raise _err("config.growth.alpha", "entries must be positive")
    elif _is_number(alpha):
        if alpha <= 0:
            raise _err("config.growth.alpha", f"must be positive, got {alpha}")
        alpha = float(alpha)
    else:
        raise _err("config.growth.alpha", f"unsupported value {alpha!r}")

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
    if initial_id not in INITIAL_IDS:
        raise _err(
            "config.initial.id",
            f"unknown id {initial_id!r}; known ids are {list(INITIAL_IDS)}",
        )
    allowed_params = {
        "default": set(),
        "constant": {"value"},
        "custom-polynomial": {"coefficients"},
    }[initial_id]
    _reject_unknown(initial_raw, {"id"} | allowed_params, "config.initial")
    initial_params = {k: v for k, v in initial_raw.items() if k != "id"}
    if initial_id == "constant":
        if "value" not in initial_params:
            raise _err("config.initial", "constant initial condition needs 'value'")
        _get_number(initial_raw, "value", "config.initial")
    if initial_id == "custom-polynomial":
        if "coefficients" not in initial_params:
            raise _err("config.initial", "custom-polynomial needs 'coefficients'")
        initial_params["coefficients"] = _number_list(
            initial_params["coefficients"], "config.initial.coefficients"
        )

    horizon = _get_int(raw, "horizon", "config", required=False, default=period + 1)
    if horizon < 0:
        raise _err("config.horizon", f"must be >= 0, got {horizon}")

    max_steps = _get_int(raw, "max_steps", "config", required=False, default=10_000_000)
    if max_steps < 1:
        raise _err("config.max_steps", f"must be >= 1, got {max_steps}")

    mode = _get_str(raw, "distance_bound", "config", required=False, default="upper-bound")
    if mode not in ("upper-bound", "trajectory"):
        raise _err("config.distance_bound", f"expected 'upper-bound' or 'trajectory', got {mode!r}")

    semilinear = None
    if raw.get("semilinear") is not None:
        semilinear = _parse_semilinear(raw["semilinear"], "config.semilinear")

    return ScenarioConfig(
        length=float(length),
        nodes=nodes,
        rule=rule,
        kernel_family=kfamily,
        dispersal=dispersal,
        growth_family=gfamily,
        profile_id=profile_id,
        profile_params=dict(profile_params),
        profile_sup=float(profile_sup) if profile_sup is not None else None,
        alpha=alpha,
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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def initial_condition(name: str, params: Mapping[str, Any], grid: Grid) -> GridFunction:
    """Build the initial density from its registry id.

    ``default`` is the boundary-heavy density 2 x^2 + 0.5 on [-1, 1] and
    2.5 elsewhere (continuous at |x| = 1); ``constant`` takes ``value``;
    ``custom-polynomial`` evaluates ``coefficients`` in ascending degree.
    """
    x = grid.nodes
    if name == "default":
        values = np.where(np.abs(x) <= 1.0, 2.0 * x * x + 0.5, 2.5)
    elif name == "constant":
        try:
            value = float(params["value"])
        except KeyError:
            raise ConfigError("initial 'constant' needs a 'value' parameter") from None
        values = np.full_like(x, value)
    elif name == "custom-polynomial":
        try:
            coeffs = params["coefficients"]
        except KeyError:
            raise ConfigError("initial 'custom-polynomial' needs 'coefficients'") from None
        values = np.polynomial.polynomial.polyval(x, np.asarray(coeffs, dtype=float))
    else:
        raise ConfigError(f"unknown initial condition id {name!r}")
    return GridFunction(grid, values)


def build_scenario_grid(cfg: ScenarioConfig, nodes: int | None = None) -> Grid:
    return build_grid(cfg.length, nodes if nodes is not None else cfg.nodes, cfg.rule)


def _resolve_scales(cfg: ScenarioConfig, profile_sup: float) -> tuple[float, ...]:
    alpha = cfg.alpha
    if alpha == "auto":
        if cfg.kernel_family != "laplace" or len(cfg.dispersal) != 1:
            raise ConfigError(
                "config.growth.alpha: 'auto' requires a laplace kernel with a "
                "constant dispersal rate"
            )
        amplitude = half_contraction_amplitude(
            cfg.period, cfg.dispersal[0], cfg.length, profile_sup
        )
        return seasonal_scales(cfg.period, amplitude)
    if isinstance(alpha, dict):
        return seasonal_scales(cfg.period, alpha["sinusoidal"])
    if isinstance(alpha, tuple):
        return alpha
    return (float(alpha),)


def build_operator(
    cfg: ScenarioConfig,
    grid: Grid | None = None,
    variant: str | None = None,
) -> HammersteinOperator:
    """Assemble the collocated operator for a scenario.

    ``variant`` overrides the configured seasonal support pattern; custom
    amplitude lists ignore the override.
    """
    grid = build_scenario_grid(cfg) if grid is None else grid
    profile = PROFILES[cfg.profile_id](cfg.profile_params)
    sup = cfg.profile_sup
    if sup is None:
        sup = float(np.max(np.abs(np.asarray(profile(grid.nodes), dtype=float))))
        fine = build_grid(cfg.length, max(2000, grid.n))
        sup = max(sup, float(np.max(np.abs(np.asarray(profile(fine.nodes), dtype=float)))))
    growth = growth_spec(
        cfg.growth_family, profile, _resolve_scales(cfg, sup), profile_sup=sup
    )

    if cfg.amplitudes is not None:
        inhom = InhomogeneitySpec(cfg.amplitudes, cfg.period)
    else:
        chosen = variant if variant is not None else cfg.variant
        inhom = InhomogeneitySpec.from_variant(chosen, cfg.period, cfg.levels)

    kernel = KernelSpec(cfg.kernel_family, cfg.dispersal)
    return build_hammerstein(kernel, growth, inhom, grid, theta=cfg.period)
