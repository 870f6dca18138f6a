"""Benchmark workloads: seeded input generators and the stored references.

Every workload is one closed-loop client making one top-level call per
fresh process.  The inputs are generated here from the run seed and handed
to the program only as files (YAML scenario configs, a NumPy ``.npz``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import yaml

SHIPPED_CONFIG = Path("configs/seasonal_beverton_holt.yaml")
REFERENCES = Path(__file__).with_name("references.json")

# The generated Gauss scenario draws its rates from seed % GAUSS_DRAWS, so
# that references.json can hold the seed commit's result for every draw.
GAUSS_DRAWS = 32

SEMILINEAR_DIM = 128
SEMILINEAR_PERIOD = 52
SEMILINEAR_Q = 0.9
SEMILINEAR_KAPPA = 0.02
SEMILINEAR_TOL = 1e-12

# Small Hammerstein input timed for the layers semilinear-d128 never calls.
HAMMERSTEIN_PROBE = {
    "argv": ["attractor", "--config", str(SHIPPED_CONFIG), "--nodes", "100"],
    "config": str(SHIPPED_CONFIG), "nodes": 100, "variant": "h4",
    "variants": [None], "fibers_csv": "fibers.csv",
}

# Steps timed one by one in the traced run (ten periods of 365 days).
STEP_SAMPLES = 3650

# How a workload's wall_s follows the host-speed probe: wall ~ probe ** exponent
# (run.py scales by it; setup_s always uses 1).  compare-n1000 spends much of its time streaming an
# 8 MB matrix and writing CSV files, which slow less than the probe's Python
# loop; over 10 runs, log wall on log probe gave slope 0.58 (correlation
# 0.97).  For the other workloads an exponent of 1 gave the steadiest runs.
SPEED_EXPONENT = {"compare-n1000": 0.6}

def sha256_file(path) -> str:
    import hashlib  # here, so that child processes do not pay for it in memory

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def gauss_scenario(draw: int) -> tuple[dict, dict]:
    """Gauss kernel with a 365-day rate schedule in [5, 15].

    The sinusoidal growth amplitude makes the closed-form per-period
    product of step constants exactly 1/2, as ``alpha: auto`` does for the
    shipped Laplace scenario, so the run needs the same 24 windows.
    """
    period, length, profile_sup = 365, 6.0, 9.0
    rates = np.random.default_rng(draw).uniform(5.0, 15.0, period)
    seasonal = [1.0 + 0.5 * math.sin(2.0 * math.pi * r / period) for r in range(period)]
    kernel_mass = [math.erf(0.5 * a * length) for a in rates]
    log_amplitude = -(
        math.log(2.0) + sum(map(math.log, seasonal)) + sum(map(math.log, kernel_mass))
    ) / period - math.log(profile_sup)
    amplitude = math.exp(log_amplitude)
    factor = math.prod(amplitude * s * profile_sup * m for s, m in zip(seasonal, kernel_mass))
    config = {
        "schema_version": 1,
        "grid": {"length": length, "nodes": 400},
        "kernel": {"family": "gauss", "dispersal": [float(a) for a in rates]},
        "growth": {
            "family": "beverton_holt",
            "profile": "vee",
            "profile_params": {"offset": 3.0, "slope": 2.0},
            "profile_sup": profile_sup,
            "alpha": {"sinusoidal": amplitude},
        },
        "inhomogeneity": {"variant": "h4", "levels": [1.0, 2.0]},
        "period": period,
        "tolerance": 1.0e-6,
        "initial": {"id": "default"},
        "horizon": period + 1,
    }
    derived = {
        "draw": draw,
        "growth_amplitude": amplitude,
        "closed_form_factor": factor,
        "rate_min": float(rates.min()),
        "rate_max": float(rates.max()),
        "distinct_rates": int(np.unique(rates).size),
    }
    return config, derived


def semilinear_arrays(
    seed: int, dim: int, period: int, q: float, kappa: float
) -> tuple[dict, dict]:
    """Nonnegative matrices with constant row sums alpha_r, constant forcing.

    Constant row sums make the row-sum norm multiplicative along products,
    so gamma = 1 and prod_r (alpha_r + kappa) = q is the per-period factor.
    """
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, period)
    alphas = np.exp(math.log(q) * weights / weights.sum()) - kappa
    mats = rng.random((period, dim, dim))
    mats *= (alphas[:, None] / mats.sum(axis=2))[:, :, None]
    forcing = rng.uniform(0.5, 1.5, dim)
    arrays = {"matrices": mats, "forcing": forcing, "kappa": np.float64(kappa)}
    derived = {
        "dimension": dim,
        "period": period,
        "q_design": float(np.prod(alphas + kappa)),
        "gamma_design": 1.0,
        "kappa": kappa,
        "alpha_min": float(alphas.min()),
        "alpha_max": float(alphas.max()),
    }
    return arrays, derived


def make_inputs(name: str, seed: int, root: Path, inputs_dir: Path) -> dict:
    """Write the workload's input files and describe how to run it.

    Paths in the result are relative to ``root``, the checkout.
    """
    inputs_dir.mkdir(parents=True, exist_ok=True)

    def rel(path) -> str:
        return str(Path(path).relative_to(root))

    if name == "compare-n1000":
        config = root / SHIPPED_CONFIG
        spec = {"argv": ["compare", "--config", rel(config)], "nodes": None,
                "variants": ["h1", "h2", "h3", "h4"], "fibers_csv": "h4/fibers.csv",
                "reference": name, "scenario": {}}
    elif name == "trajectory-bound-n200":
        config = inputs_dir / "trajectory_bound.yaml"
        text = (root / SHIPPED_CONFIG).read_text(encoding="utf-8")
        config.write_text(text + "distance_bound: trajectory\n", encoding="utf-8")
        spec = {"argv": ["attractor", "--config", rel(config), "--nodes", "200"], "nodes": 200,
                "variants": [None], "fibers_csv": "fibers.csv", "reference": name,
                "scenario": {}}
    elif name == "gauss-periodic-n400":
        draw = seed % GAUSS_DRAWS
        cfg, derived = gauss_scenario(draw)
        config = inputs_dir / f"gauss_periodic_draw{draw}.yaml"
        config.write_text(yaml.safe_dump(cfg, sort_keys=False), encoding="utf-8")
        spec = {"argv": ["attractor", "--config", rel(config)], "nodes": None,
                "variants": [None], "fibers_csv": "fibers.csv",
                "reference": f"{name}/draw-{draw}", "scenario": derived}
    elif name == "semilinear-d128":
        arrays, derived = semilinear_arrays(
            seed, SEMILINEAR_DIM, SEMILINEAR_PERIOD, SEMILINEAR_Q, SEMILINEAR_KAPPA
        )
        data = inputs_dir / "semilinear.npz"
        np.savez(data, **arrays)
        return {"kind": "semilinear", "arrays": rel(data), "tol": SEMILINEAR_TOL,
                "scenario": derived, "hashes": {data.name: sha256_file(data)},
                "probe": HAMMERSTEIN_PROBE}
    else:
        raise KeyError(name)
    digest = sha256_file(config)
    spec.update(kind="hammerstein", config=rel(config), variant="h4", config_sha256=digest,
                hashes={config.name: digest},
                probe=semilinear_probe(seed, inputs_dir, rel))
    return spec


def semilinear_probe(seed: int, inputs_dir: Path, rel) -> dict:
    """Small semilinear input timed for the layers the Hammerstein workloads never call."""
    arrays, _ = semilinear_arrays(seed, 16, 8, SEMILINEAR_Q, SEMILINEAR_KAPPA)
    data = inputs_dir / "semilinear_probe.npz"
    np.savez(data, **arrays)
    return {"arrays": rel(data), "tol": SEMILINEAR_TOL}


def load_reference(key: str) -> dict | None:
    if not REFERENCES.exists():
        return None
    return json.loads(REFERENCES.read_text(encoding="utf-8")).get(key)
