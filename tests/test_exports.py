"""Export consistency: each module's ``__all__`` names exist, and the package
binds exactly the names its republished modules list."""

import importlib
import types
from pathlib import Path

import idepull

PACKAGE = Path(idepull.__file__).parent
REPUBLISHED = ("exceptions", "grid", "models", "dynamics", "attractor", "semilinear", "config")


def test_module_all_names_exist():
    missing = []
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"idepull.{path.stem}")
        listed = getattr(module, "__all__", ())
        missing += [f"{path.stem}.{n}" for n in listed if not hasattr(module, n)]
    assert missing == []


def test_package_binds_exactly_module_all():
    listed = set()
    for name in REPUBLISHED:
        listed.update(importlib.import_module(f"idepull.{name}").__all__)
    bound = {
        name for name, value in vars(idepull).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    }
    assert sorted(bound ^ listed) == []
