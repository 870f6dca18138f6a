"""Export consistency: each module's ``__all__`` names exist, and the package
re-exports only names its source module lists."""

import ast
import importlib
from pathlib import Path

import idepull

PACKAGE = Path(idepull.__file__).parent


def test_module_all_names_exist():
    missing = []
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"idepull.{path.stem}")
        listed = getattr(module, "__all__", ())
        missing += [f"{path.stem}.{n}" for n in listed if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_are_listed():
    unlisted = []
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = getattr(importlib.import_module(f"idepull.{node.module}"), "__all__", None)
            if listed is not None:  # exceptions has no __all__
                unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in listed]
    assert unlisted == []
