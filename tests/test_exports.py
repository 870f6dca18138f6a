"""Export consistency: each module's ``__all__`` names exist, the package
binds exactly the names its republished modules list, and every public name
and every public member of a public class has a caller outside the unit
tests."""

import ast
import importlib
import types
from pathlib import Path

import idepull
from oracles import readme_block

PACKAGE = Path(idepull.__file__).parent
REPUBLISHED = ("exceptions", "grid", "models", "dynamics", "attractor", "semilinear", "config")
ROOT = Path(__file__).resolve().parents[1]
# the code that may call a public name: the package, the benchmark, the tools
# and the acceptance tests with their fixtures
CALLERS = ("src/idepull/*.py", "perfbench/*.py", "tools/*.py",
           "tests/test_acceptance.py", "tests/conftest.py")


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


def _caller_nodes(*extra_sources):
    for pattern in CALLERS:
        for path in ROOT.glob(pattern):
            yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    for source in extra_sources:
        yield from ast.walk(ast.parse(source))


def test_every_public_name_has_a_caller():
    # a name, an attribute or an imported alias counts as a use; a string,
    # such as an __all__ entry, does not
    used = set()
    for node in _caller_nodes():
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    uncalled = [
        f"{name}.{n}" for name in REPUBLISHED + ("reporting",)
        for n in importlib.import_module(f"idepull.{name}").__all__ if n not in used
    ]
    assert uncalled == []


def test_every_public_member_has_a_caller():
    # a method, property or classmethod of a public class is used where its
    # name is an attribute; the README quick start is a caller too
    used = {node.attr for node in _caller_nodes(readme_block("python"))
            if isinstance(node, ast.Attribute)}
    members = (types.FunctionType, property, classmethod, staticmethod)
    uncalled = []
    for name in REPUBLISHED + ("reporting",):
        module = importlib.import_module(f"idepull.{name}")
        for cls in (getattr(module, n) for n in module.__all__):
            if isinstance(cls, type):
                uncalled += [f"{cls.__name__}.{member}" for member, value in vars(cls).items()
                             if not member.startswith("_") and isinstance(value, members)
                             and member not in used]
    assert uncalled == []
