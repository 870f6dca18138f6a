"""Export consistency: each module's ``__all__`` names exist, the package
binds exactly the names its republished modules list, every public name
and every public member or field of a public class has a caller outside the
unit tests, and so does every parameter default of a public function or
method: some such call leaves the parameter out.  In the package only the
loops that are meant to step call ``step`` or ``step_block``."""

import ast
import dataclasses
import importlib
import inspect
import types
import typing
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


def _public_classes():
    for name in REPUBLISHED + ("reporting",):
        module = importlib.import_module(f"idepull.{name}")
        yield from (value for value in (getattr(module, n) for n in module.__all__)
                    if isinstance(value, type))


def _used_attributes():
    # a member or field of a public class is used where its name is an
    # attribute; the README quick start is a caller too
    return {node.attr for node in _caller_nodes(readme_block("python"))
            if isinstance(node, ast.Attribute)}


def test_every_public_member_has_a_caller():
    used = _used_attributes()
    members = (types.FunctionType, property, classmethod, staticmethod)
    uncalled = [f"{cls.__name__}.{member}" for cls in _public_classes()
                for member, value in vars(cls).items()
                if not member.startswith("_") and isinstance(value, members)
                and member not in used]
    assert uncalled == []


def test_every_public_field_has_a_caller():
    # report.csv writes each non-tuple RunReport field as a row, through
    # dataclasses.fields, so those fields are read
    hints = typing.get_type_hints(importlib.import_module("idepull.reporting").RunReport)
    rows = {f"RunReport.{name}" for name, hint in hints.items()
            if typing.get_origin(hint) is not tuple}
    used = _used_attributes()
    fields = (f"{cls.__name__}.{field.name}" for cls in _public_classes()
              if dataclasses.is_dataclass(cls) for field in dataclasses.fields(cls))
    uncalled = [f for f in fields if f.split(".")[1] not in used and f not in rows]
    assert uncalled == []


def _public_callables():
    # (label, name a call spells, parameters a call passes) of every public
    # function, and of every public method, classmethod or staticmethod of a
    # public class, whose self a call does not pass
    for name in REPUBLISHED + ("reporting",):
        module = importlib.import_module(f"idepull.{name}")
        for n in module.__all__:
            value = getattr(module, n)
            if isinstance(value, types.FunctionType):
                yield f"{name}.{n}", n, list(inspect.signature(value).parameters.values())
    for cls in _public_classes():
        for member, raw in vars(cls).items():
            if not member.startswith("_") and isinstance(
                    raw, (types.FunctionType, classmethod, staticmethod)):
                params = list(inspect.signature(getattr(cls, member)).parameters.values())
                if isinstance(raw, types.FunctionType):
                    params = params[1:]
                yield f"{cls.__name__}.{member}", member, params


def _leaves_out(call: ast.Call, index: int, param: inspect.Parameter) -> bool:
    # a call with *args or **kwargs passes everything
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return False
    if any(k.arg == param.name for k in call.keywords):
        return False
    return param.kind is param.KEYWORD_ONLY or len(call.args) <= index


def test_every_public_default_has_a_caller():
    calls = {}
    for node in _caller_nodes(readme_block("python")):
        if isinstance(node, ast.Call):
            func = node.func
            spelled = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(spelled, []).append(node)
    uncalled = [f"{label}({p.name})" for label, spelled, params in _public_callables()
                for index, p in enumerate(params) if p.default is not p.empty
                and not any(_leaves_out(call, index, p) for call in calls.get(spelled, ()))]
    assert uncalled == []


# (where, what) of every step or step_block read the package allows: the lazy
# forward orbit, the self-map of fixed_point_iterate, the one-column block
# step and the trajectory distance bound's block flow
STEPPERS = {
    ("dynamics.orbit", "op.step"),
    ("attractor.fixed_point_iterate", "problem.step"),
    ("dynamics.HammersteinOperator.step", "self.step_block"),
    ("attractor.apriori_distance_bound", "op.step_block"),
}


def _stepping_reads():
    # a nested function or lambda counts as the module function or method
    # it sits in
    for path in sorted(PACKAGE.glob("*.py")):
        pending = [(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
        while pending:
            node, where = pending.pop()
            if isinstance(node, ast.Attribute) and node.attr in ("step", "step_block"):
                yield where, ast.unparse(node)
            for child in ast.iter_child_nodes(node):
                named = isinstance(node, (ast.Module, ast.ClassDef)) and isinstance(
                    child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                pending.append((child, f"{where}.{child.name}" if named else where))


def test_only_the_stepping_loops_step():
    assert sorted(set(_stepping_reads()) ^ STEPPERS) == []
