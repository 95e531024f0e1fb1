import ast
import importlib
import inspect
import re
import types
from dataclasses import dataclass
from pathlib import Path

import pytest

import isoclinic
from isoclinic.errors import IsoclinicError

MODULES = ["analysis", "cli", "errors", "generators", "io", "orbits", "quaternions",
           "subspaces", "tolerances"]


@pytest.mark.parametrize("name", ["isoclinic"] + [f"isoclinic.{m}" for m in MODULES])
def test_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_names_come_from_module_all():
    # every public name the package binds is a module's export or an error
    # class, so a name deleted from a module cannot linger in the package
    exported = set()
    for name in MODULES:
        exported.update(getattr(importlib.import_module(f"isoclinic.{name}"), "__all__", ()))
    stray = [n for n, v in vars(isoclinic).items()
             if not n.startswith("_") and n not in MODULES and n not in exported
             and not (isinstance(v, type) and issubclass(v, IsoclinicError))]
    assert stray == []


ROOT = Path(__file__).resolve().parents[1]
# bench names layers by dotted strings, e.g. "orbits.eight_dim_addend"
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")
# hermitian_product is the H-valued product X.Y whose components define the
# Kaehler forms; the package computes the forms in the complex layout and keeps
# X.Y public as the paper's definition
EXEMPT = {"hermitian_product"}


def names_used(path, dotted_strings=False):
    """Names that the top-level statements of a file read, each statement
    without the name it defines itself."""
    used = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif (dotted_strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and DOTTED.fullmatch(node.value)):
                found.update(node.value.split("."))
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            found.discard(stmt.name)
        used |= found
    return used


def public_members(cls) -> list[str]:
    """The public methods and properties a class defines itself."""
    return [a for a, v in vars(cls).items() if not a.startswith("_") and (
        inspect.isfunction(v) or isinstance(v, (property, staticmethod, classmethod)))]


def test_every_export_has_a_caller():
    # a public name that only its own unit tests call is removed: every name
    # of an __all__, and every public method or property of an exported
    # class, is read by the package, the benchmark, the acceptance criteria
    # or the shared test references
    used = set()
    for path in (ROOT / "src" / "isoclinic").glob("*.py"):
        if path.name != "__init__.py":
            used |= names_used(path)
    for path in (ROOT / "bench").glob("*.py"):
        used |= names_used(path, dotted_strings=True)
    for name in ("test_acceptance.py", "conftest.py"):
        used |= names_used(ROOT / "tests" / name)
    unused = []
    for m in MODULES:
        module = importlib.import_module(f"isoclinic.{m}")
        for n in getattr(module, "__all__", ()):
            obj = getattr(module, n)
            members = public_members(obj) if isinstance(obj, type) else []
            unused += [f"{m}.{q}" for q in [n] + [f"{n}.{a}" for a in members]
                       if q.split(".")[-1] not in used and n not in EXEMPT]
    assert unused == []


class _Members:
    attribute = 1.0

    def method(self):
        return self

    @property
    def prop(self):
        return self

    @staticmethod
    def static():
        return None

    @classmethod
    def klass(cls):
        return cls

    def _private(self):
        return self


def test_public_members_finds_each_kind():
    # the caller check above sees every public method and property, not
    # attributes or private helpers
    assert public_members(_Members) == ["method", "prop", "static", "klass"]


# the one tolerance a caller may choose: the orbit comparison's; every other
# threshold is read from the tolerances module
TOL_ALLOWED = {"orbits.same_orbit"}


def _tol_parameters(module) -> list[str]:
    """The callables of module.__all__, and the methods of its exported classes,
    that take a parameter named tol."""
    with_tol = []
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        calls = {name: obj} if callable(obj) else {}
        if isinstance(obj, type):
            calls.update({f"{name}.{a}": getattr(obj, a) for a, v in vars(obj).items()
                          if inspect.isfunction(v) or isinstance(v, (staticmethod, classmethod))})
        with_tol += [q for q, call in calls.items() if "tol" in inspect.signature(call).parameters]
    return with_tol


@pytest.mark.parametrize("m", MODULES)
def test_no_public_tol_parameter(m):
    # a callable of an __all__, or a method of an exported class, that takes a
    # tol is a second table of tolerances
    found = _tol_parameters(importlib.import_module(f"isoclinic.{m}"))
    assert [q for q in found if f"{m}.{q}" not in TOL_ALLOWED] == []


def test_allowed_tols_are_still_there():
    # an allowed name that lost its tol, or was renamed, leaves a stale exemption
    found = {f"{m}.{q}" for m in MODULES
             for q in _tol_parameters(importlib.import_module(f"isoclinic.{m}"))}
    assert found == TOL_ALLOWED


@dataclass
class _Field:
    tol: float = 1e-8


class _Methods:
    def method(self, x, tol=1e-8):
        return x

    @staticmethod
    def static(x, tol=1e-8):
        return x

    @classmethod
    def klass(cls, x, tol=1e-8):
        return x

    def plain(self, x):
        return x


def _function(x, *, tol=1e-8):
    return x


def _plain(x, tolerance=1e-8):
    return x


@pytest.mark.parametrize("exports,want", [
    ({"f": _function}, ["f"]),
    ({"C": _Methods}, ["C.method", "C.static", "C.klass"]),
    ({"D": _Field}, ["D", "D.__init__"]),
    ({"g": _plain, "EPS": 1e-8}, []),
], ids=["keyword-only", "methods", "dataclass-field", "none"])
def test_tol_parameters_finds_each_kind(exports, want):
    # the check above sees a tol wherever one could come back, Frame's having
    # been a dataclass field
    module = types.ModuleType("fake")
    vars(module).update(exports, __all__=list(exports))
    assert _tol_parameters(module) == want
