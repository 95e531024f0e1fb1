import importlib

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
