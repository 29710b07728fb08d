"""The package namespace: exactly the submodules' public names."""

import importlib

import fracmin

SUBMODULES = ("critical", "energy", "inequalities", "maps", "minimize", "quadrature", "special")
ERRORS = ("AdmissibilityError", "ConsistencyError", "ConvergenceError", "DomainError")


def exported():
    """name -> object for every public name of the submodules and every error class."""
    # imported by path: the package attributes `energy` and `minimize` are
    # functions that shadow their submodules
    errors = importlib.import_module("fracmin.errors")
    names = {name: getattr(errors, name) for name in ERRORS}
    for module_name in SUBMODULES:
        module = importlib.import_module(f"fracmin.{module_name}")
        names.update({name: getattr(module, name) for name in module.__all__})
    return names


def test_all_is_sorted_union_of_submodules():
    assert fracmin.__all__ == sorted(set(fracmin.__all__))
    assert set(fracmin.__all__) == set(exported())


def test_every_name_resolves():
    for name, obj in exported().items():
        assert getattr(fracmin, name) is obj, name
