"""The package namespace: exactly the submodules' public names."""

import importlib
import inspect
import os
import subprocess
import sys

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


def test_no_quadrature_options():
    # the quadrature rule is fixed: no spec object, and no public function takes one
    assert not hasattr(fracmin, "QuadratureSpec")
    for name in fracmin.__all__:
        obj = getattr(fracmin, name)
        if inspect.isfunction(obj):
            assert "spec" not in inspect.signature(obj).parameters, name


def test_import_and_small_calls_start_no_thread():
    # the kernel's helper thread starts only on a call of more than one
    # tile; certify, descent and CLI start-up never make one
    script = (
        "import threading\n"
        "before = threading.active_count()\n"
        "import fracmin\n"
        "imported = threading.active_count()\n"
        "fracmin.energy(fracmin.perturb(fracmin.identity_map(128), 0.3, 1), fracmin.EnergyParams(1.5))\n"
        "print(before, imported, threading.active_count())\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracmin.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    before, imported, called = map(int, done.stdout.split())
    assert imported == before and called == before
