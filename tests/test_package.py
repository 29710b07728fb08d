"""The package namespace: exactly the submodules' public names."""

import ast
import dataclasses
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import fracmin

SUBMODULES = ("critical", "energy", "inequalities", "maps", "minimize", "quadrature", "special")
ERRORS = ("AdmissibilityError", "ConvergenceError", "DomainError")


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


def test_energy_params_holds_only_the_exponent():
    # one discretization: no scheme or other option beside p
    assert [field.name for field in dataclasses.fields(fracmin.EnergyParams)] == ["p"]


def test_no_scan_wrapper():
    # the scan subcommand calls minimize once per exponent
    minimize_module = importlib.import_module("fracmin.minimize")
    for name in ("minimize_scan", "ScanRow"):
        assert name not in fracmin.__all__
        assert not hasattr(fracmin, name) and not hasattr(minimize_module, name)


def test_no_validator_series():
    # the log 2 series the package sums is critical.reciprocal_pair_sum;
    # digamma is checked against mpmath, not against a second series
    special_module = importlib.import_module("fracmin.special")
    for name in ("SeriesTail", "digamma_series", "log2_series", "EULER_GAMMA"):
        assert name not in fracmin.__all__
        assert not hasattr(fracmin, name) and not hasattr(special_module, name)


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


def test_files_are_opened_only_in_maps():
    # maps.py's one writer and one reader turn every OS, decode and parse
    # error into a DomainError; a file opened anywhere else would bypass them
    openers = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}
    callers = set()
    for path in pathlib.Path(fracmin.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                if name in openers:
                    callers.add(path.name)
    assert callers == {"maps.py"}
