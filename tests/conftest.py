"""Shared fixtures."""

import importlib

import pytest


@pytest.fixture
def raw_double_sum(monkeypatch):
    """Reduce the energy to its uncorrected part, the double sum alone.

    The diagonal correction is skipped, not weighted by zero: adding
    0.0 would turn the -0.0 gradient entries of a constant map at p = 2
    into +0.0.  A test that needs the corrected energy first takes this
    fixture mid-test, through request.getfixturevalue.
    """
    # the package binds the name fracmin.energy to the function
    energy_module = importlib.import_module("fracmin.energy")
    monkeypatch.setattr(energy_module, "_add_diagonal_correction", lambda u, p, total, grad: (total, grad))


@pytest.fixture
def without_second_term(monkeypatch):
    """Give every map the zeta-corrected energy without T2, as the fold
    rule gives a folded one."""
    energy_module = importlib.import_module("fracmin.energy")
    monkeypatch.setattr(energy_module, "_unfolded_sign", lambda u: 0.0)
