"""CLI reports: schema validity, determinism, exit codes, side files."""

import dataclasses
import hashlib
import importlib
import json
import math
import os
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fracmin import (
    EnergyParams,
    GridMap,
    descend_from,
    energy,
    energy_and_gradient,
    energy_gradient,
    identity_map,
    moebius_map,
    perturb,
    power_map,
    read_map_csv,
    wrap_angle,
    write_map_csv,
)
from fracmin.cli import REFERENCE_CRITICAL_P, _build_parser, run
from fracmin.critical import critical_p

# the package binds the name fracmin.energy to the function
energy_module = importlib.import_module("fracmin.energy")

FOUR_PI_SQ = 4.0 * math.pi * math.pi


@pytest.fixture(scope="module")
def schema():
    with resources.files("fracmin").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestReports:
    def test_id_energy_ground_truth(self, capsys, schema):
        code, report = run_json(capsys, ["id-energy", "--p", "2"])
        assert code == 0
        jsonschema.validate(report, schema)
        assert report["command"] == "id-energy"
        assert report["results"]["energy"] == pytest.approx(FOUR_PI_SQ, rel=1e-9)
        assert all(check["passed"] for check in report["checks"])

    def test_critical_p(self, capsys, schema):
        code, report = run_json(capsys, ["critical-p", "--tol", "1e-10"])
        assert code == 0
        jsonschema.validate(report, schema)
        results = report["results"]
        assert abs(results["p_prime"] - REFERENCE_CRITICAL_P) <= 1e-12
        assert abs(results["residual_beta"]) <= 1e-10
        # critical_p returns only once the residual meets --tol, so the
        # residual is reported and not checked
        assert [check["name"] for check in report["checks"]] == ["path_agreement", "matches_reference_value"]
        # the paper's five decimals sit 2.9e-5 above the root
        assert results["paper_p_prime"] == 1.13924
        assert results["paper_gap"] == pytest.approx(2.9159673369e-5, abs=1e-12)

    def test_critical_p_tol_endpoints(self, capsys):
        code, report = run_json(capsys, ["critical-p", "--tol", "1e-13"])
        assert code == 0
        assert all(check["passed"] for check in report["checks"])
        # below the residual floor of the Beta path: a domain error, not
        # a convergence failure
        assert run(["critical-p", "--tol", "1e-14"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("tol", ["1e-13", "1e-10", "1e-8", "1e-6", "1e-4"])
    def test_critical_p_meets_its_tol(self, capsys, schema, tol):
        # Newton's last step lands within 1e-12 of the root at every tol, so
        # the reference bound does not widen with it
        code, report = run_json(capsys, ["critical-p", "--tol", tol])
        assert code == 0
        jsonschema.validate(report, schema)
        assert all(check["passed"] for check in report["checks"])
        assert abs(report["results"]["residual_beta"]) <= float(tol)

    @pytest.mark.parametrize("tol", [1e-8, 1e-4])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_critical_p_reference_check_detects_shifted_root(self, capsys, monkeypatch, tol, sign):
        # p' off by tol/20 is at least 500 times the 1e-12 that the check allows
        def shifted(tol):
            report = critical_p(tol)
            return dataclasses.replace(report, p_prime=report.p_prime + sign * tol / 20.0)

        monkeypatch.setattr("fracmin.cli.critical_p", shifted)
        code, report = run_json(capsys, ["critical-p", "--tol", repr(tol)])
        assert code == 1
        assert [check["name"] for check in report["checks"] if not check["passed"]] == ["matches_reference_value"]

    def test_id_energy_derivative(self, capsys, schema):
        code, report = run_json(capsys, ["id-energy-derivative", "--p", "1.5"])
        assert code == 0
        jsonschema.validate(report, schema)
        assert report["results"]["derivative"] < 0.0
        assert [check["name"] for check in report["checks"]] == ["derivative_negative", "two_path_agreement"]

    def test_id_energy_derivative_near_one(self, capsys):
        # the brackets grow like -2/(p-1) = -2e7 here and round at that
        # scale: their gap is ~1e-8, which an absolute 1e-9 failed
        code, report = run_json(capsys, ["id-energy-derivative", "--p", "1.0000001"])
        assert code == 0
        results = report["results"]
        assert results["digamma_bracket"] == pytest.approx(-2e7, rel=1e-6)
        check = report["checks"][1]
        assert check["passed"]
        assert check["margin"] == 1e-9 * abs(results["digamma_bracket"]) - abs(
            results["digamma_bracket"] - results["series_bracket"]
        )

    def test_monotonicity_scan(self, capsys, schema, tmp_path):
        table = tmp_path / "scan.csv"
        code, report = run_json(
            capsys, ["monotonicity-scan", "--grid-size", "20", "--table-out", str(table)]
        )
        assert code == 0
        jsonschema.validate(report, schema)
        assert report["results"]["max_derivative"] < 0.0
        assert [check["name"] for check in report["checks"]] == ["all_derivatives_negative", "two_path_agreement"]
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "p,derivative" and len(lines) == 21

    def test_energy_and_degree_from_csv(self, capsys, schema, tmp_path):
        path = tmp_path / "map.csv"
        write_map_csv(perturb(identity_map(64), 0.2, 5), path)
        code, report = run_json(capsys, ["energy", "--map", str(path), "--p", "1.5"])
        assert code == 0
        jsonschema.validate(report, schema)
        assert report["results"]["degree"] == 1
        # admissibility is enforced by read_map_csv, so no check can fail here
        assert report["checks"] == []
        code, report = run_json(capsys, ["degree", "--map", str(path)])
        assert code == 0
        assert report["results"]["degree"] == 1
        # degree(u) raises for a residual >= 1e-9, so no check could fail
        assert report["checks"] == []
        assert abs(report["results"]["winding_residual"]) < 1e-9
        # the residual is the gap sum over 2 pi minus the degree, bit for bit
        u = read_map_csv(path)
        gaps = wrap_angle(np.roll(u.phases, -1) - u.phases)
        assert report["results"]["winding_residual"] == float(np.sum(gaps)) / (2.0 * math.pi) - 1

    def test_gradient_check(self, capsys, schema):
        code, report = run_json(
            capsys, ["gradient-check", "--n", "32", "--p", "1.5", "--seed", "3"]
        )
        assert code == 0
        jsonschema.validate(report, schema)
        assert report["seed"] == 3
        results = report["results"]
        assert len(results["orders"]) == 4 and results["rounding_limited"] == 0
        assert results["min_order"] == min(results["orders"]) >= 1.8
        assert results["energy_evaluations"] <= 45
        assert [check["name"] for check in report["checks"]] == [
            "no_rounding_limited_direction",
            "taylor_remainder_order",
        ]

    def test_gradient_check_stencil_truncation(self, capsys):
        # the five-point stencil this check replaced failed this seed with its
        # own truncation error (max relative error 1.94e-5 against 1e-5)
        code, report = run_json(capsys, ["gradient-check", "--n", "64", "--p", "1.5", "--seed", "295"])
        assert code == 0
        assert all(check["passed"] for check in report["checks"])
        assert report["results"]["min_order"] >= 1.8

    def test_gradient_check_tolerance_ratio(self, capsys):
        # the stencil reported a relative error of 6.6e-5 here although its
        # check passed; the Taylor check's margin is the order it compares
        code, report = run_json(capsys, ["gradient-check", "--n", "64", "--p", "2", "--seed", "13"])
        assert code == 0
        order_check = report["checks"][1]
        assert order_check["passed"]
        assert order_check["margin"] == report["results"]["min_order"] - 1.8

    def test_moebius(self, capsys, schema):
        code, report = run_json(
            capsys, ["moebius", "--a-re", "0.3", "--a-im", "0.1", "--n", "128"]
        )
        assert code == 0
        jsonschema.validate(report, schema)
        assert report["results"]["degree"] == 1
        assert report["results"]["ground_truth_ratio"] == pytest.approx(1.0, rel=0.05)

    def test_moebius_million_nodes(self, capsys):
        # the p = 2 spectral kernel makes n = 2^20 cheap; the discrete
        # closed form checks its raw value, and the corrected energy of every
        # Moebius trace is E_2(Id) = 4 pi^2
        code, report = run_json(capsys, ["moebius", "--a-re", "0.5", "--a-im", "0.2", "--n", "1048576"])
        assert code == 0
        checks = {check["name"]: check["passed"] for check in report["checks"]}
        assert checks == {"matches_identity_energy": True, "matches_discrete_closed_form": True}
        assert report["results"]["energy"] == pytest.approx(FOUR_PI_SQ, rel=1e-12)

    def test_moebius_closed_form_check_detects_wrong_energy(self, capsys, monkeypatch):
        # an energy off by two parts in 1e12 must fail the check
        monkeypatch.setattr("fracmin.cli.energy", lambda u, params: energy(u, params) * (1.0 + 2e-12))
        code, report = run_json(capsys, ["moebius", "--a-re", "0.3", "--a-im", "0.1", "--n", "128"])
        assert code == 1
        assert [check["name"] for check in report["checks"] if not check["passed"]] == ["matches_discrete_closed_form"]

    @pytest.mark.parametrize("p", ["1.13921", "1.5", "2"])
    @pytest.mark.parametrize("scale", [0.0, 1.0 + 1e-4])
    def test_moebius_identity_check_detects_wrong_correction(self, capsys, monkeypatch, p, scale):
        # Moebius invariance at every p: an energy without its diagonal
        # correction, or with the correction off by one part in 1e4, fails;
        # at p = 2 so does the discrete closed form, which takes the raw sum
        # as the energy less its correction of weight 1
        weight = energy_module._correction_weight
        monkeypatch.setattr(energy_module, "_correction_weight", lambda q: scale * weight(q))
        code, report = run_json(capsys, ["moebius", "--a-re", "0.3", "--a-im", "0.1", "--n", "256", "--p", p])
        assert code == 1
        failed = [check["name"] for check in report["checks"] if not check["passed"]]
        assert failed == ["matches_identity_energy"] + (["matches_discrete_closed_form"] if p == "2" else [])

    @pytest.mark.parametrize("p", ["1.13921", "1.5", "1.8", "2"])
    @pytest.mark.parametrize("a", ["0", "0.5", "0.9"])
    def test_moebius_identity_check_at_every_p(self, capsys, request, p, a):
        argv = ["moebius", "--a-re", a, "--n", "256", "--p", p]
        code, report = run_json(capsys, argv)
        assert code == 0
        check = next(c for c in report["checks"] if c["name"] == "matches_identity_energy")
        results = report["results"]
        error = abs(results["energy"] / results["identity_energy"] - 1.0)
        assert error <= results["error_bound_rel"]
        assert check["margin"] == results["error_bound_rel"] - error
        if a != "0":
            # the bound models the O(h^(p+1)) error that T2 removes on this
            # unfolded trace: it predicts the error of the energy without T2,
            # on a map that is not the identity, whose leading error term
            # nearly cancels, to within a factor 10
            request.getfixturevalue("without_second_term")
            code, report = run_json(capsys, argv)
            results = report["results"]
            error_without = abs(results["energy"] / results["identity_energy"] - 1.0)
            assert 0.1 * results["error_bound_rel"] <= error_without <= results["error_bound_rel"]
            assert error < 0.1 * error_without

    def test_minimize_with_side_files(self, capsys, schema, tmp_path, monkeypatch):
        map_out = tmp_path / "final.csv"
        trace_out = tmp_path / "trace.csv"
        passes = []
        kernel = energy_module._kernel

        def counting_kernel(*args):
            passes.append(args[0].n)
            return kernel(*args)

        monkeypatch.setattr(energy_module, "_kernel", counting_kernel)
        code, report = run_json(
            capsys,
            [
                "minimize", "--p", "1.5", "--degree", "1", "--n", "64",
                "--max-iters", "200", "--restarts", "1",
                "--map-out", str(map_out), "--trace-out", str(trace_out),
            ],
        )
        assert code == 0
        jsonschema.validate(report, schema)
        assert report["results"]["converged"] is True
        assert report["results"]["final_degree"] == 1
        assert report["results"]["termination"] == "grad_tol"
        assert report["results"]["evaluations"] >= report["results"]["iterations"] + 1
        # every pass is a descent run's
        assert report["results"]["total_evaluations"] == len(passes)
        assert report["results"]["total_evaluations"] > report["results"]["evaluations"]
        # the stop held: the decrement is a tenth of the error estimate or less
        results = report["results"]
        assert 0.0 <= results["decrement_rel"] <= 0.1 * results["error_estimate_rel"]
        assert 1e-12 < results["error_estimate_rel"] < 1e-4
        final = read_map_csv(map_out)
        assert final.n == 64
        lines = trace_out.read_text().strip().splitlines()
        assert lines[0] == "iter,energy"
        assert len(lines) == report["results"]["iterations"] + 2

    @pytest.mark.parametrize("degree", [-2, -1, 1, 2, 3])
    def test_scan(self, capsys, schema, degree):
        # every row is the minimize report at its exponent, checks included:
        # z^d attains |d| E_p(Id), so a converged minimum passes in every
        # degree, not in degree one alone
        options = ["--degree", str(degree), "--n", "64", "--restarts", "1"]
        # 1.1392108 and 1.139211 both print as 1.13921 in :g
        code, report = run_json(capsys, ["scan", "--p-values", "1.2,1.5,2,1.1392108,1.139211", *options])
        assert code == 0
        jsonschema.validate(report, schema)
        rows = report["results"]["rows"]
        assert [row["p"] for row in rows] == [1.2, 1.5, 2.0, 1.1392108, 1.139211]
        assert all(check["passed"] for check in report["checks"])
        labels = ["1.2", "1.5", "2", "1.1392108", "1.139211"]
        assert [check["name"] for check in report["checks"]] == [
            f"matches_identity_energy_p={label}" for label in labels
        ]
        for row, label in zip(rows, labels):
            code, single = run_json(capsys, ["minimize", "--p", repr(row["p"]), *options])
            assert code == 0
            assert row == {"p": row["p"], **single["results"]}
            assert [check["margin"] for check in single["checks"]] == [
                check["margin"] for check in report["checks"] if check["name"].endswith(f"_p={label}")
            ]

    def test_inequality_suite(self, capsys, schema):
        code, report = run_json(
            capsys, ["inequality-suite", "--count", "50", "--seed", "1"]
        )
        assert code == 0
        jsonschema.validate(report, schema)
        assert report["results"]["jp_min_margin"] >= -1e-10
        assert report["results"]["young_min_margin"] >= -1e-12

    def test_bbm_check_power_map(self, capsys, schema):
        code, report = run_json(
            capsys, ["bbm-check", "--power", "1", "--n", "256", "--p", "2.0"]
        )
        assert code == 0
        jsonschema.validate(report, schema)
        assert report["results"]["energy"] >= 0.98 * report["results"]["lower_bound"]

    def test_bbm_check_moebius_map(self, capsys, schema):
        code, report = run_json(capsys, ["bbm-check", "--moebius", "0.5", "--n", "128", "--p", "1.5"])
        assert code == 0
        jsonschema.validate(report, schema)
        assert report["results"]["degree"] == 1 and report["results"]["n"] == 128
        assert report["results"]["energy"] == energy(moebius_map(128, (0.5, 0.0)), EnergyParams(1.5))


# the sha256 of reports that took their draws one scalar at a time and
# their series one exponent at a time
_PINNED_REPORTS = [
    (["inequality-suite", "--count", "1000", "--seed", "7"], "4423a48a310d9fe2f3c823dc0265f7baaf4b16eba705be3f5f5e881b66556b62"),
    (["inequality-suite", "--count", "1000", "--seed", "22901"], "e2e5933cf8fcb0cb05ed354e8d2a3b17e43f912cd2364a350eedd79289a45b50"),
    (["inequality-suite", "--count", "1000", "--seed", "12345"], "4652bcef7fab10d60bb0915b78d8dcd13a89ed6f580cced5d99b815da34da172"),
    (["inequality-suite", "--count", "1", "--seed", "0"], "2034bf2a853b554ef100d6acbf08578d8a5d421efab13213b4eaf9d6652b5666"),
    (["inequality-suite", "--count", "65", "--seed", "5"], "e45b83a3d0e76ddda9254ebb0b73a3509348896a683e1cb399d43f8339dcd3ad"),
    (["monotonicity-scan", "--grid-size", "1000"], "23b540d1a7028d3d09208bbd3664043e52b1c9201f02491e8607870a9b533f55"),
]


# cases of the pinned descent sweep, (p, degree, seed): the p = 2 spectral
# kernel and the tiled one, degrees 1, 2, 3 and -1, p' included; minimize
# at n takes the seed + n
_DESCENT_SWEEP = [
    ("2", 1, 1),
    ("1.2", 1, 2),
    ("1.5", 2, 3),
    ("1.139210840326630", 1, 4),
    ("1.05", -1, 5),
    ("1.8", 3, 6),
]


def _descent_sweep_digest(capsys) -> str:
    """sha256 over every report and written file of a small descent sweep:
    minimize at n = 64 and 128 with --map-out and --trace-out, energy and
    degree of the written map, then gradient-check.  The file names are
    relative, so the reports, which echo them, do not depend on the
    directory the sweep runs in."""
    digest = hashlib.sha256()

    def cli(argv):
        digest.update(str(run(argv)).encode())
        digest.update(capsys.readouterr().out.encode())

    for n in (64, 128):
        for p, d, seed in _DESCENT_SWEEP:
            argv = ["minimize", "--p", p, "--degree", str(d), "--n", str(n), "--seed", str(seed + n)]
            cli(argv + ["--map-out", "map.csv", "--trace-out", "trace.csv"])
            for name in ("map.csv", "trace.csv"):
                with open(name, "rb") as fh:
                    digest.update(fh.read())
            cli(["energy", "--map", "map.csv", "--p", p])
            cli(["degree", "--map", "map.csv"])
    for p, _, seed in _DESCENT_SWEEP:
        cli(["gradient-check", "--n", "64", "--p", p, "--seed", str(seed)])
    return digest.hexdigest()


class TestDeterminism:
    def test_descent_path_bytes_pinned(self, capsys, tmp_path, monkeypatch):
        # every byte the descent path writes, fixed across versions, not
        # only between two runs of one build
        monkeypatch.chdir(tmp_path)
        assert _descent_sweep_digest(capsys) == "d9c5752dfb07fc48d7c0524777b7143f192c813e835827490ba374a1e2f9ca53"

    def test_byte_identical_reports(self, capsys):
        run(["inequality-suite", "--count", "25", "--seed", "7"])
        first = capsys.readouterr().out
        run(["inequality-suite", "--count", "25", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_byte_identical_minimize_reports(self, capsys):
        argv = ["minimize", "--p", "1.5", "--degree", "1", "--n", "32", "--max-iters", "50", "--restarts", "1"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first == second
        assert "step-rule" not in json.loads(first)["parameters"]

    @pytest.mark.parametrize(
        "count, seed, jp_min, young_min",
        [
            (1000, 0, -2.842170943040401e-14, 4.3597434776195065),
            (1000, 1, -5.684341886080802e-14, 4.88861695401812),
            (65, 3, -1.4210854715202004e-14, 7.1607407914914685),
        ],
    )
    def test_inequality_suite_margins_pinned(self, capsys, count, seed, jp_min, young_min):
        # the margins that the checks give one at a time; blocks must not move them
        code, report = run_json(capsys, ["inequality-suite", "--count", str(count), "--seed", str(seed)])
        assert code == 0
        assert report["results"]["jp_min_margin"] == jp_min
        assert report["results"]["young_min_margin"] == young_min

    @pytest.mark.parametrize("argv, digest", _PINNED_REPORTS, ids=["-".join(argv[0::2]) for argv, _ in _PINNED_REPORTS])
    def test_report_bytes_pinned(self, capsys, argv, digest):
        # the block draws and the block series must not move a byte
        assert run(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_inequality_suite_does_not_depend_on_the_block(self, capsys, monkeypatch):
        cli_module = importlib.import_module("fracmin.cli")
        blocks = sorted({1, 7, cli_module._JP_BLOCK})
        counts = sorted({count for block in blocks for count in (block - 1, block, block + 1) if count >= 1} | {1000})
        for count in counts:
            reports = set()
            for block in blocks:
                monkeypatch.setattr(cli_module, "_JP_BLOCK", block)
                assert run(["inequality-suite", "--count", str(count), "--seed", "11"]) == 0
                reports.add(capsys.readouterr().out)
            assert len(reports) == 1, count

    @pytest.mark.parametrize("count", [1, 2, 1000])
    def test_young_block_draws_are_the_scalar_draws(self, monkeypatch, count):
        cli_module = importlib.import_module("fracmin.cli")
        for block in sorted({1, 7, cli_module._YOUNG_BLOCK}):
            monkeypatch.setattr(cli_module, "_YOUNG_BLOCK", block)
            blocked, scalar = np.random.default_rng(2027), np.random.default_rng(2027)
            rows = list(cli_module._young_draws(blocked, count))
            reference = []
            for _ in range(count):
                big_a = scalar.uniform(0.0, 100.0)
                big_b = scalar.uniform(1e-6, 100.0)
                reference.append([big_a, big_b, scalar.uniform(1.05, 1.95)])
            assert rows == reference, block
            # the generator is left where the scalar draws leave it
            assert blocked.random() == scalar.random(), block

    def test_inequality_suite_generator_calls(self, capsys, monkeypatch):
        # 3 calls per jp draw (m, both ends, p) and one per block of Young draws
        calls = []
        make = np.random.default_rng

        class Counted:
            def __init__(self, seed):
                self._rng = make(seed)

            def __getattr__(self, name):
                method = getattr(self._rng, name)

                def counted(*args, **kwargs):
                    calls.append(name)
                    return method(*args, **kwargs)

                return counted

        monkeypatch.setattr(np.random, "default_rng", Counted)
        assert run(["inequality-suite", "--count", "1000"]) == 0
        assert len(calls) == 3 * 1000 + 1

    def test_monotonicity_scan_series_calls(self, capsys, monkeypatch):
        # one series call per block of 8 exponents
        critical_module = importlib.import_module("fracmin.critical")
        calls = []
        series = critical_module.reciprocal_pair_sum
        monkeypatch.setattr(critical_module, "reciprocal_pair_sum", lambda p: calls.append(p) or series(p))
        assert run(["monotonicity-scan", "--grid-size", "1000"]) == 0
        assert len(calls) == 125

    def test_negative_seed(self, capsys):
        # every seed is reduced mod 2^63, as perturb reduces it
        code, negative = run_json(capsys, ["inequality-suite", "--count", "25", "--seed", "-1"])
        assert code == 0 and negative["seed"] == -1
        code, reduced = run_json(capsys, ["inequality-suite", "--count", "25", "--seed", str(2**63 - 1)])
        assert code == 0
        assert negative["results"] == reduced["results"]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = run(["--out", str(target), "critical-p"])
        assert code == 0
        assert capsys.readouterr().out == ""
        report = json.loads(target.read_text())
        assert report["command"] == "critical-p"

    def test_output_flags_after_subcommand(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = run(["critical-p", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        report = json.loads(target.read_text())
        assert report["command"] == "critical-p"
        assert "out" not in report["parameters"]

    def test_one_parser_per_process(self, tmp_path, capsys):
        # the parser is built on the first run and reused, so no option of
        # one call may leak into the next: interleaved subcommands, --out
        # before and after the subcommand, then omitted, and a usage error
        # after a success give the reports of fresh parses
        leading, trailing = tmp_path / "leading.json", tmp_path / "trailing.json"
        assert run(["--out", str(leading), "id-energy", "--p", "1.5"]) == 0
        assert run(["critical-p", "--tol", "1e-10", "--out", str(trailing)]) == 0
        assert run(["gradient-check", "--n", "16", "--seed", "4"]) == 0
        gradient = json.loads(capsys.readouterr().out)
        assert run(["id-energy", "--p", "1.5"]) == 0
        assert capsys.readouterr().out == leading.read_text()
        assert run(["critical-p", "--tol", "1e-10"]) == 0
        assert capsys.readouterr().out == trailing.read_text()
        assert run(["id-energy"]) == 2
        assert "--p" in capsys.readouterr().err
        assert run(["gradient-check"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["parameters"] == {"amplitude": 0.3, "n": 64, "p": 1.5, "seed": 0}
        assert gradient["parameters"]["n"] == 16 and gradient["seed"] == 4
        assert _build_parser() is _build_parser()

    def test_removed_options_are_usage_errors(self, capsys):
        assert run(["--format", "csv", "id-energy", "--p", "2"]) == 2
        assert run(["minimize", "--p", "1.5", "--degree", "1", "--step-rule", "fixed"]) == 2
        # the stop is relative to the energy's error estimate, not a fixed norm
        assert run(["minimize", "--p", "1.5", "--degree", "1", "--grad-tol", "1e-5"]) == 2
        assert run(["scan", "--p-values", "1.5", "--grad-tol", "1e-5"]) == 2
        capsys.readouterr()


def _shifted_correction(u, params):
    """The gradient with its diagonal correction's neighbour difference
    w_{i-1} - w_i moved one node along, to w_{i-2} - w_{i-1}."""
    p = params.p
    w = energy_module._correction_weight(p) * p * np.abs(u.gaps) ** (p - 1.0) * np.sign(u.gaps)
    correction = np.roll(w, 1) - w
    return energy_gradient(u, params) - correction + np.roll(correction, 1)


def _gradient_pass(gradient):
    """energy_and_gradient with its gradient taken from gradient(u, params)."""
    return lambda u, params: (energy(u, params), gradient(u, params))


def _flipped_row(row):
    def gradient(u, params):
        grad = energy_gradient(u, params)
        grad[row] = -grad[row]
        return grad

    return gradient


_SEEDED_COMMANDS = {
    "inequality-suite": ["inequality-suite", "--count", "3"],
    "gradient-check": ["gradient-check", "--n", "16"],
    "minimize": ["minimize", "--p", "1.5", "--degree", "1", "--n", "16", "--restarts", "1"],
}


@pytest.mark.parametrize("command", sorted(_SEEDED_COMMANDS))
@settings(derandomize=True, max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(-(2**70), 2**70))
@example(seed=-1)
@example(seed=2**63)
def test_any_integer_seed(capsys, schema, command, seed):
    # any integer --seed gives a report, passed or failed, never a traceback
    code = run([*_SEEDED_COMMANDS[command], "--seed", str(seed)])
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert captured.err == ""
    report = json.loads(captured.out)
    jsonschema.validate(report, schema)
    assert report["seed"] == seed


class TestGradientCheck:
    """The Taylor remainder test behind gradient-check: it passes correct
    gradients where the five-point stencil failed them, fails wrong ones,
    and stays within a fixed number of energy calls."""

    def test_fine_grid_in_few_energy_calls(self, capsys, monkeypatch):
        # the stencil made 4n = 4096 calls here and failed the correct
        # gradient with a tolerance ratio of 1.29
        calls = []

        def counted(kernel):
            def call(u, params):
                calls.append(u.n)
                return kernel(u, params)

            return call

        monkeypatch.setattr("fracmin.cli.energy", counted(energy))
        monkeypatch.setattr("fracmin.cli.energy_and_gradient", counted(energy_and_gradient))
        code, report = run_json(capsys, ["gradient-check", "--n", "1024", "--p", "1.3", "--seed", "5"])
        assert code == 0
        assert len(calls) <= 45
        assert report["results"]["energy_evaluations"] == len(calls)

    @pytest.mark.parametrize("seed", ["21", "37", "51", "79"])
    def test_nearly_folded_maps(self, capsys, seed):
        # these maps bring two distant nodes' targets within about 1e-6 of
        # each other; the stencil's step crossed that scale and failed them
        code, report = run_json(capsys, ["gradient-check", "--n", "128", "--p", "1.05", "--seed", seed])
        assert code == 0, report["results"]

    def test_lowest_order_of_the_wide_sweep(self, capsys):
        # the lowest order of seeds 0-2999 at n = 64, p = 1.5 on a correct
        # gradient (1.8602): nodes 24 and 27 have targets 3.5e-8 apart, and
        # the gradient direction pulls them through each other
        code, report = run_json(capsys, ["gradient-check", "--n", "64", "--p", "1.5", "--seed", "1373"])
        assert code == 0
        assert report["results"]["min_order"] >= 1.8

    @pytest.mark.parametrize("n", ["32", "64"])
    @pytest.mark.parametrize("p", ["1.05", "1.13921", "1.5", "2"])
    def test_seed_sweep(self, capsys, n, p):
        # the benchmark draws a new gradient-check seed with every run
        failed = []
        for seed in range(50):
            code, report = run_json(capsys, ["gradient-check", "--n", n, "--p", p, "--seed", str(seed)])
            if code != 0:
                failed.append((seed, report["results"]["orders"]))
        assert failed == []

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("p", ["1.05", "1.13921", "1.5", "2"])
    def test_unfolded_maps(self, capsys, n, p):
        # at the default amplitude 0.3 the perturbed map is folded, so only
        # the zeta term's gradient is checked; at 0.02 every gap keeps the
        # winding's sign and T2's gradient is checked too
        for seed in range(3):
            assert energy_module._unfolded_sign(perturb(power_map(n, 1), 0.02, seed)) == 1.0
            argv = ["gradient-check", "--n", str(n), "--p", p, "--seed", str(seed), "--amplitude", "0.02"]
            code, report = run_json(capsys, argv)
            assert code == 0, report["results"]

    @pytest.mark.parametrize(
        "wrong",
        [
            lambda u, params: energy_gradient(u, params) * (1.0 + 1e-3),
            _flipped_row(0),
            _flipped_row(-1),
            _shifted_correction,
        ],
        ids=["scaled_1e-3", "row_0_flipped", "row_n-1_flipped", "correction_shifted"],
    )
    @pytest.mark.parametrize("n, p", [("32", "1.5"), ("128", "1.13921")])
    def test_detects_mutations(self, capsys, monkeypatch, wrong, n, p):
        monkeypatch.setattr("fracmin.cli.energy_and_gradient", _gradient_pass(wrong))
        code, report = run_json(capsys, ["gradient-check", "--n", n, "--p", p, "--seed", "3"])
        assert code == 1
        assert report["results"]["min_order"] < 1.8
        assert report["results"]["rounding_limited"] == 0

    @pytest.mark.parametrize("n", ["64", "600", "1024"])
    def test_one_kernel_pass_at_the_base_map(self, capsys, monkeypatch, n):
        # the energy and the gradient at the base map come from one kernel
        # pass; the separate calls give the same report bytes
        argv = ["gradient-check", "--n", n, "--p", "1.3", "--seed", "2"]
        assert run(argv) == 0
        fused = capsys.readouterr().out
        monkeypatch.setattr("fracmin.cli.energy_and_gradient", _gradient_pass(energy_gradient))
        assert run(argv) == 0
        assert capsys.readouterr().out == fused

    def test_constant_direction_is_rounding_limited(self, capsys, monkeypatch):
        # rotation invariance makes g.1 = 0, so the remainder along v = 1 is
        # pure rounding: no order is observed and the check fails
        monkeypatch.setattr("fracmin.cli._taylor_directions", lambda u, seed, grad: [np.ones(u.n)])
        code, report = run_json(capsys, ["gradient-check", "--n", "64", "--p", "1.5", "--seed", "3"])
        assert code == 1
        results = report["results"]
        assert results["orders"] == [None] and results["rounding_limited"] == 1
        assert [check["passed"] for check in report["checks"]] == [False, False]


def _scaled(factor):
    return lambda f: lambda *args: f(*args) * factor


def _shifted(offset):
    return lambda f: lambda *args: f(*args) + offset


def _rhs_scaled(factor):
    """The rhs of each InequalityCheck the function returns, alone or in a list, times factor."""

    def scale(check):
        rhs = check.rhs * factor
        return dataclasses.replace(check, rhs=rhs, margin=check.lhs - rhs)

    def mutate(f):
        def mutated(*args):
            result = f(*args)
            return [scale(check) for check in result] if isinstance(result, list) else scale(result)

        return mutated

    return mutate


def _pass_scaled(value=1.0, grad=1.0):
    """energy_and_gradient with its value and its gradient times these factors."""

    def mutate(f):
        def mutated(*args):
            energy_value, gradient = f(*args)
            return energy_value * value, gradient * grad

        return mutated

    return mutate


# (argv, module, function, mutation, the check it must fail): each
# mutation is the smallest of its kind that the check is there to catch
_CHECK_MUTATIONS = [
    (["id-energy", "--p", "1.5"], "cli", "identity_energy_quadrature", _scaled(1.0 + 1e-8), "closed_vs_quadrature_rel"),
    (["id-energy", "--p", "2"], "cli", "identity_energy_closed_form", _scaled(1.0 + 1e-8), "matches_ground_truth_rel"),
    (["id-energy-derivative", "--p", "1.5"], "critical", "identity_energy_derivative", _scaled(-1.0), "derivative_negative"),
    (["id-energy-derivative", "--p", "1.5"], "critical", "reciprocal_pair_sum", _shifted(1e-6), "two_path_agreement"),
    # moves the root by about 1e-11
    (["critical-p"], "critical", "beta", _shifted(1e-9), "matches_reference_value"),
    (["critical-p"], "critical", "integral_sin_power", _shifted(1e-7), "path_agreement"),
    (["monotonicity-scan", "--grid-size", "10"], "critical", "identity_energy_derivative", _scaled(-1.0), "all_derivatives_negative"),
    # the two derivative paths disagree: a failed check with its report, not an error
    (["monotonicity-scan", "--grid-size", "10"], "critical", "reciprocal_pair_sum", _shifted(1e-6), "two_path_agreement"),
    # 1-D draws are equality cases, with rhs up to about 200 in 50 draws
    (["inequality-suite", "--count", "50"], "cli", "_jp_checks", _rhs_scaled(1.0 + 1e-11), "jp_margin_floor"),
    # the Young variant holds with lhs >= 1.12 rhs on the whole draw domain,
    # and >= 1.50 rhs on these 50 draws: no smaller scale fails it
    (["inequality-suite", "--count", "50"], "cli", "young_variant_check", _rhs_scaled(1.6), "young_margin_floor"),
    (["inequality-suite", "--count", "50"], "cli", "jp_monotonicity_check", _rhs_scaled(1.0 + 1e-9), "antipodal_equality"),
    # the order falls to about 1 along every direction; 1 + 1e-6 still passes
    (["gradient-check"], "cli", "energy_and_gradient", _pass_scaled(grad=1.0 + 1e-5), "taylor_remainder_order"),
    # one more direction, a rotation of the whole map: the energy does not
    # change along it, so its remainders are rounding alone
    (
        ["gradient-check"],
        "cli",
        "_taylor_directions",
        lambda f: lambda u, *rest: f(u, *rest) + [np.ones(u.n)],
        "no_rounding_limited_direction",
    ),
    # the bound is sharp at p = 2, where E(z) = 4 pi^2: any scale below the
    # 0.98 slack fails
    (["bbm-check", "--power", "1", "--p", "2"], "inequalities", "energy", _scaled(0.979), "holds_with_2pct_slack"),
    # the raw sum is held to 1e-12 relative; 1 + 1e-12 fails by only 2e-15
    (["moebius", "--a-re", "0.3"], "cli", "energy", _scaled(1.0 + 1e-11), "matches_discrete_closed_form"),
    # the error estimate is 2.4e-8 here: 1 - 1e-8 passes
    (["moebius", "--a-re", "0.3"], "cli", "energy", _scaled(1.0 - 1e-7), "matches_identity_energy"),
    # the descent's energy, not its gradient: the error estimate is 1.9e-7
    # at n = 256, so 1 - 1e-7 passes and 0.999 is a thousand times too big
    (
        ["minimize", "--p", "1.5", "--degree", "1"],
        "minimize",
        "energy_and_gradient",
        _pass_scaled(value=1.0 - 1e-6),
        "matches_identity_energy",
    ),
    (
        ["scan", "--p-values", "1.5"],
        "minimize",
        "energy_and_gradient",
        _pass_scaled(value=1.0 - 1e-6),
        "matches_identity_energy_p=1.5",
    ),
]


class TestCheckMutations:
    """Every check that any subcommand prints fails, with exit 1 and a
    full report, under a mutation of the function it guards; energy and
    degree print none."""

    @pytest.mark.parametrize(
        "argv, module, name, mutation, check",
        _CHECK_MUTATIONS,
        ids=[f"{argv[0]}-{check}" for argv, *_, check in _CHECK_MUTATIONS],
    )
    def test_named_check_fails(self, capsys, monkeypatch, schema, argv, module, name, mutation, check):
        target = importlib.import_module(f"fracmin.{module}")
        monkeypatch.setattr(target, name, mutation(getattr(target, name)))
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        report = json.loads(captured.out)
        jsonschema.validate(report, schema)
        assert check in [c["name"] for c in report["checks"] if not c["passed"]]

    def test_every_check_has_a_row(self, capsys):
        printed = set()
        for argv in {tuple(argv) for argv, *_ in _CHECK_MUTATIONS}:
            code, report = run_json(capsys, list(argv))
            assert code == 0
            printed |= {(argv[0], c["name"]) for c in report["checks"]}
        assert printed == {(argv[0], check) for argv, *_, check in _CHECK_MUTATIONS}


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(["no-such-command"]) == 2
        capsys.readouterr()

    def test_missing_required(self, capsys):
        assert run(["id-energy"]) == 2
        capsys.readouterr()

    def test_domain_error(self, capsys):
        assert run(["id-energy", "--p", "0.5"]) == 3
        capsys.readouterr()

    def test_map_file_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("theta,phase\n0,0\n")
        assert run(["energy", "--map", str(path), "--p", "1.5"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("command", [["energy", "--p", "1.5"], ["degree"], ["bbm-check"]])
    def test_missing_map_file(self, capsys, tmp_path, command):
        # a file that cannot be read is bad input, like a malformed one
        missing = str(tmp_path / "missing.csv")
        assert run([command[0], "--map", missing, *command[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error: cannot read map file")

    def test_map_file_inadmissible_gap(self, capsys, tmp_path):
        # a neighbour gap of pi leaves the winding undefined: exit 3, no report
        path = tmp_path / "gap.csv"
        write_map_csv(GridMap(np.repeat([0.0, math.pi], 4)), path)
        assert run(["energy", "--map", str(path), "--p", "1.5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "phase gap" in captured.err

    @pytest.mark.parametrize("command", [["degree"], ["energy", "--p", "1.5"]])
    def test_map_file_whose_differences_overflow(self, capsys, tmp_path, command):
        # 1e308 - (-1e308) overflows: the gap is not finite, and the map is
        # inadmissible; the one line on stderr is the domain error, and a
        # RuntimeWarning, an error here, would have ended the run first
        path = tmp_path / "far.csv"
        phases = [1e308, -1e308] + [0.0] * 6
        rows = "".join(f"{2.0 * math.pi * i / 8:.17g},{phi:.17g}\n" for i, phi in enumerate(phases))
        path.write_text("theta,phase\n" + rows)
        assert run([command[0], "--map", str(path), *command[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error: map file contains a phase gap") and captured.err.count("\n") == 1

    def test_unresolved_moebius_trace(self, capsys):
        # 9 nodes miss the jump of the trace at |a| = 0.999: the sampled
        # lift winds 0 times, which is a domain error, not a failed check
        assert run(["moebius", "--a-re", "0.5994", "--a-im", "0.7992", "--n", "9"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no degree one" in captured.err

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--out", ["critical-p"]),
            ("--map-out", ["moebius", "--a-re", "0.3", "--n", "64"]),
            ("--map-out", ["minimize", "--p", "1.5", "--degree", "1", "--n", "32", "--restarts", "0"]),
            ("--trace-out", ["minimize", "--p", "1.5", "--degree", "1", "--n", "32", "--restarts", "0"]),
            ("--table-out", ["monotonicity-scan", "--grid-size", "10"]),
        ],
    )
    def test_unwritable_output_path(self, capsys, tmp_path, flag, argv):
        # a file in a missing directory: exit 3 with the message on stderr,
        # as for a map file that cannot be read, and no report
        target = str(tmp_path / "missing" / "out")
        assert run([*argv, flag, target]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error: cannot write") and repr(target) in captured.err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize(
        "argv",
        [
            ["critical-p", "--out", "/dev/full"],
            ["moebius", "--a-re", "0.5", "--n", "64", "--map-out", "/dev/full"],
            ["minimize", "--p", "1.5", "--degree", "1", "--n", "32", "--map-out", "/dev/full"],
            ["minimize", "--p", "1.5", "--degree", "1", "--n", "32", "--restarts", "0", "--trace-out", "/dev/full"],
            ["monotonicity-scan", "--grid-size", "10", "--table-out", "/dev/full"],
        ],
        ids=["out", "moebius-map-out", "minimize-map-out", "trace-out", "table-out"],
    )
    def test_full_device(self, capsys, argv):
        # the open succeeds and the write fails, as the file is closed: bad
        # output, exit 3 with one line on stderr, not a traceback
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error: cannot write") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "content",
        [b"theta,phase\r\n\xff\r\n", b"theta,phase\r\n0," + b"1" * 200000 + b"\r\n"],
        ids=["undecodable", "field-over-the-csv-limit"],
    )
    @pytest.mark.parametrize("command", [["degree"], ["energy", "--p", "1.5"], ["bbm-check"]])
    def test_unparsable_map_file(self, capsys, tmp_path, content, command):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        assert run([command[0], "--map", str(path), *command[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error: cannot read map file") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", [["degree"], ["energy", "--p", "1.5"]])
    def test_map_file_whose_difference_wraps_off_the_positions(self, capsys, tmp_path, command):
        # 1e20 wraps to a gap of 0, 0.7 rad off the nodes' positions
        path = tmp_path / "far.csv"
        write_map_csv(GridMap(np.array([0.0, 1e20] + [0.0] * 6)), path)
        assert run([command[0], "--map", str(path), *command[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error: map file contains a phase gap") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["moebius", "--a-re", "0.5", "--n", "256"],
            ["minimize", "--degree", "1", "--n", "32", "--restarts", "0"],
            ["bbm-check", "--power", "1", "--n", "64"],
        ],
        ids=["moebius", "minimize", "bbm-check"],
    )
    def test_least_exponent_above_one(self, capsys, argv):
        # 1 + p rounds to 2 there, and zeta(2) is no pole
        code, report = run_json(capsys, [*argv, "--p", "1.0000000000000002"])
        assert code == 0
        assert all(check["passed"] for check in report["checks"])

    @pytest.mark.parametrize("amplitude", ["nan", "inf", "1e308", "8e307"])
    def test_gradient_check_amplitude_without_a_finite_width(self, capsys, amplitude):
        # bad input, not a failed check; at 8e307 the mode sum would
        # overflow, and the domain error comes before any warning
        assert run(["gradient-check", "--amplitude", amplitude]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error: amplitude must be >= 0") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_inequality_suite_count_below_one(self, capsys, count):
        # no draw leaves the margins at inf, which no JSON report can hold:
        # bad input, not a failed check
        assert run(["inequality-suite", "--count", count]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error: count must be >= 1")

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["minimize", "--p", "1.5", "--degree", "0"], "degree 0 is not minimized"),
            (["scan", "--p-values", "1.5,2", "--degree", "0"], "degree 0 is not minimized"),
            (["minimize", "--p", "2", "--degree", "4", "--n", "10"], "too coarse for z^4"),
        ],
        ids=["minimize-degree-0", "scan-degree-0", "coarse-grid"],
    )
    def test_unpreconditioned_class_rejected(self, capsys, argv, reason):
        # descent runs only where z^d's Hessian symbol preconditions it
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error: ") and reason in captured.err

    def test_scan_p_values(self, capsys):
        # an entry that is not a number is a usage error, like --p abc; an
        # empty list parses but names no exponent
        assert run(["scan", "--p-values", "1.5,x"]) == 2
        assert "--p-values" in capsys.readouterr().err
        assert run(["scan", "--p-values", ","]) == 3
        assert "at least one exponent" in capsys.readouterr().err

    def test_failed_check_exit(self, capsys):
        # 64 nodes do not resolve the Moebius map at a = 0.99 (largest gap
        # 2.9 rad): its energy misses E_p(Id) by 5%, beyond the h^(p+1)
        # error that a resolving grid would have
        code, report = run_json(capsys, ["moebius", "--a-re", "0.99", "--n", "64", "--p", "1.5"])
        assert code == 1
        assert [check["name"] for check in report["checks"] if not check["passed"]] == ["matches_identity_energy"]

    @pytest.mark.parametrize("sources", [[], ["--power", "1", "--moebius", "0.5"]], ids=["none", "two"])
    def test_bbm_check_needs_exactly_one_source(self, capsys, sources):
        assert run(["bbm-check", *sources]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "domain error: provide exactly one of --map, --power, --moebius\n"

    def test_nonconvergence_exit(self, capsys, monkeypatch):
        # every run of the real minimize converges, so a single capped step
        # from a perturbed start stands in for it
        def capped(config):
            start = perturb(power_map(config.n, config.degree_target), 0.1, 1)
            return descend_from(start, dataclasses.replace(config, max_iters=1))

        monkeypatch.setattr("fracmin.cli.minimize", capped)
        code = run(["minimize", "--p", "1.5", "--degree", "1", "--n", "64", "--restarts", "0"])
        assert code == 4
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["termination"] == "max_iters"
        assert report["results"]["converged"] is False

    def test_gradient_check_detects_wrong_gradient(self, capsys, monkeypatch):
        # a gradient off by one part in 1e4 must fail the check
        monkeypatch.setattr(
            "fracmin.cli.energy_and_gradient",
            _gradient_pass(lambda u, params: energy_gradient(u, params) * (1.0 + 1e-4)),
        )
        code, report = run_json(capsys, ["gradient-check", "--n", "32", "--p", "1.5", "--seed", "3"])
        assert code == 1
        assert not report["checks"][1]["passed"]
        assert report["results"]["min_order"] < 1.8


# bytes spliced into a map file: header words, digits, commas, quotes, CR
# and LF, 0xff and NUL, and arbitrary bytes
_map_file_pieces = st.one_of(
    st.sampled_from([b"theta,phase", b",", b'"', b"\r", b"\n", b"\r\n", b"\xff", b"\x00", b"-", b".", b"e", b"nan"]),
    st.integers(-(10**6), 10**6).map(lambda k: str(k).encode()),
    st.binary(max_size=16),
)


@st.composite
def _map_file_bytes(draw):
    """A map file of up to 40 rows, phases near the identity or any
    floats, with up to four spans replaced by pieces; at most 4 KiB."""
    n = draw(st.integers(0, 40))
    theta = [2.0 * math.pi * i / n for i in range(n)]
    if draw(st.booleans()):
        phases = [t + draw(st.floats(-0.3, 0.3)) for t in theta]
    else:
        phases = draw(st.lists(st.floats(), min_size=n, max_size=n))
    data = bytearray(("theta,phase\r\n" + "".join(f"{t:.17g},{phi!r}\r\n" for t, phi in zip(theta, phases))).encode())
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, len(data)))
        data[start : start + draw(st.integers(0, 4))] = draw(_map_file_pieces)
    return bytes(data[:4096])


class TestMapFileFuzz:
    """Any bytes of at most 4 KiB as a map file: a result or one domain error."""

    @settings(
        derandomize=True, max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(_map_file_bytes())
    def test_degree_and_energy(self, capsys, tmp_path, content):
        path = tmp_path / "map.csv"
        path.write_bytes(content)
        for argv in (["degree", "--map", str(path)], ["energy", "--map", str(path), "--p", "1.5"]):
            code = run(argv)
            captured = capsys.readouterr()
            assert code in (0, 3)
            if code == 3:
                assert captured.err.startswith("domain error:") and captured.err.count("\n") == 1
