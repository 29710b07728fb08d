"""CLI reports: schema validity, determinism, exit codes, side files."""

import json
import math
from importlib import resources

import jsonschema
import numpy as np
import pytest

from fracmin import GridMap, energy, energy_gradient, identity_map, perturb, read_map_csv, wrap_angle, write_map_csv
from fracmin.cli import REFERENCE_CRITICAL_P, run

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

    def test_id_energy_derivative(self, capsys, schema):
        code, report = run_json(capsys, ["id-energy-derivative", "--p", "1.5"])
        assert code == 0
        jsonschema.validate(report, schema)
        assert report["results"]["derivative"] < 0.0

    def test_monotonicity_scan(self, capsys, schema, tmp_path):
        table = tmp_path / "scan.csv"
        code, report = run_json(
            capsys, ["monotonicity-scan", "--grid-size", "20", "--table-out", str(table)]
        )
        assert code == 0
        jsonschema.validate(report, schema)
        assert report["results"]["max_derivative"] < 0.0
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
        assert report["results"]["max_rel_error"] <= 1e-5

    def test_gradient_check_stencil_truncation(self, capsys):
        # the two-point stencil's own truncation error failed this seed
        # (max relative error 1.94e-5 against the 1e-5 tolerance)
        code, report = run_json(capsys, ["gradient-check", "--n", "64", "--p", "1.5", "--seed", "295"])
        assert code == 0
        assert report["checks"][0]["passed"]
        assert report["results"]["max_rel_error"] <= 1e-5

    def test_gradient_check_tolerance_ratio(self, capsys):
        # max_rel_error reads 6.6e-5 here although the check passes; the
        # ratio to the check's own tolerance is what the check compares
        code, report = run_json(capsys, ["gradient-check", "--n", "64", "--p", "2", "--seed", "13"])
        assert code == 0
        assert report["checks"][0]["passed"]
        assert report["results"]["max_tolerance_ratio"] <= 1.0

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
        # closed form checks its value
        code, report = run_json(capsys, ["moebius", "--a-re", "0.5", "--a-im", "0.2", "--n", "1048576"])
        assert code == 0
        checks = {check["name"]: check["passed"] for check in report["checks"]}
        assert checks == {"degree_is_one": True, "matches_discrete_closed_form": True}
        assert report["results"]["energy"] == pytest.approx(report["results"]["discrete_closed_form"], rel=1e-12)

    def test_moebius_closed_form_check_detects_wrong_energy(self, capsys, monkeypatch):
        # an energy off by two parts in 1e12 must fail the check
        monkeypatch.setattr("fracmin.cli.energy", lambda u, params: energy(u, params) * (1.0 + 2e-12))
        code, report = run_json(capsys, ["moebius", "--a-re", "0.3", "--a-im", "0.1", "--n", "128"])
        assert code == 1
        assert [check["name"] for check in report["checks"] if not check["passed"]] == ["matches_discrete_closed_form"]

    def test_minimize_with_side_files(self, capsys, schema, tmp_path):
        map_out = tmp_path / "final.csv"
        trace_out = tmp_path / "trace.csv"
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
        final = read_map_csv(map_out)
        assert final.n == 64
        lines = trace_out.read_text().strip().splitlines()
        assert lines[0] == "iter,energy"
        assert len(lines) == report["results"]["iterations"] + 2

    def test_scan(self, capsys, schema):
        code, report = run_json(
            capsys,
            ["scan", "--p-values", "1.5,2.0", "--degree", "1", "--n", "64",
             "--max-iters", "200", "--restarts", "1"],
        )
        assert code == 0
        jsonschema.validate(report, schema)
        rows = report["results"]["rows"]
        assert [row["p"] for row in rows] == [1.5, 2.0]
        assert all(check["passed"] for check in report["checks"])

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


class TestDeterminism:
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

    def test_removed_options_are_usage_errors(self, capsys):
        assert run(["--format", "csv", "id-energy", "--p", "2"]) == 2
        assert run(["minimize", "--p", "1.5", "--degree", "1", "--step-rule", "fixed"]) == 2
        capsys.readouterr()


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

    def test_map_file_inadmissible_gap(self, capsys, tmp_path):
        # a neighbour gap of pi leaves the winding undefined: exit 3, no report
        path = tmp_path / "gap.csv"
        write_map_csv(GridMap(np.repeat([0.0, math.pi], 4)), path)
        assert run(["energy", "--map", str(path), "--p", "1.5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "phase gap" in captured.err

    def test_failed_check_exit(self, capsys):
        # a coarse grid undercuts the winding bound by more than the slack
        code, report = run_json(capsys, ["bbm-check", "--power", "2", "--n", "16", "--p", "2.0"])
        assert code == 1
        assert not all(check["passed"] for check in report["checks"])

    def test_nonconvergence_exit(self, capsys):
        code = run(
            ["minimize", "--p", "1.5", "--degree", "1", "--n", "64",
             "--max-iters", "1", "--grad-tol", "1e-16", "--restarts", "0"]
        )
        assert code == 4
        capsys.readouterr()

    def test_gradient_check_detects_wrong_gradient(self, capsys, monkeypatch):
        # a gradient off by one part in 1e4 must fail the check
        monkeypatch.setattr(
            "fracmin.cli.energy_gradient", lambda u, params: energy_gradient(u, params) * (1.0 + 1e-4)
        )
        code, report = run_json(capsys, ["gradient-check", "--n", "32", "--p", "1.5", "--seed", "3"])
        assert code == 1
        assert not report["checks"][0]["passed"]
        assert report["results"]["max_tolerance_ratio"] > 1.0
