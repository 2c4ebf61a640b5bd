"""Command-line surface: artifacts, manifests, determinism and exit codes."""
import json
import math
import os
import shlex
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import bvlab
from bvlab import cli, errors
from bvlab.annular import PiecewiseField
from bvlab.cli import build_parser, main
from bvlab.constructions import ShellParams, build_shell
from bvlab.dynamics import (BlaschkeMap, CirclePotential, birkhoff_variance, check_exact_work,
                            check_mc_work)
from bvlab.errors import (COEFF_CAP, FREQ_CAP, CapacityError, ValidationError,
                          parse_complex, parse_int)
from bvlab.formulas import sigma2_optimal, sigma2_second_order, sigma2_shell
from bvlab.manifest import json_text
from bvlab.order2 import parameter_search, shell_grid
from bvlab.variance import MAX_MEANS_WORK, TOLERANCE


def run_cli(args, out_dir: Path, capsys) -> tuple[int, str, str]:
    code = main([*args, "--out", str(out_dir)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable2:
    def test_csv_values(self, tmp_path, capsys):
        code, out, _ = run_cli(["table2", "--format", "csv"], tmp_path, capsys)
        assert code == 0
        lines = (tmp_path / "table2.csv").read_text().strip().splitlines()
        assert lines[0].startswith("d,lambda_lemma,improved")
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert rows["2"][5:7] == ["0.3606", "0.3606"]
        assert rows["3"][5:7] == ["0.4045", "0.5394"]
        assert rows["4"][5:7] == ["0.4057", "0.6441"]
        assert rows["20"][5:7] == ["0.3012", "0.8791"]
        assert (tmp_path / "table2_manifest.json").exists()

    def test_json_format(self, tmp_path, capsys):
        code, out, _ = run_cli(["table2", "--format", "json"], tmp_path, capsys)
        assert code == 0
        doc = json.loads((tmp_path / "table2.json").read_text())
        assert len(doc["rows"]) == 4


class TestVariance:
    def test_exact_method_degree20(self, tmp_path, capsys):
        code, out, _ = run_cli(["variance", "shell", "--d", "20", "--rho0", "optimal",
                                "--method", "exact"], tmp_path, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(0.8791, abs=2e-4)
        assert doc["closed_form"] == pytest.approx(0.87913117, abs=1e-7)

    @pytest.mark.parametrize("argv, config", [(["--d", "2.5"], None), ([], {"d": 2.5})])
    def test_real_degree_rejected(self, argv, config, tmp_path, capsys):
        # shells exist only for an integer degree; the real optimum is optimize's
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = [*argv, "--config", str(tmp_path / "cfg.json")]
        code, out, err = run_cli(["variance", "shell", *argv, "--method", "exact"],
                                 tmp_path / "out", capsys)
        assert code == 2 and out == "" and not (tmp_path / "out").exists()
        value = 2.5 if config else "2.5"  # the config's JSON number, or the flag's text
        assert json.loads(err) == {"error": "ValidationError",
                                   "message": f"d must be an integer, got {value!r}"}

    def test_degree_read_exactly(self, tmp_path, capsys):
        # 2^53 + 1 has no float; the manifest echoes the flag as text
        code, out, _ = run_cli(["variance", "shell", "--d", "9007199254740993", "--rho0", "0.5",
                                "--method", "exact"], tmp_path, capsys)
        assert code == 0
        assert '"d": 9007199254740993,' in out and json.loads(out)["d"] == 2**53 + 1
        manifest = json.loads((tmp_path / "variance_manifest.json").read_text())
        assert manifest["config"]["d"] == "9007199254740993"

    def test_mass_method(self, tmp_path, capsys):
        code, out, _ = run_cli(["variance", "shell", "--d", "3", "--rho0", "0.2",
                                "--method", "mass", "--shells", "12"], tmp_path, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "block_mass"
        # the closed form at every radius, not only at the optimal one
        assert doc["closed_form"] == sigma2_shell(3, 0.2)
        assert doc["value"] == pytest.approx(4 * (0.2 ** (1 / 3) - 0.2) ** 2 / math.log(3),
                                             rel=1e-3)

    def test_block_and_cesaro_methods(self, tmp_path, capsys):
        for method, tag in (("block", "block_increment"), ("cesaro", "cesaro4")):
            code, out, _ = run_cli(["variance", "shell", "--d", "4", "--rho0",
                                    "optimal", "--method", method], tmp_path, capsys)
            assert code == 0
            doc = json.loads(out)
            assert doc["method"] == tag
            assert doc["value"] == pytest.approx(doc["closed_form"], rel=0.02)
        diag = (tmp_path / "variance_diagnostics.csv").read_text().splitlines()
        assert diag[0] == "scale_index,scale_value"
        assert len(diag) > 2

    def test_block_method_grows_to_the_fewest_resolving_shells(self, tmp_path, capsys):
        # 19 shells are the fewest whose last frequency 2^19 reaches 10/(1.5^(1/2^14) - 1);
        # 18 give 0.3606023779490682 and 17 raise UnresolvedScaleError.  The manifest
        # records the grown count, the default n0 and the cutoff n_19 - 1 it sets
        code, out, _ = run_cli(["variance", "shell", "--d", "2", "--rho0", "0.25", "--method",
                                "block", "--blocks", "14", "--shells", "1"], tmp_path, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 0.360602377952943
        # the limit of the increments is closer to the closed form than their tail average
        tail_average = 0.3612863906840157
        assert abs(doc["value"] - doc["closed_form"]) < abs(tail_average - doc["closed_form"])
        manifest = json.loads((tmp_path / "variance_manifest.json").read_text())
        assert manifest["resolved"] == {"rho0": 0.25, "shells": 19, "n0": 2,
                                        "series_cutoff": 2**20 - 1}

    def test_block_count_at_the_resolution_edge(self, tmp_path, capsys):
        # 1.5^(1/2^57) needs a cutoff of 3.6e18, which the last of 62 shells, n_61 = 2^62,
        # reaches; 58 blocks need 7.1e18, and the next shell frequency, 2^63, passes the
        # 64-bit capacity; 59 blocks need 1.4e19, above every 64-bit cutoff
        argv = ["variance", "shell", "--d", "2", "--method", "block", "--blocks"]
        code, out, _ = run_cli([*argv, "57"], tmp_path, capsys)
        doc = json.loads(out)
        assert code == 0 and doc["converged"]
        assert doc["value"] == pytest.approx(doc["closed_form"], rel=1e-14)
        manifest = json.loads((tmp_path / "variance_manifest.json").read_text())
        assert manifest["resolved"]["shells"] == 62
        for blocks in ("58", "59"):
            code, out, err = run_cli([*argv, blocks, "--shells", "62"], tmp_path, capsys)
            assert code == 2 and f"{blocks} blocks" in json.loads(err)["message"]

    @pytest.mark.parametrize("n0", [None, 4])
    @pytest.mark.parametrize("argv", [["variance", "shell", "--method", "mass"],
                                      ["variance", "shell", "--method", "cesaro"],
                                      ["variance", "shell", "--method", "block"],
                                      ["means-curve"]], ids=lambda argv: argv[-1])
    def test_resolved_series_cutoff(self, argv, n0, tmp_path, capsys):
        # the cutoff n_J - 1 of the series the run built, and n0 when it took the default
        shells = 12 if argv[-1] == "block" else 5
        argv = [*argv, "--d", "3", "--rho0", "0.2", "--shells", str(shells)]
        code, _, _ = run_cli(argv if n0 is None else [*argv, "--n0", str(n0)], tmp_path, capsys)
        assert code == 0
        name = "means_curve" if argv[0] == "means-curve" else "variance"
        resolved = json.loads((tmp_path / f"{name}_manifest.json").read_text())["resolved"]
        first = 2 if n0 is None else n0
        assert resolved["series_cutoff"] == first * 3**resolved.get("shells", shells) - 1
        assert resolved.get("n0") == (2 if n0 is None else None)

    def test_exact_method_builds_no_series(self, tmp_path, capsys):
        code, _, _ = run_cli(["variance", "shell", "--d", "3"], tmp_path, capsys)
        manifest = json.loads((tmp_path / "variance_manifest.json").read_text())
        assert code == 0 and list(manifest["resolved"]) == ["rho0"]


# The documented estimator runs, each with the tail average it reported before its
# per-scale sequence was extrapolated
DOCUMENTED_RUNS = [
    (["--d", "20", "--rho0", "optimal", "--method", "exact"], 0.8791074265310996),
    (["--d", "2", "--rho0", "0.25", "--method", "block", "--blocks", "14", "--shells", "22"],
     0.3612863906840157),
    (["--d", "3", "--method", "mass"], 0.5387383502622685),
    (["--d", "3", "--method", "cesaro"], 0.5394000904181688),
]


@pytest.mark.parametrize("argv, tail_average", DOCUMENTED_RUNS)
def test_documented_variance_runs_report_their_limit(tmp_path, capsys, argv, tail_average):
    code, out, _ = run_cli(["variance", "shell", *argv], tmp_path, capsys)
    assert code == 0
    doc = json.loads(out)
    miss = abs(doc["value"] - doc["closed_form"])
    assert miss < abs(tail_average - doc["closed_form"])
    assert miss <= doc["error"]
    assert not doc["converged"] or miss <= TOLERANCE * doc["closed_form"]


def test_documented_order2_run_reports_its_limit(tmp_path, capsys):
    code, out, _ = run_cli(["order2", "--d", "16", "--rho0", "optimal", "--n0", "15",
                            "--refine"], tmp_path, capsys)
    assert code == 0
    doc = json.loads(out)
    limit = sigma2_second_order(16, doc["rho0"])
    miss = abs(doc["second_order"] - limit)
    assert miss < abs(0.01780361366781225 - limit)  # the tail average before
    estimate = doc["second_order_diagnostics"]
    assert estimate["converged"] and miss <= min(estimate["error"], TOLERANCE * limit)


class TestOptimize:
    def test_range_to_1e18_needs_no_scan(self, tmp_path, capsys):
        code, out, _ = run_cli(["optimize", "--d-min", "2", "--d-max", "1e18"], tmp_path, capsys)
        assert code == 0
        assert json.loads(out)["best_integer"]["d"] == 20

    def test_one_degree_range(self, tmp_path, capsys):
        code, out, _ = run_cli(["optimize", "--d-min", "5", "--d-max", "5"], tmp_path, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["best_integer"]["d"] == 5 and doc["best_real"]["d"] == 5.0

    def test_range_below_the_maximizer_reports_its_end(self, tmp_path, capsys):
        code, out, _ = run_cli(["optimize", "--d-min", "2", "--d-max", "3"], tmp_path, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["best_real"] == {"d": 3, "value": sigma2_optimal(3)}
        assert doc["best_integer"]["d"] == 3

    def test_range_at_degree_capacity(self, tmp_path, capsys):
        # 2^63 - 1 rounds up to 2^63 as a float, so the real degree stops at the float
        # below it, 2^63 - 1024, under d_min
        d_min = 9223372036854775000
        code, out, _ = run_cli(["optimize", "--d-min", str(d_min),
                                "--d-max", "9223372036854775807"], tmp_path, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["best_integer"]["d"] == d_min
        assert doc["best_real"] == {"d": 2**63 - 1024, "value": sigma2_optimal(2**63 - 1024)}


class TestOrder2:
    def test_point_run(self, tmp_path, capsys):
        code, out, _ = run_cli(["order2", "--d", "16", "--rho0", "optimal",
                                "--n0", "15"], tmp_path, capsys)
        assert code == 0
        doc = json.loads(out)
        assert 0.891 <= doc["total"] <= 0.90
        manifest = json.loads((tmp_path / "order2_manifest.json").read_text())
        assert manifest["command"] == "order2"
        assert manifest["config"]["d"] == "16"

    def test_search_leaderboard(self, tmp_path, capsys):
        code, out, _ = run_cli(["order2", "--grid-d", "4,16", "--grid-rho0", "optimal",
                                "--shells", "5"], tmp_path, capsys)
        assert code == 0
        lines = (tmp_path / "order2_leaderboard.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        totals = [float(line.split(",")[6]) for line in lines[1:]]
        assert totals == sorted(totals, reverse=True)

    def test_documented_runs_report_the_closed_form_limit(self, tmp_path, capsys):
        # the README's order2 lines and a config run of the same command
        config = tmp_path / "order2.json"
        config.write_text(json.dumps({"d": 8, "rho0": "optimal", "shells": 6, "refine": True}))
        runs = [argv for argv in _readme_command_lines() if argv[0] == "order2"]
        assert len(runs) == 2
        for i, argv in enumerate([*runs, ["order2", "--config", str(config)]]):
            code, out, _ = run_cli(argv, tmp_path / str(i), capsys)
            doc = json.loads((tmp_path / str(i) / "order2.json").read_text())
            assert code == 0 and json.loads(out) == doc and "tail_mass" not in doc
            assert doc["second_order_limit"] == sigma2_second_order(doc["d"], doc["rho0"])

    @pytest.mark.parametrize("n0", [[], ["--grid-n0", "default,5"]], ids=["readme", "two_n0"])
    def test_leaderboard_rows_are_the_report_documents(self, n0, tmp_path, capsys):
        code, _, _ = run_cli(["order2", "--grid-d", "12,16,20", "--grid-rho0", "optimal", *n0],
                             tmp_path, capsys)
        _, board = parameter_search(shell_grid([12, 16, 20], ["optimal"],
                                               [None, 5] if n0 else [None], 6))
        header, *rows = (tmp_path / "order2_leaderboard.csv").read_text().splitlines()
        assert code == 0 and header == "d,rho0,n0,shells,first_order,second_order,total"
        assert len(rows) == len(board) == (6 if n0 else 3)
        for row, report in zip(rows, board):
            doc = report.to_doc()
            assert [json.loads(cell) for cell in row.split(",")] == \
                [doc[key] for key in header.split(",")]

    def test_shell_count_clipped_to_frequency_cutoff(self, tmp_path, capsys):
        code, out, _ = run_cli(["order2", "--d", "16", "--rho0", "optimal",
                                "--shells", "24", "--refine"], tmp_path, capsys)
        assert code == 0
        doc = json.loads(out)
        # shells whose product spectrum exceeds the 64-bit capacity are not materialized
        assert doc["shells"] == 15 == ShellParams(d=16, rho0="optimal").capacity
        assert 0.891 <= doc["total"] <= 0.90


class TestDimension:
    def test_neither_t_nor_k_writes_the_quadratic_coefficient(self, tmp_path, capsys):
        code, out, err = run_cli(["dimension", "--d", "20"], tmp_path, capsys)
        assert code == 0 and err == ""
        doc = json.loads((tmp_path / "dimension.json").read_text())
        assert doc == json.loads(out)
        assert doc["quadratic_coefficient_k"] == sigma2_optimal(20)
        assert "t" not in doc and "k" not in doc


class TestMeansCurve:
    def test_emits_resolved_rows(self, tmp_path, capsys):
        code, out, _ = run_cli(["means-curve", "--d", "2", "--rho0", "0.25",
                                "--shells", "30", "--r-min", "1e-8",
                                "--r-max", "1e-3", "--points", "10"], tmp_path, capsys)
        assert code == 0
        lines = (tmp_path / "means_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "R,integral_means,ratio,resolved"
        assert len(lines) == 11
        assert all(line.endswith("true") for line in lines[1:])
        manifest = json.loads((tmp_path / "means_curve_manifest.json").read_text())
        assert manifest["resolved"]["growth_slope"] == pytest.approx(0.3607, abs=6e-3)

    @pytest.mark.parametrize("max_freq, code", [(FREQ_CAP, 0), (FREQ_CAP + 1, 3)])
    def test_series_cutoff_at_capacity(self, tmp_path, capsys, max_freq, code):
        # a cutoff of 2^63 would mark every scale resolved beyond the 64-bit range
        series = tmp_path / "series.json"
        series.write_text(json.dumps({"coeffs": [[2, 1.0, 0.0]], "max_freq": max_freq}))
        got, out, err = run_cli(["means-curve", "--series", str(series)], tmp_path, capsys)
        assert got == code
        if code:
            assert out == "" and json.loads(err)["error"] == "CapacityError"
        else:
            lines = (tmp_path / "means_curve.csv").read_text().strip().splitlines()
            assert all(line.endswith("true") for line in lines[1:])

    def test_flags_unresolved_rows(self, tmp_path, capsys):
        code, _, _ = run_cli(["means-curve", "--d", "2", "--rho0", "0.25",
                              "--shells", "4", "--r-min", "1e-8",
                              "--points", "6"], tmp_path, capsys)
        assert code == 0
        lines = (tmp_path / "means_curve.csv").read_text().strip().splitlines()
        assert any(line.endswith("false") for line in lines[1:])

    @pytest.mark.parametrize("argv", [["--r-min", "1e-8", "--r-max", "1e-3"],
                                      ["--r-min", "1e-15"]])
    def test_growth_slope_is_fitted_on_the_rows(self, argv, tmp_path, capsys):
        # the least-squares slope of I(R) against log(1/(R-1)) = I(R)/ratio over the
        # printed rows; at r_min 1e-15, R - 1 cannot be read back from R itself
        code, _, _ = run_cli(["means-curve", "--d", "2", "--rho0", "0.25", "--shells", "30",
                              *argv], tmp_path, capsys)
        assert code == 0
        rows = [line.split(",") for line in
                (tmp_path / "means_curve.csv").read_text().strip().splitlines()[1:]]
        ys = [float(row[1]) for row in rows]
        xs = [float(row[1]) / float(row[2]) for row in rows]
        x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
        fit = (math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
               / math.fsum((x - x_mean) ** 2 for x in xs))
        slope = json.loads((tmp_path / "means_curve_manifest.json").read_text())
        assert slope["resolved"]["growth_slope"] == pytest.approx(fit, rel=1e-14, abs=0)

    @pytest.mark.parametrize("max_freq", [-3, 0])
    def test_series_cutoff_below_one(self, max_freq, tmp_path, capsys):
        # an empty series is still a series exact up to its cutoff, which must be >= 1
        series = tmp_path / "series.json"
        series.write_text(json.dumps({"coeffs": [], "max_freq": max_freq}))
        code, out, err = run_cli(["means-curve", "--series", str(series)], tmp_path / "out",
                                 capsys)
        assert code == 2 and out == "" and not (tmp_path / "out").exists()
        assert json.loads(err) == {"error": "ValidationError",
                                   "message": f"max_freq must be >= 1, got {max_freq}"}

    def test_series_work_bound(self, tmp_path, capsys):
        # 10^5 coefficients at 41 points pass the bound (0.8 s of means at 40); the run
        # exits 2 before the first mean, naming both keys
        series = tmp_path / "series.json"
        series.write_text(json.dumps({"coeffs": [[k, 1.0, 0.0] for k in range(1, 10**5 + 1)],
                                      "max_freq": 10**5}))
        code, out, err = run_cli(["means-curve", "--series", str(series), "--points", "41"],
                                 tmp_path / "out", capsys)
        assert code == 2 and out == "" and not (tmp_path / "out").exists()
        assert json.loads(err)["message"] == (
            f"points x coefficients of the series must be at most {MAX_MEANS_WORK}, "
            f"got 41 x 100000")

    def test_r_min_below_the_float_step_of_one(self, tmp_path, capsys):
        # 1 + 1e-17 == 1, so R_min would not lie above 1: the check names r_min
        code, out, err = run_cli(["means-curve", "--d", "2", "--r-min", "1e-17"],
                                 tmp_path / "out", capsys)
        assert code == 2 and out == "" and not (tmp_path / "out").exists()
        assert "r_min" in json.loads(err)["message"]


class TestTruncate:
    def test_field_reaching_the_origin(self, tmp_path, capsys):
        # a term at r_in = 0 is written as r_in 0 without log_r_in, and reads back equal
        mu = tmp_path / "mu.json"
        mu.write_text(json.dumps({"terms": [{"re": 1, "im": 0, "p": 1, "q": 0, "gamma": -1,
                                             "r_in": 0.0, "r_out": 0.5}]}))
        code, _, err = run_cli(["truncate", "--mu", str(mu), "--r1", "0.7", "--eps", "0.01"],
                               tmp_path, capsys)
        assert code == 0, err
        text = (tmp_path / "truncated_field.json").read_text()
        field = PiecewiseField.from_doc(json.loads(text))
        assert json_text(field.to_doc()) == text
        assert min(t.log_r_in for t in field.terms) == -math.inf

    @pytest.mark.parametrize("source", [["--mu", "{empty}"],
                                        ["--d", "3", "--rho0", "0.05", "--shells", "0"]])
    @pytest.mark.parametrize("r1, eps, message", [
        ("7", "0.01", "need support radius rho1 < r1 < 1"),
        ("0.7", "-3", "eps must be positive and finite")])
    def test_empty_field_checks_r1_and_eps(self, source, r1, eps, message, tmp_path, capsys):
        # a field with no terms has rho1 = 0 and nothing to cancel, but the same checks
        (tmp_path / "empty.json").write_text(json.dumps({"terms": []}))
        argv = ["truncate", *[a.format(empty=tmp_path / "empty.json") for a in source]]
        code, out, err = run_cli([*argv, "--r1", r1, "--eps", eps], tmp_path / "out", capsys)
        assert code == 2 and out == "" and not (tmp_path / "out").exists()
        assert json.loads(err) == {"error": "ValidationError", "message": message}
        code, out, _ = run_cli([*argv, "--r1", "0.7", "--eps", "0.01"], tmp_path, capsys)
        assert code == 0
        assert out == ('{"correction_bound": 0, "cutoff": 0, "rescaled": false, '
                       '"tail_bound": 0, "terms": 0}\n')
        assert (tmp_path / "truncated_field.json").read_text() == '{"terms": []}\n'

    def test_bound_spelled_two_ways_must_agree(self, tmp_path, capsys):
        # r_in 0.2 next to log_r_in -3 would mean either radius
        term = {"re": 1, "im": 0, "p": 0, "q": 2, "gamma": 0, "r_in": 0.2, "log_r_in": -3.0,
                "r_out": 0.5}
        (tmp_path / "mu.json").write_text(json.dumps({"terms": [term]}))
        code, out, err = run_cli(["truncate", "--mu", str(tmp_path / "mu.json"), "--r1", "0.7",
                                  "--eps", "0.01"], tmp_path / "out", capsys)
        assert code == 2 and out == "" and not (tmp_path / "out").exists()
        assert json.loads(err) == {"error": "ValidationError",
                                   "message": "r_in and log_r_in give two different radii"}
        # the field truncate writes spells both and reads back
        code, _, _ = run_cli(["truncate", "--d", "3", "--rho0", "0.05", "--shells", "1",
                              "--r1", "0.7", "--eps", "0.01"], tmp_path, capsys)
        written = tmp_path / "truncated_field.json"
        assert code == 0 and '"log_r_in"' in written.read_text()
        code, _, err = run_cli(["truncate", "--mu", str(written), "--r1", "0.9", "--eps", "0.01"],
                               tmp_path / "again", capsys)
        assert code == 0, err

    def test_smallest_eps(self, tmp_path, capsys):
        # eps (1 - q) underflows at the least subnormal; the cutoff is the smallest passing N
        code, out, err = run_cli(["truncate", "--d", "3", "--rho0", "0.05", "--shells", "1",
                                  "--r1", "0.7", "--eps", "5e-324"], tmp_path, capsys)
        assert code == 0, err
        q = build_shell(ShellParams(d=3, rho0=0.05, shells=1)).max_r_out() / 0.7
        n = json.loads(out)["cutoff"]
        assert q ** (n + 1) / (1.0 - q) <= 5e-324 < q ** n / (1.0 - q)


class TestDynamics:
    def test_coboundary(self, tmp_path, capsys):
        code, out, _ = run_cli(["dynamics", "coboundary", "--d", "2", "--n", "20"],
                               tmp_path, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["residual"] <= 1e-12
        assert doc["lhs"] == pytest.approx(1.0 / math.log(2), rel=1e-15)

    @pytest.mark.parametrize("d, n", [("2", "64"), ("1000", "7"), ("2", str(10**18))])
    def test_coboundary_past_the_frequency_capacity(self, d, n, tmp_path, capsys):
        # (d - 1) d^(n - 1) passes 2^63 - 1, where frequency bookkeeping exited 3
        code, out, _ = run_cli(["dynamics", "coboundary", "--d", d, "--n", n], tmp_path, capsys)
        doc = json.loads(out)
        assert code == 0 and doc["residual"] == 0.0 and doc["lhs"] == 1.0 / math.log(int(d))

    def test_nilpotent_map_is_charged_its_steps(self, tmp_path, capsys):
        # phi = z^16 under z^2 is charged 5 x 16^3, not n x 16^3, and stops after one step
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps({"coeffs": [[16, 1.0, 0.0]]}))
        code, out, _ = run_cli(["dynamics", "var", "--phi", str(phi_path), "--n", "3663"],
                               tmp_path, capsys)
        assert code == 0 and json.loads(out)["variance"] == json.loads(out)["limit"] == 1.0

    def test_var_with_potential_file(self, tmp_path, capsys):
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps({"coeffs": [[-1, 1.0, 0.0], [1, 1.0, 0.0]]}))
        code, out, _ = run_cli(["dynamics", "var", "--phi", str(phi_path), "--d", "2",
                                "--n", "10", "--samples", "4000", "--seed", "7",
                                "--method", "mc"], tmp_path, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 7
        assert doc["estimate"] > 0 and doc["stderr"] > 0

    def test_var_exact_is_the_default(self, tmp_path, capsys):
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps({"coeffs": [[-2, 0.3, -0.1], [1, 0.5, 0.2]]}))
        code, out, _ = run_cli(["dynamics", "var", "--blaschke", "0.3+0j", "--phi",
                                str(phi_path), "--n", "50"], tmp_path, capsys)
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc) == ["limit", "log_deriv_mean", "variance"]
        phi = CirclePotential.from_doc(json.loads(phi_path.read_text()))
        expect = birkhoff_variance(phi, BlaschkeMap((0.3,)), 50)
        assert (doc["variance"], doc["limit"]) == (expect.value, expect.limit)
        assert doc["log_deriv_mean"] == pytest.approx(math.log1p(math.sqrt(0.91)), rel=1e-15)
        manifest = json.loads((tmp_path / "dynamics_var_manifest.json").read_text())
        assert manifest["config"]["method"] == "exact"

    def test_var_monte_carlo_without_numpy(self, tmp_path, capsys, monkeypatch):
        # numpy is the optional extra "mc"; without it the route is an input error
        monkeypatch.setitem(sys.modules, "numpy", None)
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps({"coeffs": [[-1, 1.0, 0.0]]}))
        code, out, err = run_cli(["dynamics", "var", "--phi", str(phi_path), "--method", "mc",
                                  "--samples", "10"], tmp_path, capsys)
        assert code == 2 and out == ""
        assert "bvlab[mc]" in json.loads(err)["message"]

    def test_var_rejects_frequency_beyond_capacity(self, tmp_path, capsys):
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps({"coeffs": [[2**63, 1.0, 0.0]]}))
        code, out, err = run_cli(["dynamics", "var", "--phi", str(phi_path), "--method", "mc",
                                  "--samples", "10"], tmp_path, capsys)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "CapacityError"

    @pytest.mark.parametrize("argv, coeffs", [
        (["--d", "1e9", "--n", "1", "--samples", "2"], [[-1, 1.0, 0.0]]),
        (["--d", "2000", "--n", "50"],
         [[-4, 0.2, 0.0], [-1, 0.3, 0.1], [2, 0.0, -0.4], [4, 0.1, 0.3]]),
        (["--blaschke", "0j," * 1999 + "0.3+0j", "--n", "50"], [[3, 0.5, 0.5], [-16, 0.1, 0.0]]),
    ], ids=["huge_map_degree", "degree_2000", "origin_order_2000"])
    def test_exact_route_admits_any_origin_order(self, argv, coeffs, tmp_path, capsys):
        # origin order above M: z^order sends every monomial of phi past M at once, so
        # T = 0 and the variance and its limit are both sum |c|^2, before any T is built
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps({"coeffs": coeffs}))
        code, out, _ = run_cli(["dynamics", "var", "--phi", str(phi_path), *argv],
                               tmp_path, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["variance"] == doc["limit"]
        assert doc["variance"] == pytest.approx(
            math.fsum(re * re + im * im for _, re, im in coeffs), rel=1e-15)

    def test_var_exact_rejects_long_potential_naming_monte_carlo(self, tmp_path, capsys):
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps({"coeffs": [[m, 1.0, 0.0] for m in range(1, 3001)]}))
        code, out, err = run_cli(["dynamics", "var", "--phi", str(phi_path)], tmp_path, capsys)
        assert code == 2 and out == ""
        assert "--method mc" in json.loads(err)["message"]


_VARIANCE = ["variance", "shell", "--d", "3"]
_ORDER2 = ["order2", "--d", "4", "--shells", "3"]
_GRID = ["order2", "--grid-d", "3", "--shells", "3"]
_MEANS, _MEANS_SERIES = ["means-curve", "--d", "2", "--points", "4"], \
    ["means-curve", "--series", "{series}", "--points", "4"]
_TRUNCATE = ["truncate", "--d", "3", "--rho0", "0.05", "--shells", "1", "--r1", "0.7",
             "--eps", "0.01"]
_TRUNCATE_MU = ["truncate", "--mu", "{mu}", "--r1", "0.7", "--eps", "0.01"]
_VAR, _COBOUNDARY = ["dynamics", "var", "--phi", "{phi}", "--n", "5"], \
    ["dynamics", "coboundary", "--n", "5"]
# (key, value, a run where the key acts, a run where it cannot); a value True is a switch
SCOPED = [
    ("terms", 7, _VARIANCE, [*_VARIANCE, "--method", "mass"]),
    ("shells", 3, [*_VARIANCE, "--method", "mass"], _VARIANCE),
    ("r0", 2.0, [*_VARIANCE, "--method", "cesaro"], [*_VARIANCE, "--method", "mass"]),
    ("r0", 2.0, [*_VARIANCE, "--method", "block"], _VARIANCE),
    ("blocks", 3, [*_VARIANCE, "--method", "block"], [*_VARIANCE, "--method", "cesaro"]),
    ("d", 3, ["order2", "--shells", "3"], _GRID),
    ("rho0", 0.25, _ORDER2, _GRID),
    ("n0", 5, _ORDER2, _GRID),
    ("refine", True, _ORDER2, _GRID),
    ("grid_rho0", "optimal,0.25", _GRID, _ORDER2),
    ("grid_n0", "default,5", _GRID, _ORDER2),
    ("d", 3, ["means-curve", "--points", "4"], _MEANS_SERIES),
    ("rho0", 0.25, _MEANS, _MEANS_SERIES),
    ("n0", 5, _MEANS, _MEANS_SERIES),
    ("shells", 3, _MEANS, _MEANS_SERIES),
    ("d", 3, _TRUNCATE[:1] + _TRUNCATE[3:], _TRUNCATE_MU),
    ("rho0", 0.05, _TRUNCATE[:3] + _TRUNCATE[5:], _TRUNCATE_MU),
    ("n0", 2, _TRUNCATE, _TRUNCATE_MU),
    ("shells", 1, _TRUNCATE[:5] + _TRUNCATE[7:], _TRUNCATE_MU),
    ("blaschke", "0.3+0j", _VAR, _COBOUNDARY),
    ("phi", "{phi}", ["dynamics", "var", "--n", "5"], _COBOUNDARY),
    ("method", "mc", [*_VAR, "--samples", "64"], _COBOUNDARY),
    ("samples", 64, _VAR, _COBOUNDARY),
    ("samples", 64, [*_VAR, "--method", "mc"], _COBOUNDARY),
    ("d", 3, _COBOUNDARY, [*_VAR, "--blaschke", "0.3+0j"]),
    ("d", 3, _VAR, [*_VAR, "--blaschke", "0.3+0j,0.5j"]),
    ("d", 3, [*_VAR, "--blaschke", ""], [*_VAR, "--blaschke", "0j"]),
]


class TestScopes:
    """Each key acts where it is accepted: given where it cannot act, a key (a flag, or a
    config value that is not null) ends the run with exit 2 and a message naming its flag."""

    @staticmethod
    def _run(argv, key, value, source, tmp_path, capsys):
        docs = {"phi": {"coeffs": [[-1, 1.0, 0.0], [2, 0.5, 0.0]]},
                "series": {"coeffs": [[1, 1.0, 0.0], [3, 0.5, 0.0]], "max_freq": 8},
                "mu": build_shell(ShellParams(d=3, rho0=0.05, shells=1)).to_doc()}
        tmp_path.mkdir(exist_ok=True)
        paths = {name: tmp_path / f"{name}.json" for name in docs}
        for name, doc in docs.items():
            paths[name].write_text(json.dumps(doc))
        argv = [arg.format(**paths) for arg in argv]
        value = value.format(**paths) if isinstance(value, str) else value
        if source == "flag":
            argv += ["--" + key.replace("_", "-")] + ([] if value is True else [str(value)])
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
            argv += ["--config", str(tmp_path / "cfg.json")]
        return run_cli(argv, tmp_path / "out", capsys)

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key, value, acts, inert", SCOPED,
                             ids=[f"{case[0]}-{i}" for i, case in enumerate(SCOPED)])
    def test_key_acts_only_where_accepted(self, key, value, acts, inert, source, tmp_path,
                                          capsys):
        code, _, err = self._run(acts, key, value, source, tmp_path, capsys)
        assert code == 0, err
        code, out, err = self._run(inert, key, value, source, tmp_path / "inert", capsys)
        assert code == 2 and out == "" and not (tmp_path / "inert" / "out").exists()
        error = json.loads(err)
        assert error["error"] == "ValidationError"
        assert error["message"].split()[0] == "--" + key.replace("_", "-"), error
        # a null config value is not given: the run takes the default
        code, _, err = self._run(inert, key, None, "config", tmp_path / "null", capsys)
        assert code == 0, err

    def test_n_acts_in_both_subcommands(self, tmp_path, capsys):
        for argv in (_COBOUNDARY, _VAR, [*_VAR, "--method", "mc", "--samples", "64"]):
            code, _, err = self._run(argv, "n", 4, "config", tmp_path, capsys)
            assert code == 0, err

    def test_seed_acts_in_var_only(self, tmp_path, capsys):
        # both var routes take --seed; coboundary samples nothing, so it names the flag
        for argv in (_VAR, [*_VAR, "--method", "mc", "--samples", "64"]):
            code, _, err = self._run(argv, "seed", 3, "flag", tmp_path, capsys)
            assert code == 0, err
        code, out, err = self._run(_COBOUNDARY, "seed", 3, "flag", tmp_path, capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["message"].startswith("--seed does not act in this run")

    def test_refine_false_in_the_config_is_given(self, tmp_path, capsys):
        code, _, err = self._run(_GRID, "refine", False, "config", tmp_path, capsys)
        assert code == 2 and json.loads(err)["message"].startswith("--refine ")


class TestConfigAndErrors:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"d": 3, "rho0": "0.2", "method": "exact"}))
        code = main(["variance", "shell", "--d", "5", "--config", str(config),
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["d"] == 5.0   # flag wins over config

    def test_config_optimal_and_null_values(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"d": 20, "rho0": "optimal", "n0": None,
                                      "shells": 8, "method": "mass"}))
        code = main(["variance", "shell", "--d", "20", "--config", str(config),
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["rho0"] == pytest.approx(20.0 ** (20.0 / -19.0))
        assert doc["value"] == pytest.approx(0.8791, abs=2e-4)

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"d": 3, "bogus": 1}))
        code = main(["variance", "shell", "--d", "3", "--config", str(config),
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "bogus" in json.loads(err)["message"]

    def test_config_supplies_degree(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"d": 3}))
        code = main(["variance", "shell", "--config", str(config), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["d"] == 3.0

    def test_capacity_exit_code(self, tmp_path, capsys):
        code = main(["variance", "shell", "--d", "16", "--method", "mass",
                     "--shells", "40", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert json.loads(err)["error"] == "CapacityError"

    def test_refine_without_a_shell_to_drop(self, tmp_path, capsys):
        # a capacity of two shells: n_0 = 2^31 - 1 and n_1 = 2^62 - 2^31
        argv = ["order2", "--d", str(2**31), "--n0", str(2**31 - 1), "--out", str(tmp_path)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["shells"] == 2
        assert main([*argv, "--refine"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValidationError",
            "message": "refining at shell capacity needs at least three shells"}

    @pytest.mark.parametrize("via_config", [False, True])
    @pytest.mark.parametrize("argv", [
        ["variance", "shell", "--d", "3", "--method", "mass"],
        ["order2", "--d", "16", "--shells", "3"],
        ["means-curve", "--d", "2", "--points", "4"],
        ["truncate", "--d", "3", "--rho0", "0.05", "--shells", "1", "--r1", "0.7",
         "--eps", "0.01"]], ids=lambda argv: argv[0])
    def test_max_freq_is_not_a_key(self, argv, via_config, tmp_path, capsys):
        # the shell count sets the series cutoff: the flag and the config key are unknown
        assert main([*argv, "--out", str(tmp_path / "ok")]) == 0
        capsys.readouterr()
        if via_config:
            (tmp_path / "cfg.json").write_text(json.dumps({"max_freq": 100}))
            extra = ["--config", str(tmp_path / "cfg.json")]
        else:
            extra = ["--max-freq", "100"]
        code = main([*argv, *extra, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not (tmp_path / "out").exists()
        error = json.loads(captured.err)
        assert error["error"] == "ValidationError" and "max" in error["message"]

    def test_series_document_keeps_its_cutoff(self, tmp_path, capsys):
        # a series document still carries max_freq: 8 resolves none of the default rows
        (tmp_path / "series.json").write_text(json.dumps({"coeffs": [[2, 1.0, 0.0]],
                                                          "max_freq": 8}))
        code, _, _ = run_cli(["means-curve", "--series", str(tmp_path / "series.json")],
                             tmp_path, capsys)
        lines = (tmp_path / "means_curve.csv").read_text().strip().splitlines()
        assert code == 0 and all(line.endswith("false") for line in lines[1:])
        manifest = json.loads((tmp_path / "means_curve_manifest.json").read_text())
        assert list(manifest["resolved"]) == ["growth_slope"]

    @pytest.mark.parametrize("error", [c for c in vars(errors).values() if isinstance(c, type)
                                       and issubclass(c, errors.BVLabError)],
                             ids=lambda c: c.__name__)
    def test_each_error_class_exits_with_its_code(self, error, tmp_path, capsys, monkeypatch):
        # a handler that raises the class: one JSON object on stderr and the class's code
        def handler(opts, emit):
            raise error("raised by the handler")

        monkeypatch.setitem(cli._COMMANDS, "table2", (handler, *cli._COMMANDS["table2"][1:]))
        code = main(["table2", "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        expected = 3 if error.__name__ in ("CapacityError", "UnresolvedScaleError") else 2
        assert code == error.exit_code == expected
        assert captured.out == "" and not (tmp_path / "out").exists()
        assert json.loads(captured.err) == {"error": error.__name__,
                                            "message": "raised by the handler"}

    @pytest.mark.parametrize("rho0", ["1e-12", "1e-30"])
    def test_order2_at_a_small_radius(self, rho0, tmp_path, capsys):
        # some (1e-12) or all (1e-30) of the 36 coefficients of w lie below 1e-14; all are kept
        code, out, _ = run_cli(["order2", "--d", "2", "--rho0", rho0, "--shells", "8"],
                               tmp_path, capsys)
        doc = json.loads(out)
        assert code == 0 and "tail_mass" not in doc
        assert abs(doc["second_order"] - sigma2_second_order(2, float(rho0))) <= 1e-13

    @pytest.mark.parametrize("zeros", ["0.99999+0j,0+0.99999j", "0.999+0j,-0.999+0j"])
    def test_unresolved_log_derivative_exit_code(self, zeros, tmp_path, capsys):
        (tmp_path / "phi.json").write_text('{"coeffs": [[1, 1, 0]]}')
        code = main(["dynamics", "var", "--blaschke", zeros, "--phi", str(tmp_path / "phi.json"),
                     "--n", "5", "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and not (tmp_path / "out").exists()
        assert json.loads(captured.err)["error"] == "UnresolvedScaleError"

    @pytest.mark.parametrize("method, n, bounded", [("exact", 3000, True),
                                                    ("exact", 10**5, False), ("mc", 3000, False)])
    def test_unresolved_log_derivative_before_the_variance(self, method, n, bounded, tmp_path,
                                                           capsys, monkeypatch):
        # the mean is computed first, so the run exits 3 without a variance, also where
        # the work bound of the route would exit 2
        doc = {"coeffs": [[16, 1, 0], [-3, 0.5, 0]]}
        phi, b = CirclePotential.from_doc(doc), BlaschkeMap((0.999, -0.999))
        check = (partial(check_exact_work, n, phi, b) if method == "exact"
                 else partial(check_mc_work, n, 100000, 2, 2))
        if bounded:
            check()
        else:
            pytest.raises(ValidationError, check)

        def never(*args):
            raise AssertionError("the variance was computed")

        monkeypatch.setattr("bvlab.dynamics.birkhoff_variance", never)
        monkeypatch.setattr("bvlab.dynamics.birkhoff_variance_mc", never)
        (tmp_path / "phi.json").write_text(json.dumps(doc))
        code = main(["dynamics", "var", "--blaschke", "0.999+0j,-0.999+0j", "--phi",
                     str(tmp_path / "phi.json"), "--n", str(n), "--method", method,
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and not (tmp_path / "out").exists()
        assert json.loads(captured.err)["error"] == "UnresolvedScaleError"

    @pytest.mark.parametrize("argv, doc", [
        (["means-curve", "--points", "4", "--series"],
         {"coeffs": [[1, 2**63, 1.7976931348623157e308]], "max_freq": 8}),
        (["dynamics", "var", "--n", "8", "--samples", "64", "--method", "mc", "--phi"],
         {"coeffs": [[-2, 1.7976931348623157e308, 0.0], [1, 1.0, 0.0]]})])
    def test_document_coefficient_beyond_the_cap(self, argv, doc, tmp_path, capsys):
        # its square overflows the float range: a capacity error, not an OverflowError
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        code = main([*argv, str(tmp_path / "doc.json"), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and not (tmp_path / "out").exists()
        assert json.loads(captured.err)["error"] == "CapacityError"

    @pytest.mark.parametrize("argv, doc", [
        (["means-curve", "--series"], {"coeffs": [[1, 1, 0], [1, 2, 0]], "max_freq": 8}),
        (["dynamics", "var", "--d", "2", "--phi"],
         {"coeffs": [[16, 0.1, 0], [-3, 0.5, 0], ["16", 0.2, 0]]})])
    def test_repeated_frequency_in_a_document(self, argv, doc, tmp_path, capsys):
        # the document would mean either coefficient, so it is invalid, not read as the last
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        code = main([*argv, str(tmp_path / "doc.json"), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not (tmp_path / "out").exists()
        assert json.loads(captured.err) == {"error": "ValidationError",
                                            "message": f"frequency {doc['coeffs'][0][0]} "
                                                       "is listed twice"}

    def test_output_dir_under_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code = main(["table2", "--out", str(tmp_path / "file" / "out")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err)["error"] == "OSError"

    def test_validation_exit_code(self, tmp_path, capsys):
        code = main(["variance", "shell", "--d", "20", "--rho0", "1.5",
                     "--out", str(tmp_path)])
        assert code == 2
        capsys.readouterr()

    def test_out_decides_with_bvlab_out_set(self, tmp_path, capsys, monkeypatch):
        # no environment variable names the output directory
        monkeypatch.setenv("BVLAB_OUT", str(tmp_path / "env_dir"))
        code = main(["table2", "--out", str(tmp_path / "flag_dir")])
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "flag_dir" / "table2.csv").exists()
        assert not (tmp_path / "env_dir").exists()

    @pytest.mark.parametrize("via_config", [False, True])
    def test_output_dir_with_a_control_character(self, via_config, tmp_path, capsys):
        out_dir = str(tmp_path / "a\x01b")
        argv = ["table2", "--out", out_dir]
        if via_config:
            (tmp_path / "cfg.json").write_text(json.dumps({"output_dir": out_dir}))
            argv = ["table2", "--config", str(tmp_path / "cfg.json")]
        assert main(argv) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "a\x01b" / "table2_manifest.json").read_text())
        assert manifest["config"]["output_dir"] == out_dir

    @pytest.mark.parametrize("argv, config", [
        (["dynamics", "var", "--blaschke", "foo", "--phi", "{phi}"], None),
        (["variance", "shell", "--d", "3"], {"shells": "abc"}),
        (["variance", "shell", "--d", "1e300", "--method", "exact"], None),
        (["variance", "shell", "--d", "3", "--method", "cesaro", "--r0", "1e300"], None),
        (["table2"], b"\xc0\x80"),
        (["variance", "shell"], {"method": "mass"}),
        (["variance", "shell", "--d", "3", "--n0", "abc"], None),
        (["variance", "shell", "--d", "3", "--method", "fast"], None),
        (["table2", "--precision", "4"], None),
        (["dimension", "--k", "0.1"], None),
        (["dynamics", "var", "--phi", "{phi}", "--seed", "-1"], None),
        (["dynamics", "coboundary", "--d", "2", "--n", "20", "--seed", "-3"], None),
        (["table2", "--seed", "-3"], None),
        (["order2", "--d", "16"], {"refine": "false"}),
        (["order2", "--grid-d", "12,16", "--refine"], None),
        (["order2", "--grid-d", "12,16"], {"refine": True}),
        (["truncate", "--mu", "{big}", "--r1", "0.7", "--eps", "0.01"], None),
        (["means-curve", "--series", "{fractional}"], None),
        (["means-curve", "--d", "2", "--points", "1e15"], None),
        (["means-curve", "--d", "2", "--r-max", "inf"], None),
        (["variance", "shell", "--d", "3", "--method", "exact", "--terms", "-5"], None),
        (["variance", "shell", "--d", "3", "--method", "exact", "--terms", "1e15"], None),
        (["dynamics", "var", "--phi", "{phi}", "--samples", "1e15"], None),
        (["table2"], {"format": "xml"}),
        (["means-curve"], {"series": 1.5}),
        (["variance", "shell", "--d", "inf", "--rho0", "0.5", "--method", "exact"], None),
        (["variance", "shell", "--d", "1e400", "--rho0", "0.5", "--method", "exact"], None),
        (["variance", "shell", "--d", "3", "--method", "block", "--r0", "inf"], None),
        (["variance", "shell", "--d", "3", "--method", "block", "--r0", "1"], None),
        (["variance", "shell", "--d", "3", "--method", "block", "--blocks", "700"], None),
        (["truncate", "--d", "3", "--rho0", "0.05", "--shells", "1", "--r1", "0.7",
          "--eps", "inf"], None),
        (["dynamics", "var", "--blaschke", "0.3+0j", "--phi", "{phi}", "--n", "1e8",
          "--samples", "2"], None),
        (["dynamics", "var", "--phi", "{long}", "--method", "mc", "--n", "10000"], None),
        (["dynamics", "var", "--phi", "{long}"], None),
        (["dynamics", "var", "--blaschke", "nan", "--phi", "{phi}"], None),
        (["dynamics", "var", "--phi", "{nan_phi}"], None),
        (["dynamics", "var", "--phi", "{inf_phi}", "--method", "mc", "--samples", "100"], None),
        (["order2", "--grid-d", ",".join(["2"] * 20), "--grid-rho0", ",".join(["0.25"] * 20),
          "--grid-n0", ",".join(["default"] * 10), "--shells", "61"], None),
        (["optimize", "--d-min", "1e400", "--d-max", "1e401"], None),
        (["dimension", "--d", "1e400"], None),
        (["dimension", "--d", "2", "--t", "1e308"], None),
        (["means-curve", "--d", "2", "--r-max", "1"], None),
        (["table2"], {"output_dir": 5}),
        (["table2", "a\x01b"], None),
        (["table2"], {"output_dir": "a\u0000b"}),
        (["table2", "--out", "{tmp}/s\udcff"], None),
        (["table2", "--config", "{tmp}/missing.json"], None),
        (["dynamics", "var", "--phi", "{tmp}/missing.json"], None),
    ], ids=["blaschke_zero", "config_shells", "huge_degree", "huge_r0", "binary_config",
            "missing_degree", "bad_int_flag", "bad_choice",
            "unknown_flag", "missing_dimension_degree", "negative_seed",
            "negative_seed_coboundary", "negative_seed_table2", "string_switch",
            "grid_refine_flag", "grid_refine_config", "log_radius_past_floats",
            "fractional_frequency", "huge_points", "infinite_r_max", "no_terms",
            "huge_terms", "huge_samples", "config_choice", "config_path_number",
            "infinite_degree", "overflowing_degree", "infinite_r0", "unit_r0", "huge_blocks",
            "infinite_eps", "huge_orbit", "long_potential_mc",
            "long_potential_exact", "nan_zero", "nan_potential", "infinite_potential_mc",
            "huge_grid", "overflowing_optimize_range", "overflowing_dimension_degree",
            "overflowing_t", "unit_r_max", "config_output_dir_number",
            "control_character_argument", "nul_output_dir", "undecodable_out",
            "missing_config", "missing_phi"])
    def test_bad_input_gives_one_json_error(self, argv, config, tmp_path, capsys):
        docs = {"phi": {"coeffs": [[-1, 1.0, 0.0]]},
                "fractional": {"coeffs": [[2.7, 1.0, 0.0]], "max_freq": 8.9},
                "long": {"coeffs": [[m, 1.0, 0.0] for m in range(1, 3001)]},
                "nan_phi": {"coeffs": [[1, math.nan, 0.0]]},
                "inf_phi": {"coeffs": [[-1, 1.0, 0.0], [2, math.inf, 0.0]]},
                "big": {"terms": [{"re": 1, "im": 0, "p": 0, "q": 2, "gamma": 0, "r_in": 0.2,
                                   "log_r_out": 800}]}}
        for name, doc in docs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        argv = [arg.format(tmp=tmp_path, **{name: tmp_path / f"{name}.json" for name in docs})
                for arg in argv]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
            argv += ["--config", str(cfg)]
        if "--out" not in argv and not (isinstance(config, dict) and "output_dir" in config):
            argv += ["--out", str(tmp_path / "out")]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and not (tmp_path / "out").exists()  # no artifact is left
        error = json.loads(captured.err)
        assert error["error"] == "ValidationError" and error["message"]

    def test_config_rho0_and_method_honoured(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"d": 3, "rho0": "0.2", "method": "mass"}))
        code = main(["variance", "shell", "--config", str(config), "--out", str(tmp_path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["method"] == "block_mass" and doc["rho0"] == 0.2
        manifest = json.loads((tmp_path / "variance_manifest.json").read_text())
        assert manifest["config"]["rho0"] == "0.2" and manifest["config"]["method"] == "mass"
        # without the keys the manifest still echoes both defaults
        code = main(["variance", "shell", "--d", "3", "--out", str(tmp_path)])
        capsys.readouterr()
        manifest = json.loads((tmp_path / "variance_manifest.json").read_text())
        assert manifest["config"]["rho0"] == "optimal" and manifest["config"]["method"] == "exact"

    def test_config_switch_is_a_boolean(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        for refine in (False, None, True):
            config.write_text(json.dumps({"d": 4, "shells": 3, "refine": refine}))
            code = main(["order2", "--config", str(config), "--out", str(tmp_path)])
            doc = json.loads(capsys.readouterr().out)
            assert code == 0
            assert ("stability" in doc) is bool(refine)

    def test_config_supplies_required_keys(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"d": 20, "k": 0.1}))
        assert main(["dimension", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["d"] == 20
        config.write_text(json.dumps({"d": 3, "rho0": 0.05, "shells": 1, "r1": 0.7,
                                      "eps": 0.01}))
        assert main(["truncate", "--config", str(config), "--out", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_usage_errors_name_the_flag(self, tmp_path, capsys):
        assert main(["variance", "shell", "--d", "3", "--n0", "abc"]) == 2
        assert json.loads(capsys.readouterr().err)["message"] == \
            "n0 must be an integer, got 'abc'"
        assert main(["dimension", "--out", str(tmp_path)]) == 2
        assert "--d" in json.loads(capsys.readouterr().err)["message"]


def _readme_command_lines() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].replace("[", "").replace("]", "")
             for line in block.splitlines() if line.startswith("bvlab ")]
    return [shlex.split(line)[1:] for line in lines]


def test_readme_command_lines_parse(tmp_path, capsys, monkeypatch):
    # every documented line runs, and no key of it is rejected as one that cannot act
    monkeypatch.chdir(tmp_path)
    (tmp_path / "phi.json").write_text(json.dumps({"coeffs": [[-2, 0.3, -0.1], [1, 0.5, 0.2]]}))
    lines = _readme_command_lines()
    assert len(lines) >= 12
    for argv in lines:
        args = vars(build_parser().parse_args(argv))
        assert args["command"] == argv[0]
        flags = [arg[2:].replace("-", "_") for arg in argv if arg.startswith("--")]
        assert all(args[key] is not None for key in flags), argv
        code, _, err = run_cli(argv, tmp_path / "out", capsys)
        assert code == 0, (argv, err)


def test_parse_complex_caps_each_part():
    assert parse_complex(COEFF_CAP, -COEFF_CAP) == complex(COEFF_CAP, -COEFF_CAP)
    assert parse_complex("5e-324", 0) == 5e-324
    for re, im in ((math.nextafter(COEFF_CAP, math.inf), 0), (0, -1.7976931348623157e308)):
        with pytest.raises(CapacityError):
            parse_complex(re, im)


class TestParseInt:
    @pytest.mark.parametrize("value, expected", [
        ("12345678901234567", 12345678901234567),
        ("9223372036854775807", 2**63 - 1),
        (str(FREQ_CAP), FREQ_CAP),
        ("1e12", 10**12),
        ("1.5e3", 1500),
        ("-40", -40),
        (64, 64),
        (1e12, 10**12),
    ])
    def test_exact(self, value, expected):
        parsed = parse_int(value)
        assert parsed == expected and type(parsed) is int

    @pytest.mark.parametrize("value", ["1.5", "1e-3", "12a", "inf", "nan", "", 2.5,
                                       float("inf"), True, None, "1e5000"])
    def test_rejects_non_integers(self, value):
        with pytest.raises(ValidationError):
            parse_int(value)


_START_UP_PROBE = """
import sys
import bvlab.cli

HEAVY = ("numpy", "concurrent.futures.process")
assert not [m for m in HEAVY if m in sys.modules], "loaded by import bvlab.cli"
out = sys.argv[1]
with open(out + "/phi.json", "w") as fh:
    fh.write('{"coeffs": [[-2, 0.5, 0.0], [1, 1.0, 0.0]]}')
var = ["dynamics", "var", "--blaschke", "0.3+0j", "--phi", out + "/phi.json", "--n", "50"]
for argv in (["table2"], ["order2", "--d", "16", "--refine"],
             ["means-curve", "--d", "2", "--rho0", "0.25", "--shells", "30",
              "--r-min", "1e-8", "--r-max", "1e-3"], ["selfcheck"],
             ["variance", "shell", "--d", "4", "--method", "cesaro"], var,
             ["selfcheck", "--full"]):
    assert bvlab.cli.main([*argv, "--out", out]) == 0, argv
    loaded = [m for m in HEAVY if m in sys.modules]
    assert not loaded, (argv, loaded)
# the probe can see a lazy import: the Monte Carlo Birkhoff sums load numpy
assert bvlab.cli.main([*var, "--samples", "100", "--method", "mc", "--out", out]) == 0
assert "numpy" in sys.modules
"""


def test_closed_form_commands_keep_numpy_unloaded(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(bvlab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _START_UP_PROBE, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path, capsys):
        args = ["means-curve", "--d", "2", "--rho0", "0.25", "--shells", "20",
                "--points", "8"]
        code, _, _ = run_cli(args, tmp_path, capsys)
        assert code == 0
        first = {name: (tmp_path / name).read_bytes()
                 for name in ("means_curve.csv", "means_curve_manifest.json")}
        code, _, _ = run_cli(args, tmp_path, capsys)
        assert code == 0
        for name, blob in first.items():
            assert (tmp_path / name).read_bytes() == blob

    def test_seeded_sampling_byte_identical(self, tmp_path, capsys):
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps({"coeffs": [[-1, 1.0, 0.0]]}))
        outs = []
        for sub in ("a", "b"):
            code, out, _ = run_cli(["dynamics", "var", "--phi", str(phi_path),
                                    "--d", "2", "--n", "6", "--samples", "3000",
                                    "--seed", "11", "--method", "mc"], tmp_path / sub, capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert (tmp_path / "a" / "dynamics_var.json").read_bytes() == \
            (tmp_path / "b" / "dynamics_var.json").read_bytes()


class TestSelfcheck:
    def test_fast_battery_passes(self, tmp_path, capsys):
        code, out, _ = run_cli(["selfcheck"], tmp_path, capsys)
        assert code == 0
        assert "FAIL" not in out
        doc = json.loads((tmp_path / "selfcheck.json").read_text())
        assert doc["passed"] is True
