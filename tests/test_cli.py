"""Command-line surface: artifacts, manifests, determinism and exit codes."""
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import bvlab
from bvlab.annular import PiecewiseField
from bvlab.cli import build_parser, main
from bvlab.dynamics import BlaschkeMap, CirclePotential, birkhoff_variance
from bvlab.errors import FREQ_CAP, ValidationError, parse_int
from bvlab.manifest import json_text


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

    def test_mass_method(self, tmp_path, capsys):
        code, out, _ = run_cli(["variance", "shell", "--d", "3", "--rho0", "0.2",
                                "--method", "mass", "--shells", "12"], tmp_path, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "block_mass"
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
        assert diag[0] == "scale_index,running_estimate"
        assert len(diag) > 2

    def test_block_method_grows_to_the_fewest_resolving_shells(self, tmp_path, capsys):
        # 19 shells are the fewest whose last frequency 2^19 reaches 10/(1.5^(1/2^14) - 1);
        # 18 give 0.3612863906826521 and 17 raise UnresolvedScaleError
        code, out, _ = run_cli(["variance", "shell", "--d", "2", "--rho0", "0.25", "--method",
                                "block", "--blocks", "14", "--shells", "1"], tmp_path, capsys)
        assert code == 0
        assert json.loads(out)["value"] == 0.3612863906840157


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

    def test_range_at_degree_capacity(self, tmp_path, capsys):
        # 2^63 - 1 rounds up to 2^63 as a float; the search must stay at or below it
        d_min = 9223372036854775000
        code, out, _ = run_cli(["optimize", "--d-min", str(d_min),
                                "--d-max", "9223372036854775807"], tmp_path, capsys)
        assert code == 0
        assert json.loads(out)["best_integer"]["d"] == d_min


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

    def test_shell_count_clipped_to_frequency_cutoff(self, tmp_path, capsys):
        code, out, _ = run_cli(["order2", "--d", "16", "--rho0", "optimal",
                                "--shells", "24", "--max-freq", "1e12",
                                "--refine"], tmp_path, capsys)
        assert code == 0
        doc = json.loads(out)
        # shells whose product spectrum exceeds the cutoff are not materialized
        assert doc["shells"] == 9
        assert 0.891 <= doc["total"] <= 0.90


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

    def test_flags_unresolved_rows(self, tmp_path, capsys):
        code, _, _ = run_cli(["means-curve", "--d", "2", "--rho0", "0.25",
                              "--shells", "4", "--r-min", "1e-8",
                              "--points", "6"], tmp_path, capsys)
        assert code == 0
        lines = (tmp_path / "means_curve.csv").read_text().strip().splitlines()
        assert any(line.endswith("false") for line in lines[1:])


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


class TestDynamics:
    def test_coboundary(self, tmp_path, capsys):
        code, out, _ = run_cli(["dynamics", "coboundary", "--d", "2", "--n", "20"],
                               tmp_path, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["residual"] <= 1e-12
        assert doc["lhs"] == pytest.approx(1.0 / math.log(2), rel=1e-15)

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
        assert sorted(doc) == ["converged", "limit", "limit_tail", "log_deriv_mean",
                               "tolerance", "variance"]
        phi = CirclePotential.from_doc(json.loads(phi_path.read_text()))
        expect = birkhoff_variance(phi, BlaschkeMap((0.3,)), 50)
        assert (doc["variance"], doc["limit"]) == (expect.value, expect.limit)
        assert doc["converged"] is True
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

    def test_var_exact_rejects_long_potential_naming_monte_carlo(self, tmp_path, capsys):
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps({"coeffs": [[m, 1.0, 0.0] for m in range(1, 3001)]}))
        code, out, err = run_cli(["dynamics", "var", "--phi", str(phi_path)], tmp_path, capsys)
        assert code == 2 and out == ""
        assert "--method mc" in json.loads(err)["message"]


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
        # a capacity of two shells, at max_freq 480 and at its double
        code = main(["order2", "--d", "16", "--n0", "15", "--max-freq", "480", "--refine",
                     "--out", str(tmp_path)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"

    def test_validation_exit_code(self, tmp_path, capsys):
        code = main(["variance", "shell", "--d", "20", "--rho0", "1.5",
                     "--out", str(tmp_path)])
        assert code == 2
        capsys.readouterr()

    def test_output_env_override(self, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "env_dir"
        monkeypatch.setenv("BVLAB_OUT", str(env_dir))
        code = main(["table2", "--out", str(tmp_path / "flag_dir")])
        capsys.readouterr()
        assert code == 0
        assert (env_dir / "table2.csv").exists()
        assert not (tmp_path / "flag_dir").exists()

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
        (["means-curve", "--series", "{series}"], None),
        (["variance", "shell"], {"method": "mass"}),
        (["variance", "shell", "--d", "3", "--n0", "abc"], None),
        (["variance", "shell", "--d", "3", "--method", "fast"], None),
        (["table2", "--precision", "4"], None),
        (["dimension", "--k", "0.1"], None),
        (["dynamics", "var", "--phi", "{phi}", "--seed", "-1"], None),
        (["order2", "--d", "16"], {"refine": "false"}),
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
        (["dynamics", "var", "--phi", "{phi}", "--n", "1e8", "--samples", "2"], None),
        (["dynamics", "var", "--phi", "{phi}", "--d", "1e9", "--n", "1", "--samples", "2"],
         None),
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
    ], ids=["blaschke_zero", "config_shells", "huge_degree", "huge_r0", "binary_config",
            "self_similarity", "missing_degree", "bad_int_flag", "bad_choice",
            "unknown_flag", "missing_dimension_degree", "negative_seed", "string_switch",
            "fractional_frequency", "huge_points", "infinite_r_max", "no_terms",
            "huge_terms", "huge_samples", "config_choice", "config_path_number",
            "infinite_degree", "overflowing_degree", "infinite_r0", "unit_r0", "huge_blocks",
            "infinite_eps", "huge_orbit", "huge_map_degree", "long_potential_mc",
            "long_potential_exact", "nan_zero", "nan_potential", "infinite_potential_mc",
            "huge_grid", "overflowing_optimize_range", "overflowing_dimension_degree",
            "overflowing_t", "unit_r_max", "config_output_dir_number",
            "control_character_argument", "nul_output_dir", "undecodable_out"])
    def test_bad_input_gives_one_json_error(self, argv, config, tmp_path, capsys):
        docs = {"phi": {"coeffs": [[-1, 1.0, 0.0]]},
                "series": {"coeffs": [[2, 1.0, 0.0]], "max_freq": 8, "self_similarity": "x"},
                "fractional": {"coeffs": [[2.7, 1.0, 0.0]], "max_freq": 8.9},
                "long": {"coeffs": [[m, 1.0, 0.0] for m in range(1, 3001)]},
                "nan_phi": {"coeffs": [[1, math.nan, 0.0]]},
                "inf_phi": {"coeffs": [[-1, 1.0, 0.0], [2, math.inf, 0.0]]}}
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


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    assert len(lines) >= 12
    for argv in lines:
        args = vars(build_parser().parse_args(argv))
        assert args["command"] == argv[0]
        flags = [arg[2:].replace("-", "_") for arg in argv if arg.startswith("--")]
        assert all(args[key] is not None for key in flags), argv


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
    env = {k: v for k, v in os.environ.items() if k != "BVLAB_OUT"}
    env["PYTHONPATH"] = str(Path(bvlab.__file__).resolve().parents[1])
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
