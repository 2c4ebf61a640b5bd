"""The package surface: which module bodies a command runs, the one import
path of each name, the scripts that run them, the bindings the benchmark's
tracer wraps, and no unused imports in the package or the scripts."""
import ast
import importlib
import importlib.util
import json
import os
import re
import runpy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import bvlab

SRC = Path(bvlab.__file__).resolve().parents[1]
SCRIPTS = sorted((SRC.parent / "scripts").glob("*.py"))

# Each module with the names it defines; a name is imported from its module only.
HOMES = {
    "annular": "MonomialTerm PiecewiseField beurling beurling_exterior bergman_coefficients "
               "cauchy_exterior cauchy_full derivative_z multiply pullback_power",
    "constructions": "LacunaryField ShellParams build_shell lacunary_vector_field "
                     "shell_beurling_series shell_cauchy_identity_check shell_cauchy_series "
                     "truncate_to_polynomial",
    "dynamics": "BirkhoffVariance BlaschkeMap CirclePotential birkhoff_variance "
                "birkhoff_variance_mc coboundary_check log_deriv_mean",
    "errors": "BVLabError CapacityError DivergentMomentError UnresolvedScaleError "
              "UnsupportedTermError ValidationError parse_coeffs",
    "formulas": "best_integer_degree best_real_degree distortion_constant julia_dim_k "
                "julia_dim_t optimal_rho0 pointwise_sigma_bound sigma2_optimal "
                "sigma2_second_order sigma2_shell "
                "smirnov_dim_k smirnov_dim_t table2",
    "laurent": "ExteriorLaurent SelfSimilarity cauchy_coefficients complex_fsum "
               "derivative_coefficients radial_moment radial_power term_order",
    "order2": "Order2Report order2_bound order2_field parameter_search",
    "records": "record",
    "variance": "VarianceEstimate block_masses cesaro_sigma4 curve_slope growth_slope "
                "integral_means limit_estimate means_curve variance_block "
                "variance_block_mass variance_lacunary",
}
HOME = {name: module for module, names in HOMES.items() for name in names.split()}

# Runs each command line of argv[2] in turn and records, after the package
# import and after each command, the submodules whose body has run and whether
# dataclasses and numpy are loaded.  The type test does not trigger a lazy load;
# a loaded module is a plain module again.
_LOAD_PROBE = """
import json
import sys
import types


def ran():
    return sorted(name[len("bvlab."):] for name, module in list(sys.modules.items())
                  if name.startswith("bvlab.") and type(module) is types.ModuleType)


import bvlab

steps = {"import bvlab": ran()}
loaded = {name: {"import bvlab": name in sys.modules} for name in ("dataclasses", "numpy")}
import bvlab.cli

out = sys.argv[1]
for argv in json.loads(sys.argv[2]):
    assert bvlab.cli.main([*argv, "--out", out]) == 0, argv
    steps[" ".join(argv)] = ran()
    for name, seen in loaded.items():
        seen[" ".join(argv)] = name in sys.modules
with open(out + "/loaded_modules.json", "w", encoding="utf-8") as fh:
    json.dump({"modules": steps, **loaded}, fh)
"""

CLOSED_FORM = ["cli", "errors", "formulas", "manifest"]
SHELL_SERIES = sorted([*CLOSED_FORM, "constructions", "laurent", "records", "variance"])
EVERY_MODULE = sorted(["annular", "cli", "constructions", "dynamics", "errors", "formulas",
                       "laurent", "manifest", "order2", "records", "selfcheck", "variance"])


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _probe(out: Path, steps: list[list[str]]) -> dict:
    """The modules, dataclasses and numpy loaded after each step, in one interpreter."""
    proc = subprocess.run([sys.executable, "-c", _LOAD_PROBE, str(out), json.dumps(steps)],
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads((out / "loaded_modules.json").read_text(encoding="utf-8"))
    # dataclasses pulls in inspect, about 9 ms per process, and only --method mc needs
    # numpy; no step here needs either
    assert loaded["dataclasses"] == dict.fromkeys(loaded["modules"], False)
    assert loaded["numpy"] == dict.fromkeys(loaded["modules"], False)
    return loaded["modules"]


def test_each_command_runs_only_the_modules_it_uses(tmp_path):
    steps = [["table2"], ["optimize"], ["dimension", "--d", "20", "--k", "0.1"],
             ["dynamics", "coboundary", "--d", "2", "--n", "20"], ["selfcheck", "--full"]]
    assert _probe(tmp_path, steps) == {
        "import bvlab": [],
        "table2": CLOSED_FORM,
        "optimize": CLOSED_FORM,
        "dimension --d 20 --k 0.1": CLOSED_FORM,
        "dynamics coboundary --d 2 --n 20": sorted([*CLOSED_FORM, "dynamics", "records"]),
        "selfcheck --full": EVERY_MODULE,
    }
    # the shell series are built from the shell moments, so no variance method and no
    # means curve of the shell field compiles the term algebra (annular), and selfcheck
    # compiles order2 for --full only; each command in a fresh interpreter of its own
    fresh = [["variance", "shell", "--d", "20", "--rho0", "optimal", "--method", "exact"],
             ["variance", "shell", "--d", "2", "--rho0", "0.25", "--method", "block",
              "--blocks", "14", "--shells", "22"],
             ["variance", "shell", "--d", "16", "--rho0", "optimal", "--method", "mass",
              "--shells", "12"],
             ["variance", "shell", "--d", "20", "--rho0", "optimal", "--method", "cesaro",
              "--shells", "12"],
             ["means-curve", "--d", "2", "--rho0", "0.25", "--shells", "30"]]
    for argv in fresh:
        assert _probe(tmp_path, [argv]) == {"import bvlab": [], " ".join(argv): SHELL_SERIES}
    assert _probe(tmp_path, [["selfcheck"]]) == {
        "import bvlab": [],
        "selfcheck": [name for name in EVERY_MODULE if name != "order2"],
    }
    # the exact route of dynamics var, in a fresh interpreter of its own
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"coeffs": [[-2, 0.3, -0.1], [1, 0.5, 0.2]]}), encoding="utf-8")
    var = ["dynamics", "var", "--blaschke", "0.3+0j", "--phi", str(phi)]
    assert _probe(tmp_path, [var]) == {
        "import bvlab": [],
        " ".join(var): ["cli", "dynamics", "errors", "manifest", "records"],
    }


def test_names_are_the_served_names():
    """The package serves its submodules, and none of the names they define."""
    assert not set(HOME) & set(vars(bvlab))
    assert not hasattr(bvlab, "__getattr__")


@pytest.mark.parametrize("name", HOME)
def test_name_resolves_to_its_home_object(name):
    module = sys.modules[f"bvlab.{HOME[name]}"]
    assert getattr(module, name).__module__ == module.__name__
    with pytest.raises(ImportError):
        exec(f"from bvlab import {name}", {})


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        bvlab.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from bvlab import no_such_name", {})
    assert not hasattr(bvlab, "FREQ_CAP")  # served by bvlab.errors only


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path, monkeypatch, capsys):
    """Each script's main runs to the end with its default arguments."""
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_lower_bounds_script_prints_the_paper_values(monkeypatch, capsys):
    """The headline lines: the integer and real degree optima and the degree-16 total."""
    path = SRC.parent / "scripts" / "reproduce_lower_bounds.py"
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert "best integer degree: 20  value 0.879131" in lines
    assert "best real degree:    19.7443  value 0.879142" in lines
    assert any(line.startswith("  total        0.893933  (") for line in lines)


def test_benchmark_tracer_finds_every_binding(tmp_path):
    """perfbench/tracer.py wraps functions by name: each must exist, and each size hook
    must read the arguments and result it is given."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", SRC.parent / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    modules = {name: importlib.import_module(f"bvlab.{name}") for name in EVERY_MODULE}
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        annular, constructions = modules["annular"], modules["constructions"]
        block = annular.PiecewiseField.of(annular.MonomialTerm.make(1.0, 2, 0, -2.0, 0.5, 0.8))
        annular.multiply(block, block)
        params = constructions.ShellParams(d=16, rho0=0.3, n0=15, shells=3)
        modules["order2"].order2_bound(params)
        modules["variance"].cesaro_sigma4(constructions.shell_cauchy_series(params), 1.5, 16)
        modules["manifest"].write_text(tmp_path / "out.txt", "text")
    finally:
        tracer.uninstall()
    doc = tracer.dump()
    assert doc["missing"] == [] and doc["hook_errors"] == {}
    assert set(tracer_module.HOOKS) <= {name for name, *_ in doc["spans"]}


def test_benchmark_self_test():
    """perfbench's correctness checks pass on the real results and fail on perturbed ones."""
    script = SRC.parent / "perfbench" / "test_checks.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          cwd=SRC.parent, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads (an attribute's base counts as read)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_no_unused_imports():
    # perfbench is left out: its bare `import bvlab` is how it loads the package
    paths = [*sorted((SRC / "bvlab").glob("*.py")), *SCRIPTS,
             *sorted(Path(__file__).resolve().parent.glob("*.py"))]
    unused = {path.name: _unused_imports(path) for path in paths}
    assert {name: names for name, names in unused.items() if names} == {}


def test_no_dataclasses():
    """Records are namedtuples: no module or script imports dataclasses or writes
    round a frozen record."""
    for path in [*sorted((SRC / "bvlab").glob("*.py")), *SCRIPTS]:
        text = path.read_text(encoding="utf-8")
        imported = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert "dataclasses" not in imported and "object.__setattr__" not in text, path.name


def _public_names(path: Path) -> list[str]:
    """The public top-level functions and classes of a module, and their public methods."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
    return [name for name in names if not name.startswith("_")]


def test_every_library_name_is_reached():
    """Each public name in the package is named by a command, selfcheck, a script or
    perfbench: somewhere in the package, the scripts or perfbench besides its definition."""
    texts = [path.read_text(encoding="utf-8") for path in
             [*sorted((SRC / "bvlab").glob("*.py")), *SCRIPTS,
              *sorted((SRC.parent / "perfbench").glob("*.py"))]]
    corpus = "\n".join(texts)
    # one pass each: every word, and every name after def or class
    uses = Counter(re.findall(r"\w+", corpus))
    definitions = Counter(re.findall(r"\b(?:def|class) (\w+)", corpus))
    unreached = [f"{path.stem}.{name}" for path in sorted((SRC / "bvlab").glob("*.py"))
                 for name in dict.fromkeys(_public_names(path))
                 if uses[name] <= definitions[name]]
    assert unreached == []
