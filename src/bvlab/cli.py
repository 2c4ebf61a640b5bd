"""Command-line front end: computations in, CSV/JSON artifacts + manifest out.

Exit codes: 0 success, 1 a failing selfcheck, 2 validation error, 3 capacity
or unresolved-scale error (each error class carries its code).  Errors are
reported as one JSON object on stderr.  Identical configurations (including
the seed) produce byte-identical artifacts; nothing time-dependent is written.
"""
from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from functools import partial
from pathlib import Path

from . import (__version__, annular, constructions, dynamics, formulas, laurent, order2,
               selfcheck, variance)
from .errors import FREQ_CAP, BVLabError, ValidationError, parse_float, parse_int
from .manifest import csv_text, json_text, write_text


def _flag(key: str) -> str:
    return "--out" if key == "output_dir" else "--" + key.replace("_", "-")


def _need(opts: dict, key: str):
    """The value of a key that this run cannot do without."""
    if opts[key] is None:
        raise ValidationError(f"{key} is required: pass {_flag(key)} or set it in the config")
    return opts[key]


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc


def _load_config(path: str | None, keys: dict) -> dict:
    if path is None:
        return {}
    doc = _read_json(path, "config")
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object")
    unknown = set(doc) - set(keys)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _emit(manifest: dict, out_dir: Path, name: str, payload, resolved: dict | None = None,
          files: dict | None = None, ext: str = "json") -> None:
    """Write the manifest, the side files and the payload, and echo the payload.

    The manifest gains ``resolved``, the values the run chose, when there are
    any.  Every text is serialized before the first file is written, so a value
    that cannot be written (a non-finite float) leaves no artifact behind.
    """
    text = payload if isinstance(payload, str) else json_text(payload)
    if resolved:
        manifest = {**manifest, "resolved": resolved}
    texts = {f"{name}_manifest.json": json_text(manifest),
             **(files or {}), f"{name}.{ext}": text}
    for file_name, file_text in texts.items():
        write_text(out_dir / file_name, file_text)
    sys.stdout.write(text)


def _shell_params(opts: dict) -> constructions.ShellParams:
    return constructions.ShellParams(d=_need(opts, "d"), rho0=opts["rho0"], n0=opts["n0"],
                                     shells=opts["shells"])


def _series_resolved(opts: dict, g) -> dict:
    """The first frequency of shell series g if the run took the default, and its cutoff."""
    n0 = {} if opts["n0"] is not None else {"n0": g.self_similarity.first_index}
    return {**n0, "series_cutoff": g.max_freq}


# ---------------------------------------------------------------------------
# subcommands: each takes the typed options and an emitter bound to the run
# ---------------------------------------------------------------------------

def cmd_table2(opts: dict, emit) -> int:
    rows = formulas.table2()
    if opts["format"] == "csv":
        emit("table2", csv_text([*rows[0], "lambda_lemma_display", "improved_display"], [
            [*r.values(), formulas.truncate_display(r["lambda_lemma"]),
             formulas.truncate_display(r["improved"])]
            for r in rows]), ext="csv")
    else:
        emit("table2", {"rows": rows})
    return 0


def cmd_variance(opts: dict, emit) -> int:
    params = _shell_params(opts)
    method, r0, blocks = opts["method"], opts["r0"], opts["blocks"]
    resolved = {"rho0": params.rho0}
    if method == "exact":
        est = variance.variance_lacunary(constructions.shell_moduli(params, opts["terms"]),
                                         params.d)
    else:
        if method == "block":  # the fewest shells, at least --shells, that reach the finest scale
            need = math.ceil(variance.block_need(r0, params.d, blocks))
            grown = params.shells_below(need - 1) + 1  # the last frequency n_(J-1) >= need
            if grown > params.shells_below(FREQ_CAP):
                raise ValidationError(
                    f"{blocks} blocks of degree {params.d} need a shell frequency from {need} "
                    f"to 2^63 - 1, and those of first frequency {params.n0} have none")
            resolved["shells"] = max(params.shells, grown)
            params = params._replace(shells=resolved["shells"])
        g = (constructions.shell_cauchy_series if method == "cesaro"
             else constructions.shell_beurling_series)(params)
        resolved.update(_series_resolved(opts, g))
        est = (variance.variance_block(g, params.d, r0, blocks) if method == "block"
               else variance.variance_block_mass(g) if method == "mass"
               else variance.cesaro_sigma4(g, r0, params.d))
    payload = est.to_doc()
    payload["d"] = params.d
    payload["rho0"] = params.rho0
    payload["closed_form"] = formulas.sigma2_shell(params.d, params.rho0)
    diagnostics = csv_text(["scale_index", "scale_value"], [[i, v] for i, v in est.diagnostics])
    emit("variance", payload, resolved, files={"variance_diagnostics.csv": diagnostics})
    return 0


def cmd_optimize(opts: dict, emit) -> int:
    best_int = formulas.best_integer_degree(opts["d_min"], opts["d_max"])
    best_real = formulas.best_real_degree(opts["d_min"], opts["d_max"])
    emit("optimize", {
        "best_integer": {"d": best_int[0], "value": best_int[1],
                         "optimal_rho0": formulas.optimal_rho0(best_int[0])},
        "best_real": {"d": best_real[0], "value": best_real[1]},
    })
    return 0


def cmd_order2(opts: dict, emit) -> int:
    if opts["grid_d"]:
        grid = order2.shell_grid(opts["grid_d"], opts["grid_rho0"], opts["grid_n0"],
                                 6 if opts["shells"] is None else opts["shells"])
        best, board = order2.parameter_search(grid)
        header = ["d", "rho0", "n0", "shells", "first_order", "second_order", "total"]
        rows = [[doc[key] for key in header] for doc in (r.to_doc() for r in board)]
        emit("order2", best.to_doc(), files={"order2_leaderboard.csv": csv_text(header, rows)})
        return 0
    if opts["shells"] is None:  # half the capacity, leaving room for the refinement doubling
        capacity = _shell_params({**opts, "shells": 0}).capacity
        opts = {**opts, "shells": max(2, min(10, capacity // 2))}
    params = _shell_params(opts)
    report = order2.order2_bound(params, refine=opts["refine"])
    emit("order2", report.to_doc(), {"rho0": params.rho0})
    return 0


def cmd_dimension(opts: dict, emit) -> int:
    d, t, k = _need(opts, "d"), opts["t"], opts["k"]
    payload: dict = {"d": d, "remainder_order": "cubic in the distortion",
                     "c_d": formulas.distortion_constant(d)}
    # the Smirnov bounds check |t| < 1 and 0 <= k < 1 before the expansions run
    if t is not None:
        payload.update(t=t, smirnov_t=formulas.smirnov_dim_t(abs(t)),
                       dimension_t=formulas.julia_dim_t(d, t))
    if k is not None:
        payload.update(k=k, smirnov_k=formulas.smirnov_dim_k(k),
                       dimension_k=formulas.julia_dim_k(d, k))
    if t is None and k is None:
        payload["quadratic_coefficient_k"] = formulas.sigma2_optimal(d)
    emit("dimension", payload)
    return 0


def cmd_means_curve(opts: dict, emit) -> int:
    if opts["series"]:
        g = laurent.ExteriorLaurent.from_doc(_read_json(opts["series"], "series"))
        resolved = {}
    else:
        g = constructions.shell_beurling_series(_shell_params(opts))
        resolved = _series_resolved(opts, g)
    curve = variance.means_curve(g, opts["r_min"], opts["r_max"], opts["points"])
    rows = [[1.0 + x, means, means / math.log(1.0 / x),
             "true" if g.max_freq >= variance.resolving_freq(x) else "false"]
            for x, means in curve]
    emit("means_curve", csv_text(["R", "integral_means", "ratio", "resolved"], rows),
         {**resolved, "growth_slope": variance.curve_slope(curve)}, ext="csv")
    return 0


def cmd_truncate(opts: dict, emit) -> int:
    if opts["mu"]:
        mu = annular.PiecewiseField.from_doc(_read_json(opts["mu"], "field"))
    else:
        mu = constructions.build_shell(_shell_params(opts))
    result = constructions.truncate_to_polynomial(mu, _need(opts, "r1"), _need(opts, "eps"),
                                                  rescale=opts["rescale"])
    payload = {
        "cutoff": result.cutoff,
        "correction_bound": result.correction_bound,
        "tail_bound": result.tail_bound,
        "rescaled": result.rescaled,
        "terms": len(result.field.terms),
    }
    emit("truncate", payload, files={"truncated_field.json": json_text(result.field.to_doc())})
    return 0


def cmd_dynamics(opts: dict, emit) -> int:
    if opts["subcommand"] == "coboundary":
        n = 20 if opts["n"] is None else opts["n"]
        emit("dynamics_coboundary", dynamics.coboundary_check(opts["d"], n)._asdict())
        return 0
    n, samples, seed = 50 if opts["n"] is None else opts["n"], opts["samples"], opts["seed"]
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    if not 2 <= samples <= dynamics.MAX_SAMPLES:  # checked on every route
        raise ValidationError(f"need 2 <= samples <= {dynamics.MAX_SAMPLES}")
    phi = dynamics.CirclePotential.from_doc(_read_json(_need(opts, "phi"), "potential"))
    zeros = opts["blaschke"]
    b = dynamics.BlaschkeMap(zeros) if zeros else dynamics.BlaschkeMap.power(opts["d"])
    payload = {"log_deriv_mean": dynamics.log_deriv_mean(b)}  # unresolved: exit 3 before the work
    # both routes bound their work before they build a series or sample an orbit
    if opts["method"] == "mc":
        est, err = dynamics.birkhoff_variance_mc(phi, b, n, samples, seed)
        payload.update(estimate=est, stderr=err, seed=seed)
    else:
        payload.update(dynamics.birkhoff_variance(phi, b, n).to_doc())
    emit("dynamics_var", payload)
    return 0


def cmd_selfcheck(opts: dict, emit) -> int:
    results = selfcheck.run_selfcheck(full=opts["full"])
    sys.stdout.write("".join(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n"
                             for r in results))
    ok = all(r.passed for r in results)
    emit("selfcheck", {"passed": ok, "checks": [r._asdict() for r in results]})
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing: one table declares every key of every command
# ---------------------------------------------------------------------------

def _text(value, key: str) -> str:
    """A string that can name a file: no NUL, and no lone surrogate, which UTF-8
    cannot encode (argparse hands on undecodable argv bytes as surrogates)."""
    if not isinstance(value, str) or any(c == "\0" or "\ud800" <= c <= "\udfff" for c in value):
        raise ValidationError(f"{key} must be a UTF-8 string without NUL, got {value!r}")
    return value


def _switch(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{key} must be true, false or null, got {value!r}")
    return value


def _choice(choices: tuple, value, key: str):
    if value not in choices:
        raise ValidationError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _rho0(value, key: str):
    return value if value == "optimal" else parse_float(value, key)


def _listed(read):
    """Reader of a comma-separated list whose entries ``read`` reads."""
    return lambda value, key: [read(x, key) for x in str(value).split(",")]


def _zeros(value, key: str) -> tuple[complex, ...]:
    try:
        zeros = tuple(complex(part) for part in str(value).split(",") if part)
        if all(map(cmath.isfinite, zeros)):
            return zeros
    except ValueError:
        pass
    raise ValidationError(f"{key} zeros must be finite complex numbers such as 0.3+0j, "
                          f"got {value!r}")


# Each key maps to (kind, default).  A kind is "int" or "float" (argparse reads
# the flag), "text", "switch", a tuple of choices, or a reader for a flag that
# argparse keeps as text.  "kind" and "subcommand" are positional; every other
# key is a --flag and may also come from the config file.  _read coerces the
# merged values once, before any handler runs; a missing or null value takes
# the default (None: the handler needs the key or does without it).  The
# manifest echoes flags as parsed and config values as written.
_READERS = {"int": parse_int, "float": parse_float, "text": _text, "switch": _switch}
# d is a reader, not "int", so that the manifest echoes --d as its text
_SHELL = {"d": (parse_int, None), "rho0": (_rho0, "optimal"), "n0": ("int", None),
          "shells": ("int", 10)}
_GLOBAL = {"output_dir": ("text", None)}
_ECHOED = ("rho0", "method")  # defaults echoed in manifests, below the config
_POSITIONAL = ("kind", "subcommand")
_HELP = {"config": "JSON config file; flags override its values",
         "output_dir": "output directory (default ./bvlab_out)",
         "seed": "random seed for sampled paths",
         "series": "JSON Laurent series file instead of shell parameters",
         "mu": "JSON field file; otherwise shell parameters are used",
         "blaschke": "comma-separated complex zeros, e.g. 0.3+0j",
         "phi": "JSON potential file",
         "samples": "Monte Carlo orbits for --method mc (range-checked on both var methods)"}
_COMMANDS = {
    "table2": (cmd_table2, "comparison table of quadratic dimension coefficients",
               {"format": (("csv", "json"), "csv")}),
    "variance": (cmd_variance, "shell-coefficient variance by one of four methods",
                 {"kind": (("shell",), None), **_SHELL,
                  "method": (("exact", "block", "mass", "cesaro"), "exact"),
                  "terms": ("int", 4000), "r0": ("float", 1.5), "blocks": ("int", 8)}),
    "optimize": (cmd_optimize, "best integer and real degree",
                 {"d_min": ("int", 2), "d_max": ("int", 64)}),
    "order2": (cmd_order2, "second-order variance bound / parameter search",
               {**_SHELL, "shells": ("int", None), "refine": ("switch", False),
                "grid_d": (_listed(parse_int), None),
                "grid_rho0": (_listed(_rho0), ["optimal"]),
                "grid_n0": (_listed(lambda x, key: None if x == "default"
                                    else parse_int(x, key)), [None])}),
    "dimension": (cmd_dimension, "quadratic Julia-set dimension formulas",
                  {"d": ("int", None), "t": ("float", None), "k": ("float", None)}),
    "means-curve": (cmd_means_curve, "(R, I(R), ratio) table for a series",
                    {**_SHELL, "series": ("text", None), "r_min": ("float", 1e-6),
                     "r_max": ("float", 0.5), "points": ("int", 40)}),
    "truncate": (cmd_truncate, "cancel high Cauchy frequencies of a coefficient",
                 {"mu": ("text", None), **_SHELL, "r1": ("float", None),
                  "eps": ("float", None), "rescale": ("switch", False)}),
    "dynamics": (cmd_dynamics, "dynamical variance checks on the circle",
                 {"subcommand": (("coboundary", "var"), None), "d": ("int", 2),
                  "n": ("int", None), "blaschke": (_zeros, ()), "phi": ("text", None),
                  "method": (("exact", "mc"), "exact"), "samples": ("int", 100000),
                  "seed": ("int", 0)}),
    "selfcheck": (cmd_selfcheck, "run the built-in oracle comparisons",
                  {"full": ("switch", False)}),
}
# Where a key acts when not in every run of its command: a test on the coerced options and
# its wording.  A key given where it cannot act (a flag, or a config value not null) exits 2.
_IN_VAR = (lambda o: o["subcommand"] == "var", "in dynamics var")
_SCOPES = {
    "variance": {key: (lambda o, ms=ms: o["method"] in ms, f"with --method {' or '.join(ms)}")
                 for key, ms in (("terms", ("exact",)), ("shells", ("block", "mass", "cesaro")),
                                 ("r0", ("block", "cesaro")), ("blocks", ("block",)))},
    "order2": {**dict.fromkeys(("d", "rho0", "n0", "refine"),
                               (lambda o: not o["grid_d"], "without --grid-d")),
               **dict.fromkeys(("grid_rho0", "grid_n0"),
                               (lambda o: bool(o["grid_d"]), "with --grid-d"))},
    "means-curve": dict.fromkeys(_SHELL, (lambda o: not o["series"], "without --series")),
    "truncate": dict.fromkeys(_SHELL, (lambda o: not o["mu"], "without --mu")),
    "dynamics": {**dict.fromkeys(("blaschke", "phi", "method", "samples", "seed"), _IN_VAR),
                 "d": (lambda o: o["subcommand"] == "coboundary" or not o["blaschke"],
                       "in dynamics coboundary, or in dynamics var without a --blaschke zero")},
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValidationError, so they end as one JSON error object."""

    def error(self, message: str):
        raise ValidationError(message)


class _Command(_Parser):
    """A subcommand's parser; it adds its arguments only when argv names it."""

    def __init__(self, *args, keys: dict, **kwargs):
        super().__init__(*args, **kwargs)
        self.keys = keys

    def parse_known_args(self, args=None, namespace=None):
        keys, self.keys = self.keys, {}
        for key, (kind, _) in {**keys, **_GLOBAL, "config": ("text", None)}.items():
            if key in _POSITIONAL:
                self.add_argument(key, choices=kind)
            elif kind == "switch":
                self.add_argument(_flag(key), dest=key, action="store_true", default=None)
            elif kind in ("int", "float"):
                self.add_argument(_flag(key), dest=key, type=partial(_READERS[kind], key=key),
                                  help=_HELP.get(key))
            else:
                self.add_argument(_flag(key), dest=key, help=_HELP.get(key),
                                  choices=kind if isinstance(kind, tuple) else None)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bvlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)
    for name, (_, help_text, keys) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, keys=keys)
    return parser


def _read(keys: dict, values: dict) -> dict:
    """Every key's value coerced by its kind, or its default."""
    opts = {}
    for key, (kind, default) in keys.items():
        value = values.get(key)
        if value is None:
            opts[key] = default
        elif isinstance(kind, tuple):
            opts[key] = _choice(kind, value, key)
        else:
            opts[key] = _READERS.get(kind, kind)(value, key)
    return opts


def run(argv: list[str]) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    handler, _, keys = _COMMANDS[command]
    keys = {**keys, **_GLOBAL}
    config = _load_config(args.pop("config"), keys)
    given = {k: v for k, v in [*config.items(), *args.items()] if v is not None}
    # the echoed defaults, below the config values as written, below the flags as parsed
    values = {**{k: keys[k][1] for k in _ECHOED if k in keys}, **config, **given}
    opts = _read(keys, values)
    for key, (acts, where) in _SCOPES.get(command, {}).items():
        if key in given and not acts(opts):
            raise ValidationError(f"{_flag(key)} does not act in this run: it acts only {where}")
    manifest = {"tool": "bvlab", "version": __version__, "command": command, "config": values}
    out_dir = Path(opts["output_dir"] or "bvlab_out")  # the flag, then the config
    return handler(opts, partial(_emit, manifest, out_dir))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(argv)
    except BVLabError as exc:
        sys.stderr.write(json_text({"error": type(exc).__name__, "message": str(exc)}))
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(json_text({"error": "OSError", "message": str(exc)}))
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
