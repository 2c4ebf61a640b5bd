"""Command-line front end: computations in, CSV/JSON artifacts + manifest out.

Exit codes: 0 success, 2 validation error, 3 capacity or unresolved-scale /
unresolved-truncation error.  Errors are reported as one JSON object on
stderr.  Identical configurations (including the seed) produce byte-identical
artifacts; nothing time-dependent is written.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .constructions import (ShellParams, build_shell, shell_beurling_series,
                            shell_cauchy_series, truncate_to_polynomial)
from .dynamics import (MAX_SAMPLES, BlaschkeMap, CirclePotential, birkhoff_variance,
                       birkhoff_variance_mc, check_exact_work, check_mc_work,
                       coboundary_check, log_deriv_mean)
from .errors import (BVLabError, CapacityError, UnresolvedScaleError,
                     UnresolvedTruncationError, ValidationError, parse_float, parse_int)
from .formulas import (best_integer_degree, best_real_degree, distortion_constant,
                       julia_dim_k, julia_dim_t, optimal_rho0, sigma2_optimal,
                       smirnov_dim_k, smirnov_dim_t, table2, truncate_display)
from .laurent import ExteriorLaurent
from .manifest import RunConfig, csv_text, json_text, resolve_output_dir, write_text
from .order2 import order2_bound, parameter_search, shell_grid
from .selfcheck import run_selfcheck
from .variance import (block_log_scales, cesaro_sigma4, growth_slope, integral_means_log,
                       variance_block, variance_block_mass, variance_lacunary)

_MAX_POINTS = 10**4  # 100x the default means-curve grid


def _flag(key: str) -> str:
    return "--out" if key == "output_dir" else "--" + key.replace("_", "-")


def _value(cfg: RunConfig, key: str, default=None):
    """The configured value of ``key``; a key without a default is required."""
    value = cfg.get(key, default)
    if value is None:
        raise ValidationError(f"{key} is required: pass {_flag(key)} or set it in the config")
    return value


def _int(cfg: RunConfig, key: str, default: int | None = None) -> int:
    return parse_int(_value(cfg, key, default), key)


def _float(cfg: RunConfig, key: str, default: float | None = None) -> float:
    return parse_float(_value(cfg, key, default), key)


def _read_json(path: str, what: str):
    if not isinstance(path, str):  # a config number would name a file descriptor
        raise ValidationError(f"the {what} path must be a string, got {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    doc = _read_json(path, "config")
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object")
    return doc


def _emit(config: RunConfig, out_dir: Path, name: str, payload: dict,
          resolved: dict | None = None) -> None:
    write_text(out_dir / f"{name}_manifest.json",
               json_text(config.manifest(__version__, resolved)))
    text = json_text(payload)
    write_text(out_dir / f"{name}.json", text)
    sys.stdout.write(text)


def _shell_params(cfg: RunConfig) -> ShellParams:
    d = _float(cfg, "d")
    rho0 = cfg.get("rho0")
    rho0 = optimal_rho0(d) if rho0 == "optimal" else parse_float(rho0, "rho0")
    n0 = cfg.get("n0")
    return ShellParams(d=d, rho0=rho0, n0=None if n0 is None else parse_int(n0, "n0"),
                       shells=_int(cfg, "shells", 10),
                       max_freq=_int(cfg, "max_freq", 2**63 - 1))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_table2(cfg: RunConfig, out_dir: Path) -> int:
    rows = table2()
    fmt = cfg.get("format", "csv")
    header = ["d", "lambda_lemma", "improved", "c_d", "optimal_rho0",
              "lambda_lemma_display", "improved_display"]
    table_rows = [[r.d, r.lambda_lemma_coeff, r.improved_coeff, r.c_d, r.optimal_rho0,
                   truncate_display(r.lambda_lemma_coeff), truncate_display(r.improved_coeff)]
                  for r in rows]
    write_text(out_dir / "table2_manifest.json", json_text(cfg.manifest(__version__)))
    if fmt == "csv":
        text = csv_text(header, table_rows)
        write_text(out_dir / "table2.csv", text)
        sys.stdout.write(text)
    else:
        payload = {"rows": [r.to_doc() for r in rows]}
        text = json_text(payload)
        write_text(out_dir / "table2.json", text)
        sys.stdout.write(text)
    return 0


def cmd_variance(cfg: RunConfig, out_dir: Path) -> int:
    params = _shell_params(cfg)
    method = cfg.get("method")
    if method == "exact":
        from .constructions import shell_moduli
        est = variance_lacunary(shell_moduli(params, _int(cfg, "terms", 4000)), params.d)
    elif method == "block":
        g = shell_beurling_series(_auto_shells(params, cfg))
        est = variance_block(g, params.degree, _float(cfg, "r0", 1.5), _int(cfg, "blocks", 8))
    elif method == "mass":
        est = variance_block_mass(shell_beurling_series(params))
    else:  # cesaro
        est = cesaro_sigma4(shell_cauchy_series(params), _float(cfg, "r0", 1.5),
                            params.degree)
    payload = est.to_doc()
    payload["d"] = params.d
    payload["rho0"] = params.rho0
    payload["closed_form"] = sigma2_optimal(params.d) if \
        abs(params.rho0 - optimal_rho0(params.d)) < 1e-12 else None
    write_text(out_dir / "variance_diagnostics.csv",
               csv_text(["scale_index", "running_estimate"],
                        [[i, v] for i, v in est.diagnostics]))
    _emit(cfg, out_dir, "variance", payload, {"rho0": params.rho0})
    return 0


def _auto_shells(params: ShellParams, cfg: RunConfig) -> ShellParams:
    """Grow the shell count until the finest probed scale is resolved."""
    from dataclasses import replace

    r0 = _float(cfg, "r0", 1.5)
    blocks = _int(cfg, "blocks", 8)
    d = params.degree
    r_final_minus_1 = math.expm1(block_log_scales(r0, d, blocks)[-1])
    need = 10.0 / r_final_minus_1
    j = params.shells
    while params.first_frequency * d ** (j - 1) < need:
        j += 1
    return replace(params, shells=j)


def cmd_optimize(cfg: RunConfig, out_dir: Path) -> int:
    d_min = _int(cfg, "d_min", 2)
    d_max = _int(cfg, "d_max", 64)
    best_int = best_integer_degree(d_min, d_max)
    best_real = best_real_degree(d_min, d_max)
    payload = {
        "best_integer": {"d": best_int[0], "value": best_int[1],
                         "optimal_rho0": optimal_rho0(best_int[0])},
        "best_real": {"d": best_real[0], "value": best_real[1]},
    }
    _emit(cfg, out_dir, "optimize", payload)
    return 0


def cmd_order2(cfg: RunConfig, out_dir: Path) -> int:
    grid_d = cfg.get("grid_d")
    if grid_d:
        degrees = [parse_int(x, "grid_d") for x in str(grid_d).split(",")]
        rhos = [x if x == "optimal" else parse_float(x, "grid_rho0")
                for x in str(cfg.get("grid_rho0", "optimal")).split(",")]
        n0s = [None if x == "default" else parse_int(x, "grid_n0")
               for x in str(cfg.get("grid_n0", "default")).split(",")]
        grid = shell_grid(degrees, rhos, n0s, _int(cfg, "shells", 6),
                          _int(cfg, "max_freq", 2**63 - 1))
        best, board = parameter_search(grid)
        header = ["d", "rho0", "n0", "shells", "first_order", "second_order",
                  "total", "tail_mass"]
        rows = [[r.params.d, r.params.rho0, r.params.first_frequency, r.shells_used,
                 r.first_order, r.second_order, r.total, r.tail_mass] for r in board]
        write_text(out_dir / "order2_leaderboard.csv", csv_text(header, rows))
        _emit(cfg, out_dir, "order2", best.to_doc())
        return 0
    params = _shell_params(cfg)
    if cfg.get("shells") is None:
        params = _default_order2_shells(params)
    report = order2_bound(params, refine=bool(cfg.get("refine")))
    _emit(cfg, out_dir, "order2", report.to_doc(), {"rho0": params.rho0})
    return 0


def _default_order2_shells(params: ShellParams) -> ShellParams:
    """Default shell count leaving room for the refinement doubling."""
    from dataclasses import replace

    cap_params = replace(params, shells=10**6).clipped_to_max_freq()
    return replace(params, shells=max(2, min(10, cap_params.shells // 2)))


def cmd_dimension(cfg: RunConfig, out_dir: Path) -> int:
    d = _int(cfg, "d")
    payload: dict = {"d": d, "remainder_order": "cubic in the distortion",
                     "c_d": distortion_constant(d)}
    t = cfg.get("t")
    k = cfg.get("k")
    if t is not None:
        t = parse_float(t, "t")
        payload["t"] = t
        payload["dimension_t"] = julia_dim_t(d, t)
        payload["smirnov_t"] = smirnov_dim_t(abs(t))
    if k is not None:
        k = parse_float(k, "k")
        payload["k"] = k
        payload["dimension_k"] = julia_dim_k(d, k)
        payload["smirnov_k"] = smirnov_dim_k(k)
    if t is None and k is None:
        payload["quadratic_coefficient_k"] = sigma2_optimal(d)
    _emit(cfg, out_dir, "dimension", payload)
    return 0


def cmd_means_curve(cfg: RunConfig, out_dir: Path) -> int:
    lo = _float(cfg, "r_min", 1e-6)
    hi = _float(cfg, "r_max", 0.5)
    n = _int(cfg, "points", 40)
    if not (0.0 < lo < hi < math.inf and 2 <= n <= _MAX_POINTS):
        raise ValidationError(f"need 0 < r_min < r_max < inf and 2 <= points <= {_MAX_POINTS}")
    series_path = cfg.get("series")
    if series_path:
        g = ExteriorLaurent.from_doc(_read_json(series_path, "series"))
    else:
        g = shell_beurling_series(_shell_params(cfg))
    rows = []
    for i in range(n):
        t = i / (n - 1)
        x = math.exp((1 - t) * math.log(hi) + t * math.log(lo))  # R - 1, descending
        log_R = math.log1p(x)
        means = integral_means_log(g, log_R)
        ratio = means / math.log(1.0 / x)
        resolved = g.max_freq >= 10.0 / x
        rows.append([1.0 + x, means, ratio, "true" if resolved else "false"])
    slope = growth_slope(g, 1.0 + lo, 1.0 + hi, n)
    text = csv_text(["R", "integral_means", "ratio", "resolved"], rows)
    write_text(out_dir / "means_curve.csv", text)
    write_text(out_dir / "means_curve_manifest.json",
               json_text(cfg.manifest(__version__, {"growth_slope": slope})))
    sys.stdout.write(text)
    return 0


def cmd_truncate(cfg: RunConfig, out_dir: Path) -> int:
    mu_path = cfg.get("mu")
    if mu_path:
        from .annular import PiecewiseField
        mu = PiecewiseField.from_doc(_read_json(mu_path, "field"))
    else:
        mu = build_shell(_shell_params(cfg))
    result = truncate_to_polynomial(mu, _float(cfg, "r1"), _float(cfg, "eps"),
                                    rescale=bool(cfg.get("rescale")))
    payload = {
        "cutoff": result.cutoff,
        "correction_bound": result.correction_bound,
        "tail_bound": result.tail_bound,
        "rescaled": result.rescaled,
        "terms": len(result.field.terms),
    }
    write_text(out_dir / "truncated_field.json", json_text(result.field.to_doc()))
    _emit(cfg, out_dir, "truncate", payload)
    return 0


def cmd_dynamics(cfg: RunConfig, out_dir: Path) -> int:
    sub = cfg.get("subcommand")
    if sub == "coboundary":
        check = coboundary_check(_int(cfg, "d", 2), _int(cfg, "n", 20))
        payload = check.to_doc()
        payload["seed"] = _int(cfg, "seed", 0)
        _emit(cfg, out_dir, "dynamics_coboundary", payload)
        return 0
    raw = str(cfg.get("blaschke") or "")
    try:
        zeros = tuple(complex(part) for part in raw.split(",") if part)
    except ValueError as exc:
        raise ValidationError(f"blaschke zeros must be complex numbers such as "
                              f"0.3+0j, got {raw!r}") from exc
    degree = len(zeros) + 1 if zeros else _int(cfg, "d", 2)
    n, samples, seed = _int(cfg, "n", 50), _int(cfg, "samples", 100000), _int(cfg, "seed", 0)
    if seed < 0 or not 2 <= samples <= MAX_SAMPLES:  # checked on every route
        raise ValidationError(f"need seed >= 0 and 2 <= samples <= {MAX_SAMPLES}")
    phi = CirclePotential.from_doc(_read_json(_value(cfg, "phi"), "potential"))
    monte_carlo = cfg.get("method") == "mc"
    if monte_carlo:
        check_mc_work(n, samples, degree, len(phi.without_mean().coeffs))
    else:
        check_exact_work(n, phi, degree)
    b = BlaschkeMap(zeros) if zeros else BlaschkeMap.power(degree)
    if monte_carlo:
        est, err = birkhoff_variance_mc(phi, b, n, samples, seed)
        payload = {"estimate": est, "stderr": err, "seed": seed}
    else:
        payload = birkhoff_variance(phi, b, n).to_doc()
    payload["log_deriv_mean"] = log_deriv_mean(b)
    _emit(cfg, out_dir, "dynamics_var", payload)
    return 0


def cmd_selfcheck(cfg: RunConfig, out_dir: Path) -> int:
    results = run_selfcheck(full=bool(cfg.get("full")))
    ok = all(r.passed for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name}: {r.detail}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    payload = {"passed": ok, "checks": [
        {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]}
    _emit(cfg, out_dir, "selfcheck", payload)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing: one table declares every key of every command
# ---------------------------------------------------------------------------

# A key's kind is "int", "float", "text", "switch" or a tuple of choices.
# "kind" and "subcommand" are positional; every other key is a --flag and may
# also come from the config file.  The manifest echoes flags as parsed and
# config values as written; the handlers coerce both when they read them.
_SHELL = {"d": "text", "rho0": "text", "n0": "int", "shells": "int", "max_freq": "text"}
_GLOBAL = {"seed": "int", "output_dir": "text"}
_DEFAULTS = {"rho0": "optimal", "method": "exact"}  # echoed in manifests, below the config
_POSITIONAL = ("kind", "subcommand")
_READERS = {"int": parse_int, "float": parse_float}
_HELP = {"config": "JSON config file; flags override its values",
         "output_dir": "output directory (the BVLAB_OUT environment variable overrides)",
         "seed": "random seed for sampled paths",
         "series": "JSON Laurent series file instead of shell parameters",
         "mu": "JSON field file; otherwise shell parameters are used",
         "blaschke": "comma-separated complex zeros, e.g. 0.3+0j",
         "phi": "JSON potential file",
         "samples": "Monte Carlo orbits (--method mc only)"}
_COMMANDS = {
    "table2": (cmd_table2, "comparison table of quadratic dimension coefficients",
               {"format": ("csv", "json")}),
    "variance": (cmd_variance, "shell-coefficient variance by one of four methods",
                 {"kind": ("shell",), **_SHELL, "method": ("exact", "block", "mass", "cesaro"),
                  "terms": "int", "r0": "float", "blocks": "int"}),
    "optimize": (cmd_optimize, "best integer and real degree",
                 {"d_min": "int", "d_max": "int"}),
    "order2": (cmd_order2, "second-order variance bound / parameter search",
               {**_SHELL, "refine": "switch", "grid_d": "text", "grid_rho0": "text",
                "grid_n0": "text"}),
    "dimension": (cmd_dimension, "quadratic Julia-set dimension formulas",
                  {"d": "int", "t": "float", "k": "float"}),
    "means-curve": (cmd_means_curve, "(R, I(R), ratio) table for a series",
                    {**_SHELL, "series": "text", "r_min": "float", "r_max": "float",
                     "points": "int"}),
    "truncate": (cmd_truncate, "cancel high Cauchy frequencies of a coefficient",
                 {"mu": "text", **_SHELL, "r1": "float", "eps": "float", "rescale": "switch"}),
    "dynamics": (cmd_dynamics, "dynamical variance checks on the circle",
                 {"subcommand": ("coboundary", "var"), "d": "int", "n": "int",
                  "blaschke": "text", "phi": "text", "method": ("exact", "mc"),
                  "samples": "int"}),
    "selfcheck": (cmd_selfcheck, "run the built-in oracle comparisons", {"full": "switch"}),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValidationError, so they end as one JSON error object."""

    def error(self, message: str):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bvlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key, kind in {**keys, **_GLOBAL, "config": "text"}.items():
            if key in _POSITIONAL:
                p.add_argument(key, choices=kind)
            elif kind == "switch":
                p.add_argument(_flag(key), dest=key, action="store_true", default=None)
            elif kind in _READERS:
                p.add_argument(_flag(key), dest=key, type=partial(_READERS[kind], key=key),
                               help=_HELP.get(key))
            else:
                p.add_argument(_flag(key), dest=key, help=_HELP.get(key),
                               choices=kind if isinstance(kind, tuple) else None)
    return parser


def _check_config(keys: dict, doc: dict) -> None:
    """Config switches must be JSON booleans or null, choices one of theirs."""
    for key, value in doc.items():
        kind = keys.get(key)
        if kind == "switch" and value is not None and not isinstance(value, bool):
            raise ValidationError(f"{key} must be true, false or null, got {value!r}")
        if isinstance(kind, tuple) and value not in kind:
            raise ValidationError(f"{key} must be one of {', '.join(kind)}, got {value!r}")


def run(argv: list[str]) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    handler, _, keys = _COMMANDS[command]
    file_values = _load_config(args.pop("config"))
    _check_config(keys, file_values)
    defaults = {k: v for k, v in _DEFAULTS.items() if k in keys}
    cfg = RunConfig(command, {*keys, *_GLOBAL}, {**defaults, **file_values}, args)
    return handler(cfg, resolve_output_dir(cfg.get("output_dir"), None))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(argv)
    except (CapacityError, UnresolvedScaleError, UnresolvedTruncationError) as exc:
        sys.stderr.write(json_text({"error": type(exc).__name__, "message": str(exc)}))
        return 3
    except BVLabError as exc:
        sys.stderr.write(json_text({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    except OSError as exc:
        sys.stderr.write(json_text({"error": "OSError", "message": str(exc)}))
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
