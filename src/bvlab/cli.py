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
import re
import sys
from pathlib import Path

from . import __version__
from .constructions import (ShellParams, build_shell, shell_beurling_series,
                            shell_cauchy_series, truncate_to_polynomial)
from .dynamics import (BlaschkeMap, CirclePotential, birkhoff_variance_mc,
                       coboundary_check, log_deriv_mean, mean_relation_check)
from .errors import (BVLabError, CapacityError, UnresolvedScaleError,
                     UnresolvedTruncationError, ValidationError)
from .formulas import (best_integer_degree, best_real_degree, distortion_constant,
                       julia_dim_k, julia_dim_t, optimal_rho0, sigma2_optimal,
                       smirnov_dim_k, smirnov_dim_t, table2, truncate_display)
from .laurent import ExteriorLaurent
from .manifest import RunConfig, csv_text, json_text, resolve_output_dir, write_text
from .order2 import order2_bound, parameter_search, shell_grid
from .selfcheck import run_selfcheck
from .variance import (cesaro_sigma4, growth_slope, integral_means_log,
                       variance_block, variance_block_mass, variance_lacunary)


def _parse_rho0(value: str, d: float) -> float:
    if value == "optimal":
        return optimal_rho0(d)
    try:
        rho = float(value)
    except ValueError as exc:
        raise ValidationError(f"rho0 must be a number or 'optimal', got {value!r}") from exc
    return rho


def _parse_float(value, key: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{key} must be a number, got {value!r}") from exc


# decimal literal with optional fraction and exponent, e.g. 12, 1e12, 1.5e3
_DECIMAL = re.compile(r"([+-]?\d+)(?:\.(\d*))?(?:[eE]([+-]?\d{1,4}))?")
_MAX_DIGITS = 4300  # the interpreter's own limit for int <-> str conversion


def _parse_int(value, key: str = "value") -> int:
    """Exact integer from an int, an integral float or a decimal string.

    Scientific notation such as ``1e12`` is accepted when its value is an
    exact integer.  Strings never pass through float, so 2**63 - 1 and
    12345678901234567 keep every digit.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    match = _DECIMAL.fullmatch(value.strip()) if isinstance(value, str) else None
    if match:
        digits = match[1] + (match[2] or "")
        shift = int(match[3] or 0) - len(match[2] or "")
        if len(digits) + abs(shift) <= _MAX_DIGITS:
            whole, rest = divmod(int(digits) * 10**max(shift, 0), 10**max(-shift, 0))
            if rest == 0:
                return whole
    raise ValidationError(f"{key} must be an integer, got {value!r}")


def _int(cfg: RunConfig, key: str, default: int) -> int:
    return _parse_int(cfg.get(key, default), key)


def _float(cfg: RunConfig, key: str, default: float) -> float:
    return _parse_float(cfg.get(key, default), key)


def _read_json(path: str, what: str):
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
    d = cfg.get("d")
    if d is None:
        raise ValidationError("d is required: pass --d or set it in the config")
    d = _parse_float(d, "d")
    rho0 = _parse_rho0(str(cfg.get("rho0", "optimal")), d)
    n0 = cfg.get("n0")
    return ShellParams(d=d, rho0=rho0, n0=None if n0 is None else _parse_int(n0, "n0"),
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
    method = cfg.get("method", "exact")
    if method == "exact":
        from .constructions import shell_moduli
        est = variance_lacunary(shell_moduli(params, _int(cfg, "terms", 4000)), params.d)
    elif method == "block":
        g = shell_beurling_series(_auto_shells(params, cfg))
        est = variance_block(g, params.degree, _float(cfg, "r0", 1.5), _int(cfg, "blocks", 8))
    elif method == "mass":
        est = variance_block_mass(shell_beurling_series(params))
    elif method == "cesaro":
        est = cesaro_sigma4(shell_cauchy_series(params), _float(cfg, "r0", 1.5),
                            params.degree)
    else:
        raise ValidationError(f"unknown method {method!r}")
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
    r_final_minus_1 = math.expm1(math.log(r0) / d**blocks)
    need = 10.0 / r_final_minus_1
    j = params.shells
    while params.first_frequency * d ** (j - 1) < need:
        j += 1
    return replace(params, shells=j)


def cmd_optimize(cfg: RunConfig, out_dir: Path) -> int:
    d_min = _int(cfg, "d_min", 2)
    d_max = _int(cfg, "d_max", 64)
    best_int = best_integer_degree(d_min, d_max)
    best_real = best_real_degree(float(d_min), float(d_max))
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
        degrees = [_parse_int(x, "grid_d") for x in str(grid_d).split(",")]
        rhos = [x if x == "optimal" else _parse_float(x, "grid_rho0")
                for x in str(cfg.get("grid_rho0", "optimal")).split(",")]
        n0s = [None if x == "default" else _parse_int(x, "grid_n0")
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
    report = order2_bound(params, refine=bool(cfg.get("refine", False)))
    _emit(cfg, out_dir, "order2", report.to_doc(), {"rho0": params.rho0})
    return 0


def _default_order2_shells(params: ShellParams) -> ShellParams:
    """Default shell count leaving room for the refinement doubling."""
    from dataclasses import replace

    cap_params = replace(params, shells=10**6).clipped_to_max_freq()
    return replace(params, shells=max(2, min(10, cap_params.shells // 2)))


def cmd_dimension(cfg: RunConfig, out_dir: Path) -> int:
    d = _int(cfg, "d", 20)
    payload: dict = {"d": d, "remainder_order": "cubic in the distortion",
                     "c_d": distortion_constant(d)}
    t = cfg.get("t")
    k = cfg.get("k")
    if t is not None:
        t = _parse_float(t, "t")
        payload["t"] = t
        payload["dimension_t"] = julia_dim_t(d, t)
        payload["smirnov_t"] = smirnov_dim_t(abs(t))
    if k is not None:
        k = _parse_float(k, "k")
        payload["k"] = k
        payload["dimension_k"] = julia_dim_k(d, k)
        payload["smirnov_k"] = smirnov_dim_k(k)
    if t is None and k is None:
        payload["quadratic_coefficient_k"] = sigma2_optimal(d)
    _emit(cfg, out_dir, "dimension", payload)
    return 0


def cmd_means_curve(cfg: RunConfig, out_dir: Path) -> int:
    series_path = cfg.get("series")
    if series_path:
        g = ExteriorLaurent.from_doc(_read_json(series_path, "series"))
    else:
        params = _shell_params(cfg)
        g = shell_beurling_series(params)
    lo = _float(cfg, "r_min", 1e-6)
    hi = _float(cfg, "r_max", 0.5)
    n = _int(cfg, "points", 40)
    if not 0.0 < lo < hi or n < 2:
        raise ValidationError("need 0 < r_min < r_max and points >= 2")
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
        d = cfg.get("d")
        if d is None:
            raise ValidationError("provide --mu FILE or shell parameters via --d")
        params = _shell_params(cfg)
        mu = build_shell(params)
    result = truncate_to_polynomial(mu, _float(cfg, "r1", 0.7), _float(cfg, "eps", 0.01),
                                    rescale=bool(cfg.get("rescale", False)))
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
    if sub == "meanrel":
        payload = mean_relation_check().to_doc()
        _emit(cfg, out_dir, "dynamics_meanrel", payload)
        return 0
    if sub == "var":
        raw = str(cfg.get("blaschke") or "")
        try:
            zeros = tuple(complex(part) for part in raw.split(",") if part)
        except ValueError as exc:
            raise ValidationError(f"blaschke zeros must be complex numbers such as "
                                  f"0.3+0j, got {raw!r}") from exc
        b = BlaschkeMap(zeros) if zeros else BlaschkeMap.power(_int(cfg, "d", 2))
        phi_path = cfg.get("phi")
        if phi_path is None:
            raise ValidationError("--phi FILE is required for dynamics var")
        phi = CirclePotential.from_doc(_read_json(phi_path, "potential"))
        seed = _int(cfg, "seed", 0)
        est, err = birkhoff_variance_mc(phi, b, _int(cfg, "n", 50),
                                        _int(cfg, "samples", 100000), seed)
        payload = {"estimate": est, "stderr": err, "seed": seed,
                   "log_deriv_mean": log_deriv_mean(b)}
        _emit(cfg, out_dir, "dynamics_var", payload)
        return 0
    raise ValidationError(f"unknown dynamics subcommand {sub!r}")


def cmd_selfcheck(cfg: RunConfig, out_dir: Path) -> int:
    results = run_selfcheck(full=bool(cfg.get("full", False)))
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
# argument parsing
# ---------------------------------------------------------------------------

_COMMANDS = {
    "table2": (cmd_table2, {"format"}),
    "variance": (cmd_variance, {"d", "rho0", "n0", "shells", "max_freq", "method",
                                "terms", "r0", "blocks"}),
    "optimize": (cmd_optimize, {"d_min", "d_max"}),
    "order2": (cmd_order2, {"d", "rho0", "n0", "shells", "max_freq", "refine",
                            "grid_d", "grid_rho0", "grid_n0"}),
    "dimension": (cmd_dimension, {"d", "t", "k"}),
    "means-curve": (cmd_means_curve, {"d", "rho0", "n0", "shells", "max_freq",
                                      "series", "r_min", "r_max", "points"}),
    "truncate": (cmd_truncate, {"d", "rho0", "n0", "shells", "max_freq", "mu",
                                "r1", "eps", "rescale"}),
    "dynamics": (cmd_dynamics, {"subcommand", "d", "n", "blaschke", "phi",
                                "samples", "seed"}),
    "selfcheck": (cmd_selfcheck, {"full"}),
}
_GLOBAL_KEYS = {"output_dir", "seed", "precision", "format"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bvlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", dest="output_dir", help="output directory "
                       "(the BVLAB_OUT environment variable overrides)")
        p.add_argument("--seed", type=int, help="random seed for sampled paths")
        p.add_argument("--precision", type=int, help="display digits (presentation only)")

    p = sub.add_parser("table2", help="comparison table of quadratic dimension coefficients")
    p.add_argument("--format", choices=("csv", "json"))
    common(p)

    p = sub.add_parser("variance", help="shell-coefficient variance by one of four methods")
    p.add_argument("kind", choices=("shell",))
    p.add_argument("--d")
    p.add_argument("--rho0", default="optimal")
    p.add_argument("--n0", type=int)
    p.add_argument("--shells", type=int)
    p.add_argument("--max-freq", dest="max_freq")
    p.add_argument("--method", choices=("exact", "block", "mass", "cesaro"), default="exact")
    p.add_argument("--terms", type=int)
    p.add_argument("--r0", type=float)
    p.add_argument("--blocks", type=int)
    common(p)

    p = sub.add_parser("optimize", help="best integer and real degree")
    p.add_argument("--d-min", dest="d_min", type=int)
    p.add_argument("--d-max", dest="d_max", type=int)
    common(p)

    p = sub.add_parser("order2", help="second-order variance bound / parameter search")
    p.add_argument("--d")
    p.add_argument("--rho0", default="optimal")
    p.add_argument("--n0", type=int)
    p.add_argument("--shells", type=int)
    p.add_argument("--max-freq", dest="max_freq")
    p.add_argument("--refine", action="store_true", default=None)
    p.add_argument("--grid-d", dest="grid_d")
    p.add_argument("--grid-rho0", dest="grid_rho0")
    p.add_argument("--grid-n0", dest="grid_n0")
    common(p)

    p = sub.add_parser("dimension", help="quadratic Julia-set dimension formulas")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=float)
    p.add_argument("--k", type=float)
    common(p)

    p = sub.add_parser("means-curve", help="(R, I(R), ratio) table for a series")
    p.add_argument("--d")
    p.add_argument("--rho0", default="optimal")
    p.add_argument("--n0", type=int)
    p.add_argument("--shells", type=int)
    p.add_argument("--max-freq", dest="max_freq")
    p.add_argument("--series", help="JSON Laurent series file instead of shell parameters")
    p.add_argument("--r-min", dest="r_min", type=float)
    p.add_argument("--r-max", dest="r_max", type=float)
    p.add_argument("--points", type=int)
    common(p)

    p = sub.add_parser("truncate", help="cancel high Cauchy frequencies of a coefficient")
    p.add_argument("--mu", help="JSON field file; otherwise shell parameters are used")
    p.add_argument("--d")
    p.add_argument("--rho0", default="optimal")
    p.add_argument("--n0", type=int)
    p.add_argument("--shells", type=int)
    p.add_argument("--max-freq", dest="max_freq")
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--rescale", action="store_true", default=None)
    common(p)

    p = sub.add_parser("dynamics", help="dynamical variance checks on the circle")
    p.add_argument("subcommand", choices=("coboundary", "var", "meanrel"))
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--blaschke", help="comma-separated complex zeros, e.g. 0.3+0j")
    p.add_argument("--phi", help="JSON potential file")
    p.add_argument("--samples", type=int)
    common(p)

    p = sub.add_parser("selfcheck", help="run the built-in oracle comparisons")
    p.add_argument("--full", action="store_true", default=None)
    common(p)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    handler, known = _COMMANDS[command]
    file_values = _load_config(getattr(args, "config", None))
    flag_values = {k: v for k, v in vars(args).items()
                   if k not in ("command", "config") and v is not None}
    cfg = RunConfig(command, known | _GLOBAL_KEYS | {"kind"}, file_values, flag_values)
    out_dir = resolve_output_dir(cfg.get("output_dir"), None)
    return handler(cfg, out_dir)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(argv)
    except (CapacityError, UnresolvedScaleError, UnresolvedTruncationError) as exc:
        sys.stderr.write(json_text({"error": type(exc).__name__, "message": str(exc)}))
        return 3
    except (ValidationError, BVLabError) as exc:
        sys.stderr.write(json_text({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    except OSError as exc:
        sys.stderr.write(json_text({"error": "OSError", "message": str(exc)}))
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
