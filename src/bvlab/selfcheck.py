"""Built-in consistency battery: every identity the package relies on, at desk scale.

Each check compares two independent routes to the same quantity (closed form
vs. transform pipeline, exact frequency bookkeeping vs. estimator, and so
on).  The heavy quadrature oracles live in the test suite; ``full=True`` adds
slower cross-method sweeps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .annular import (MonomialTerm, PiecewiseField, beurling, beurling_exterior,
                      bergman_coefficients, cauchy_exterior, cauchy_full,
                      eval_taylor, pullback_power)
from .constructions import (ShellParams, lacunary_vector_field,
                            random_unit_shell_field, shell_beurling_series,
                            shell_cauchy_series, truncate_to_polynomial)
from .dynamics import coboundary_check
from .formulas import (best_integer_degree, best_real_degree, lambda_lemma_coeff,
                       optimal_rho0, pointwise_sigma_bound, sigma2_optimal,
                       sigma2_shell, truncate_display)
from .order2 import order2_bound
from .variance import (cesaro_sigma4, growth_slope, linspace,
                       variance_block, variance_block_mass, variance_lacunary)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, value: float, bound: float) -> CheckResult:
    return CheckResult(name, value <= bound, f"residual {value:.3e} (tol {bound:.1e})")


def _wirtinger_dbar(field: PiecewiseField, z: complex, h: float = 1e-6) -> complex:
    fx = (field.eval(z + h) - field.eval(z - h)) / (2 * h)
    fy = (field.eval(z + 1j * h) - field.eval(z - 1j * h)) / (2 * h)
    return 0.5 * (fx + 1j * fy)


def run_selfcheck(full: bool = False) -> list[CheckResult]:
    results: list[CheckResult] = []
    mu4 = PiecewiseField.of(MonomialTerm.make(1.0, 2, 0, -2.0, 0.5, 0.8))

    # closed form of the exterior Cauchy transform of a basic block
    ce = cauchy_exterior(mu4)
    expect = 0.5 * (0.8**4 - 0.5**4)
    results.append(_check("basic_cauchy_closed_form",
                          abs(ce.coeffs.get(3, 0) - expect), 1e-14))

    # dbar of the full Cauchy transform returns the field (finite differences)
    F = cauchy_full(mu4)
    probes = [0.55 + 0.31j, -0.6 + 0.2j, 0.7j, 0.3 - 0.1j, 1.4 + 0.5j]
    res = max(abs(_wirtinger_dbar(F, z) - mu4.eval(z)) / max(1.0, abs(mu4.eval(z)))
              for z in probes)
    results.append(_check("dbar_identity_fd", res, 1e-4))

    # continuity of the Cauchy transform across breakpoints
    worst = 0.0
    for r in F.breakpoints():
        for j in range(8):
            th = 2 * math.pi * (j + 0.25) / 8
            z = complex(math.cos(th), math.sin(th))
            worst = max(worst, abs(F.eval(r * (1 - 1e-11) * z) - F.eval(r * (1 + 1e-11) * z)))
    results.append(_check("cauchy_breakpoint_continuity", worst, 1e-9))

    # exterior restriction of the transform vs the Laurent shift route
    S = beurling(mu4)
    se = beurling_exterior(mu4)
    z = 1.7 - 0.4j
    results.append(_check("exterior_consistency", abs(S.eval(z) - se.eval(z)), 1e-12))

    # vector-field pullback identity for the Cauchy transform
    d = 3
    pulled = pullback_power(mu4, d)
    Fp = cauchy_full(pulled)
    z = 1.3 * complex(math.cos(0.7), math.sin(0.7))
    lhs = (F.eval(z**d) - F.eval(0)) / (d * z ** (d - 1))
    results.append(_check("pullback_identity", abs(lhs - Fp.eval(z)), 1e-8))
    results.append(_check("pullback_vanishes_at_origin", abs(Fp.eval(0)), 1e-14))

    # interior projection against the exterior transform of the reflected field
    mixed = mu4.add(PiecewiseField.of(MonomialTerm.make(0.5, 0, 2, -1.0, 0.3, 0.6)))
    ck = bergman_coefficients(mixed)
    z = 2.0 * complex(math.cos(0.9), math.sin(0.9))
    lhs = eval_taylor(ck, 1.0 / z)
    rhs = -z * z * beurling_exterior(mixed.reflect_conjugate()).eval(z)
    results.append(_check("projection_reflection_relation", abs(lhs - rhs), 1e-8))

    # exact lacunary variance: unit coefficients over base 2
    est = variance_lacunary([1.0] * 64, 2)
    results.append(_check("lacunary_unit_variance",
                          abs(est.value - 1.0 / math.log(2)), 1e-12))

    # shell variance closed form vs block-mass estimator, degree 2
    p2 = ShellParams(d=2, rho0=0.25, shells=20)
    mass = variance_block_mass(shell_beurling_series(p2))
    results.append(_check("shell_mass_vs_closed_form_d2",
                          abs(mass.value - sigma2_shell(2, 0.25)), 5e-3))

    # table values against the display convention
    disp = (truncate_display(lambda_lemma_coeff(2)), truncate_display(sigma2_optimal(3)),
            truncate_display(sigma2_optimal(4)), truncate_display(sigma2_optimal(20)))
    ok = disp == ("0.3606", "0.5394", "0.6441", "0.8791")
    results.append(CheckResult("table_display_values", ok, f"{disp}"))

    # argmax of the shell variance in rho0 on a grid
    d = 5
    rho_star = optimal_rho0(d)
    grid_best = max(sigma2_shell(d, r) for r in linspace(0.01, 0.99, 197))
    results.append(_check("optimal_rho0_argmax",
                          grid_best - sigma2_shell(d, rho_star), 1e-12))

    # degree optimizers
    bi = best_integer_degree(2, 64)
    br = best_real_degree()
    ok = bi[0] == 20 and bi[1] > 0.87913 and 0.87913 <= br[1] <= 0.87920
    results.append(CheckResult("degree_optimizers", ok,
                               f"integer {bi}, real ({br[0]:.4f}, {br[1]:.6f})"))

    # truncation worked example
    ann = PiecewiseField.of(MonomialTerm.make(1.0, 1, 0, -1.0, 0.2, 0.5))
    tr = truncate_to_polynomial(ann, 0.7, 0.01)
    results.append(CheckResult("truncation_worked_example", tr.cutoff == 17,
                               f"cutoff {tr.cutoff}, bound {tr.tail_bound:.4f}"))

    # functional equation of the lacunary vector field
    lac = lacunary_vector_field(2, 10)
    res, bound = lac.functional_equation_residual(1.2 * complex(math.cos(1), math.sin(1)))
    results.append(_check("lacunary_functional_equation", res, max(bound * 1.01, 1e-12)))

    # shell Cauchy transform against the lacunary field
    from .constructions import shell_cauchy_identity_check
    res, _ = shell_cauchy_identity_check(ShellParams(d=3, rho0=0.2, shells=10),
                                         [1.5 + 0.2j, -1.3 + 1.1j])
    results.append(_check("shell_cauchy_identity", res, 1e-10))

    # dynamical coboundary identity (depth chosen within the frequency capacity)
    for d in (2, 3, 20):
        results.append(_check(f"coboundary_exact_d{d}", coboundary_check(d, 12).residual, 1e-12))

    # pointwise a-priori bounds
    ok = pointwise_sigma_bound(2) == 6.0 and \
        abs(pointwise_sigma_bound(1) - (8.0 / math.pi) ** 2) < 1e-12
    results.append(CheckResult("pointwise_bounds", ok,
                               f"m=2 -> {pointwise_sigma_bound(2)}, m=1 -> "
                               f"{pointwise_sigma_bound(1):.12f}"))

    # serialization round trips
    doc = mu4.to_doc()
    ok = PiecewiseField.from_doc(doc).to_doc() == doc
    se_doc = se.to_doc()
    from .laurent import ExteriorLaurent
    ok = ok and ExteriorLaurent.from_doc(se_doc).to_doc() == se_doc
    results.append(CheckResult("serialization_roundtrip", ok, "bit-stable"))

    if full:
        # four-method agreement at the optimal radius
        from .constructions import shell_moduli
        for d in (2, 3, 4, 20):
            p = ShellParams(d=d, rho0=optimal_rho0(d), shells=22 if d == 2 else 12)
            target = sigma2_optimal(d)
            vals = [
                variance_lacunary(shell_moduli(p, 2000), d).value,
                variance_block(shell_beurling_series(p), d, 1.5,
                               14 if d == 2 else 8).value,
                variance_block_mass(shell_beurling_series(p)).value,
                cesaro_sigma4(shell_cauchy_series(p), 1.5, d).value,
            ]
            spread = max(abs(v - target) / target for v in vals)
            results.append(_check(f"method_agreement_d{d}", spread, 0.02))

        # growth slopes of randomized unit-modulus coefficients stay below one
        import random
        rng = random.Random(20260810)
        worst = 0.0
        for _ in range(5):
            mu = random_unit_shell_field(rng)
            s = beurling_exterior(mu).truncated(10**7)
            worst = max(worst, growth_slope(s, 1 + 1e-5, 1 + 1e-2, 30))
        results.append(CheckResult("random_growth_slopes", worst <= 1.05,
                                   f"max slope {worst:.4f}"))

        # second-order bound at degree 16
        rep = order2_bound(ShellParams(d=16, rho0=optimal_rho0(16), n0=15, shells=7),
                           refine=True)
        stability = math.nan if rep.stability is None else rep.stability  # nan fails
        ok = 0.893 < rep.total <= 0.90 and stability < 5e-3
        results.append(CheckResult("order2_degree16", ok,
                                   f"total {rep.total:.6f}, stability {stability:.2e}"))

    return results
