"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion, including the measured runtime against its budget.
"""
import json
import math
import time
from contextlib import contextmanager


from bvlab.annular import (beurling, beurling_exterior, cauchy_exterior,
                           cauchy_full, multiply, pullback_power,
                           MonomialTerm, PiecewiseField)
from bvlab.cli import main
from bvlab.constructions import (ShellParams, build_shell, lacunary_vector_field,
                                 random_unit_shell_field, shell_beurling_series,
                                 shell_cauchy_series, shell_moduli,
                                 truncate_to_polynomial)
from bvlab.formulas import (distortion_constant, lambda_lemma_coeff,
                            optimal_rho0, sigma2_optimal)
from bvlab.order2 import order2_field
from bvlab.variance import (cesaro_sigma4, growth_slope,
                            variance_block, variance_block_mass,
                            variance_lacunary)
from conftest import assert_selfcheck, circle
from oracles import (derivative, quad_beurling_at, quad_beurling_exterior, truncated,
                     wirtinger_dbar)


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_s else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}  {label}  ({elapsed:.2f}s / budget {budget_s:.0f}s)")
    assert elapsed < budget_s


def test_criterion_1_table(tmp_path, capsys):
    with criterion(1, "reference table reproduction", 1.0):
        assert main(["table2", "--format", "csv", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        lines = (tmp_path / "table2.csv").read_text().strip().splitlines()
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        expected_display = {"2": ("0.3606", "0.3606"), "3": ("0.4045", "0.5394"),
                            "4": ("0.4057", "0.6441"), "20": ("0.3012", "0.8791")}
        for d_str, (lam_disp, imp_disp) in expected_display.items():
            row = rows[d_str]
            d = int(d_str)
            assert (row[5], row[6]) == (lam_disp, imp_disp)
            assert abs(float(row[1]) - lambda_lemma_coeff(d)) <= 5e-5
            assert abs(float(row[2]) - sigma2_optimal(d)) <= 5e-5


def test_criterion_2_optima():
    with criterion(2, "integer and real degree optima", 1.0):
        assert_selfcheck("degree_optimizers")


def test_criterion_3_transform_pipeline(rng):
    with criterion(3, "transform pipeline vs quadrature oracles", 60.0):
        # closed-form Cauchy coefficients of the basic blocks against the
        # 2D quadrature oracle of the defining moment integral
        from oracles import quad_moment
        for _ in range(10):
            n = int(rng.integers(2, 24))
            r = float(rng.uniform(0.2, 0.6))
            rho = float(rng.uniform(r + 0.1, 0.95))
            mu_n = PiecewiseField.of(MonomialTerm.make(1.0, n - 2, 0, float(2 - n), r, rho))
            exact = (2.0 / n) * (rho**n - r**n)
            q = quad_moment(mu_n, n - 2, n_r=max(1200, 120 * n))
            assert abs(exact - q) <= 1e-5 * abs(exact)
            assert cauchy_full(mu_n).eval(0) == 0

        # dbar of the full Cauchy transform returns the coefficient
        mu = build_shell(ShellParams(d=3, rho0=0.25, shells=3))
        F = cauchy_full(mu)
        breaks = F.breakpoints()
        count = 0
        while count < 50:
            rad = float(rng.uniform(0.3, 1.2))
            if min(abs(rad - b) for b in breaks) < 1e-4:
                continue
            z = circle(rad, float(rng.uniform(0, 2 * math.pi)))
            assert abs(wirtinger_dbar(F.eval, z) - mu.eval(z)) \
                <= 1e-4 * max(1.0, abs(mu.eval(z)))
            count += 1

        # vector-field pullback identity
        d = 3
        mu4 = PiecewiseField.of(MonomialTerm.make(1.0, 2, 0, -2.0, 0.5, 0.8))
        F4 = cauchy_full(mu4)
        Fp = cauchy_full(pullback_power(mu4, d))
        for k in range(20):
            z = circle(0.55 + 0.04 * k, 0.7 + 0.31 * k)
            lhs = (F4.eval(z**d) - F4.eval(0)) / (d * z ** (d - 1))
            assert abs(lhs - Fp.eval(z)) <= 1e-8


def test_criterion_4_variance_method_concordance():
    with criterion(4, "four variance methods agree within 2%", 120.0):
        for d in (2, 3, 4, 20):
            assert_selfcheck(f"method_agreement_d{d}")  # each method within 2% of sigma2
            params = ShellParams(d=d, rho0=optimal_rho0(d), shells=22 if d == 2 else 12)
            g = shell_beurling_series(params)
            values = [
                variance_lacunary(shell_moduli(params, 2000), d).value,
                variance_block(g, d, 1.5, 14 if d == 2 else 8).value,
                variance_block_mass(g).value,
                cesaro_sigma4(shell_cauchy_series(params), 1.5, d).value,
            ]
            for a in values:
                for b in values:
                    assert abs(a - b) <= 0.02 * max(abs(a), abs(b))


def test_criterion_5_upper_bound_properties(rng):
    with criterion(5, "growth slopes <= 1.05 and third-derivative ratio <= 3/2", 120.0):
        for _ in range(20):
            mu = random_unit_shell_field(rng)
            series = truncated(beurling_exterior(mu), 10**7)
            slope = growth_slope(series, 1 + 1e-5, 1 + 1e-2, 40)
            assert slope <= 1.05

            v3 = derivative(truncated(cauchy_exterior(mu), 10**7), 3)
            for i in range(200):
                R = 1.0 + 10.0 ** (-4.0 * ((i % 40) + 1) / 40.0)
                z = circle(R, 2.399963 * i)
                ratio = abs(v3.eval(z)) * (R * R - 1.0) ** 2 / 4.0
                assert ratio <= 1.5 + 1e-9


def test_criterion_6_second_order_bound():
    with criterion(6, "second-order bound at degree 16", 600.0):
        assert_selfcheck("order2_degree16")

        # small-instance route independence at relative 1e-3
        small = ShellParams(d=3, rho0=0.3, shells=2)
        mu = build_shell(small)
        s_pw = beurling(mu)
        for j in range(2):
            rad = math.exp(0.5 * (small.log_radius(j) + small.log_radius(j + 1)))
            z = circle(rad, 1.1)
            q = quad_beurling_at(mu, z, n_r=500, n_t=1024, n_s=200, n_a=256)
            assert abs(s_pw.eval(z) - q) <= 1e-3 * abs(q)
        out = order2_field(mu, max_freq=5000)
        probes = [circle(1.1 + 0.08 * i, 0.37 * i) for i in range(20)]
        s_prod = quad_beurling_exterior(multiply(mu, s_pw), probes, n_r=600, n_t=600)
        s_mu = quad_beurling_exterior(mu, probes, n_r=600, n_t=600)
        for z, sp, sm in zip(probes, s_prod, s_mu):
            w_quad = sp - 0.5 * sm**2
            assert abs(out.w.eval(z) - w_quad) <= 1e-3 * max(1e-12, abs(w_quad))


def test_criterion_7_dynamics():
    with criterion(7, "coboundary identity", 60.0):
        assert_selfcheck("coboundary_exact_d2", "coboundary_exact_d3", "coboundary_exact_d20")


def test_criterion_8_formula_spot_checks():
    with criterion(8, "formula spot checks", 60.0):
        assert_selfcheck("pointwise_bounds")
        assert abs(distortion_constant(20) - 0.5854) <= 5e-5
        lac = lacunary_vector_field(2, 9)
        for k in range(10):
            z = circle(1.15 + 0.12 * k, 0.5 + 0.61 * k)
            res, bound = lac.functional_equation_residual(z)
            assert res <= bound * (1 + 1e-9) + 1e-15


def test_criterion_9_truncation():
    with criterion(9, "truncation cutoff and cancelled spectrum", 60.0):
        mu = PiecewiseField.of(MonomialTerm.make(1.0, 1, 0, -1.0, 0.2, 0.5),
                               MonomialTerm.make(0.6, 24, 0, -24.0, 0.2, 0.5),
                               MonomialTerm.make(0.3j, 30, 0, -30.0, 0.2, 0.5),
                               MonomialTerm.make(0.4, 17, 0, -17.0, 0.2, 0.5))
        result = truncate_to_polynomial(mu, 0.7, 0.01)
        assert result.cutoff == 17
        series = cauchy_exterior(result.field)
        for k, c in series.coeffs.items():
            if k > result.cutoff:
                assert abs(c) <= 1e-12


def test_criterion_10_determinism(tmp_path, capsys):
    with criterion(10, "byte-identical outputs across repeated runs", 120.0):
        args = ["order2", "--grid-d", "3,4", "--grid-rho0", "optimal",
                "--shells", "5"]
        blobs = []
        for _ in range(2):
            out_dir = tmp_path / f"run_{len(blobs)}"
            assert main([*args, "--out", str(out_dir)]) == 0
            capsys.readouterr()
            # manifests echo the output directory, so compare the data artifacts
            blobs.append((out_dir / "order2_leaderboard.csv").read_bytes()
                         + (out_dir / "order2.json").read_bytes())
        assert blobs[0] == blobs[1]

        seeded = []
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps({"coeffs": [[-1, 1.0, 0.0]]}))
        for sub in ("s1", "s2"):
            out_dir = tmp_path / sub
            assert main(["dynamics", "var", "--phi", str(phi), "--d", "2",
                         "--n", "6", "--samples", "2000", "--seed", "5",
                         "--method", "mc", "--out", str(out_dir)]) == 0
            capsys.readouterr()
            seeded.append((out_dir / "dynamics_var.json").read_bytes())
        assert seeded[0] == seeded[1]
