"""The selfcheck list is the one home of the identity checks.

Every entry of ``run_selfcheck(full=True)`` is one test case here, and the
mutation table shows that each entry can fail: every row patches a package
function that the entry's quantity is computed from, never the helper that
returns the residual itself, and the entry must then report FAIL.
"""
from dataclasses import replace
from pkgutil import resolve_name

import pytest

from bvlab.selfcheck import run_selfcheck
from conftest import assert_selfcheck, selfcheck_results

NAMES = list(selfcheck_results())
QUICK = {r.name for r in run_selfcheck()}


def then(change):
    """Mutation: apply ``change`` to whatever the patched function returns."""
    return lambda orig: lambda *args: change(orig(*args))


def times(factor):
    return then(lambda x: x * factor)


def field_times(factor):
    return then(lambda field: field.scaled(factor))


def series_times(factor):
    return then(lambda series: series.scale(factor))


def _row(name, target, mutate, why):
    return pytest.param(name, target, mutate, id=f"{name}-{why}")


MUTATIONS = [
    _row("basic_cauchy_closed_form", "bvlab.annular.moment", times(1 + 1e-9), "moment"),
    _row("dbar_identity_fd", "bvlab.annular._cauchy_term_pieces",
         lambda orig: lambda t: [p.scaled(1.001) for p in orig(t)], "pieces-scaled"),
    _row("cauchy_breakpoint_continuity", "bvlab.annular._cauchy_term_pieces",
         lambda orig: lambda t: orig(t)[:-1], "outer-piece-lost"),
    _row("exterior_consistency", "bvlab.annular.derivative_z", field_times(1 + 1e-6),
         "derivative"),
    _row("pullback_identity", "bvlab.selfcheck.pullback_power", field_times(1.001), "pullback"),
    _row("pullback_vanishes_at_origin", "bvlab.annular.MonomialTerm.value",
         lambda orig: lambda t, z: t.coeff if z == 0 else orig(t, z), "value-at-origin"),
    _row("projection_reflection_relation", "bvlab.annular.PiecewiseField.reflect_conjugate",
         field_times(1.001), "reflection"),
    _row("lacunary_unit_variance", "bvlab.selfcheck.variance_lacunary",
         then(lambda est: replace(est, value=est.value * (1 + 1e-9))), "estimator"),
    _row("shell_mass_vs_closed_form_d2", "bvlab.constructions.shell_cauchy_series",
         series_times(1.05), "shell-series"),
    _row("table_display_values", "bvlab.selfcheck.lambda_lemma_coeff", times(1.001),
         "coefficient"),
    _row("optimal_rho0_argmax", "bvlab.selfcheck.optimal_rho0", times(1.1), "radius"),
    _row("degree_optimizers", "bvlab.formulas.sigma2_optimal", times(0.999), "objective"),
    _row("truncation_worked_example", "bvlab.annular.PiecewiseField.max_r_out", times(1.05),
         "support-radius"),
    _row("lacunary_functional_equation", "bvlab.selfcheck.lacunary_vector_field",
         then(lambda lac: replace(lac, v=lac.v.scale(1.001))), "field"),
    _row("shell_cauchy_identity", "bvlab.constructions.shell_cauchy_series", series_times(1.001),
         "shell-series"),
    *(_row(f"coboundary_exact_d{d}", "bvlab.dynamics.birkhoff_variance_exact",
           times(1 + 1e-9), "birkhoff-sum") for d in (2, 3, 20)),
    _row("pointwise_bounds", "bvlab.selfcheck.pointwise_sigma_bound", times(1 + 1e-12),
         "bound"),
    _row("serialization_roundtrip", "bvlab.laurent.ExteriorLaurent.from_doc",
         lambda orig: classmethod(lambda cls, doc: orig(doc).with_max_freq(doc["max_freq"] + 1)),
         "max-freq-off-by-one"),
    *(_row(f"method_agreement_d{d}", "bvlab.variance._radial_fourth_order_integral",
           times(1.05), "cesaro-radial-integral") for d in (2, 3, 4, 20)),
    _row("random_growth_slopes", "bvlab.selfcheck.random_unit_shell_field", field_times(2.0),
         "coefficient-above-one"),
    _row("order2_degree16", "bvlab.order2.convolve",
         then(lambda out: (out[0].scale(2.0), out[1])), "square-term"),
    _row("order2_degree16", "bvlab.order2.product_beurling_exterior",
         then(lambda coeffs: {k: 2.0 * c for k, c in coeffs.items()}), "product-term"),
    _row("order2_degree16", "bvlab.selfcheck.order2_bound",
         lambda orig: lambda params, refine=False: orig(params), "no-stability"),
]


@pytest.mark.parametrize("name", NAMES)
def test_check_passes(name):
    assert_selfcheck(name)


def test_mutation_table_covers_every_check():
    mutated = {row.values[0] for row in MUTATIONS}
    assert mutated == set(NAMES)


@pytest.mark.parametrize("name, target, mutate", MUTATIONS)
def test_check_can_fail(name, target, mutate, monkeypatch):
    monkeypatch.setattr(target, mutate(resolve_name(target)))
    result = {r.name: r for r in run_selfcheck(full=name not in QUICK)}[name]
    assert not result.passed, result.detail
