"""Numerical laboratory for asymptotic variance of annular singular integrals.

Every submodule but ``cli`` is loaded lazily: its body runs on the first access
to one of its attributes, so a command runs only the modules it uses.
"""
import importlib.util
import sys

__version__ = "0.1.0"

# Every submodule but cli, with the names that ``from bvlab import X`` serves from it.
_NAMES = {
    "annular": "MonomialTerm PiecewiseField beurling beurling_exterior bergman_coefficients "
               "cauchy_exterior cauchy_full derivative_z moment multiply pullback_power",
    "constructions": "LacunaryField ShellParams build_shell lacunary_vector_field "
                     "shell_beurling_series shell_cauchy_identity_check shell_cauchy_series "
                     "truncate_to_polynomial",
    "dynamics": "BirkhoffVariance BlaschkeMap CirclePotential birkhoff_variance "
                "birkhoff_variance_exact birkhoff_variance_mc coboundary_check log_deriv_mean",
    "errors": "BVLabError CapacityError DivergentMomentError UnresolvedScaleError "
              "UnresolvedTruncationError UnsupportedTermError ValidationError",
    "formulas": "best_integer_degree best_real_degree distortion_constant "
                "julia_dim_k julia_dim_t optimal_rho0 pointwise_sigma_bound sigma2_optimal "
                "sigma2_shell smirnov_dim_k smirnov_dim_t table2",
    "laurent": "ExteriorLaurent SelfSimilarity",
    "manifest": "",
    "order2": "Order2Report order2_bound order2_field parameter_search",
    "selfcheck": "",
    "variance": "VarianceEstimate cesaro_sigma4 growth_slope integral_means "
                "variance_block variance_block_mass variance_lacunary",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}

for _module in _NAMES:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _module, _spec


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
