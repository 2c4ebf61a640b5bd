"""Numerical laboratory for asymptotic variance of annular singular integrals."""

__version__ = "0.1.0"

from .annular import (MonomialTerm, PiecewiseField, beurling, beurling_exterior,
                      bergman_coefficients, cauchy_exterior, cauchy_full,
                      derivative_z, moment, multiply, pullback_power)
from .constructions import (LacunaryField, PerturbationSpec, ShellParams,
                            build_shell, lacunary_vector_field, periodise,
                            perturbation_vector_field, shell_beurling_series,
                            shell_cauchy_identity_check, shell_cauchy_series,
                            truncate_to_polynomial)
from .dynamics import (BirkhoffVariance, BlaschkeMap, CirclePotential, birkhoff_variance,
                       birkhoff_variance_exact, birkhoff_variance_mc, coboundary_check,
                       log_deriv_mean)
from .errors import (BVLabError, CapacityError, DivergentMomentError,
                     UnresolvedScaleError, UnresolvedTruncationError,
                     UnsupportedTermError, ValidationError)
from .formulas import (DimensionRow, best_integer_degree, best_real_degree,
                       distortion_constant, julia_dim_k, julia_dim_t,
                       optimal_rho0, pointwise_sigma_bound, sigma2_optimal,
                       sigma2_shell, smirnov_dim_k, smirnov_dim_t, table2)
from .laurent import ExteriorLaurent, SelfSimilarity
from .order2 import Order2Report, order2_bound, order2_field, parameter_search
from .variance import (VarianceEstimate, bloch_seminorm, cesaro_sigma4,
                       growth_slope, integral_means,
                       variance_block, variance_block_mass,
                       variance_lacunary)
