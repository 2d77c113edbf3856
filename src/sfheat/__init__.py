"""sfheat: numerical laboratory for the stochastic fractional heat equation
driven by multiplicative Gaussian noise whose covariance is the heat kernel.

Computes Stratonovich and Skorohod moments via Feynman-Kac Monte Carlo,
cross-validated against a Wiener-chaos series oracle and a mollified-noise
direct solver that realizes solutions on a torus.
"""

__version__ = "0.1.0"

from .chaos import (ChaosTerm, ExistenceReport, chaos_second_moment, chaos_term,
                    existence_check, series_term_bound)
from .errors import BudgetError, FactorizationError, RegimeError
from .exponents import (DivergentExponentWarning, MollifierParams, cross_exponent,
                        deterministic_bound, mollified_inner, self_exponent)
from .fk import MomentEstimate, sko_mean_exact, sko_moment, strat_moment
from .kernels import heat_kernel, stable_kernel
from .params import InitialCondition, ModelParams, parse_u0
from .paths import (Path, RngStream, TimeGrid, constant_path, sample_increment, sample_path,
                    sample_subordinator_increment)
from .solver import FieldState, NoiseSlabSampler, TorusGrid, ensemble_moment, step

__all__ = [
    "BudgetError", "ChaosTerm", "DivergentExponentWarning",
    "ExistenceReport", "FactorizationError", "FieldState",
    "InitialCondition", "ModelParams", "MollifierParams",
    "MomentEstimate", "NoiseSlabSampler", "Path", "RegimeError", "RngStream",
    "TimeGrid", "TorusGrid",
    "chaos_second_moment", "chaos_term",
    "constant_path", "cross_exponent", "deterministic_bound", "ensemble_moment",
    "existence_check", "heat_kernel",
    "mollified_inner", "parse_u0",
    "sample_increment", "sample_path",
    "sample_subordinator_increment", "self_exponent",
    "series_term_bound", "sko_mean_exact", "sko_moment",
    "stable_kernel", "step", "strat_moment",
]
