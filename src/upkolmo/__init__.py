"""Solvers and numerical certification for ultra-parabolic Kolmogorov-type
equations with two time-like variables and delayed or impulsive sources."""

from . import exprdsl, io, kernels, problem, scheme, solver, verify
from .exprdsl import parse, evaluate, eval_dual, to_string
from .kernels import omega, k_gamma, source_growth_constants
from .problem import (Field, Grid, ProblemSpec, Trajectory,
                      impulsive_bounds, max_principle_bound,
                      refined_max_bound, stability_rhs)
from .scheme import SchemeOptions, Stepper, ENGQUIST_OSHER, LAX_FRIEDRICHS
from .solver import solve_entropy, solve_impulsive, solve_regularized
from .verify import (VerificationReport, check_bln, check_entropy_residual,
                     check_gamma_limit, check_jump, check_max_principle,
                     check_stability, validate_genuine_nonlinearity,
                     write_reports)

__version__ = "0.1.0"
