"""Minimal control time and backstepping synthesis for 1-D 2x2 hyperbolic systems."""

from .coeffs import CoefficientSpec, Grid, eval_coeff, vanishing_prefix
from .characteristics import SpeedPair, phi, phi_inv, flow, entry_exit
from .transforms import DiagGauge, diag_removal, volterra_apply, volterra_invert
from .kernels import (KernelSet, FeedbackLaw, solve_kernels, solve_gains, solve_trace,
                      trace_g, feedback_gains, sin_map)
from .simulator import (SystemSpec, BoundaryReflection, SimResult, simulate,
                        canonical_map, canonical_solution, growth_rate, l2_norm)
from .mintime import (TimesReport, TitchmarshReport, times_report,
                      canonical_min_time, nxn_canonical_min_time, predicted_g_prefix,
                      titchmarsh_check)

__version__ = "0.1.0"

__all__ = [
    "CoefficientSpec", "Grid", "eval_coeff", "vanishing_prefix",
    "SpeedPair", "phi", "phi_inv", "flow", "entry_exit",
    "DiagGauge", "diag_removal", "volterra_apply", "volterra_invert",
    "KernelSet", "FeedbackLaw", "solve_kernels", "solve_gains", "solve_trace",
    "trace_g", "feedback_gains", "sin_map",
    "SystemSpec", "BoundaryReflection", "SimResult", "simulate",
    "canonical_map", "canonical_solution", "growth_rate", "l2_norm",
    "TimesReport", "TitchmarshReport", "times_report", "canonical_min_time",
    "nxn_canonical_min_time", "predicted_g_prefix", "titchmarsh_check",
]
