"""Minimal control time and backstepping synthesis for 1-D 2x2 hyperbolic systems."""

from .coeffs import CoefficientSpec, Grid, vanishing_prefix
from .characteristics import SpeedPair
from .transforms import DiagGauge, diag_removal, volterra_apply, volterra_invert
from .kernels import (KernelSet, FeedbackLaw, solve_kernels, solve_gains, solve_trace,
                      trace_g, feedback_gains)
from .simulator import (SystemSpec, BoundaryReflection, SimResult, simulate,
                        canonical_map, canonical_solution, growth_rate, l2_norm)
from .mintime import (TimesReport, TitchmarshReport, times_report,
                      canonical_min_time, nxn_canonical_min_time, predicted_g_prefix,
                      titchmarsh_check)

__version__ = "0.1.0"

__all__ = [
    "CoefficientSpec", "Grid", "vanishing_prefix", "SpeedPair",
    "DiagGauge", "diag_removal", "volterra_apply", "volterra_invert",
    "KernelSet", "FeedbackLaw", "solve_kernels", "solve_gains", "solve_trace",
    "trace_g", "feedback_gains",
    "SystemSpec", "BoundaryReflection", "SimResult", "simulate",
    "canonical_map", "canonical_solution", "growth_rate", "l2_norm",
    "TimesReport", "TitchmarshReport", "times_report", "canonical_min_time",
    "nxn_canonical_min_time", "predicted_g_prefix", "titchmarsh_check",
]
