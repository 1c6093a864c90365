"""Minimal control time and backstepping synthesis for 1-D 2x2 hyperbolic systems.

Each public name is imported from its module on first use (PEP 562), so that
`import hypmin` loads no submodule and `hypmin.times_report` loads no solver.
"""

import importlib

__version__ = "0.1.0"

# each public name and the module it lives in
_HOMES = {name: module for module, names in [
    ("coeffs", "CoefficientSpec Grid vanishing_prefix"),
    ("characteristics", "SpeedPair"),
    ("system", "SystemSpec BoundaryReflection FeedbackLaw KernelSet"),
    ("transforms", "DiagGauge diag_removal volterra_apply volterra_invert"),
    ("kernels", "solve_kernels solve_gains solve_trace"),
    ("simulator", "SimResult simulate canonical_map canonical_solution growth_rate l2_norm"),
    ("mintime", "TimesReport TitchmarshReport times_report canonical_min_time "
                "nxn_canonical_min_time predicted_g_prefix titchmarsh_check"),
] for name in names.split()}

__all__ = list(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
