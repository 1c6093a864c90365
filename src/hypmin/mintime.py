"""Minimal-time formulas and the numerical convolution-support check.

The controllability threshold of the physical system is

    Tmin = max( max(T1, T2),  int_{Xc}^1 (1/(-lambda1) + 1/lambda2) )

where Xc is the vanishing prefix of the coupling c over (0, xbar) and xbar
solves phi1(xbar) + phi2(xbar) = phi2(1).  The canonical form threshold
replaces the coupling prefix by the prefix of its trace g.  The module also
provides the n-speed canonical calculator and a discrete test of the
convolution support identity that underlies the sharpness argument.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .coeffs import (CoefficientSpec, Grid, integrate, prefix_of_samples,
                     relative_tol, vanishing_prefix)
from .characteristics import SpeedPair
from .errors import GridMismatchError, SpeedOrderError
from .simulator import SystemSpec

__all__ = [
    "TimesReport",
    "TitchmarshReport",
    "times_report",
    "canonical_min_time",
    "nxn_canonical_min_time",
    "titchmarsh_check",
]


@dataclass(frozen=True)
class TimesReport:
    T1: float
    T2: float
    Topt: float
    Tunif: float
    xbar: float
    Xc: float
    Tmin: float
    prefix_tol: float
    tolerance_limited: bool
    constant_speed_note: str | None = None

    def as_dict(self) -> dict:
        return asdict(self)

    def pretty(self) -> str:
        lines = [f"{k:<22} {v:.12g}" for k, v in self.as_dict().items()
                 if isinstance(v, (int, float)) and not isinstance(v, bool)]
        lines.append(f"{'tolerance_limited':<22} {self.tolerance_limited}")
        if self.constant_speed_note:
            lines.append(self.constant_speed_note)
        return "\n".join(lines)


def _is_constant(spec: CoefficientSpec, probe: np.ndarray) -> bool:
    vals = np.asarray(spec(probe), dtype=float)
    scale = max(1.0, float(np.max(np.abs(vals))))
    return float(np.max(vals) - np.min(vals)) <= 1e-12 * scale


def times_report(system: SystemSpec, grid: Grid | None = None) -> TimesReport:
    """All characteristic times of the system plus its minimal control time."""
    speeds = system.speeds
    if grid is None:
        grid = Grid.uniform(2048)
    T1, T2 = speeds.T1, speeds.T2
    Topt = max(T1, T2)
    Tunif = T1 + T2
    xbar = float(speeds.psi_inv(T2))
    tol = relative_tol(system.c, grid)
    Xc = vanishing_prefix(system.c, xbar, tol, grid)
    Xc_strict = vanishing_prefix(system.c, xbar, tol * 1e-2, grid)
    limited = (Xc - Xc_strict) > 2.0 * grid.h
    Tmin = max(Topt, Tunif - float(speeds.psi_eval(Xc)))

    note = None
    probe = np.linspace(0.0, 1.0, 257)
    if _is_constant(speeds.lambda1, probe) and _is_constant(speeds.lambda2, probe):
        edge = 1.0 - Tmin / Tunif if Tmin < Tunif else 0.0
        note = ("constant speeds: a time T in [Topt, Tunif) is admissible iff "
                f"c = 0 on (0, 1 - T/Tunif); measured prefix {Xc:.12g} gives "
                f"Tmin = {Tmin:.12g} (c must vanish on (0, {edge:.12g}))")
    return TimesReport(T1=T1, T2=T2, Topt=Topt, Tunif=Tunif, xbar=xbar, Xc=Xc,
                       Tmin=Tmin, prefix_tol=tol, tolerance_limited=limited,
                       constant_speed_note=note)


def canonical_min_time(speeds: SpeedPair, g: np.ndarray, tol: float) -> float:
    """Threshold time of the canonical form for a sampled trace g."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 1 or g.shape[0] < 2:
        raise GridMismatchError("trace g must be sampled on at least two nodes")
    h = 1.0 / (g.shape[0] - 1)
    X1 = prefix_of_samples(g, h, 1.0, tol)
    T1, T2 = speeds.T1, speeds.T2
    return max(T1 + T2 - float(speeds.phi_eval(2, X1)), T2)


def nxn_canonical_min_time(speeds: list, G: list, Q: list,
                           tol: float = 1e-10, quad_n: int = 4096) -> float:
    """Threshold time of the n-speed canonical form (one negative speed).

    speeds lists the n speed coefficients (lambda1 negative, the rest
    positive and strictly increasing); G the n-1 sampled traces; Q the n-1
    boundary reflections.  A nonzero reflection forces the full crossing
    time of its component regardless of the trace.
    """
    nspeeds = len(speeds)
    if nspeeds < 2 or len(G) != nspeeds - 1 or len(Q) != nspeeds - 1:
        raise GridMismatchError("need n speeds with n-1 traces and reflections")
    probe = np.linspace(0.0, 1.0, 1025)
    vals = [np.asarray(s(probe), dtype=float) for s in speeds]
    if np.any(vals[0] >= 0.0):
        raise SpeedOrderError("lambda1 must be negative on [0,1]")
    if np.any(vals[1] <= 0.0):
        raise SpeedOrderError("lambda2 must be positive on [0,1]")
    for i in range(2, nspeeds):
        if np.any(vals[i] <= vals[i - 1]):
            raise SpeedOrderError(
                f"speeds must increase: lambda{i + 1} <= lambda{i} somewhere")

    T1 = integrate(lambda x: 1.0 / (-speeds[0](x)), 0.0, 1.0, quad_n)
    T2 = integrate(lambda x: 1.0 / speeds[1](x), 0.0, 1.0, quad_n)
    contrib = []
    for i in range(1, nspeeds):
        lam = speeds[i]
        gi = np.asarray(G[i - 1], dtype=float)
        if Q[i - 1] != 0.0:
            contrib.append(integrate(lambda x: 1.0 / lam(x), 0.0, 1.0, quad_n))
        else:
            hg = 1.0 / (gi.shape[0] - 1)
            X1 = prefix_of_samples(gi, hg, 1.0, tol)
            contrib.append(integrate(lambda x: 1.0 / lam(x), X1, 1.0, quad_n))
    return max(T1 + max(contrib), T2)


@dataclass(frozen=True)
class TitchmarshReport:
    convolution_max: float
    prefix_a: float
    prefix_b: float
    prefix_sum: float
    verdict: str  # "vanishes" | "nonvanishing"
    consistent: bool
    cell: float

    def as_dict(self) -> dict:
        return asdict(self)


def titchmarsh_check(alpha: np.ndarray, beta: np.ndarray, tau_bar: float,
                     tol: float) -> TitchmarshReport:
    """Discrete convolution-support check on (0, tau_bar).

    The convolution of alpha and beta vanishes on (0, tau_bar) exactly when
    their vanishing prefixes sum to at least tau_bar; the report records the
    trapezoid convolution maximum, both measured prefixes, and whether the
    numerical verdict matches that equivalence up to one grid cell.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.shape != beta.shape or alpha.ndim != 1 or alpha.shape[0] < 3:
        raise GridMismatchError("alpha and beta must share a uniform sampling")
    N = alpha.shape[0] - 1
    dtau = tau_bar / N
    full = np.convolve(alpha, beta)[:N + 1]
    corr = 0.5 * (alpha * beta[0] + alpha[0] * beta)
    conv = dtau * (full - corr)
    conv[0] = 0.0
    conv_max = float(np.max(np.abs(conv)))
    pa = prefix_of_samples(alpha, dtau, tau_bar, tol)
    pb = prefix_of_samples(beta, dtau, tau_bar, tol)
    psum = pa + pb
    vanishes = conv_max <= tol
    verdict = "vanishes" if vanishes else "nonvanishing"
    consistent = (vanishes == (psum >= tau_bar)) or abs(psum - tau_bar) <= dtau
    return TitchmarshReport(convolution_max=conv_max, prefix_a=pa, prefix_b=pb,
                            prefix_sum=psum, verdict=verdict,
                            consistent=bool(consistent), cell=dtau)
