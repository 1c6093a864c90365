"""Diagonal-removing gauge and the second-kind Volterra transformation.

The gauge multiplies each component by a positive exponential weight so the
self-coupling terms drop out, leaving only cross couplings bt, ct.  The
Volterra transformation subtracts a lower-triangular integral term; on the
discrete grid it is a unit lower-triangular map, so its inverse is computed
by forward substitution and apply/invert are exact mutual inverses up to
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .coeffs import CoefficientSpec, Grid, cumtrapz, trapezoid_weights
from .errors import DomainError, GridMismatchError

if TYPE_CHECKING:  # pragma: no cover
    from .characteristics import SpeedPair
    from .kernels import KernelSet

__all__ = ["DiagGauge", "diag_removal", "volterra_apply", "volterra_invert"]


@dataclass(frozen=True)
class DiagGauge:
    """Gauge weights e1, e2 > 0 and gauged couplings bt, ct on a grid."""

    grid: Grid
    e1: np.ndarray = field(repr=False)
    e2: np.ndarray = field(repr=False)
    bt: np.ndarray = field(repr=False)
    ct: np.ndarray = field(repr=False)

    def bt_at(self, x):
        return np.interp(x, self.grid.nodes, self.bt)

    def ct_at(self, x):
        return np.interp(x, self.grid.nodes, self.ct)


def diag_removal(a: CoefficientSpec, b: CoefficientSpec, c: CoefficientSpec,
                 d: CoefficientSpec, speeds: "SpeedPair", grid: Grid) -> DiagGauge:
    """Remove the diagonal couplings a, d via exponential weights.

    e1(x) = exp(-int_0^x a/lambda1), e2(x) = exp(-int_0^x d/lambda2),
    bt = b e1/e2, ct = c e2/e1.  The zero set of c at grid nodes is
    untouched, so ct and c share their vanishing prefix exactly; a zero of
    bt is +0.0, so that the kernel solves see one b = 0.  A weight
    that overflows or underflows, or a gauged coupling that overflows,
    raises DomainError naming the coefficient.
    """
    xs = grid.nodes
    l1 = np.asarray(speeds.speed(1, xs), dtype=float)
    l2 = np.asarray(speeds.speed(2, xs), dtype=float)
    with np.errstate(all="ignore"):
        e1 = np.exp(-cumtrapz(np.asarray(a(xs), dtype=float) / l1, grid.h))
        e2 = np.exp(-cumtrapz(np.asarray(d(xs), dtype=float) / l2, grid.h))
        for name, e, formula in (("a", e1, "exp(-int a/lambda1)"),
                                 ("d", e2, "exp(-int d/lambda2)")):
            if not np.all(np.isfinite(e) & (e > 0.0)):
                raise DomainError(f"coefficient {name} is too large: the gauge "
                                  f"weight {formula} overflows or underflows")
        bt = np.asarray(b(xs), dtype=float) * e1 / e2 + 0.0   # b = -0.0 is b = 0
        ct = np.asarray(c(xs), dtype=float) * e2 / e1
    for name, val in (("b", bt), ("c", ct)):
        if not np.all(np.isfinite(val)):
            raise DomainError(f"coefficient {name} is too large against the gauge "
                              "weights of a and d: its gauged value overflows")
    return DiagGauge(grid, e1, e2, bt, ct)


def _trap_weights(n: int, h: float) -> np.ndarray:
    """Lower-triangular trapezoid weights: row m integrates over [0, x_m]."""
    w = np.tril(np.full((n + 1, n + 1), h))
    idx = np.arange(n + 1)
    w[:, 0] = 0.5 * h
    w[idx, idx] = 0.5 * h
    w[0, :] = 0.0
    return w


def _check_fields(K: "KernelSet", y1, y2):
    npts = K.k11.shape[0]
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if y1.shape != (npts,) or y2.shape != (npts,):
        raise GridMismatchError(
            f"fields of shape {y1.shape}/{y2.shape} do not match kernel grid ({npts} nodes)")
    return y1, y2


def volterra_apply(K: "KernelSet", y1, y2):
    """yh_i(x) = y_i(x) - int_0^x (k_i1 y_1 + k_i2 y_2), trapezoid on the triangle."""
    y1, y2 = _check_fields(K, y1, y2)
    W = _trap_weights(K.grid.n, K.grid.h)
    yh1 = y1 - (W * K.k11) @ y1 - (W * K.k12) @ y2
    yh2 = y2 - (W * K.k21) @ y1 - (W * K.k22) @ y2
    return yh1, yh2


def volterra_invert(K: "KernelSet", yh1, yh2):
    """Solve the discrete second-kind system so that apply(invert(yh)) = yh.

    Forward substitution in x; row m couples (y1[m], y2[m]) only through the
    h/2 diagonal quadrature weight, a 2x2 solve.
    """
    yh1, yh2 = _check_fields(K, yh1, yh2)
    n = K.grid.n
    h = K.grid.h
    y1 = np.empty_like(yh1)
    y2 = np.empty_like(yh2)
    y1[0], y2[0] = yh1[0], yh2[0]
    wrow = trapezoid_weights(n, h)       # row m reads wrow[:m], no end weight
    t = 0.5 * h
    for m in range(1, n + 1):
        w = wrow[:m]
        r1 = yh1[m] + w @ (K.k11[m, :m] * y1[:m] + K.k12[m, :m] * y2[:m])
        r2 = yh2[m] + w @ (K.k21[m, :m] * y1[:m] + K.k22[m, :m] * y2[:m])
        a11 = 1.0 - t * K.k11[m, m]
        a12 = -t * K.k12[m, m]
        a21 = -t * K.k21[m, m]
        a22 = 1.0 - t * K.k22[m, m]
        det = a11 * a22 - a12 * a21
        y1[m] = (a22 * r1 - a12 * r2) / det
        y2[m] = (-a21 * r1 + a11 * r2) / det
    return y1, y2
