"""Travel-time maps on [0,1] and their inverses.

A SpeedPair holds one negative speed lambda1 and one positive speed lambda2.
The travel-time maps

    phi1(x) = int_0^x 1/(-lambda1),   phi2(x) = int_0^x 1/lambda2

are strictly increasing.  Each is taken as the exact integral of the
piecewise-linear interpolant of its weight 1/|lambda_i| on a uniform table,
so phi1, phi2 and psi = phi1 + phi2 are piecewise quadratic with the
trapezoid sums as node values, and every evaluation and inverse is closed
form in one table cell.  Outside [0,1] the weights are extended by their
boundary values, which extends the maps linearly and makes the inverses
total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoefficientSpec, cumtrapz
from .errors import InvalidSpeedsError

__all__ = ["SpeedPair", "speed_table_n"]


def _cell_eval(nodes, tab, wtab, x):
    """Integral of the piecewise-linear weight wtab from 0 to x (tab at nodes)."""
    ht = nodes[1] - nodes[0]
    xc = np.clip(x, 0.0, 1.0)
    k = np.minimum((xc / ht).astype(np.int64), len(nodes) - 2)
    s = xc - nodes[k]
    core = tab[k] + s * (wtab[k] + 0.5 * s * (wtab[k + 1] - wtab[k]) / ht)
    out = core + np.minimum(x, 0.0) * wtab[0] + np.maximum(x - 1.0, 0.0) * wtab[-1]
    return out if out.ndim else float(out)


def _cell_inv(nodes, tab, wtab, v):
    """Inverse of _cell_eval on all of R.

    In cell k with r = v - tab[k] the weight at the answer satisfies
    w^2 = w_k^2 + 2 r (w_{k+1} - w_k) / ht, and x = x_k + 2 r / (w_k + w);
    both weights are positive, so the denominator never cancels.  The
    weights and r are taken times the power of two that brings the largest
    weight into [0.5, 1): that leaves every rounding as it is, but keeps
    w_k^2 from underflowing where a speed is above about 1e154.  Callers
    pass millions of points at once, so the work is done in place.
    """
    T = tab[-1]
    scale = np.ldexp(1.0, -int(np.frexp(wtab.max())[1]))
    ws = wtab * scale
    x = np.clip(v, 0.0, T).reshape(-1)
    k = np.searchsorted(tab[1:-1], x, side="right")   # cell of each point
    x -= tab[k]
    x *= scale                                         # x holds r * scale for now
    wk = ws[k]
    w = x * (np.diff(ws) * (2.0 / (nodes[1] - nodes[0])))[k]
    w += wk * wk
    np.sqrt(w, out=w)
    w += wk
    x /= w
    x *= 2.0
    x += nodes[k]
    del k, wk, w
    x += np.minimum(v, 0.0).reshape(-1) / wtab[0]
    x += np.maximum(v - T, 0.0).reshape(-1) / wtab[-1]
    x = x.reshape(np.shape(v))
    return x if x.ndim else float(x)


def speed_table_n(grid_n: int) -> int:
    """Cells of the travel-time table of a solve on a grid of grid_n cells."""
    return max(4096, 4 * grid_n)


@dataclass(frozen=True)
class SpeedPair:
    """Speeds (lambda1 < 0 < lambda2) with precomputed travel-time tables."""

    lambda1: CoefficientSpec
    lambda2: CoefficientSpec
    table_nodes: np.ndarray = field(repr=False)
    w1: np.ndarray = field(repr=False)  # 1/(-lambda1) at table nodes
    w2: np.ndarray = field(repr=False)  # 1/lambda2 at table nodes
    phi1_table: np.ndarray = field(repr=False)
    phi2_table: np.ndarray = field(repr=False)

    @staticmethod
    def build(lambda1: CoefficientSpec, lambda2: CoefficientSpec,
              table_n: int = 4096) -> "SpeedPair":
        nodes = np.linspace(0.0, 1.0, table_n + 1)
        l1 = np.asarray(lambda1(nodes), dtype=float)
        l2 = np.asarray(lambda2(nodes), dtype=float)
        if not np.all(l1 < 0.0):
            raise InvalidSpeedsError("lambda1 must be negative on [0,1]")
        if not np.all(l2 > 0.0):
            raise InvalidSpeedsError("lambda2 must be positive on [0,1]")
        with np.errstate(over="ignore"):     # an infinite weight is refused below
            w1 = 1.0 / (-l1)
            w2 = 1.0 / l2
        ht = 1.0 / table_n
        # _cell_inv squares a weight, or the sum of two adjacent ones (psi's
        # weight is w1 + w2): 4 max w squared bounds all of these
        for i, lam, w in ((1, l1, w1), (2, l2, w2)):
            top = 4.0 * float(np.max(w))
            if not np.isfinite(top * top):
                raise InvalidSpeedsError(
                    f"lambda{i} is too close to zero on [0,1] (min |lambda{i}| = "
                    f"{np.min(np.abs(lam)):.3g}): the squares of its travel-time "
                    f"weight 1/|lambda{i}| overflow")
        return SpeedPair(lambda1, lambda2, nodes, w1, w2, cumtrapz(w1, ht), cumtrapz(w2, ht))

    @property
    def T1(self) -> float:
        return float(self.phi1_table[-1])

    @property
    def T2(self) -> float:
        return float(self.phi2_table[-1])

    def speed(self, i: int, x):
        """lambda_i at x, constantly extended outside [0,1]."""
        spec = self.lambda1 if i == 1 else self.lambda2
        return spec(np.clip(np.asarray(x, dtype=float), 0.0, 1.0))

    def _tables(self, i: int):
        if i == 1:
            return self.table_nodes, self.phi1_table, self.w1
        return self.table_nodes, self.phi2_table, self.w2

    def phi_eval(self, i: int, x):
        """Travel-time map phi_i at any real x (linear beyond [0,1])."""
        return _cell_eval(*self._tables(i), np.asarray(x, dtype=float))

    def phi_inv_ext(self, i: int, v):
        """Inverse of phi_i on all of R (linear branches beyond [0,T_i])."""
        return _cell_inv(*self._tables(i), np.asarray(v, dtype=float))

    def psi_eval(self, x):
        """phi1 + phi2, the round-trip travel time from 0 to x and back."""
        return self.phi_eval(1, x) + self.phi_eval(2, x)

    def psi_inv(self, v):
        """Inverse of psi on all of R (linear branches beyond [0,T1+T2])."""
        return _cell_inv(self.table_nodes, self.phi1_table + self.phi2_table,
                         self.w1 + self.w2, np.asarray(v, dtype=float))

