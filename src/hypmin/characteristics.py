"""Travel-time maps, characteristic flows, and entry/exit times on [0,1].

A SpeedPair holds one negative speed lambda1 and one positive speed lambda2.
The travel-time maps

    phi1(x) = int_0^x 1/(-lambda1),   phi2(x) = int_0^x 1/lambda2

are strictly increasing.  Each is taken as the exact integral of the
piecewise-linear interpolant of its weight 1/|lambda_i| on a uniform table,
so phi1, phi2 and psi = phi1 + phi2 are piecewise quadratic with the
trapezoid sums as node values, and every evaluation and inverse is closed
form in one table cell.  Outside [0,1] the weights are extended by their
boundary values, which extends the maps linearly and makes the flow maps
total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoefficientSpec
from .errors import DomainError, InvalidSpeedsError

__all__ = ["SpeedPair", "phi", "phi_inv", "flow", "entry_exit"]


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
    both weights are positive, so the denominator never cancels.  Callers
    pass millions of points at once, so the work is done in place.
    """
    T = tab[-1]
    x = np.clip(v, 0.0, T).reshape(-1)
    k = np.searchsorted(tab[1:-1], x, side="right")   # cell of each point
    x -= tab[k]                                        # x holds r for now
    wk = wtab[k]
    w = x * (np.diff(wtab) * (2.0 / (nodes[1] - nodes[0])))[k]
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
    eps_bound: float

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
        w1 = 1.0 / (-l1)
        w2 = 1.0 / l2
        ht = 1.0 / table_n
        phi1 = np.concatenate(([0.0], np.cumsum(0.5 * ht * (w1[1:] + w1[:-1]))))
        phi2 = np.concatenate(([0.0], np.cumsum(0.5 * ht * (w2[1:] + w2[:-1]))))
        return SpeedPair(lambda1, lambda2, nodes, w1, w2, phi1, phi2,
                         eps_bound=float(min((-l1).min(), l2.min())))

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


def phi(speeds: SpeedPair, i: int, x):
    """phi_i(x) for x in [0,1]; phi_i(1) is the crossing time T_i."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise DomainError("phi evaluated outside [0,1]")
    return speeds.phi_eval(i, x)


def phi_inv(speeds: SpeedPair, i: int, v):
    """Unique x in [0,1] with phi_i(x) = v, for v in [0, T_i]."""
    v = np.asarray(v, dtype=float)
    T = speeds.T1 if i == 1 else speeds.T2
    slack = 1e-12 * max(T, 1.0)
    if np.any(v < -slack) or np.any(v > T + slack):
        raise DomainError(f"phi_inv argument outside [0, T_{i}]")
    return speeds.phi_inv_ext(i, np.clip(v, 0.0, T))


def flow(speeds: SpeedPair, i: int, s, t, x):
    """Position at time s of the characteristic of lambda_i through (t, x).

    chi2(s;t,x) = phi2^{-1}(phi2(x) + (s-t)) and
    chi1(s;t,x) = phi1^{-1}(phi1(x) - (s-t)); total thanks to the constant
    speed extension.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if i == 1:
        return speeds.phi_inv_ext(1, speeds.phi_eval(1, x) - (s - t))
    return speeds.phi_inv_ext(2, speeds.phi_eval(2, x) + (s - t))


def entry_exit(speeds: SpeedPair, i: int, t, x):
    """Times at which the characteristic of lambda_i through (t, x) crosses
    the inflow and outflow ends of [0,1].

    Component 1 enters at x=1 and exits at x=0; component 2 enters at x=0
    and exits at x=1.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise DomainError("entry_exit needs x in [0,1]")
    t = np.asarray(t, dtype=float)
    if i == 1:
        p = speeds.phi_eval(1, x)
        s_in = t + p - speeds.T1
        s_out = t + p
    else:
        p = speeds.phi_eval(2, x)
        s_in = t - p
        s_out = t + speeds.T2 - p
    if s_in.ndim == 0:
        return float(s_in), float(s_out)
    return s_in, s_out
