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

Each inverse reads tables built once per SpeedPair, at its first inverse
(_Inverse): psi's summed table and weights, the scaled slope term of every
table, and a bucket table of first cells, one bucket per table cell over
[0, T].  A point's cell is its bucket's first cell, walked on a cell at a
time while the point lies at or past the cell's right end; a bucket holds
a cell or two on smooth speeds, so a few vectorized steps find the cell
that a binary search of the table would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

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


class _Inverse(NamedTuple):
    """What _cell_inv reads of one table, built once per SpeedPair: the
    table (nodes, node values tab, T = tab[-1]) and its weights w, the
    power of two scale that brings the largest weight into [0.5, 1), the
    slope term np.diff(w * scale) * 2/ht, and the cell lookup: first, the
    first cell of each of `cells` buckets of width T / cells (int32), and
    most, the most inner nodes one bucket holds."""

    nodes: np.ndarray
    tab: np.ndarray
    w: np.ndarray
    scale: float
    slope: np.ndarray
    width: float
    first: np.ndarray
    most: int


def _bucket(x, width: float, cells: int):
    """Bucket of each x in [0, T] (the last one for NaN); never below that
    of any x' <= x, as division by width, fmin and truncation keep order."""
    q = x / width
    return np.fmin(q, cells - 1, out=q).astype(np.intp)


def _inverse(nodes, tab, w) -> _Inverse:
    """The _Inverse of the table tab of weight w at nodes."""
    scale = np.ldexp(1.0, -int(np.frexp(w.max())[1]))
    cells = tab.size - 1
    inner = tab[1:-1]
    width = tab[-1] / cells
    # first[b] counts the inner nodes of the buckets below b: each lies at
    # or below every x of bucket b, so the cell of such an x is at least that
    first = np.searchsorted(_bucket(inner, width, cells), np.arange(cells)).astype(np.int32)
    return _Inverse(nodes, tab, w, scale, np.diff(w * scale) * (2.0 / (nodes[1] - nodes[0])),
                    width, first, int(np.diff(first, append=inner.size).max()))


# Steps of the bucket walk; the points still short of their cell after
# them (where a bucket holds more inner nodes) are binary searched.
_WALK = 4


def _cell(inv: _Inverse, x: np.ndarray) -> np.ndarray:
    """np.searchsorted(tab[1:-1], x, side="right") for x in [0, T]: the
    cell of each x from its bucket's first cell, then one cell on at each
    step of the walk wherever x lies at or past its cell's right end,
    tab[k + 1].  A bucket of m inner nodes leaves at most m steps, so
    `most` of them end every walk (NaN never moves; its cell is
    irrelevant).  Only x = T lies at the right end of the last cell: its
    walk reads that end again (take clips the index) and is taken back."""
    last = inv.tab.size - 2
    upper = inv.tab[1:]
    k = inv.first.take(_bucket(x, inv.width, inv.first.size)).astype(np.intp)
    for _ in range(min(inv.most, _WALK)):
        k += upper.take(k, mode="clip") <= x
    if inv.most > _WALK:
        todo = np.flatnonzero(upper.take(k, mode="clip") <= x)
        k[todo] = np.searchsorted(inv.tab[1:-1], x[todo], side="right")
    return np.minimum(k, last, out=k)


def _cell_inv(inv: _Inverse, v):
    """Inverse of _cell_eval on all of R.

    In cell k with r = v - tab[k] the weight at the answer satisfies
    w^2 = w_k^2 + 2 r (w_{k+1} - w_k) / ht, and x = x_k + 2 r / (w_k + w);
    both weights are positive, so the denominator never cancels.  The
    weights and r are taken times the power of two that brings the largest
    weight into [0.5, 1): that leaves every rounding as it is, but keeps
    w_k^2 from underflowing where a speed is above about 1e154.  Callers
    pass millions of points at once, so the work is done in place.  The
    linear branches beyond [0, T] are added only at the points clipping
    moves (v outside [0, T], or NaN): elsewhere the core is at least +0.0
    and each branch term a zero, which would leave it as it is.
    """
    T, shape = inv.tab[-1], np.shape(v)
    v = v.reshape(-1)
    x = np.clip(v, 0.0, T)
    out = np.flatnonzero(x != v)
    k = _cell(inv, x)
    x -= inv.tab[k]
    x *= inv.scale                                     # x holds r * scale for now
    wk = inv.w[k]
    wk *= inv.scale
    w = x * inv.slope[k]
    w += wk * wk
    np.sqrt(w, out=w)
    w += wk
    x /= w
    x *= 2.0
    x += inv.nodes[k]
    del k, wk, w
    if out.size:
        vo = v[out]
        x[out] += np.minimum(vo, 0.0) / inv.w[0]
        x[out] += np.maximum(vo - T, 0.0) / inv.w[-1]
    return x.reshape(shape) if shape else float(x[0])


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

    @cached_property
    def inverses(self) -> tuple:
        """The _Inverse of phi1, phi2 and psi, built at the first inverse and
        kept: a command refused before it solves anything builds none."""
        nodes, phi1, phi2 = self.table_nodes, self.phi1_table, self.phi2_table
        return (_inverse(nodes, phi1, self.w1), _inverse(nodes, phi2, self.w2),
                _inverse(nodes, phi1 + phi2, self.w1 + self.w2))

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
        return _cell_inv(self.inverses[i - 1], np.asarray(v, dtype=float))

    def psi_eval(self, x):
        """phi1 + phi2, the round-trip travel time from 0 to x and back."""
        return self.phi_eval(1, x) + self.phi_eval(2, x)

    def psi_inv(self, v):
        """Inverse of psi on all of R (linear branches beyond [0,T1+T2])."""
        return _cell_inv(self.inverses[2], np.asarray(v, dtype=float))

