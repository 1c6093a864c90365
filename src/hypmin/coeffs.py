"""Coefficient-function model, trapezoid rules, and the vanishing-prefix functional.

Coefficients of the system are scalar functions on [0,1], given either as a
small analytic family (constant, polynomial, step, exponential bump) or as
grid samples with piecewise-linear interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import DomainError

__all__ = [
    "CoefficientSpec",
    "Grid",
    "cumtrapz",
    "trapezoid_weights",
    "vanishing_prefix",
    "prefix_of_samples",
    "relative_tol",
]

_DOMAIN_SLACK = 1e-12
_REL_TOL = 1e-12          # relative_tol's share of max |f|


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0,1] with n cells and n+1 nodes."""

    n: int
    nodes: np.ndarray = field(repr=False)
    h: float

    @staticmethod
    def uniform(n: int) -> "Grid":
        if n < 1:
            raise DomainError(f"grid needs at least one cell, got n={n}")
        return Grid(n=n, nodes=np.linspace(0.0, 1.0, n + 1), h=1.0 / n)


@dataclass(frozen=True)
class CoefficientSpec:
    """A scalar function on [0,1].

    Families:
      constant(v)            f(x) = v
      polynomial(coeffs)     f(x) = sum_k coeffs[k] x^k
      step(ell, lo, hi)      f(x) = lo for x <= ell, hi for x > ell
      expbump(shift)         f(x) = 0 for x <= shift, exp(-1/(x-shift)) beyond
      sampled(xs, values)    piecewise-linear through (xs, values), xs covering [0,1]
    """

    family: str
    params: tuple = ()
    xs: np.ndarray | None = field(default=None, repr=False)
    values: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def constant(v: float) -> "CoefficientSpec":
        return CoefficientSpec("constant", (float(v),))

    @staticmethod
    def polynomial(coeffs) -> "CoefficientSpec":
        params = tuple(float(c) for c in coeffs)
        if not params:
            raise DomainError("polynomial family needs at least one coefficient")
        return CoefficientSpec("polynomial", params)

    @staticmethod
    def step(ell: float, lo: float, hi: float) -> "CoefficientSpec":
        if not 0.0 <= ell <= 1.0:
            raise DomainError(f"step threshold must lie in [0,1], got {ell}")
        return CoefficientSpec("step", (float(ell), float(lo), float(hi)))

    @staticmethod
    def expbump(shift: float = 0.0) -> "CoefficientSpec":
        return CoefficientSpec("expbump", (float(shift),))

    @staticmethod
    def sampled(xs, values) -> "CoefficientSpec":
        xs = np.asarray(xs, dtype=float)
        values = np.asarray(values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape:
            raise DomainError("sampled family needs matching 1-D xs and values")
        if np.any(np.diff(xs) <= 0):
            raise DomainError("sampled abscissae must be strictly increasing")
        if xs[0] > _DOMAIN_SLACK or xs[-1] < 1.0 - _DOMAIN_SLACK:
            raise DomainError("sampled abscissae must cover [0,1]")
        return CoefficientSpec("sampled", (), xs=xs, values=values)

    def __call__(self, x):
        """Evaluate at x in [0,1], a scalar or an array; x is not checked."""
        x = np.asarray(x, dtype=float)
        if self.family == "constant":
            out = np.full_like(x, self.params[0])
        elif self.family == "polynomial":
            out = np.polynomial.polynomial.polyval(x, self.params)
        elif self.family == "step":
            ell, lo, hi = self.params
            out = np.where(x <= ell, lo, hi)
        elif self.family == "expbump":
            (shift,) = self.params
            t = x - shift
            with np.errstate(divide="ignore", over="ignore"):
                out = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        elif self.family == "sampled":
            out = np.interp(x, self.xs, self.values)
        else:  # pragma: no cover
            raise DomainError(f"unknown coefficient family {self.family!r}")
        return out if out.ndim else float(out)


Evaluable = Union[CoefficientSpec, Callable[[np.ndarray], np.ndarray]]


def cumtrapz(vals: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative trapezoid sums of samples spaced dx apart, 0.0 first."""
    return np.concatenate(([0.0], np.cumsum(0.5 * dx * (vals[1:] + vals[:-1]))))


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Trapezoid weights of the n+1 nodes of a uniform n-cell grid of step h."""
    w = np.full(n + 1, h)
    w[[0, n]] = 0.5 * h
    return w


def relative_tol(f: Evaluable, grid: Grid) -> float:
    """Default vanishing-prefix tolerance: _REL_TOL times max |f| over the grid."""
    vals = np.abs(np.asarray(f(grid.nodes), dtype=float))
    m = float(vals.max())
    return _REL_TOL * m if m > 0.0 else _REL_TOL


def prefix_of_samples(values: np.ndarray, dx: float, eps: float, tol: float) -> float:
    """Vanishing prefix of a sampled function on a uniform grid of spacing dx.

    Sample j sits at j*dx.  Returns the position of the last node before the
    first node in (0, eps) where |value| > tol, 0.0 if the first interior node
    already violates, and eps if no node in (0, eps) does.
    """
    if tol <= 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    values = np.asarray(values, dtype=float)
    npts = values.shape[0]
    js = np.arange(1, npts)
    inside = js * dx < eps
    js = js[inside]
    bad = np.abs(values[js]) > tol
    if not bad.any():
        return float(eps)
    first = js[int(np.argmax(bad))]
    return float((first - 1) * dx)


def vanishing_prefix(f: Evaluable, eps: float, tol: float, grid: Grid) -> float:
    """Length of the largest interval (0, ell) on which |f| <= tol at grid nodes.

    The continuum quantity is defined up to null sets; numerically we test the
    grid nodes inside (0, eps) against tol and snap the answer to the last
    passing node, so the result is exact only up to one grid cell.
    """
    if not 0.0 < eps <= 1.0:
        raise DomainError(f"eps must lie in (0,1], got {eps}")
    if tol <= 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    vals = np.asarray(f(grid.nodes), dtype=float)
    return prefix_of_samples(vals, grid.h, eps, tol)
