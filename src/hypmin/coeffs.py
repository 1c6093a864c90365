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
    "FAMILIES",
    "Grid",
    "cumtrapz",
    "trapezoid_weights",
    "vanishing_prefix",
    "prefix_of_samples",
    "relative_tol",
]

_DOMAIN_SLACK = 1e-12
_REL_TOL = 1e-12          # relative_tol's share of max |f|
_HALF_MAX = 0.5 * float(np.finfo(float).max)    # no polynomial's magnitudes sum to this


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
    """A scalar function on [0,1], one family of FAMILIES and its params.

    Families:
      constant(value)        f(x) = value
      polynomial(coeffs)     f(x) = sum_k coeffs[k] x^k, with sum_k |coeffs[k]| below
                             half the largest float
      step(ell, lo, hi)      f(x) = lo for x <= ell, hi for x > ell
      expbump(shift)         f(x) = 0 for x <= shift, exp(-1/(x-shift)) beyond
      sampled(xs, values)    piecewise-linear through (xs, values), xs covering [0,1]
    """

    family: str
    params: tuple = ()

    @staticmethod
    def constant(value: float) -> "CoefficientSpec":
        return CoefficientSpec("constant", (float(value),))

    @staticmethod
    def polynomial(coeffs) -> "CoefficientSpec":
        params = tuple(float(c) for c in coeffs)
        if not params:
            raise DomainError("polynomial family needs at least one coefficient")
        # sum |coeffs[k]| bounds |f| and every partial sum of _horner on
        # [0,1]; non-finite coefficients are left to their callers' checks
        if np.isfinite(params).all() and sum(map(abs, params)) >= _HALF_MAX:
            raise DomainError("polynomial coefficients can overflow on [0,1]: their magnitudes "
                              f"sum to half the largest float, {_HALF_MAX:.3g}, or more")
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
        return CoefficientSpec("sampled", (xs, values))

    def __call__(self, x):
        """Evaluate at x, a scalar or an array; x is not checked."""
        out = FAMILIES[self.family][1](self.params, np.asarray(x, dtype=float))
        return out if out.ndim else float(out)


def _horner(coeffs: tuple, x):
    """sum_k coeffs[k] x^k in the operations of numpy.polynomial.polynomial.polyval,
    and so bitwise its value, without its import and argument handling."""
    out = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        out = c + out * x
    return out


def _expbump(params: tuple, x):
    t = x - params[0]
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)


# Each coefficient family: its config-record fields, in the order of its
# CoefficientSpec constructor's arguments, and its evaluator of (params, x).
FAMILIES = {
    "constant": (("value",), lambda p, x: np.full_like(x, p[0])),
    "polynomial": (("coeffs",), _horner),
    "step": (("ell", "lo", "hi"), lambda p, x: np.where(x <= p[0], p[1], p[2])),
    "expbump": (("shift",), _expbump),
    "sampled": (("xs", "values"), lambda p, x: np.interp(x, *p)),
}


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
    """Default vanishing-prefix tolerance: _REL_TOL times max |f| over the grid,
    whose samples must be finite."""
    vals = np.abs(np.asarray(f(grid.nodes), dtype=float))
    m = float(vals.max())
    if not np.isfinite(m):
        raise DomainError(f"the tolerance needs finite samples, got max |f| = {m}")
    return _REL_TOL * m if m > 0.0 else _REL_TOL


def prefix_of_samples(values: np.ndarray, dx: float, eps: float, tol: float) -> float:
    """Vanishing prefix of a sampled function on a uniform grid of spacing dx.

    Sample j sits at j*dx.  Returns the position of the last node before the
    first node in (0, eps) where |value| > tol, 0.0 if the first interior node
    already violates, and eps if no node in (0, eps) does.  tol = 0 is the
    exact zero test, which a relative tolerance of a subnormal function
    rounds to.
    """
    if not tol >= 0.0:
        raise DomainError(f"tolerance must be non-negative, got {tol}")
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
    vals = np.asarray(f(grid.nodes), dtype=float)
    return prefix_of_samples(vals, grid.h, eps, tol)
