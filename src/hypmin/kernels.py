"""Backstepping kernel solver on the triangle {0 <= xi <= x <= 1}.

The four transformation kernels satisfy two decoupled 2x2 first-order
hyperbolic systems with data on the diagonal (k12, k21), on the edge xi=0
(k11: zero, k22: free data k0), and zeroth-order couplings through bt, ct.

Numerics.  Along its characteristic field each kernel, once multiplied by
the transported speed weight,

    p11 = k11*lambda1(xi),  p12 = k12*lambda2(xi),
    p21 = k21*lambda1(xi),  p22 = k22*lambda2(xi),

satisfies an ODE whose right-hand side involves only the partner kernel
(the speed-derivative terms cancel exactly).  All four characteristic
families are monotone in x, so the solver marches column by column in x
with first-order explicit steps, re-sampling each column to the triangular
grid by linear interpolation.  Inside one column the couplings are acyclic:
interior points read column i-1, the boundary-entered points of k12/k21
read the k11/k22 diagonal, and those of k11/k22 read the k12/k21 edge
xi=0.  One ordered pass over the columns therefore yields the exact fixed
point of the discrete scheme; a single frozen-coupling sweep afterwards
measures its defect.

Characteristic invariants used to locate the foot of each step:

    k11: phi1(x) - phi1(xi)     k12: phi1(x) + phi2(xi)
    k21: phi2(x) + phi1(xi)     k22: phi2(x) - phi2(xi)

The trace k21(.,0) is the endpoint of the k21 integration, never an
extrapolation, and g(x) = -k21(x,0)*lambda1(0) = -p21(x,0).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .coeffs import CoefficientSpec, Grid, relative_tol, vanishing_prefix
from .characteristics import SpeedPair
from .errors import DomainError, GridMismatchError
from .transforms import DiagGauge

__all__ = [
    "KernelSet",
    "FeedbackLaw",
    "solve_kernels",
    "trace_g",
    "feedback_gains",
    "sin_map",
    "predicted_g_prefix",
    "export_kernels_csv",
    "export_profile_csv",
]


@dataclass(frozen=True)
class KernelSet:
    """Solved kernels sampled on the triangle (entries with xi > x are zero)."""

    grid: Grid
    k11: np.ndarray = field(repr=False)
    k12: np.ndarray = field(repr=False)
    k21: np.ndarray = field(repr=False)
    k22: np.ndarray = field(repr=False)
    k0: CoefficientSpec = field(repr=False)
    residual: float = 0.0


@dataclass(frozen=True)
class FeedbackLaw:
    """Feedback gains: u(t) = int_0^1 (f1 y1(t,.) + f2 y2(t,.))."""

    nodes: np.ndarray = field(repr=False)
    f1: np.ndarray = field(repr=False)
    f2: np.ndarray = field(repr=False)

    def control(self, y1: np.ndarray, y2: np.ndarray) -> float:
        h = self.nodes[1] - self.nodes[0]
        return float(np.trapezoid(self.f1 * y1 + self.f2 * y2, dx=h))


class _MarchPlan(NamedTuple):
    """Precomputed geometry for marching one kernel in increasing x.

    Per grid point (i, j), j <= i, packed row by row at i(i+1)/2 + j: the
    foot of the characteristic step in column i-1 (linear-interp index and
    weight) and the Euler source coefficient.  Where the characteristic
    enters through its data boundary between the two columns, brows holds
    the start data and a source coefficient at the start.
    """

    fidx: np.ndarray
    fw: np.ndarray
    coefA: np.ndarray
    brows: list                    # per row i: (js, p0, coefB, bidx, bw)
    diag_data: np.ndarray | None   # p-form diagonal data, or None
    corner: float


def _interp_setup(pos: np.ndarray, h: float, clamp_hi):
    """Uniform-grid linear interp indices/weights, clamped so idx+1 stays valid."""
    idx = np.clip(np.floor(pos / h).astype(np.int64), 0, clamp_hi)
    return idx, pos / h - idx


def _build_plan(which: str, speeds: SpeedPair, gauge: DiagGauge, grid: Grid,
                k0: CoefficientSpec) -> _MarchPlan:
    n = grid.n
    h = grid.h
    nodes = grid.nodes
    p1 = np.asarray(speeds.phi_eval(1, nodes))
    p2 = np.asarray(speeds.phi_eval(2, nodes))
    l1 = np.asarray(speeds.speed(1, nodes), dtype=float)
    l2 = np.asarray(speeds.speed(2, nodes), dtype=float)
    lam1 = lambda x: speeds.speed(1, x)
    lam2 = lambda x: speeds.speed(2, x)

    # Lower-triangle points (i, j) in packed order; row 0 is never marched,
    # so its previous column is itself and its entries are unused.
    ii, jj = np.tril_indices(n + 1)
    ip = np.maximum(ii - 1, 0)
    # Invariant coordinate u of the foot of each point in column i-1.
    if which == "k11":
        u = p1[jj] - (p1[ii] - p1[ip])
        interior = u >= 0.0
        feet = speeds.phi_inv_ext(1, u)
        coef = lambda x, xi: -lam1(xi) * gauge.ct_at(xi) / (lam1(x) * lam2(xi))
        diag_data = None
        corner = 0.0
    elif which == "k12":
        u = p2[jj] + (p1[ii] - p1[ip])
        interior = u <= p2[ip] + 1e-15
        feet = speeds.phi_inv_ext(2, u)
        coef = lambda x, xi: -lam2(xi) * gauge.bt_at(xi) / (lam1(x) * lam1(xi))
        diag_data = l2 * gauge.bt_at(nodes) / (l1 - l2)
        corner = diag_data[0]
    elif which == "k21":
        u = p1[jj] + (p2[ii] - p2[ip])
        interior = u <= p1[ip] + 1e-15
        feet = speeds.phi_inv_ext(1, u)
        coef = lambda x, xi: -lam1(xi) * gauge.ct_at(xi) / (lam2(x) * lam2(xi))
        diag_data = l1 * gauge.ct_at(nodes) / (l2 - l1)
        corner = diag_data[0]
    else:  # k22
        u = p2[jj] - (p2[ii] - p2[ip])
        interior = u >= 0.0
        feet = speeds.phi_inv_ext(2, u)
        coef = lambda x, xi: -lam2(xi) * gauge.bt_at(xi) / (lam2(x) * lam1(xi))
        diag_data = None
        corner = float(k0(0.0)) * l2[0]

    xiP = np.clip(feet, 0.0, 1.0)
    fidx, fw = _interp_setup(xiP, h, np.maximum(ii - 2, 0))  # idx+1 inside column i-1
    coefA = h * coef(nodes[ip], xiP)

    # Boundary-entered points (a thin band along the data boundary): solve all
    # start positions in one vectorized call, then slice per row.  The
    # diagonal of k12/k21 is data, not marched.
    marched = ii > jj if diag_data is not None else ii > 0
    band = marched & ~interior
    ii, jj = ii[band], jj[band]
    if which == "k11":
        xstart = np.asarray(speeds.phi_inv_ext(1, p1[ii] - p1[jj]), dtype=float)
        p0 = np.zeros(ii.size)
        cB = (nodes[ii] - xstart) * coef(xstart, np.zeros(ii.size))
    elif which == "k22":
        xstart = np.asarray(speeds.phi_inv_ext(2, p2[ii] - p2[jj]), dtype=float)
        p0 = np.asarray(k0(np.clip(xstart, 0.0, 1.0)), dtype=float) * l2[0]
        cB = (nodes[ii] - xstart) * coef(xstart, np.zeros(ii.size))
    elif which == "k12":
        xstart = np.asarray(speeds.psi_inv(p1[ii] + p2[jj]), dtype=float)
        p0 = lam2(xstart) * gauge.bt_at(xstart) / (lam1(xstart) - lam2(xstart))
        cB = (nodes[ii] - xstart) * coef(xstart, xstart)
    else:  # k21
        xstart = np.asarray(speeds.psi_inv(p2[ii] + p1[jj]), dtype=float)
        p0 = lam1(xstart) * gauge.ct_at(xstart) / (lam2(xstart) - lam1(xstart))
        cB = (nodes[ii] - xstart) * coef(xstart, xstart)
    bidx, bw = _interp_setup(xstart, h, n - 1)

    bounds = np.searchsorted(ii, np.arange(n + 2))
    brows = [tuple(a[lo:hi] for a in (jj, p0, cB, bidx, bw))
             for lo, hi in zip(bounds[:-1], bounds[1:])]

    return _MarchPlan(fidx, fw, coefA, brows, diag_data, corner)


def _step_interior(plan: _MarchPlan, Pself: np.ndarray, Pother: np.ndarray,
                   i: int) -> None:
    """Column i from column i-1 along each characteristic.

    Points whose characteristic enters through the data boundary are written
    too; _step_boundary overwrites them.
    """
    m = i if plan.diag_data is not None else i + 1
    row = slice(i * (i + 1) // 2, i * (i + 1) // 2 + m)
    fid = plan.fidx[row]
    fwt = plan.fw[row]
    prev_self = Pself[i - 1]
    prev_other = Pother[i - 1]
    up = 1.0 - fwt
    Pself[i, :m] = (prev_self[fid] * up + prev_self[fid + 1] * fwt
                    + plan.coefA[row] * (prev_other[fid] * up + prev_other[fid + 1] * fwt))


def _step_boundary(plan: _MarchPlan, Pself: np.ndarray, edge: np.ndarray,
                   i: int) -> None:
    """Column i at the points whose characteristic enters through the data boundary."""
    js, p0, cB, bidx, bw = plan.brows[i]
    if js.size:
        Pself[i, js] = p0 + cB * (edge[bidx] * (1.0 - bw) + edge[bidx + 1] * bw)


def _march(plan: _MarchPlan, Pself: np.ndarray, Pother_old: np.ndarray,
           edge_old: np.ndarray, n: int) -> None:
    """One transport sweep over columns, coupling source frozen at Pother_old."""
    Pself[0, 0] = plan.corner
    for i in range(1, n + 1):
        _step_interior(plan, Pself, Pother_old, i)
        _step_boundary(plan, Pself, edge_old, i)
        if plan.diag_data is not None:
            Pself[i, i] = plan.diag_data[i]


_PARTNER = {"k11": "k12", "k12": "k11", "k21": "k22", "k22": "k21"}


def _coupling_edge(P: dict, which: str) -> np.ndarray:
    """View of the partner values a kernel's boundary-entered points read.

    k11/k22 enter through xi=0 and read the k12/k21 edge there; k12/k21 enter
    through the diagonal and read the k11/k22 diagonal.
    """
    partner = P[_PARTNER[which]]
    return partner[:, 0] if which in ("k11", "k22") else partner.diagonal()


def _march_coupled(plans: dict, P: dict, n: int) -> None:
    """All four kernels in one column march, each column in dependency order."""
    edges = {w: _coupling_edge(P, w) for w in P}
    for w in P:
        P[w][0, 0] = plans[w].corner
    for i in range(1, n + 1):
        for w in P:
            _step_interior(plans[w], P[w], P[_PARTNER[w]], i)
        for w in ("k12", "k21", "k11", "k22"):
            _step_boundary(plans[w], P[w], edges[w], i)
        for w in ("k12", "k21"):
            P[w][i, i] = plans[w].diag_data[i]


def _bilinear_triangle(P: np.ndarray, x: np.ndarray, xi: np.ndarray, h: float,
                       n: int) -> np.ndarray:
    """Bilinear interpolation of a triangle-supported field at (x, xi), xi <= x.

    One superdiagonal is padded with the diagonal values so that cells
    straddling the diagonal do not mix in the unused zero entries.
    """
    Ppad = P.copy()
    idx = np.arange(n)
    Ppad[idx, idx + 1] = P[idx, idx]
    ix = np.clip(np.floor(x / h).astype(np.int64), 0, n - 1)
    jx = np.clip(np.floor(xi / h).astype(np.int64), 0, n - 1)
    wx = x / h - ix
    wj = xi / h - jx
    return (Ppad[ix, jx] * (1 - wx) * (1 - wj) + Ppad[ix + 1, jx] * wx * (1 - wj)
            + Ppad[ix, jx + 1] * (1 - wx) * wj + Ppad[ix + 1, jx + 1] * wx * wj)


def _trace_row_direct(speeds: SpeedPair, gauge: DiagGauge, grid: Grid,
                      P22: np.ndarray) -> np.ndarray:
    """p21 on the edge xi=0 by direct quadrature along each trace characteristic.

    The characteristic ending at (x, 0) starts on the diagonal at
    sigma = psi^{-1}(phi2(x)) and satisfies phi1(xi) = phi2(x) - phi2(x').
    Integrating each trace path separately keeps the zero set of the trace
    exact: wherever the gauged coupling vanishes along the whole path the
    integral is identically zero, with no interpolation smearing across the
    data discontinuity.
    """
    n = grid.n
    nodes = grid.nodes
    p2n = np.asarray(speeds.phi_eval(2, nodes))
    sig = np.asarray(speeds.psi_inv(p2n))
    taus = np.linspace(0.0, 1.0, n + 1)
    X = sig[:, None] + taus[None, :] * (nodes - sig)[:, None]
    XI = np.clip(speeds.phi_inv_ext(1, p2n[:, None] - speeds.phi_eval(2, X)), 0.0, 1.0)
    l1_xi = np.asarray(speeds.speed(1, XI), dtype=float)
    l2_x = np.asarray(speeds.speed(2, X), dtype=float)
    l2_xi = np.asarray(speeds.speed(2, XI), dtype=float)
    ct_xi = gauge.ct_at(XI)
    p22v = _bilinear_triangle(P22, X, XI, grid.h, n)
    S = -l1_xi * ct_xi * p22v / (l2_x * l2_xi)
    dx = (nodes - sig) / n
    integral = np.trapezoid(S, axis=1) * dx  # unit-spacing trapezoid times per-row step
    l1_s = np.asarray(speeds.speed(1, sig), dtype=float)
    l2_s = np.asarray(speeds.speed(2, sig), dtype=float)
    p0 = l1_s * gauge.ct_at(sig) / (l2_s - l1_s)
    return p0 + integral


def solve_kernels(gauge: DiagGauge, speeds: SpeedPair, k0: CoefficientSpec | None,
                  grid: Grid) -> KernelSet:
    """Solve the kernel equations in one coupled column march.

    Each column integrates all four kernels along their characteristics in
    dependency order, so a single pass gives the fixed point of the discrete
    scheme; the semi-Lagrangian march is unconditionally stable, so the grid
    only controls accuracy (first order).  One frozen-coupling sweep over the
    result then measures the defect, the sup-norm change it would make, which
    is reported as KernelSet.residual.
    """
    if k0 is None:
        k0 = CoefficientSpec.constant(0.0)
    if grid.n < 4:
        raise DomainError("kernel grid too coarse (need n >= 4)")
    n = grid.n
    nodes = grid.nodes
    l1 = np.asarray(speeds.speed(1, nodes), dtype=float)
    l2 = np.asarray(speeds.speed(2, nodes), dtype=float)
    wgt = {"k11": l1, "k12": l2, "k21": l1, "k22": l2}

    plans = {w: _build_plan(w, speeds, gauge, grid, k0) for w in wgt}
    P = {w: np.zeros((n + 1, n + 1)) for w in wgt}
    _march_coupled(plans, P, n)

    # Defect check, one kernel at a time into a reused scratch array.  Every
    # sweep writes exactly the lower triangle, so the untouched upper part of
    # the scratch stays zero, as it is in P.
    defects = []
    scratch = np.zeros_like(P["k11"])
    for w in P:
        _march(plans[w], scratch, P[_PARTNER[w]], _coupling_edge(P, w), n)
        np.subtract(scratch, P[w], out=scratch)
        np.abs(scratch, out=scratch)
        scratch /= wgt[w][None, :]
        defects.append(scratch.max())
    residual = float(np.max(defects))
    del scratch, plans

    # The xi=0 trace of k21 defines g; integrate it directly along each trace
    # characteristic so its vanishing set is not blurred by the column
    # re-sampling of the marched field.
    trace21 = _trace_row_direct(speeds, gauge, grid, P["k22"])
    for w in P:
        P[w] /= wgt[w][None, :]
    P["k21"][:, 0] = trace21 / l1[0]
    return KernelSet(grid=grid, k11=P["k11"], k12=P["k12"], k21=P["k21"],
                     k22=P["k22"], k0=k0, residual=residual)


def trace_g(K: KernelSet, speeds: SpeedPair) -> np.ndarray:
    """g(x) = -k21(x,0)*lambda1(0), sampled on the kernel grid nodes."""
    lam10 = float(speeds.speed(1, 0.0))
    return -K.k21[:, 0] * lam10


def feedback_gains(K: KernelSet, gauge: DiagGauge) -> FeedbackLaw:
    """Gains f1, f2 of the stabilizing feedback, on the kernel grid nodes."""
    if gauge.grid.n != K.grid.n:
        raise GridMismatchError("gauge and kernel grids differ")
    n = K.grid.n
    f1 = K.k11[n, :] * gauge.e1 / gauge.e1[-1]
    f2 = K.k12[n, :] * gauge.e2 / gauge.e1[-1]
    return FeedbackLaw(nodes=K.grid.nodes, f1=f1, f2=f2)


def sin_map(speeds: SpeedPair, x):
    """The unique s in (0, x) with phi1(s) + phi2(s) = phi2(x).

    This is the diagonal point feeding the k21 trace at (x, 0); at x=1 it is
    the pivot point xbar of the minimal-time formula.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise DomainError("sin_map needs x in [0,1]")
    return speeds.psi_inv(speeds.phi_eval(2, x))


def predicted_g_prefix(speeds: SpeedPair, c: CoefficientSpec,
                       grid: Grid | None = None, tol: float | None = None) -> float:
    """Predicted vanishing prefix of g from the prefix of c.

    With Xc the prefix of c over (0, xbar), the prediction is
    phi2^{-1}(phi1(Xc) + phi2(Xc)); it equals 1 when c vanishes on (0, xbar).
    """
    if grid is None:
        grid = Grid.uniform(2048)
    if tol is None:
        tol = relative_tol(c, grid)
    xbar = float(speeds.psi_inv(speeds.T2))
    Xc = vanishing_prefix(c, xbar, tol, grid)
    return float(speeds.phi_inv_ext(2, speeds.psi_eval(Xc)))


def export_kernels_csv(K: KernelSet, path) -> None:
    """Write the triangle samples as rows (x, xi, k11, k12, k21, k22)."""
    nodes = K.grid.nodes
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "xi", "k11", "k12", "k21", "k22"])
        for i in range(K.grid.n + 1):
            for j in range(i + 1):
                w.writerow([f"{nodes[i]:.12g}", f"{nodes[j]:.12g}",
                            f"{K.k11[i, j]:.12g}", f"{K.k12[i, j]:.12g}",
                            f"{K.k21[i, j]:.12g}", f"{K.k22[i, j]:.12g}"])


def export_profile_csv(path, nodes: np.ndarray, columns: dict) -> None:
    """Write one or more sampled profiles as (x, value...) CSV columns."""
    names = list(columns)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x"] + names)
        for i, x in enumerate(nodes):
            w.writerow([f"{x:.12g}"] + [f"{columns[nm][i]:.12g}" for nm in names])
