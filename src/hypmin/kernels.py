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
point of the discrete scheme: marching again with the couplings frozen at
the result repeats the same arithmetic on the same values.

Characteristic invariants used to locate the foot of each step:

    k11: phi1(x) - phi1(xi)     k12: phi1(x) + phi2(xi)
    k21: phi2(x) + phi1(xi)     k22: phi2(x) - phi2(xi)

The trace k21(.,0) is the endpoint of the k21 integration, never an
extrapolation, and g(x) = -k21(x,0)*lambda1(0) = -p21(x,0).

The two systems are solved only on request, each as its own column march:
the pair "gains" (k11, k12) gives the stabilizing feedback, the pair
"trace" (k21, k22) gives g.  Every step and boundary value of one pair
reads only its own partner, so solving one pair gives bitwise the arrays
of the full solve.  A kernel that overflows is a DomainError.  Memory:
about 9 arrays of (n+1)^2 floats for both pairs, about 7 for one, at the
peak while a pair's plans are built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .coeffs import CoefficientSpec, Grid, relative_tol, vanishing_prefix
from .characteristics import SpeedPair
from .errors import DomainError, GridMismatchError
from .transforms import DiagGauge

_CSV_ROWS = 8192         # rows per formatting block of _write_csv

__all__ = [
    "KernelSet",
    "FeedbackLaw",
    "solve_kernels",
    "solve_kernels_bytes",
    "trace_g",
    "feedback_gains",
    "sin_map",
    "predicted_g_prefix",
    "export_kernels_csv",
    "export_profile_csv",
]


@dataclass(frozen=True)
class KernelSet:
    """Solved kernels sampled on the triangle (entries with xi > x are zero).

    A kernel of a pair that was not solved is None.
    """

    grid: Grid
    k11: np.ndarray | None = field(repr=False)
    k12: np.ndarray | None = field(repr=False)
    k21: np.ndarray | None = field(repr=False)
    k22: np.ndarray | None = field(repr=False)

    def require(self, reader: str, *names: str) -> None:
        """Raise DomainError unless the kernels a reader needs were solved."""
        missing = [w for w in names if getattr(self, w) is None]
        if missing:
            raise DomainError(f"{reader} needs kernel {', '.join(missing)}, "
                              "which this KernelSet did not solve")


@dataclass(frozen=True)
class FeedbackLaw:
    """Feedback gains: u(t) = int_0^1 (f1 y1(t,.) + f2 y2(t,.))."""

    nodes: np.ndarray = field(repr=False)
    f1: np.ndarray = field(repr=False)
    f2: np.ndarray = field(repr=False)

    def control(self, y1: np.ndarray, y2: np.ndarray) -> float:
        # the arithmetic of np.trapezoid, without its per-call overhead
        h = self.nodes[1] - self.nodes[0]
        f = self.f1 * y1 + self.f2 * y2
        return float((h * (f[1:] + f[:-1]) / 2.0).sum())


class _Triangle(NamedTuple):
    """Grid geometry of the two march plans of one pair, built per pair.

    Lower-triangle points (i, j), j <= i, packed row by row at i(i+1)/2 + j
    from one np.tril_indices; ip = max(i-1, 0) is the previous column (row 0
    is never marched, so its previous column is itself and its entries are
    unused).  Row f-1 of phi, lam and dphi holds, for family f, the node
    values of phi_f and lambda_f and the per-row increments
    phi_f(x_i) - phi_f(x_{i-1}) (0 at i = 0).
    """

    ii: np.ndarray
    jj: np.ndarray
    ip: np.ndarray
    phi: np.ndarray
    lam: np.ndarray
    dphi: np.ndarray


def _triangle(speeds: SpeedPair, grid: Grid) -> _Triangle:
    nodes = grid.nodes
    ii, jj = np.tril_indices(grid.n + 1)
    phi = np.stack([speeds.phi_eval(1, nodes), speeds.phi_eval(2, nodes)])
    lam = np.stack([speeds.speed(1, nodes), speeds.speed(2, nodes)]).astype(float)
    prev = np.maximum(np.arange(grid.n + 1) - 1, 0)
    return _Triangle(ii, jj, np.maximum(ii - 1, 0), phi, lam, phi - phi[:, prev])


class _MarchPlan(NamedTuple):
    """Precomputed geometry for marching one kernel in increasing x.

    Per grid point (i, j), j <= i, packed row by row at i(i+1)/2 + j: the
    foot of the characteristic step in column i-1 (linear-interp index and
    weight) and the Euler source coefficient.  Where the characteristic
    enters through its data boundary between the two columns, brows holds
    the start data and a source coefficient at the start.  Indices are int32.
    """

    fidx: np.ndarray
    fw: np.ndarray
    coefA: np.ndarray
    brows: list                    # per row i: (js, p0, coefB, bidx, bw)
    diag_data: np.ndarray | None   # p-form diagonal data, or None
    corner: float


def _interp_setup(pos: np.ndarray, h: float, clamp_hi):
    """Uniform-grid linear interp indices/weights, clamped so idx+1 stays valid."""
    w = pos / h
    idx = np.clip(np.floor(w).astype(np.int64), 0, clamp_hi)
    w -= idx
    return idx.astype(np.int32), w


def _build_plan(which: str, speeds: SpeedPair, gauge: DiagGauge, grid: Grid,
                k0: CoefficientSpec, tri: _Triangle) -> _MarchPlan:
    """March plan of kernel k<fx><fa>: x follows family fx, xi family fa.

    k11/k22 (fx = fa) enter through the edge xi=0, k12/k21 through the
    diagonal.  The source coefficient is -lambda_fa(xi) * coupling(xi) /
    (lambda_fx(x) * lambda_fb(xi)), fb = 3 - fa, with the coupling ct when
    fa = 1 and bt when fa = 2.
    """
    n = grid.n
    h = grid.h
    nodes = grid.nodes
    ii, jj, ip = tri.ii, tri.jj, tri.ip
    fx, fa = int(which[1]), int(which[2])
    fb = 3 - fa
    on_edge = fx == fa
    pa, px = tri.phi[fa - 1], tri.phi[fx - 1]
    cpl = gauge.ct_at if fa == 1 else gauge.bt_at
    lam = speeds.speed
    coef = lambda lx, xi: -lam(fa, xi) * cpl(xi) / (lx * lam(fb, xi))
    diag = lambda x: lam(fa, x) * cpl(x) / (lam(fb, x) - lam(fa, x))

    # Invariant coordinate u of the foot of each point in column i-1.
    if on_edge:
        u = pa[jj] - tri.dphi[fx - 1][ii]
        interior = u >= 0.0
    else:
        u = pa[jj] + tri.dphi[fx - 1][ii]
        interior = u <= pa[ip] + 1e-15
    xiP = speeds.phi_inv_ext(fa, u)
    del u
    np.clip(xiP, 0.0, 1.0, out=xiP)         # the feet, clipped in place
    fidx, fw = _interp_setup(xiP, h, np.maximum(ii - 2, 0))  # idx+1 inside column i-1
    coefA = h * coef(tri.lam[fx - 1][ip], xiP)    # lambda_fx at column i-1
    del xiP

    if on_edge:
        diag_data = None
        corner = 0.0 if which == "k11" else float(k0(0.0)) * tri.lam[1][0]
    else:
        diag_data = diag(nodes)
        corner = diag_data[0]

    # Boundary-entered points (a thin band along the data boundary): solve all
    # start positions in one vectorized call, then slice per row.  The
    # diagonal of k12/k21 is data, not marched.
    band = (ii > 0 if on_edge else ii > jj) & ~interior
    bi, bj = ii[band], jj[band]
    if on_edge:
        xstart = np.asarray(speeds.phi_inv_ext(fa, pa[bi] - pa[bj]), dtype=float)
        xi0 = np.zeros(bi.size)
        if which == "k11":
            p0 = np.zeros(bi.size)
        else:
            p0 = np.asarray(k0(np.clip(xstart, 0.0, 1.0)), dtype=float) * tri.lam[1][0]
    else:
        xstart = np.asarray(speeds.psi_inv(px[bi] + pa[bj]), dtype=float)
        xi0 = xstart
        p0 = diag(xstart)
    cB = (nodes[bi] - xstart) * coef(lam(fx, xstart), xi0)
    bidx, bw = _interp_setup(xstart, h, n - 1)

    bounds = np.searchsorted(bi, np.arange(n + 2))
    brows = [tuple(a[lo:hi] for a in (bj, p0, cB, bidx, bw))
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
    fid = plan.fidx[row].astype(np.intp)   # one index cast, not four
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


def _march_pair(plans: dict, P: dict, src: dict, n: int) -> None:
    """Column march of the kernels in P, kernel w coupled to the field src[w].

    With src the crossed pair itself ({k12: P[k11], k11: P[k12]}) each column
    is solved in dependency order, which is the exact one-pass solve; with a
    fresh P and src fixed fields it is one frozen-coupling (Picard) sweep.  A
    diagonal-entered kernel (k12/k21) reads the diagonal of src[w], an
    edge-entered one (k11/k22) its edge xi=0.  A column's boundary points
    are written after all its interior points, kernel by kernel in the
    order of P (see _PAIRS).
    """
    edges = {w: src[w][:, 0] if plans[w].diag_data is None else src[w].diagonal()
             for w in P}
    for w in P:
        P[w][0, 0] = plans[w].corner
    for i in range(1, n + 1):
        for w in P:
            _step_interior(plans[w], P[w], src[w], i)
        for w in P:
            _step_boundary(plans[w], P[w], edges[w], i)
            if plans[w].diag_data is not None:
                P[w][i, i] = plans[w].diag_data[i]


def _bilinear_padded(Ppad: np.ndarray, x: np.ndarray, xi: np.ndarray, h: float,
                     n: int) -> np.ndarray:
    """Bilinear interpolation at (x, xi), xi <= x, of a triangle-supported
    field whose first superdiagonal holds its diagonal values."""
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
    data discontinuity.  The n+1 paths of n+1 points each are evaluated in
    blocks of _CANONICAL_ROWS paths, all gathering from one padded P22.
    """
    # simulator imports this module, so its row-block constant is read here
    from .simulator import _CANONICAL_ROWS

    n = grid.n
    nodes = grid.nodes
    p2n = np.asarray(speeds.phi_eval(2, nodes))
    sig = np.asarray(speeds.psi_inv(p2n))
    taus = np.linspace(0.0, 1.0, n + 1)
    # pad one superdiagonal with the diagonal values, so that cells straddling
    # the diagonal do not mix in the unused zero entries
    Ppad = P22.copy()
    idx = np.arange(n)
    Ppad[idx, idx + 1] = P22[idx, idx]
    integral = np.empty(n + 1)
    for b0 in range(0, n + 1, _CANONICAL_ROWS):
        blk = slice(b0, b0 + _CANONICAL_ROWS)
        X = sig[blk, None] + taus[None, :] * (nodes[blk] - sig[blk])[:, None]
        XI = np.clip(speeds.phi_inv_ext(1, p2n[blk, None] - speeds.phi_eval(2, X)),
                     0.0, 1.0)
        l1_xi = np.asarray(speeds.speed(1, XI), dtype=float)
        l2_x = np.asarray(speeds.speed(2, X), dtype=float)
        l2_xi = np.asarray(speeds.speed(2, XI), dtype=float)
        ct_xi = gauge.ct_at(XI)
        p22v = _bilinear_padded(Ppad, X, XI, grid.h, n)
        S = -l1_xi * ct_xi * p22v / (l2_x * l2_xi)
        integral[blk] = np.trapezoid(S, axis=1)  # unit spacing; times the step below
    integral *= (nodes - sig) / n
    l1_s = np.asarray(speeds.speed(1, sig), dtype=float)
    l2_s = np.asarray(speeds.speed(2, sig), dtype=float)
    p0 = l1_s * gauge.ct_at(sig) / (l2_s - l1_s)
    return p0 + integral


# Each pair as (diagonal-entered kernel, edge-entered kernel): in each column
# the edge-entered kernel's boundary points then read the partner's edge xi=0
# complete, its one boundary-entered entry (1, 0) included.
_PAIRS = {"gains": ("k12", "k11"), "trace": ("k21", "k22")}


def solve_kernels(gauge: DiagGauge, speeds: SpeedPair, k0: CoefficientSpec | None,
                  grid: Grid, pairs=("gains", "trace")) -> KernelSet:
    """Solve the kernel equations of the requested pairs, one pair at a time.

    pairs names the 2x2 systems to solve: "gains" (k11, k12) for
    feedback_gains, "trace" (k21, k22) for trace_g; the kernels of a pair
    left out are None in the result.  Each pair is its own column march
    along the characteristics, each column in dependency order, so a single
    pass gives the fixed point of the discrete scheme; the semi-Lagrangian
    march is unconditionally stable, so the grid only controls accuracy
    (first order).  Couplings b, c too large for the march overflow a
    kernel, which raises DomainError naming it.  Memory: about 7 arrays of
    (n+1)^2 floats for one pair and about 9 for both, the first pair's two
    kernels being held while the second is solved; the peak is the build
    of a pair's second plan (solve_kernels_bytes bounds the full solve).
    """
    if k0 is None:
        k0 = CoefficientSpec.constant(0.0)
    if grid.n < 4:
        raise DomainError("kernel grid too coarse (need n >= 4)")
    if not pairs or not set(pairs) <= set(_PAIRS):
        raise DomainError(f"pairs must name some of {', '.join(_PAIRS)}, got {pairs!r}")
    n = grid.n
    K = {}
    for pair in (p for p in _PAIRS if p in pairs):
        wd, we = _PAIRS[pair]
        tri = _triangle(speeds, grid)
        lam = tri.lam
        plans = {w: _build_plan(w, speeds, gauge, grid, k0, tri) for w in (wd, we)}
        del tri
        P = {w: np.zeros((n + 1, n + 1)) for w in (wd, we)}
        with np.errstate(over="ignore", invalid="ignore"):
            _march_pair(plans, P, {wd: P[we], we: P[wd]}, n)
        del plans
        # min and max are NaN if any entry is NaN and reach any infinity, so
        # two reductions check a kernel without a temporary array
        for w in P:
            if not (np.isfinite(P[w].min()) and np.isfinite(P[w].max())):
                raise DomainError(f"kernel {w} overflows: the couplings b and c "
                                  "are too large for the kernel solve")

        # The xi=0 trace of k21 defines g; integrate it directly along each
        # trace characteristic so its vanishing set is not blurred by the
        # column re-sampling of the marched field.
        if pair == "trace":
            P["k21"][:, 0] = _trace_row_direct(speeds, gauge, grid, P["k22"])
        for w in P:
            P[w] /= lam[int(w[2]) - 1][None, :]     # p = k * lambda_fa(xi)
        K.update(P)
    return KernelSet(grid=grid, k11=K.get("k11"), k12=K.get("k12"), k21=K.get("k21"),
                     k22=K.get("k22"))


def solve_kernels_bytes(n: int, table_n: int) -> int:
    """Upper bound on the bytes solve_kernels holds at once on an n-cell grid.

    The build of the second pair's second plan is the peak: the first
    pair's two kernels, the pair's triangle geometry (1.5 arrays of
    (n+1)^2), its first packed plan (int32 foot index, weight and source
    coefficient, 1.25 arrays, 1.5 with its boundary band) and the second
    build's plan and temporaries (4.3) make 9.3 (tracemalloc at n = 400),
    bounded here by 12; one pair takes 7.3.  Per row, each plan keeps a
    tuple of five boundary-band arrays (about 1.5 KB for a pair), and the
    travel-time inverses take up to six temporaries of the table_n-cell
    speed table.
    """
    return 8 * (12 * (n + 1) ** 2 + 6 * (table_n + 1)) + 4096 * (n + 1)


def trace_g(K: KernelSet, speeds: SpeedPair) -> np.ndarray:
    """g(x) = -k21(x,0)*lambda1(0), sampled on the kernel grid nodes."""
    K.require("trace_g", "k21")
    lam10 = float(speeds.speed(1, 0.0))
    return -K.k21[:, 0] * lam10


def feedback_gains(K: KernelSet, gauge: DiagGauge) -> FeedbackLaw:
    """Gains f1, f2 of the stabilizing feedback, on the kernel grid nodes."""
    if gauge.grid.n != K.grid.n:
        raise GridMismatchError("gauge and kernel grids differ")
    K.require("feedback_gains", "k11", "k12")
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


def _write_csv(path, header, columns) -> None:
    """Write equal-length columns under a header row, the one CSV format.

    Numbers are written as "%.12g", string columns verbatim (nothing is
    quoted), and every row ends in CRLF.  Rows are formatted by one template
    in blocks of _CSV_ROWS, so a large file's text is never held at once.
    """
    cols = [np.asarray(c) for c in columns]
    row = ",".join("%s" if c.dtype.kind in "US" else "%.12g" for c in cols) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(cols[0]), _CSV_ROWS):
            block = [c[lo:lo + _CSV_ROWS].tolist() for c in cols]
            cells = [None] * (len(block[0]) * len(cols))
            for j, vals in enumerate(block):
                cells[j::len(cols)] = vals
            fh.write((row * len(block[0])) % tuple(cells))


def export_kernels_csv(K: KernelSet, path) -> None:
    """Write the triangle samples as rows (x, xi, k11, k12, k21, k22)."""
    K.require("export_kernels_csv", "k11", "k12", "k21", "k22")
    i, j = np.tril_indices(K.grid.n + 1)
    nodes = K.grid.nodes
    _write_csv(path, ["x", "xi", "k11", "k12", "k21", "k22"],
               [nodes[i], nodes[j], K.k11[i, j], K.k12[i, j], K.k21[i, j], K.k22[i, j]])


def export_profile_csv(path, nodes: np.ndarray, columns: dict) -> None:
    """Write one or more sampled profiles as (x, value...) CSV columns."""
    _write_csv(path, ["x", *columns], [nodes, *columns.values()])
