"""Backstepping kernel solver on the triangle {0 <= xi <= x <= 1}.

The four transformation kernels satisfy two decoupled 2x2 first-order
hyperbolic systems with data on the diagonal (k12, k21), zero data on the
edge xi=0 (k11, and k22, whose free datum cannot move the vanishing prefix
of g that Tmin reads), and zeroth-order couplings through bt, ct.

Numerics.  Along its characteristic field each kernel, once multiplied by
the transported speed weight,

    p11 = k11*lambda1(xi),  p12 = k12*lambda2(xi),
    p21 = k21*lambda1(xi),  p22 = k22*lambda2(xi),

satisfies an ODE whose right-hand side involves only the partner kernel
(the speed-derivative terms cancel exactly).  All four characteristic
families are monotone in x, so the solver marches row by row in x (row i
of a kernel array holds x = x_i) with first-order explicit steps,
re-sampling each row to the triangular grid by linear interpolation.
Inside one row the couplings are acyclic: interior points read row i-1,
the boundary-entered points of k12/k21 read the k11/k22 diagonal, and those
of k11/k22 read the k12/k21 edge xi=0.  One ordered pass over the rows
therefore yields the exact fixed point of the discrete scheme: marching
again with the couplings frozen at the result repeats the same arithmetic
on the same values.

Characteristic invariants used to locate the foot of each step:

    k11: phi1(x) - phi1(xi)     k12: phi1(x) + phi2(xi)
    k21: phi2(x) + phi1(xi)     k22: phi2(x) - phi2(xi)

The trace k21(.,0) is the endpoint of the k21 integration, never an
extrapolation, and g(x) = -k21(x,0)*lambda1(0) = -p21(x,0).

The two systems are decoupled, each solved by its own row march that
builds its plans one block of rows at a time and keeps only the rows read:
solve_kernels all four kernels, solve_gains the last rows of (k11, k12) for
the feedback, solve_trace k22 for the quadrature of g.  Memory: 4, 0 and 1
arrays of (n+1)^2 floats, plus one row block of plans (about 3 MB).

Uncoupled systems (b = 0).  The pair (k11, k12) is driven only by the
coupling b, through the diagonal data and source of k12, and k22 only by b.
Where the gauged bt vanishes at every grid node the system is already
canonical: the (k11, k12) march is exactly zero, and so are k22 and every
trace path integral, which leaves g its diagonal term.  The entry points
then take these values without marching or path quadrature, bitwise the
march's, signed zeros included: solve_gains and solve_trace hold no kernel
array and no plans, only O(n) floats and temporaries of the speed table,
and solve_kernels marches the trace pair only, for the k21 it exports.
The march still runs where c is large enough to overflow it, so that it
raises (_uncoupled).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .coeffs import Grid
from .characteristics import SpeedPair
from .errors import DomainError, GridMismatchError
from .transforms import DiagGauge

_CSV_ROWS = 8192         # rows per formatting block of _write_csv
_PLAN_POINTS = 1 << 14   # triangle points per row block of the march plans and trace paths

__all__ = [
    "KernelSet",
    "FeedbackLaw",
    "solve_kernels",
    "solve_gains",
    "solve_trace",
    "solve_kernels_bytes",
    "trace_g",
    "feedback_gains",
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


@dataclass(frozen=True)
class FeedbackLaw:
    """Feedback gains: u(t) = int_0^1 (f1 y1(t,.) + f2 y2(t,.)), a trapezoid
    quadrature on nodes that simulate folds into one dot product per step."""

    nodes: np.ndarray = field(repr=False)
    f1: np.ndarray = field(repr=False)
    f2: np.ndarray = field(repr=False)


class _Block(NamedTuple):
    """Rows r0 <= i < r1, the geometry a pair's two plans share: points (i, j),
    j <= i, packed row by row from (r0, 0) on, ip = i - 1 (r0 >= 1: row 0 is
    never marched).  Row f-1 of phi, lam and dphi holds the node values of
    phi_f and lambda_f and the increments phi_f(x_i) - phi_f(x_{i-1})."""

    rows: range
    ii: np.ndarray
    jj: np.ndarray
    ip: np.ndarray
    phi: np.ndarray
    lam: np.ndarray
    dphi: np.ndarray


def _node_speeds(speeds: SpeedPair, grid: Grid):
    """lambda1 and lambda2 at the grid nodes, the weights of p = k * lambda_fa(xi)."""
    return (np.asarray(speeds.speed(1, grid.nodes), dtype=float),
            np.asarray(speeds.speed(2, grid.nodes), dtype=float))


def _blocks(speeds: SpeedPair, grid: Grid):
    """Rows 1..n in blocks of at most _PLAN_POINTS points, at least one row each."""
    n = grid.n
    phi = np.stack([speeds.phi_eval(1, grid.nodes), speeds.phi_eval(2, grid.nodes)])
    lam = np.stack(_node_speeds(speeds, grid))
    dphi = np.diff(phi, prepend=phi[:, :1])
    start = np.arange(n + 2) * np.arange(1, n + 3) // 2     # first point of row i
    r0 = 1
    while r0 <= n:
        r1 = int(np.searchsorted(start, start[r0] + _PLAN_POINTS, side="right")) - 1
        r1 = min(max(r1, r0 + 1), n + 1)
        ii = np.repeat(np.arange(r0, r1), np.arange(r0 + 1, r1 + 1))
        jj = np.arange(ii.size) - (start[ii] - start[r0])
        yield _Block(range(r0, r1), ii, jj, ii - 1, phi, lam, dphi)
        r0 = r1


class _MarchPlan(NamedTuple):
    """Precomputed geometry for marching one kernel over one row block.

    Per point (i, j) of the block, packed as in _Block: the foot of the
    characteristic step in row i-1 (linear-interp index and weight) and the
    Euler source coefficient.  Where the characteristic enters through its
    data boundary between the two rows, brows[i - r0] holds the start data
    and a source coefficient at the start.
    """

    r0: int
    on_edge: bool                  # enters through xi=0 (k11/k22), else the diagonal
    fidx: np.ndarray
    fw: np.ndarray
    coefA: np.ndarray
    brows: list                    # per row i: (js, p0, coefB, bidx, bw)


def _interp_setup(pos: np.ndarray, h: float, clamp_hi):
    """Uniform-grid linear interp indices and weights, both clamped: idx to
    [0, clamp_hi], so that idx+1 stays valid, and the weight to [0, 1], so
    that a position past node clamp_hi+1 reads that node, never extrapolates."""
    w = pos / h
    idx = np.clip(np.floor(w).astype(np.intp), 0, clamp_hi)
    w -= idx
    np.clip(w, 0.0, 1.0, out=w)
    return idx, w


def _diag_data(speeds: SpeedPair, gauge: DiagGauge, fa: int, x):
    """p-form diagonal data at x of k12 (fa = 2) or k21 (fa = 1)."""
    cpl = gauge.ct_at if fa == 1 else gauge.bt_at
    return speeds.speed(fa, x) * cpl(x) / (speeds.speed(3 - fa, x) - speeds.speed(fa, x))


def _build_plan(which: str, speeds: SpeedPair, gauge: DiagGauge, grid: Grid,
                blk: _Block) -> _MarchPlan:
    """Plan of kernel k<fx><fa> on one row block: x follows family fx, xi fa.

    k11/k22 (fx = fa) enter through the edge xi=0 with zero data, k12/k21
    through the diagonal.  The source coefficient is -lambda_fa(xi) *
    coupling(xi) / (lambda_fx(x) * lambda_fb(xi)), fb = 3 - fa, with the
    coupling ct when fa = 1 and bt when fa = 2.
    """
    h = grid.h
    nodes = grid.nodes
    ii, jj, ip = blk.ii, blk.jj, blk.ip
    fx, fa = int(which[1]), int(which[2])
    fb = 3 - fa
    on_edge = fx == fa
    pa, px = blk.phi[fa - 1], blk.phi[fx - 1]
    cpl = gauge.ct_at if fa == 1 else gauge.bt_at
    lam = speeds.speed
    coef = lambda lx, xi: -lam(fa, xi) * cpl(xi) / (lx * lam(fb, xi))

    # Invariant coordinate u of the foot of each point in row i-1.
    if on_edge:
        u = pa[jj] - blk.dphi[fx - 1][ii]
        interior = u >= 0.0
    else:
        u = pa[jj] + blk.dphi[fx - 1][ii]
        interior = u <= pa[ip] + 1e-15
    xiP = speeds.phi_inv_ext(fa, u)
    del u
    np.clip(xiP, 0.0, 1.0, out=xiP)         # the feet, clipped in place
    fidx, fw = _interp_setup(xiP, h, np.maximum(ii - 2, 0))  # idx+1 inside row i-1
    coefA = h * coef(blk.lam[fx - 1][ip], xiP)    # lambda_fx at row i-1
    del xiP

    # Boundary-entered points (a thin band along the data boundary): solve all
    # start positions of the block in one vectorized call, then slice per
    # row.  The diagonal of k12/k21 is data, not marched.
    band = ~interior if on_edge else (ii > jj) & ~interior
    bi, bj = ii[band], jj[band]
    if on_edge:
        xstart = np.asarray(speeds.phi_inv_ext(fa, pa[bi] - pa[bj]), dtype=float)
        # a step ending on xi=0 starts at x_i, which phi^{-1}(phi(x_i)) misses
        xstart[bj == 0] = nodes[bi[bj == 0]]
        xi0 = p0 = np.zeros(bi.size)
    else:
        xstart = np.asarray(speeds.psi_inv(px[bi] + pa[bj]), dtype=float)
        xi0 = xstart
        p0 = _diag_data(speeds, gauge, fa, xstart)
    cB = (nodes[bi] - xstart) * coef(lam(fx, xstart), xi0)
    bidx, bw = _interp_setup(xstart, h, grid.n - 1)

    bounds = np.searchsorted(bi, np.arange(blk.rows.start, blk.rows.stop + 1))
    brows = [tuple(a[lo:hi] for a in (bj, p0, cB, bidx, bw))
             for lo, hi in zip(bounds[:-1], bounds[1:])]

    return _MarchPlan(blk.rows.start, on_edge, fidx, fw, coefA, brows)


def _step_interior(plan: _MarchPlan, row: np.ndarray, prev_self: np.ndarray,
                   prev_other: np.ndarray, i: int) -> None:
    """Row i from row i-1 along each characteristic, boundary-entered points
    too (_step_boundary overwrites them)."""
    m = i + 1 if plan.on_edge else i
    lo = (i * (i + 1) - plan.r0 * (plan.r0 + 1)) // 2
    seg = slice(lo, lo + m)
    fid = plan.fidx[seg]
    fwt = plan.fw[seg]
    up = 1.0 - fwt
    row[:m] = (prev_self[fid] * up + prev_self[fid + 1] * fwt
               + plan.coefA[seg] * (prev_other[fid] * up + prev_other[fid + 1] * fwt))


def _step_boundary(plan: _MarchPlan, row: np.ndarray, edge: np.ndarray, i: int) -> None:
    """Row i at the points whose characteristic enters through the data boundary."""
    js, p0, cB, bidx, bw = plan.brows[i - plan.r0]
    if js.size:
        row[js] = p0 + cB * (edge[bidx] * (1.0 - bw) + edge[bidx + 1] * bw)


# Each pair as (diagonal-entered kernel, edge-entered kernel).
_PAIRS = {"gains": ("k12", "k11"), "trace": ("k21", "k22")}


def _check_grid(grid: Grid) -> None:
    if grid.n < 4:
        raise DomainError("kernel grid too coarse (need n >= 4)")


def _march_pair(pair: str, speeds: SpeedPair, gauge: DiagGauge, grid: Grid, keep) -> dict:
    """Row march of one pair in p-form, each kernel named in keep returned as
    its (n+1)^2 array and the other as its last row (x = 1).

    Plans are built one _Block at a time.  In each row both interior steps
    come first; then the diagonal-entered kernel's boundary points read the
    partner's diagonal, and the edge-entered kernel's the partner's edge
    xi=0, complete with its entry (i, 0): each row in dependency order, so
    the one pass is the exact fixed point of the discrete scheme.  A
    non-finite row raises DomainError naming its kernel; callers _check_grid.
    """
    n = grid.n
    wd, we = _PAIRS[pair]
    with np.errstate(over="ignore", invalid="ignore"):            # the row check reports it
        data = _diag_data(speeds, gauge, int(wd[2]), grid.nodes)  # the diagonal of wd
    Fd, Fe = (np.zeros((n + 1, n + 1)) if w in keep else None for w in (wd, we))
    rd = np.zeros(n + 1) if Fd is None else Fd[0]
    re = np.zeros(n + 1) if Fe is None else Fe[0]
    rd[0] = data[0]
    diag = np.zeros(n + 1)      # the diagonal of we, read by wd's boundary points
    edge = np.zeros(n + 1)      # the edge xi=0 of wd, read by we's boundary points
    edge[0] = rd[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for blk in _blocks(speeds, grid):
            pd, pe = (_build_plan(w, speeds, gauge, grid, blk) for w in (wd, we))
            for i in blk.rows:
                prev_d, prev_e = rd, re
                rd = np.zeros(n + 1) if Fd is None else Fd[i]
                re = np.zeros(n + 1) if Fe is None else Fe[i]
                _step_interior(pd, rd, prev_d, prev_e, i)
                _step_interior(pe, re, prev_e, prev_d, i)
                diag[i] = re[i]
                _step_boundary(pd, rd, diag, i)
                rd[i] = data[i]
                edge[i] = rd[0]
                _step_boundary(pe, re, edge, i)
                for w, r in ((wd, rd), (we, re)):
                    if not np.isfinite(r).all():
                        raise DomainError(f"kernel {w} overflows: the couplings b and c "
                                          "are too large for the kernel solve")
    return {wd: rd if Fd is None else Fd, we: re if Fe is None else Fe}


def _uncoupled(speeds: SpeedPair, gauge: DiagGauge) -> bool:
    """Whether bt vanishes at every node and the c-driven march surely stays
    finite.  Then the gains pair, k22 and every trace path integral are
    exactly zero.  Each diagonal datum and source coefficient of k11 and
    k21, and g, is at most max|ct| max|lambda| / min(1, min|lambda|)^3 in
    size; the bound, taken on the speed table, is kept below 1e300, far
    enough from overflow that speeds between the table's nodes cannot reach
    it.  Beyond it the march runs, and raises DomainError where it overflows."""
    if gauge.bt.any():
        return False
    lam = 1.0 / np.concatenate([speeds.w1, speeds.w2])      # |lambda| on the table
    with np.errstate(over="ignore", divide="ignore"):
        bound = np.abs(gauge.ct).max() * lam.max() / min(lam.min(), 1.0) ** 3
    return bool(bound < 1e300)


def _gains_pair(speeds: SpeedPair, gauge: DiagGauge, grid: Grid, keep) -> dict:
    """_march_pair of (k11, k12).  An _uncoupled march is exactly zero and
    is skipped: k11 is +0.0 and k12 its zero diagonal data (-0.0, as
    lambda1 < 0 < lambda2) on and below the diagonal, +0.0 above it, as the
    march leaves them: its weights lie in [0, 1] (_interp_setup), so it
    never turns the sign of a zero."""
    _check_grid(grid)
    if not _uncoupled(speeds, gauge):
        return _march_pair("gains", speeds, gauge, grid, keep)
    n = grid.n
    data = _diag_data(speeds, gauge, 2, grid.nodes)
    if not keep:
        return {"k12": np.full(n + 1, data[n]), "k11": np.zeros(n + 1)}
    P12 = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        P12[i, :i + 1] = data[i]
    return {"k12": P12, "k11": np.zeros((n + 1, n + 1))}


def _trace_row_direct(speeds: SpeedPair, gauge: DiagGauge, grid: Grid,
                      P22: np.ndarray | None) -> np.ndarray:
    """p21 on the edge xi=0 by direct quadrature along each trace characteristic.

    The characteristic ending at (x, 0) starts on the diagonal at
    sigma = psi^{-1}(phi2(x)), where p21 is its diagonal datum, and
    satisfies phi1(xi) = phi2(x) - phi2(x').
    Integrating each trace path separately keeps the zero set of the trace
    exact: wherever the gauged coupling vanishes along the whole path the
    integral is identically zero, with no interpolation smearing across the
    data discontinuity.  The n+1 paths of n+1 points each are evaluated in
    blocks of at most _PLAN_POINTS points (at least one path), gathering
    bilinearly from P22, which must be zero above its diagonal.  P22 None is
    the zero k22 of an _uncoupled system: every path integral is zero, and
    the row the diagonal term (+ 0.0, the sum's sign where c vanishes).
    """
    n = grid.n
    h = grid.h
    nodes = grid.nodes
    p2n = np.asarray(speeds.phi_eval(2, nodes))
    sig = np.asarray(speeds.psi_inv(p2n))
    p0 = _diag_data(speeds, gauge, 1, sig)
    if P22 is None:
        return p0 + 0.0
    taus = np.linspace(0.0, 1.0, n + 1)
    paths = max(1, _PLAN_POINTS // (n + 1))
    integral = np.empty(n + 1)
    # pad the first superdiagonal with the diagonal values, in place and
    # zeroed again below, so that cells straddling the diagonal do not mix
    # in the unused zero entries
    idx = np.arange(n)
    P22[idx, idx + 1] = P22[idx, idx]
    for b0 in range(0, n + 1, paths):
        blk = slice(b0, b0 + paths)
        X = sig[blk, None] + taus[None, :] * (nodes[blk] - sig[blk])[:, None]
        XI = np.clip(speeds.phi_inv_ext(1, p2n[blk, None] - speeds.phi_eval(2, X)),
                     0.0, 1.0)
        l1_xi = np.asarray(speeds.speed(1, XI), dtype=float)
        l2_x = np.asarray(speeds.speed(2, X), dtype=float)
        l2_xi = np.asarray(speeds.speed(2, XI), dtype=float)
        ct_xi = gauge.ct_at(XI)
        ix, wx = _interp_setup(X, h, n - 1)
        jx, wj = _interp_setup(XI, h, n - 1)
        p22v = (P22[ix, jx] * (1 - wx) * (1 - wj) + P22[ix + 1, jx] * wx * (1 - wj)
                + P22[ix, jx + 1] * (1 - wx) * wj + P22[ix + 1, jx + 1] * wx * wj)
        S = -l1_xi * ct_xi * p22v / (l2_x * l2_xi)
        integral[blk] = np.trapezoid(S, axis=1)  # unit spacing; times the step below
    P22[idx, idx + 1] = 0.0
    integral *= (nodes - sig) / n
    return p0 + integral


def _gains(k11_last: np.ndarray, k12_last: np.ndarray, gauge: DiagGauge,
           grid: Grid) -> FeedbackLaw:
    """Feedback gains from row n (x = 1) of k11 and k12."""
    if gauge.grid.n != grid.n:
        raise GridMismatchError("gauge and kernel grids differ")
    return FeedbackLaw(nodes=grid.nodes, f1=k11_last * gauge.e1 / gauge.e1[-1],
                       f2=k12_last * gauge.e2 / gauge.e1[-1])


def _g(k21_edge: np.ndarray, speeds: SpeedPair) -> np.ndarray:
    """g from the trace k21(., 0)."""
    return -k21_edge * float(speeds.speed(1, 0.0))


def solve_kernels(gauge: DiagGauge, speeds: SpeedPair, grid: Grid) -> KernelSet:
    """All four kernels, one row march per pair (none for an _uncoupled
    gains pair); a single pass is the fixed point of the discrete scheme,
    unconditionally stable and first-order accurate.  Couplings b, c too
    large for the march overflow a kernel, which raises DomainError naming
    it.  Memory: the four kernels plus one row block of plans
    (solve_kernels_bytes)."""
    K = {**_gains_pair(speeds, gauge, grid, ("k11", "k12")),
         **_march_pair("trace", speeds, gauge, grid, ("k21", "k22"))}
    # The xi=0 trace of k21 defines g; integrate it directly along each trace
    # characteristic so its vanishing set is not blurred by the re-sampling.
    P22 = None if _uncoupled(speeds, gauge) else K["k22"]
    K["k21"][:, 0] = _trace_row_direct(speeds, gauge, grid, P22)
    lam1, lam2 = _node_speeds(speeds, grid)
    for w, lam in zip(("k11", "k12", "k21", "k22"), (lam1, lam2, lam1, lam2)):
        K[w] /= lam                                  # p = k * lambda_fa(xi)
    return KernelSet(grid=grid, **K)


def solve_gains(gauge: DiagGauge, speeds: SpeedPair, grid: Grid) -> FeedbackLaw:
    """feedback_gains of the full solve, bitwise, from a march of (k11, k12)
    that keeps no kernel array, or none where bt vanishes (zero gains)."""
    P = _gains_pair(speeds, gauge, grid, ())
    lam1, lam2 = _node_speeds(speeds, grid)
    return _gains(P["k11"] / lam1, P["k12"] / lam2, gauge, grid)


def solve_trace(gauge: DiagGauge, speeds: SpeedPair, grid: Grid) -> np.ndarray:
    """trace_g of the full solve, bitwise, from a march of (k21, k22) that
    keeps only k22, which the trace quadrature reads.  An _uncoupled k22 and
    its path integrals are exactly zero: no march, and g is the diagonal
    term, as in solve_kernels."""
    _check_grid(grid)
    P22 = (None if _uncoupled(speeds, gauge)
           else _march_pair("trace", speeds, gauge, grid, ("k22",))["k22"])
    row = _trace_row_direct(speeds, gauge, grid, P22)
    lam1, _ = _node_speeds(speeds, grid)
    return _g(row / lam1[0], speeds)


def solve_kernels_bytes(n: int, table_n: int) -> int:
    """Upper bound on the bytes solve_kernels holds at once on an n-cell grid.

    The peak holds the four kernels (4 arrays of (n+1)^2 floats) and one row
    block of plans: at most _PLAN_POINTS points of geometry, two plans and
    their build's temporaries, about 3 MB.  tracemalloc on varying speeds
    measures 6.2 arrays at n = 400, 4.6 at n = 800 and 4.1 at n = 1600; up
    to n = 179 the triangle is one block, and at a few hundred cells and
    below six temporaries of the table_n-cell speed table weigh in too
    (14.4 arrays at n = 150).  The bound keeps 12 arrays, the speed-table
    temporaries and 4 KB per row for a block's boundary-band tuples.
    """
    return 8 * (12 * (n + 1) ** 2 + 6 * (table_n + 1)) + 4096 * (n + 1)


def trace_g(K: KernelSet, speeds: SpeedPair) -> np.ndarray:
    """g(x) = -k21(x,0)*lambda1(0), sampled on the kernel grid nodes."""
    return _g(K.k21[:, 0], speeds)


def feedback_gains(K: KernelSet, gauge: DiagGauge) -> FeedbackLaw:
    """Gains f1, f2 of the stabilizing feedback, on the kernel grid nodes."""
    return _gains(K.k11[K.grid.n, :], K.k12[K.grid.n, :], gauge, K.grid)


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
    i, j = np.tril_indices(K.grid.n + 1)
    nodes = K.grid.nodes
    _write_csv(path, ["x", "xi", "k11", "k12", "k21", "k22"],
               [nodes[i], nodes[j], K.k11[i, j], K.k12[i, j], K.k21[i, j], K.k22[i, j]])


def export_profile_csv(path, nodes: np.ndarray, columns: dict) -> None:
    """Write one or more sampled profiles as (x, value...) CSV columns."""
    _write_csv(path, ["x", *columns], [nodes, *columns.values()])
