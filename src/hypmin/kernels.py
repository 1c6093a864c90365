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

Each solve takes a system with q = 0 and a grid of n >= 4 cells, and
starts from one set-up, _gauge: the checks, the gauge and whether the
system is coupled.  The two systems are decoupled, each solved by its own
row march.
The kernel stream moves in row blocks (_row_blocks), in order of x, which is
also the order of kernels.csv, with one block size, BLOCK_POINTS: the march
builds the band of boundary-entered points of each of its kernels once
(_Band, a few points a row), then its plans and its rows one block at a
time, stepping the interior points of both kernels of a row with one set
of gathers and products, the trace stream (_trace_blocks) integrates the
trace paths of each block once the march has passed it, and the one
checked kernel stream (_kernel_blocks) joins each trace block with the
gains block of the same rows, divides k11, k12 and k21 by the speeds and
checks the four kernels, k22 without dividing it: each sink divides it
once.  It raises the first error it meets: at each block that of the
gains march, then of the trace march (which runs a block ahead), then of
k11, k12, k21 and k22 in turn.  That joint stream has two sinks:
solve_kernels keeps all four kernels (and g and the gains read from them),
and write_kernels_csv only k22, for the trace paths, writing each block's
lines to kernels.csv.  solve_gains keeps the last row of (k11, k12) of the
gains march for the feedback, and solve_trace k22 and the edge of each
trace block.  Memory: 4 arrays of (n+1)^2 floats for solve_kernels, none
for solve_gains, 1 for solve_trace and 1 for write_kernels_csv (none where
b = 0), plus one row block of plans (about 2 MB; half that where only
k21 is planned), the bands of the kernels marched (O(n) floats), and
a few row blocks of kernel rows and one of trace paths (and of CSV text,
formatted one triangle row at a time).  write_kernels_csv checks its
bound, write_kernels_csv_bytes, against the machine's memory once _gauge
has decided whether the system is coupled, before it opens the file.  The
records the solves return, KernelSet and FeedbackLaw, and the CSV format
live in system.

Uncoupled systems (b = 0).  The pair (k11, k12) is driven only by the
coupling b, through the diagonal data and source of k12, and k22 only by b.
Where the gauged bt vanishes at every grid node the system is already
canonical: the (k11, k12) march is exactly zero, and so are k22 and every
trace path integral, which leaves g its diagonal term.  _gauge decides
this once per solve, and the entry points then take these values without
marching or path quadrature, bitwise the march's, signed zeros included:
solve_gains and solve_trace hold no kernel array and no plans, only O(n)
floats and temporaries of the speed table, and solve_kernels and
write_kernels_csv march k21 only, for the k21 and k22 they export: the
trace march plans and steps k21 alone, one plan a row block, and k21's
steps read the +0.0 of k22 (_march_pair).
The march still runs where c is large enough to overflow it, so that it
raises (_uncoupled).

Floating-point errors.  _gauge and each entry point compute under one
np.errstate with overflow, invalid and divide-by-zero ignored, and check
what they return: a kernel, g or gain with an entry that is not finite
raises DomainError naming it.  The helpers take their one input, the
gauge, which holds the grid, the speeds and their node values.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import NamedTuple

import numpy as np

from .coeffs import Grid
from .config import check_memory
from .errors import DomainError, PreconditionError
from .system import (BLOCK_POINTS, FeedbackLaw, KernelSet, SystemSpec, csv_header, csv_text,
                     csv_triangle)
# a name of kernels too, where perfbench/traced_cli.py finds the profile writer
from .system import export_profile_csv  # noqa: F401
from .transforms import DiagGauge, diag_removal

__all__ = ["solve_kernels", "solve_gains", "solve_trace", "solve_kernels_bytes",
           "write_kernels_csv", "write_kernels_csv_bytes"]


class _Block(NamedTuple):
    """Rows r0 <= i < r1, the geometry a pair's two plans share: points (i, j),
    j <= i, packed row by row from (r0, 0) on (r0 >= 1: row 0 is never
    marched).  Row f-1 of phi and dphi holds the node values of phi_f
    and the increments phi_f(x_i) - phi_f(x_{i-1})."""

    rows: range
    ii: np.ndarray
    jj: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray


def _row_blocks(n: int) -> list:
    """Rows 0..n in blocks of max(1, BLOCK_POINTS // (n+1)) rows, the one unit
    of the kernel stream: of the march plans, the trace paths and kernels.csv."""
    rows = max(1, BLOCK_POINTS // (n + 1))
    return [range(r0, min(r0 + rows, n + 1)) for r0 in range(0, n + 1, rows)]


def _node_phi(gauge: DiagGauge) -> tuple:
    """(phi, dphi): row f-1 the node values of phi_f and their increments
    phi_f(x_i) - phi_f(x_{i-1}) (0 at i = 0)."""
    speeds, nodes = gauge.speeds, gauge.grid.nodes
    phi = np.stack([speeds.phi_eval(1, nodes), speeds.phi_eval(2, nodes)])
    return phi, np.diff(phi, prepend=phi[:, :1])


def _blocks(gauge: DiagGauge):
    """The _Block of each of the _row_blocks: its rows from 1 on."""
    phi, dphi = _node_phi(gauge)
    for rows in _row_blocks(gauge.grid.n):
        marched = range(max(rows.start, 1), rows.stop)
        ii, jj = _triangle_points(marched)
        yield _Block(marched, ii, jj, phi, dphi)


def _triangle_points(rows: range):
    """The points (i, j), j <= i, of the triangle rows i in rows, row by row:
    each point's j is its place in the block less its row's offset there."""
    r0 = rows.start
    i = np.arange(r0, rows.stop)
    ii = np.repeat(i, i + 1)
    return ii, np.arange(ii.size) - np.repeat((i * (i + 1) - r0 * (r0 + 1)) // 2, i + 1)


class _MarchPlan(NamedTuple):
    """Precomputed geometry for marching the kernels of a pair over one row
    block: row t of each array is that of the pair's t-th kernel, the
    diagonal-entered one first, then the edge-entered one where it is
    planned.

    Per point (i, j) of the block, packed as in _Block: the foot of the
    characteristic step in row i-1 (linear-interp index fidx, weights
    1 - fw and fw) and the Euler source coefficient.  The points whose
    characteristic enters through the data boundary are stepped from its
    _Band.
    """

    r0: int
    fidx: np.ndarray
    up: np.ndarray                 # 1 - fw
    fw: np.ndarray
    coefA: np.ndarray


def _interp_setup(pos: np.ndarray, h: float, clamp_hi, idx=None, w=None):
    """Uniform-grid linear interp indices and weights, both clamped: idx to
    [0, clamp_hi], so that idx+1 stays valid, and the weight to [0, 1], so
    that a position past node clamp_hi+1 reads that node, never extrapolates.
    Written to idx and w where given."""
    w = np.divide(pos, h, out=w)
    idx = np.clip(np.floor(w).astype(np.intp), 0, clamp_hi, out=idx)
    w -= idx
    np.clip(w, 0.0, 1.0, out=w)
    return idx, w


def _diag_data(gauge: DiagGauge, fa: int, x):
    """p-form diagonal data at x of k12 (fa = 2) or k21 (fa = 1)."""
    lam, cpl = gauge.speeds.speed, gauge.ct_at if fa == 1 else gauge.bt_at
    return lam(fa, x) * cpl(x) / (lam(3 - fa, x) - lam(fa, x))


def _source(gauge: DiagGauge, fa: int, lx, xi):
    """Source coefficient -lambda_fa(xi) * coupling(xi) / (lx * lambda_fb(xi))
    of a kernel k<fx><fa>, fb = 3 - fa and lx = lambda_fx(x), with the
    coupling ct when fa = 1 and bt when fa = 2; in place, on new arrays."""
    lam, cpl = gauge.speeds.speed, gauge.ct_at if fa == 1 else gauge.bt_at
    out = np.negative(lam(fa, xi))
    out *= cpl(xi)
    den = lam(3 - fa, xi)
    den *= lx
    out /= den
    return out


def _build_plan(which: str, gauge: DiagGauge, blk: _Block, plan: _MarchPlan, t: int) -> None:
    """Plan of kernel k<fx><fa> on one row block, written to row t of plan:
    x follows family fx, xi fa.  k11/k22 (fx = fa) enter through the edge
    xi=0 with zero data, k12/k21 through the diagonal."""
    h, speeds = gauge.grid.h, gauge.speeds
    ii, jj = blk.ii, blk.jj
    fx, fa = int(which[1]), int(which[2])
    pa = blk.phi[fa - 1]
    # Invariant coordinate u of the foot of each point in row i-1.
    if fx == fa:
        u = pa[jj] - blk.dphi[fx - 1][ii]
    else:
        u = pa[jj] + blk.dphi[fx - 1][ii]
    xiP = speeds.phi_inv_ext(fa, u)
    del u
    np.clip(xiP, 0.0, 1.0, out=xiP)         # the feet, clipped in place
    clamp = ii - 2
    _interp_setup(xiP, h, np.maximum(clamp, 0, out=clamp), plan.fidx[t], plan.fw[t])
    del clamp                               # idx+1 inside row i-1
    np.subtract(1.0, plan.fw[t], out=plan.up[t])
    np.multiply(h, _source(gauge, fa, gauge.lam[fx - 1][ii - 1], xiP),   # lambda_fx at row i-1
                out=plan.coefA[t])


def _block_plan(names, gauge: DiagGauge, blk: _Block) -> _MarchPlan:
    """The _MarchPlan of the kernels names (one or both of a pair's, the
    diagonal-entered one first) on one row block."""
    plan = _MarchPlan(blk.rows.start, *(np.empty((len(names), blk.ii.size), dtype=t)
                                        for t in (np.intp, float, float, float)))
    for t, which in enumerate(names):
        _build_plan(which, gauge, blk, plan, t)
    return plan


class _Band(NamedTuple):
    """The boundary-entered points of one kernel, for its whole march: the
    points (i, j) whose characteristic enters through the data boundary
    (the edge xi=0 where on_edge, for k11/k22, else the diagonal, which is
    data, not marched) between rows i-1 and i, a thin band along it, packed
    row by row, row i from bounds[i] to bounds[i+1]: their columns js, the
    start data p0, the source coefficient cB at the start and the interp
    index and weights (bidx, bw and 1 - bw) of the start on the boundary."""

    on_edge: bool
    bounds: list
    js: np.ndarray
    p0: np.ndarray
    cB: np.ndarray
    bidx: np.ndarray
    bw: np.ndarray
    bup: np.ndarray

    def row(self, i: int) -> tuple:
        """(js, p0, cB, bidx, bw, bup) of row i."""
        s = slice(self.bounds[i], self.bounds[i + 1])
        return self.js[s], self.p0[s], self.cB[s], self.bidx[s], self.bw[s], self.bup[s]


def _band(which: str, gauge: DiagGauge) -> _Band:
    """The _Band of kernel which over all rows.  A pre-pass over the
    _row_blocks keeps only the band's points, those whose foot in row i-1
    falls outside the kernel's domain: its invariant coordinate u (that of
    _build_plan) fails u >= 0 for k11/k22, u <= phi_fa(x_{i-1}) + 1e-15
    for k12/k21; then every start on the boundary is solved in one
    vectorized call."""
    grid, speeds = gauge.grid, gauge.speeds
    n, h, nodes = grid.n, grid.h, grid.nodes
    fx, fa = int(which[1]), int(which[2])
    on_edge = fx == fa
    phi, dphi = _node_phi(gauge)
    pa, px, dpx = phi[fa - 1], phi[fx - 1], dphi[fx - 1]
    bi, bj = [], []
    for rows in _row_blocks(n):
        r0, r1 = max(rows.start, 1), rows.stop
        # the test on the rows' first r1 columns, then the points of the
        # triangle, j <= i (j < i off the edge), among the few it keeps
        if on_edge:
            out = pa[:r1] - dpx[r0:r1, None] >= 0.0
        else:
            out = pa[:r1] + dpx[r0:r1, None] <= pa[r0 - 1:r1 - 1, None] + 1e-15
        r, c = np.nonzero(np.logical_not(out, out=out))
        r += r0
        keep = c <= r if on_edge else c < r
        bi.append(r[keep])
        bj.append(c[keep])
    bi, bj = np.concatenate(bi), np.concatenate(bj)
    if on_edge:
        xstart = speeds.phi_inv_ext(fa, pa[bi] - pa[bj])
        # a step ending on xi=0 starts at x_i, which phi^{-1}(phi(x_i)) misses
        xstart[bj == 0] = nodes[bi[bj == 0]]
        xi0 = p0 = np.zeros(bi.size)
    else:
        xstart = speeds.psi_inv(px[bi] + pa[bj])
        xi0 = xstart
        p0 = _diag_data(gauge, fa, xstart)
    cB = (nodes[bi] - xstart) * _source(gauge, fa, speeds.speed(fx, xstart), xi0)
    bidx, bw = _interp_setup(xstart, h, n - 1)
    bounds = np.searchsorted(bi, np.arange(n + 2)).tolist()
    return _Band(on_edge, bounds, bj, p0, cB, bidx, bw, 1.0 - bw)


def _step_interior(plan: _MarchPlan, row: np.ndarray, prev: np.ndarray, i: int) -> None:
    """Row i of each planned kernel from row i-1 along its characteristics,
    boundary-entered points too (_step_boundary overwrites them).  row and
    prev hold rows i and i-1 of the pair (diagonal-entered kernel first):
    each kernel reads itself and its partner at its own feet, one gather
    of both rows for both kernels, and the diagonal-entered kernel writes
    j < i, the edge-entered one j <= i."""
    lo = (i * (i + 1) - plan.r0 * (plan.r0 + 1)) // 2
    seg = slice(lo, lo + i + 1)
    fid = plan.fidx[:, seg]
    v = prev.take(fid, axis=1)      # v[s, t]: kernel s of row i-1 at the feet of kernel t
    v *= plan.up[:, seg]
    w = prev[:, 1:].take(fid, axis=1)
    w *= plan.fw[:, seg]
    v += w
    coefA = plan.coefA[:, seg]
    np.add(v[0, 0, :i], coefA[0, :i] * v[1, 0, :i], out=row[0, :i])
    if len(fid) == 2:
        np.add(v[1, 1], coefA[1] * v[0, 1], out=row[1, :i + 1])


def _step_boundary(band: _Band, row: np.ndarray, edge: np.ndarray, i: int) -> None:
    """Row i at the points whose characteristic enters through the data boundary."""
    js, p0, cB, bidx, bw, bup = band.row(i)
    if js.size:
        row[js] = p0 + cB * (edge[bidx] * bup + edge[1:][bidx] * bw)


# Each pair as (diagonal-entered kernel, edge-entered kernel).
_PAIRS = {"gains": ("k12", "k11"), "trace": ("k21", "k22")}


def _march_pair(pair: str, gauge: DiagGauge, coupled: bool = True):
    """Row march of one pair in p-form: yields (rows, D, E) for each of the
    _row_blocks in turn, D and E the block's rows of the diagonal- and the
    edge-entered kernel, new arrays of len(rows) x (n+1) floats, zero above
    the diagonal.

    The _Band of each kernel is built once, before the first block, and
    the plans one block at a time.  In each row both interior steps come
    first, in one _step_interior; then the diagonal-entered kernel's
    boundary points read the partner's diagonal, and the edge-entered
    kernel's the partner's edge xi=0, complete with its entry (i, 0): each
    row in dependency order, so the one pass is the exact fixed point of
    the discrete scheme.  A block with a marched entry that is not finite
    raises DomainError naming the kernel of its first such row, the
    diagonal-entered one where both rows have one, as a check of each row
    in turn would; _gauge checks n >= 4.

    Not coupled (the trace pair of an _uncoupled system) the edge-entered
    kernel, k22, is not planned or stepped: every source of it is the
    gauged bt = +0.0, so its march leaves it the +0.0 that E is allocated
    with, and k21's steps read those zeros, as the diagonal, in its place.
    """
    n = gauge.grid.n
    names = _PAIRS[pair]
    data = _diag_data(gauge, int(names[0][2]), gauge.grid.nodes)     # the diagonal of wd
    diag = np.zeros(n + 1)      # the diagonal of we, read by wd's boundary points
    edge = np.zeros(n + 1)      # the edge xi=0 of wd, read by we's boundary points
    edge[0] = data[0]
    last = np.zeros((2, n + 1))     # the row of (wd, we) before the block
    bd = _band(names[0], gauge)
    be = _band(names[1], gauge) if coupled else None
    planned = names if coupled else names[:1]
    for rows, blk in zip(_row_blocks(n), _blocks(gauge)):
        P = np.zeros((2, len(rows) + 1, n + 1))     # P[:, k + 1] is row rows.start + k
        P[:, 0] = last
        r = np.arange(rows.start, rows.stop)
        P[0, r - rows.start + 1, r] = data[r]
        plan = _block_plan(planned, gauge, blk)
        for i in blk.rows:
            row = P[:, i - rows.start + 1]
            _step_interior(plan, row, P[:, i - rows.start], i)
            if coupled:
                diag[i] = row[1, i]
            _step_boundary(bd, row[0], diag, i)
            if coupled:
                edge[i] = row[0, 0]
                _step_boundary(be, row[1], edge, i)
        del plan                    # before the block is read
        marched = P[:, blk.rows.start - rows.start + 1:]
        bad = np.flatnonzero(~np.isfinite(marched).all(axis=2).T)   # row by row
        if bad.size:
            raise _overflow(f"kernel {names[bad[0] % 2]}")
        last = P[:, -1]
        yield rows, P[0, 1:], P[1, 1:]


def _uncoupled(gauge: DiagGauge) -> bool:
    """Whether bt vanishes at every node and the c-driven march surely stays
    finite.  Then the gains pair, k22 and every trace path integral are
    exactly zero.  Each diagonal datum and source coefficient of k11 and
    k21, and g, is at most max|ct| max|lambda| / min(1, min|lambda|)^3 in
    size; the bound, taken on the speed table, is kept below 1e300, far
    enough from overflow that speeds between the table's nodes cannot reach
    it.  Beyond it the march runs, and raises DomainError where it overflows."""
    if gauge.bt.any():
        return False
    lam = 1.0 / np.concatenate([gauge.speeds.w1, gauge.speeds.w2])     # |lambda| on the table
    bound = np.abs(gauge.ct).max() * lam.max() / min(lam.min(), 1.0) ** 3
    return bool(bound < 1e300)


def _zero_gains(gauge: DiagGauge, blocks):
    """The blocks (rows, k12, k11) of an _uncoupled gains pair on the row
    ranges blocks, built without its march, which is exactly zero: k11 is
    +0.0 and k12 its zero diagonal data (-0.0, as lambda1 < 0 < lambda2) on
    and below the diagonal, +0.0 above it, as the march leaves them: its
    weights lie in [0, 1] (_interp_setup), so it never turns the sign of a
    zero."""
    n = gauge.grid.n
    data = _diag_data(gauge, 2, gauge.grid.nodes)
    for rows in blocks:
        D = np.tril(np.tile(data[rows.start:rows.stop, None], n + 1), rows.start)
        yield rows, D, np.zeros_like(D)


def _trace_paths(gauge: DiagGauge):
    """p21 on the edge xi=0 by direct quadrature along each trace characteristic:
    its diagonal term p0 at every node, and paths(P22, rows), p0 plus the
    path integrals at the nodes of one of the _row_blocks.

    The characteristic ending at (x, 0) starts on the diagonal at
    sigma = psi^{-1}(phi2(x)), where p21 is its diagonal datum, and
    satisfies phi1(xi) = phi2(x) - phi2(x').
    Integrating each trace path separately keeps the zero set of the trace
    exact: wherever the gauged coupling vanishes along the whole path the
    integral is identically zero, with no interpolation smearing across the
    data discontinuity.  Each path of n+1 points gathers bilinearly from
    P22 on and below its diagonal, the path ending at x_i from rows up to
    i+1; a cell straddling the diagonal reads the diagonal value for its
    corner above it, not the zero there.  A datum past the float range is
    left to the kernel check.
    """
    speeds, n, h, nodes = gauge.speeds, gauge.grid.n, gauge.grid.h, gauge.grid.nodes
    p2n = np.asarray(speeds.phi_eval(2, nodes))
    sig = np.asarray(speeds.psi_inv(p2n))
    p0 = _diag_data(gauge, 1, sig)
    taus = np.linspace(0.0, 1.0, n + 1)

    def paths(P22: np.ndarray, rows: range) -> np.ndarray:
        blk = slice(rows.start, rows.stop)
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
                + P22[ix, np.minimum(jx + 1, ix)] * (1 - wx) * wj
                + P22[ix + 1, jx + 1] * wx * wj)
        S = -l1_xi * ct_xi * p22v / (l2_x * l2_xi)    # a speed product past 1e308: S is +-0
        # unit spacing, times the step
        return p0[blk] + np.trapezoid(S, axis=1) * ((nodes[blk] - sig[blk]) / n)

    return p0, paths


def _trace_blocks(gauge: DiagGauge, P22):
    """The trace march block by block: yields (rows, D, E, edge) for each of
    the _row_blocks in turn, D and E its rows of p21 and p22 as _march_pair
    yields them and edge p21(x_i, 0) on rows.  Copies each block of p22 into
    P22 and holds it back until the next block is marched: its trace paths
    read P22 up to the next block's first row (row n for the last block).
    P22 None is the zero k22 of an _uncoupled system, which the march does
    not step, whose path integrals are zero and whose edge is the diagonal
    term (+ 0.0, the sum's sign where c vanishes).  Raises as
    _march_pair("trace") does."""
    p0, paths = _trace_paths(gauge)
    held = None
    for block in chain(_march_pair("trace", gauge, P22 is not None), [None]):
        if block and P22 is not None:
            P22[block[0].start:block[0].stop] = block[2]
        if held:
            rows = held[0]
            yield *held, p0[rows.start:rows.stop] + 0.0 if P22 is None else paths(P22, rows)
        held = block


_NAMES = ("k11", "k12", "k21", "k22")


def _kernel_blocks(gauge: DiagGauge, P22):
    """The one checked kernel stream: yields (rows, (k11, k12, k21), p22) for
    each of the _row_blocks in turn, the block's rows of the first three
    kernels, new arrays, and of the p-form of k22, lambda2(xi) k22, which
    each sink divides once, and raises the first error it meets.

    At each block it steps the gains march (_zero_gains where P22 is None,
    the _uncoupled system) through the block, then _trace_blocks(gauge, P22),
    which runs a block ahead, and last divides each of the first three
    kernels' p-form by lambda_fa(xi), k21's column 0 its trace edge, and
    checks k11, k12, k21 and k22 of the block in turn.  k22's quotient is
    checked without forming it: p22 is finite (the march checks it) and
    lambda2 > 0, so a quotient overflows exactly where that of the largest
    |p22| of its column does, division being monotone.
    """
    lam1, lam2 = gauge.lam
    gains = (_march_pair("gains", gauge) if P22 is not None
             else _zero_gains(gauge, _row_blocks(gauge.grid.n)))
    for (_, p12, p11), (rows, p21, p22, edge) in zip(gains, _trace_blocks(gauge, P22)):
        k = (p11 / lam1, p12 / lam2, p21 / lam1)
        k[2][:, 0] = edge / lam1[0]
        k = tuple(_finite(f"kernel {w}", kw) for w, kw in zip(_NAMES, k))
        _finite("kernel k22", np.abs(p22).max(axis=0, initial=0.0) / lam2)
        yield rows, k, p22


def _overflow(name: str) -> DomainError:
    return DomainError(f"{name} overflows: the couplings b and c are too large "
                       "for the kernel solve")


def _finite(name: str, values: np.ndarray) -> np.ndarray:
    """values, or DomainError naming the kernel or gain where one overflowed."""
    if not np.isfinite(values).all():
        raise _overflow(name)
    return values


def _gains(k11_last: np.ndarray, k12_last: np.ndarray, gauge: DiagGauge) -> FeedbackLaw:
    """Feedback gains from row n (x = 1) of k11 and k12."""
    return FeedbackLaw(nodes=gauge.grid.nodes,
                       f1=_finite("gain f1", k11_last * gauge.e1 / gauge.e1[-1]),
                       f2=_finite("gain f2", k12_last * gauge.e2 / gauge.e1[-1]))


def _g(k21_edge: np.ndarray, gauge: DiagGauge) -> np.ndarray:
    """g from the trace k21(., 0)."""
    return -k21_edge * gauge.lam[0, 0]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _gauge(system: SystemSpec, grid: Grid) -> tuple:
    """(gauge, coupled): the one set-up of every solve, the diagonal-removing
    gauge of system on grid and whether the system is not _uncoupled.  The
    kernels' boundary condition at xi=0 is that of the zero reflection, so
    q != 0 raises PreconditionError, before the gauge's own DomainErrors; a
    grid of n < 4 cells raises DomainError after them."""
    if system.q != 0.0:
        raise PreconditionError(f"the kernel solve assumes the zero reflection q = 0, "
                                f"got q = {system.q:.12g}")
    gauge = diag_removal(system.a, system.b, system.c, system.d, system.speeds, grid)
    if grid.n < 4:
        raise DomainError("kernel grid too coarse (need n >= 4)")
    return gauge, not _uncoupled(gauge)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_kernels(system: SystemSpec, grid: Grid) -> KernelSet:
    """All four kernels, one row march per pair (none for an _uncoupled
    gains pair), with g and the gains read from them; a single pass is the
    fixed point of the discrete scheme, unconditionally stable and
    first-order accurate: the sink of _kernel_blocks that keeps every block.
    Couplings b, c too large for the march, or for the speeds that the
    march's p-form is divided by, overflow a kernel, which raises
    DomainError naming it.  Memory: the four kernels plus one row block of
    plans (solve_kernels_bytes with kept 4)."""
    gauge, coupled = _gauge(system, grid)
    n = grid.n
    K = {w: np.zeros((n + 1, n + 1)) for w in _NAMES}
    # k22 doubles as P22, whose rows the trace paths of later blocks read:
    # it stays in p-form until the stream ends
    P22 = K["k22"] if coupled else None
    for rows, k, _ in _kernel_blocks(gauge, P22):
        for w, kw in zip(_NAMES, k):
            K[w][rows.start:rows.stop] = kw
    K["k22"] /= gauge.lam[1]        # checked by the stream
    return KernelSet(grid=grid, **K, g=_g(K["k21"][:, 0], gauge),
                     gains=_gains(K["k11"][-1], K["k12"][-1], gauge))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_gains(system: SystemSpec, grid: Grid) -> FeedbackLaw:
    """The gains of solve_kernels, bitwise, from the last row of the last
    block of a march of (k11, k12) that keeps no kernel array.  An _uncoupled
    row n is the one block of _zero_gains on row n alone: k11 +0.0 and k12
    the diagonal datum at x = 1 on every node (zero gains)."""
    gauge, coupled = _gauge(system, grid)
    n = grid.n
    blocks = (_march_pair("gains", gauge) if coupled
              else _zero_gains(gauge, [range(n, n + 1)]))
    _, p12, p11 = deque(blocks, maxlen=1)[0]
    lam1, lam2 = gauge.lam
    return _gains(_finite("kernel k11", p11[-1] / lam1),
                  _finite("kernel k12", p12[-1] / lam2), gauge)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_trace(system: SystemSpec, grid: Grid) -> np.ndarray:
    """The g of solve_kernels, bitwise, from the edges of the trace stream,
    which keeps only k22, the array its paths read.  An _uncoupled k22 and
    its path integrals are exactly zero: no march, and g is the diagonal
    term, as in solve_kernels."""
    gauge, coupled = _gauge(system, grid)
    if coupled:
        P22 = np.zeros((grid.n + 1, grid.n + 1))
        row = np.concatenate([edge for *_, edge in _trace_blocks(gauge, P22)])
    else:
        row = _trace_paths(gauge)[0] + 0.0
    return _g(_finite("kernel k21", row / gauge.lam[0, 0]), gauge)


def solve_kernels_bytes(system: SystemSpec, n: int, kept: int) -> int:
    """Upper bound on the bytes a kernel solve holds at once on an n-cell grid.

    kept is the number of (n+1)^2 kernel arrays the solve keeps: 4 for
    solve_kernels, 1 for solve_trace (k22) and 0 for solve_gains.  Besides
    them the peak holds the plans of one of the _row_blocks, whose rows
    (n+1) <= max(BLOCK_POINTS, n + 1) points hold at most the triangle's
    (n+1)(n+2)/2 planned points, plus the few blocks of kernel rows it holds
    (the march's, the one _trace_blocks holds back and the reader's), or
    the block's trace paths, and the _Band of each kernel marched, built
    once per march: 1.80 MB beside k22 at n = 800 under tracemalloc for a
    coupled solve_trace (6.93 MB against a bound of 8.61 MB).  The bound
    keeps 32 floats a point, 17 arrays of the system's speed table (six
    temporaries, and the inverse tables of the speeds with those they are
    built from, which the first inverse of a SpeedPair builds, in the
    solve where nothing else inverted before) and 1 KB a row for the bands
    of the four kernels, each a few points a row of 48 bytes and a row
    bound.
    """
    points = min(max(BLOCK_POINTS, n + 1), (n + 1) * (n + 2) // 2)
    table = system.speeds.table_nodes.size
    return 8 * (kept * (n + 1) ** 2 + 32 * points + 17 * table) + 1024 * (n + 1)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def write_kernels_csv(system: SystemSpec, grid: Grid, path) -> tuple:
    """Write the kernels of solve_kernels(system, grid) over the triangle,
    rows (x, xi, k11, k12, k21, k22), to path and return that KernelSet's g
    and gains, bitwise, holding no kernel array where the system is
    _uncoupled and only k22 where it is not.  Raises as _gauge does, then,
    before the file is opened, PreconditionError where its memory,
    write_kernels_csv_bytes, exceeds the machine's (check_memory).  On a
    DomainError the file is incomplete; callers remove it.

    The file is written in the blocks of _kernel_blocks, the stream that
    solve_kernels keeps: csv_triangle formats each block's triangle points,
    one template a row.  Where the system is _uncoupled only k21 is marched
    (_march_pair): one plan a row block.
    """
    gauge, coupled = _gauge(system, grid)
    n = grid.n      # k22 where coupled, the plans and one CSV block: the rows stream out
    check_memory(write_kernels_csv_bytes(system, n, coupled),
                 f"kernels at n={n}: the kernel marches and the CSV export")
    text = csv_text(grid.nodes).tolist()
    P22 = np.zeros((n + 1, n + 1)) if coupled else None
    edge = np.empty(n + 1)      # k21(x_i, 0), filled block by block
    with open(path, "w", newline="") as fh:
        fh.write(csv_header(["x", "xi", *_NAMES]))
        for rows, k, p22 in _kernel_blocks(gauge, P22):
            edge[rows.start:rows.stop] = k[2][:, 0]
            fh.write(csv_triangle(text, rows, (*k, p22 / gauge.lam[1])))
    return _g(edge, gauge), _gains(k[0][-1], k[1][-1], gauge)


def write_kernels_csv_bytes(system: SystemSpec, n: int, coupled: bool) -> int:
    """Upper bound on the bytes write_kernels_csv holds at once on an n-cell
    grid: the plans of the pairs it marches, k22 where coupled (the system is
    not _uncoupled), as in solve_kernels_bytes, and one CSV block, one of the
    _row_blocks, of at most max(BLOCK_POINTS, n + 1) points at 512 bytes a
    point, more than its trace paths take.  Its kernels and text took at
    most 1.59 MB a block at n = 800 under tracemalloc where all four kernel
    columns vary, about 195 bytes a point."""
    need = solve_kernels_bytes(system, n, 0) + 512 * max(BLOCK_POINTS, n + 1)
    if coupled:
        need += solve_kernels_bytes(system, n, 1)
    return need
