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
also the order of kernels.csv, with one block size, _BLOCK_POINTS: the march
builds its plans and yields its rows one block at a time, the trace stream
(_trace_blocks) integrates the trace paths of each block once the march has
passed it, and write_kernels_csv writes each block's lines.  Each caller
keeps what it reads: solve_kernels all four kernels (and g and the gains),
solve_gains the last row of (k11, k12) for the feedback, solve_trace k22
for the trace paths and the edge of each block, and write_kernels_csv only
k22, writing each block of the trace stream, with the gains block of the
same rows, to kernels.csv.  Memory: 4, 0, 1 and 1 arrays of (n+1)^2 floats
(none for write_kernels_csv where b = 0), plus one row block of plans (about
2 MB), and a few row blocks of kernel rows and one of trace paths (and of
CSV).

Uncoupled systems (b = 0).  The pair (k11, k12) is driven only by the
coupling b, through the diagonal data and source of k12, and k22 only by b.
Where the gauged bt vanishes at every grid node the system is already
canonical: the (k11, k12) march is exactly zero, and so are k22 and every
trace path integral, which leaves g its diagonal term.  _gauge decides
this once per solve, and the entry points then take these values without
marching or path quadrature, bitwise the march's, signed zeros included:
solve_gains and solve_trace hold no kernel array and no plans, only O(n)
floats and temporaries of the speed table, and solve_kernels and
write_kernels_csv march the trace pair only, for the k21 and k22 they
export.
The march still runs where c is large enough to overflow it, so that it
raises (_uncoupled).
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .coeffs import Grid
from .characteristics import SpeedPair
from .errors import DomainError, PreconditionError
from .transforms import DiagGauge, diag_removal

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import SystemSpec

_BLOCK_POINTS = 8192     # points of a row block (rows x n+1), rows of a _write_csv block

__all__ = [
    "KernelSet",
    "FeedbackLaw",
    "solve_kernels",
    "solve_gains",
    "solve_trace",
    "solve_kernels_bytes",
    "write_kernels_csv",
    "write_kernels_csv_bytes",
    "export_profile_csv",
]


@dataclass(frozen=True)
class FeedbackLaw:
    """Feedback gains: u(t) = int_0^1 (f1 y1(t,.) + f2 y2(t,.)), a trapezoid
    quadrature on nodes that simulate folds into one dot product per step."""

    nodes: np.ndarray = field(repr=False)
    f1: np.ndarray = field(repr=False)
    f2: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class KernelSet:
    """Solved kernels sampled on the triangle (entries with xi > x are zero),
    and g(x) = -k21(x,0)*lambda1(0) and the feedback gains on its nodes."""

    grid: Grid
    k11: np.ndarray = field(repr=False)
    k12: np.ndarray = field(repr=False)
    k21: np.ndarray = field(repr=False)
    k22: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    gains: FeedbackLaw = field(repr=False)


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


def _row_blocks(n: int) -> list:
    """Rows 0..n in blocks of max(1, _BLOCK_POINTS // (n+1)) rows, the one unit
    of the kernel stream: of the march plans, the trace paths and kernels.csv."""
    rows = max(1, _BLOCK_POINTS // (n + 1))
    return [range(r0, min(r0 + rows, n + 1)) for r0 in range(0, n + 1, rows)]


def _blocks(speeds: SpeedPair, grid: Grid):
    """The _Block of each of the _row_blocks: its rows from 1 on."""
    phi = np.stack([speeds.phi_eval(1, grid.nodes), speeds.phi_eval(2, grid.nodes)])
    lam = np.stack(_node_speeds(speeds, grid))
    dphi = np.diff(phi, prepend=phi[:, :1])
    for rows in _row_blocks(grid.n):
        marched = range(max(rows.start, 1), rows.stop)
        ii, jj = _triangle_points(marched)
        yield _Block(marched, ii, jj, ii - 1, phi, lam, dphi)


def _triangle_points(rows: range):
    """The points (i, j), j <= i, of the triangle rows i in rows, row by row."""
    r0 = rows.start
    ii = np.repeat(np.arange(r0, rows.stop), np.arange(r0 + 1, rows.stop + 1))
    return ii, np.arange(ii.size) - (ii * (ii + 1) - r0 * (r0 + 1)) // 2


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


def _march_pair(pair: str, speeds: SpeedPair, gauge: DiagGauge, grid: Grid):
    """Row march of one pair in p-form: yields (rows, D, E) for each of the
    _row_blocks in turn, D and E the block's rows of the diagonal- and the
    edge-entered kernel, new arrays of len(rows) x (n+1) floats, zero above
    the diagonal.

    Plans are built one block at a time.  In each row both interior steps
    come first; then the diagonal-entered kernel's boundary points read the
    partner's diagonal, and the edge-entered kernel's the partner's edge
    xi=0, complete with its entry (i, 0): each row in dependency order, so
    the one pass is the exact fixed point of the discrete scheme.  A block
    with a marched entry that is not finite raises DomainError naming the
    kernel of its first such row, the diagonal-entered one where both rows
    have one, as a check of each row in turn would; _gauge checks n >= 4.
    The floating-point error state is set around each block's march, never
    across a yield, so that it stays the caller's while the march is
    suspended.
    """
    n = grid.n
    names = _PAIRS[pair]
    ignore = {"over": "ignore", "invalid": "ignore"}     # the block check reports it
    with np.errstate(**ignore):
        data = _diag_data(speeds, gauge, int(names[0][2]), grid.nodes)  # the diagonal of wd
    diag = np.zeros(n + 1)      # the diagonal of we, read by wd's boundary points
    edge = np.zeros(n + 1)      # the edge xi=0 of wd, read by we's boundary points
    edge[0] = data[0]
    last = np.zeros((2, n + 1))     # the row of (wd, we) before the block
    for rows, blk in zip(_row_blocks(n), _blocks(speeds, grid)):
        P = np.zeros((2, len(rows) + 1, n + 1))     # P[:, k + 1] is row rows.start + k
        P[:, 0] = last
        r = np.arange(rows.start, rows.stop)
        P[0, r - rows.start + 1, r] = data[r]
        with np.errstate(**ignore):
            pd, pe = (_build_plan(w, speeds, gauge, grid, blk) for w in names)
            for i in blk.rows:
                (rd, re), (prev_d, prev_e) = P[:, i - rows.start + 1], P[:, i - rows.start]
                _step_interior(pd, rd, prev_d, prev_e, i)
                _step_interior(pe, re, prev_e, prev_d, i)
                diag[i] = re[i]
                _step_boundary(pd, rd, diag, i)
                edge[i] = rd[0]
                _step_boundary(pe, re, edge, i)
        del pd, pe                  # before the block is read
        marched = P[:, blk.rows.start - rows.start + 1:]
        bad = np.flatnonzero(~np.isfinite(marched).all(axis=2).T)   # row by row
        if bad.size:
            raise _overflow(f"kernel {names[bad[0] % 2]}")
        last = P[:, -1]
        yield rows, P[0, 1:], P[1, 1:]


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


def _zero_gains(speeds: SpeedPair, gauge: DiagGauge, grid: Grid, blocks):
    """The blocks (rows, k12, k11) of an _uncoupled gains pair on the row
    ranges blocks, built without its march, which is exactly zero: k11 is
    +0.0 and k12 its zero diagonal data (-0.0, as lambda1 < 0 < lambda2) on
    and below the diagonal, +0.0 above it, as the march leaves them: its
    weights lie in [0, 1] (_interp_setup), so it never turns the sign of a
    zero."""
    n = grid.n
    data = _diag_data(speeds, gauge, 2, grid.nodes)
    for rows in blocks:
        D = np.tril(np.tile(data[rows.start:rows.stop, None], n + 1), rows.start)
        yield rows, D, np.zeros_like(D)


def _gains_pair(speeds: SpeedPair, gauge: DiagGauge, grid: Grid, coupled: bool):
    """The blocks of _march_pair("gains"), marched only where coupled."""
    if coupled:
        return _march_pair("gains", speeds, gauge, grid)
    return _zero_gains(speeds, gauge, grid, _row_blocks(grid.n))


def _trace_paths(speeds: SpeedPair, gauge: DiagGauge, grid: Grid):
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
    n, h, nodes = grid.n, grid.h, grid.nodes
    p2n = np.asarray(speeds.phi_eval(2, nodes))
    sig = np.asarray(speeds.psi_inv(p2n))
    with np.errstate(over="ignore", invalid="ignore"):
        p0 = _diag_data(speeds, gauge, 1, sig)
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
        with np.errstate(over="ignore"):   # a speed product past 1e308: S is +-0
            S = -l1_xi * ct_xi * p22v / (l2_x * l2_xi)
        # unit spacing, times the step
        return p0[blk] + np.trapezoid(S, axis=1) * ((nodes[blk] - sig[blk]) / n)

    return p0, paths


def _trace_blocks(speeds: SpeedPair, gauge: DiagGauge, grid: Grid, P22):
    """The trace march block by block: yields (rows, D, E, edge) for each of
    the _row_blocks in turn, D and E its rows of p21 and p22 as _march_pair
    yields them and edge p21(x_i, 0) on rows.  Copies each block of p22 into
    P22 and holds it back until the next block is marched: its trace paths
    read P22 up to the next block's first row (row n for the last block).
    P22 None is the zero k22 of an _uncoupled system, whose path integrals
    are zero and whose edge is the diagonal term (+ 0.0, the sum's sign
    where c vanishes).  Raises as _march_pair("trace") does."""
    p0, paths = _trace_paths(speeds, gauge, grid)
    held = None
    for block in chain(_march_pair("trace", speeds, gauge, grid), [None]):
        if block and P22 is not None:
            P22[block[0].start:block[0].stop] = block[2]
        if held:
            rows = held[0]
            yield *held, p0[rows.start:rows.stop] + 0.0 if P22 is None else paths(P22, rows)
        held = block


def _overflow(name: str) -> DomainError:
    return DomainError(f"{name} overflows: the couplings b and c are too large "
                       "for the kernel solve")


def _check_finite(name: str, values: np.ndarray) -> None:
    """Raise DomainError naming the kernel or gain whose values overflowed."""
    if not np.isfinite(values).all():
        raise _overflow(name)


def _unweight(name: str, p: np.ndarray, lam) -> np.ndarray:
    """The kernel k = p / lambda_fa(xi) of its p-form, divided in place; a
    speed near zero can overflow it where p is finite."""
    with np.errstate(over="ignore"):
        p /= lam
    _check_finite(f"kernel {name}", p)
    return p


def _gains(k11_last: np.ndarray, k12_last: np.ndarray, gauge: DiagGauge) -> FeedbackLaw:
    """Feedback gains from row n (x = 1) of k11 and k12."""
    with np.errstate(over="ignore"):
        f1 = k11_last * gauge.e1 / gauge.e1[-1]
        f2 = k12_last * gauge.e2 / gauge.e1[-1]
    _check_finite("gain f1", f1)
    _check_finite("gain f2", f2)
    return FeedbackLaw(nodes=gauge.grid.nodes, f1=f1, f2=f2)


def _g(k21_edge: np.ndarray, speeds: SpeedPair) -> np.ndarray:
    """g from the trace k21(., 0)."""
    return -k21_edge * float(speeds.speed(1, 0.0))


def _gauge(system: "SystemSpec", grid: Grid) -> tuple:
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
    return gauge, not _uncoupled(system.speeds, gauge)


def solve_kernels(system: "SystemSpec", grid: Grid) -> KernelSet:
    """All four kernels, one row march per pair (none for an _uncoupled
    gains pair), with g and the gains read from them; a single pass is the
    fixed point of the discrete scheme, unconditionally stable and
    first-order accurate.  Couplings b, c too large for the march, or for
    the speeds that the march's p-form is divided by, overflow a kernel,
    which raises DomainError naming it.  Memory: the four kernels plus one
    row block of plans (solve_kernels_bytes with kept 4)."""
    (gauge, coupled), speeds = _gauge(system, grid), system.speeds
    n = grid.n
    K = {w: np.zeros((n + 1, n + 1)) for w in ("k11", "k12", "k21", "k22")}
    for rows, p12, p11 in _gains_pair(speeds, gauge, grid, coupled):
        K["k12"][rows.start:rows.stop], K["k11"][rows.start:rows.stop] = p12, p11
    # The xi=0 trace of k21 defines g; the stream integrates it directly along
    # each trace characteristic, so its vanishing set is not blurred by the
    # re-sampling.
    P22 = K["k22"] if coupled else None     # k22 doubles as P22
    for rows, p21, p22, edge in _trace_blocks(speeds, gauge, grid, P22):
        K["k21"][rows.start:rows.stop], K["k22"][rows.start:rows.stop] = p21, p22
        K["k21"][rows.start:rows.stop, 0] = edge
    lam1, lam2 = _node_speeds(speeds, grid)
    for w, lam in zip(("k11", "k12", "k21", "k22"), (lam1, lam2, lam1, lam2)):
        _unweight(w, K[w], lam)
    return KernelSet(grid=grid, **K, g=_g(K["k21"][:, 0], speeds),
                     gains=_gains(K["k11"][-1], K["k12"][-1], gauge))


def solve_gains(system: "SystemSpec", grid: Grid) -> FeedbackLaw:
    """The gains of solve_kernels, bitwise, from the last row of the last
    block of a march of (k11, k12) that keeps no kernel array.  An _uncoupled
    row n is the one block of _zero_gains on row n alone: k11 +0.0 and k12
    the diagonal datum at x = 1 on every node (zero gains)."""
    (gauge, coupled), speeds = _gauge(system, grid), system.speeds
    n = grid.n
    blocks = (_march_pair("gains", speeds, gauge, grid) if coupled
              else _zero_gains(speeds, gauge, grid, [range(n, n + 1)]))
    _, p12, p11 = deque(blocks, maxlen=1)[0]
    p11, p12 = p11[-1], p12[-1]
    lam1, lam2 = _node_speeds(speeds, grid)
    return _gains(_unweight("k11", p11, lam1), _unweight("k12", p12, lam2), gauge)


def solve_trace(system: "SystemSpec", grid: Grid) -> np.ndarray:
    """The g of solve_kernels, bitwise, from the edges of the trace stream,
    which keeps only k22, the array its paths read.  An _uncoupled k22 and
    its path integrals are exactly zero: no march, and g is the diagonal
    term, as in solve_kernels."""
    (gauge, coupled), speeds = _gauge(system, grid), system.speeds
    if coupled:
        P22 = np.zeros((grid.n + 1, grid.n + 1))
        row = np.concatenate([edge for *_, edge in _trace_blocks(speeds, gauge, grid, P22)])
    else:
        row = _trace_paths(speeds, gauge, grid)[0] + 0.0
    lam1, _ = _node_speeds(speeds, grid)
    return _g(_unweight("k21", row, lam1[0]), speeds)


def solve_kernels_bytes(system: "SystemSpec", n: int, kept: int) -> int:
    """Upper bound on the bytes a kernel solve holds at once on an n-cell grid.

    kept is the number of (n+1)^2 kernel arrays the solve keeps: 4 for
    solve_kernels, 1 for solve_trace (k22) and 0 for solve_gains.  Besides
    them the peak holds the plans of one of the _row_blocks, whose rows
    (n+1) <= max(_BLOCK_POINTS, n + 1) points hold at most the triangle's
    (n+1)(n+2)/2 planned points, plus the few blocks of kernel rows it holds
    (the march's, the one _trace_blocks holds back and the reader's), or
    the block's trace paths: 1.73 MB beside k22 at n = 800 under
    tracemalloc for a coupled solve_trace (6.86 MB against a bound of
    7.47 MB).  The bound keeps 32 floats a point, six temporaries of the
    system's speed table and 4 KB for the band tuples of each marched row
    of the block.
    """
    rows = min(n, max(1, _BLOCK_POINTS // (n + 1)))
    points = min(max(_BLOCK_POINTS, n + 1), (n + 1) * (n + 2) // 2)
    table = system.speeds.table_nodes.size
    return 8 * (kept * (n + 1) ** 2 + 32 * points + 6 * table) + 4096 * rows


def write_kernels_csv(system: "SystemSpec", grid: Grid, path) -> tuple:
    """Write the kernels of solve_kernels(system, grid) over the triangle,
    rows (x, xi, k11, k12, k21, k22), to path and return that KernelSet's g
    and gains, bitwise, holding no kernel array where the system is
    _uncoupled and only k22 where it is not.  On a DomainError the file is
    incomplete; callers remove it.  Memory: write_kernels_csv_bytes.

    The file is written in the blocks of _trace_blocks, each at its
    _triangle_points, cut from its rows and the gains block of the same
    rows by one mask, divided by the speeds and checked as solve_kernels
    does.  Once a check fails no block is written, but the marches run on,
    so that the DomainError raised is the one solve_kernels raises: that of
    the gains march, else of the trace march, else of k11, k12, k21 and k22
    in turn.
    """
    (gauge, coupled), speeds = _gauge(system, grid), system.speeds
    n = grid.n
    names = ("k11", "k12", "k21", "k22")
    text = _text(grid.nodes)
    lam1, lam2 = _node_speeds(speeds, grid)
    gains_rows = _gains_pair(speeds, gauge, grid, coupled)
    P22 = np.zeros((n + 1, n + 1)) if coupled else None
    blocks = _trace_blocks(speeds, gauge, grid, P22)
    edge = np.empty(n + 1)      # p21(x_i, 0), filled block by block
    bad = set()                 # the kernels with an entry that is not finite
    with open(path, "w", newline="") as fh:
        fh.write("x,xi,k11,k12,k21,k22\r\n")
        try:
            for rows, p21, p22, block_edge in blocks:
                edge[rows.start:rows.stop] = block_edge
                _, p12, p11 = next(gains_rows)
                ii, jj = _triangle_points(rows)
                tri = np.arange(n + 1) <= np.arange(rows.start, rows.stop)[:, None]
                p = [a[tri] for a in (p11, p12, p21, p22)]
                p[2][jj == 0] = block_edge
                with np.errstate(over="ignore"):
                    k = (p[0] / lam1[jj], p[1] / lam2[jj], p[2] / lam1[jj], p[3] / lam2[jj])
                del p
                bad.update(w for w, kw in zip(names, k) if not np.isfinite(kw).all())
                if not bad:
                    fh.write(_csv_block([(text, ii), (text, jj), *k]))
        except DomainError:
            deque(gains_rows, maxlen=0)     # a gains march error comes first
            raise
    for w in names:
        if w in bad:
            raise _overflow(f"kernel {w}")
    with np.errstate(over="ignore"):
        k21_edge, k11_last, k12_last = edge / lam1[0], p11[-1] / lam1, p12[-1] / lam2
    return _g(k21_edge, speeds), _gains(k11_last, k12_last, gauge)


def write_kernels_csv_bytes(system: "SystemSpec", grid: Grid) -> int:
    """Upper bound on the bytes write_kernels_csv holds at once: the plans of
    the pairs it marches, k22 where the system is not _uncoupled, as in
    solve_kernels_bytes, and one CSV block, one of the _row_blocks, of at
    most max(_BLOCK_POINTS, n + 1) points at 512 bytes a point (its p-form
    rows, kernels and text: about 420 under tracemalloc where all four
    kernel columns vary, more than its trace paths take).  Raises as the solve
    does where q != 0, the gauge overflows or n < 4 (_gauge)."""
    n = grid.n
    need = solve_kernels_bytes(system, n, 0) + 512 * max(_BLOCK_POINTS, n + 1)
    if _gauge(system, grid)[1]:
        need += solve_kernels_bytes(system, n, 1)
    return need


def _text(values) -> np.ndarray:
    """Each value formatted once as "%.12g", an object array of strings."""
    return np.array(["%.12g" % v for v in np.asarray(values).tolist()], dtype=object)


def _csv_block(columns) -> str:
    """The CSV rows of equal-length columns, formatted by one row template.

    Numbers are written as "%.12g", string columns verbatim (nothing is
    quoted), and every row ends in CRLF.  A column may be a pair (text,
    index) standing for text[index], with text from _text.  A numeric
    column whose entries all have the same bits (so -0.0 and 0.0 differ) is
    written into the template as literal text, formatted once.
    """
    fields, parts = [], []
    for c in columns:
        c = c[0][c[1]] if isinstance(c, tuple) else np.asarray(c)
        rows = len(c)
        if c.dtype.kind in "USO":
            fields.append("%s")
        else:
            c = c.astype(np.float64, copy=False)
            bits = c.view(np.uint64)
            if rows and (bits == bits[0]).all():
                fields.append(("%.12g" % c[0]).replace("%", "%%"))
                continue
            fields.append("%.12g")
        parts.append(c)
    cells = [None] * (rows * len(parts))
    for j, c in enumerate(parts):
        cells[j::len(parts)] = c.tolist()
    return ((",".join(fields) + "\r\n") * rows) % tuple(cells)


def _write_csv(path, header, columns) -> None:
    """Write equal-length columns under a header row, the one CSV format
    (_csv_block), in blocks of _BLOCK_POINTS rows, so that a large file's
    text is never held at once."""
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, rows, _BLOCK_POINTS):
            fh.write(_csv_block([c[lo:lo + _BLOCK_POINTS] for c in columns]))


def export_profile_csv(path, nodes: np.ndarray, columns: dict) -> None:
    """Write one or more sampled profiles as (x, value...) CSV columns."""
    _write_csv(path, ["x", *columns], [nodes, *columns.values()])
