"""Time integration of the physical system and the canonical explicit solution.

The physical system is integrated by first-order upwind differences with
explicit Euler in time and explicit source terms; component 1 flows in from
x=1 (control), component 2 from x=0 (reflection q*y1(t,0), q=0 by default).
The canonical target system is evaluated exactly through the characteristic
formulas plus a quadrature for the lower component's source integral.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .coeffs import CoefficientSpec, Grid
from .characteristics import SpeedPair
from .errors import CFLError, DivergenceError, DomainError, UndefinedRateError
from .kernels import FeedbackLaw, _write_csv

_CANONICAL_ROWS = 64     # positions per block of the lower-component quadrature

__all__ = [
    "SystemSpec",
    "BoundaryReflection",
    "SimResult",
    "simulate",
    "canonical_map",
    "canonical_solution",
    "growth_rate",
    "l2_norm",
    "export_sim_csv",
]


@dataclass(frozen=True)
class SystemSpec:
    """Speeds, internal couplings, and the x=0 reflection coefficient q."""

    speeds: SpeedPair
    a: CoefficientSpec
    b: CoefficientSpec
    c: CoefficientSpec
    d: CoefficientSpec
    q: float = 0.0


@dataclass(frozen=True)
class BoundaryReflection:
    """Static output feedback at x=1: y1(t,1) = k * y2(t,1)."""

    k: float


Control = Union[Callable[[float], float], FeedbackLaw, BoundaryReflection, None]


@dataclass
class SimResult:
    grid: Grid
    times: np.ndarray = field(repr=False)
    snapshots: list = field(repr=False)  # (y1, y2) node arrays at snapshot_steps
    control_trace: np.ndarray = field(repr=False)
    l2_trace: np.ndarray = field(repr=False)
    linf_trace: np.ndarray = field(repr=False)
    scheme_meta: dict = field(default_factory=dict)
    snapshot_steps: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int),
                                       repr=False)


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Trapezoid weights of a uniform n-cell grid, one row per component of
    the mirrored state [y1; y2[::-1]] (the weights are symmetric, so both
    rows are the same)."""
    w = np.full((2, n + 1), h)
    w[:, [0, n]] = 0.5 * h
    return w


def l2_norm(y1: np.ndarray, y2: np.ndarray, h: float) -> float:
    """Trapezoid L2 norm of the pair, as one weighted dot of the squares of the
    mirrored state [y1; y2[::-1]]: the arithmetic of every step of simulate."""
    z = np.stack([np.asarray(y1, dtype=float), np.asarray(y2, dtype=float)[::-1]])
    z *= z
    return math.sqrt(np.vdot(_trapezoid_weights(z.shape[1] - 1, h), z))


def _max_speed(speeds: SpeedPair, nodes: np.ndarray) -> float:
    return float(max(np.max(-speeds.speed(1, nodes)), np.max(speeds.speed(2, nodes))))


def _simulate_bytes(max_speed: float, n: int, T: float, cfl: float, snapshots: int) -> float:
    """Upper bound on the bytes of simulate's four step traces up to T on an
    n-cell grid with largest speed max_speed and its at most snapshots kept
    states, each 2(n+1) floats and ~380 bytes of objects (a float: no T overflows it)."""
    steps = T * max_speed * n / cfl + 1.0            # at least the step count
    return 32.0 * (steps + 1.0) + min(snapshots, steps + 1.0) * 8.0 * (2 * (n + 1) + 64)


def simulate(system: SystemSpec, control: Control, y0, T: float, grid: Grid,
             cfl: float = 0.9, snapshots: int | None = None) -> SimResult:
    """Run the upwind scheme up to time T from node-sampled initial data y0.

    control is an open-loop signal u(t), a FeedbackLaw (closed loop, gains
    integrated by trapezoid each step), a BoundaryReflection, or None (u=0).
    snapshots=None keeps the state of every step; an integer k keeps at most
    k states, at steps spread evenly from the first to the last (the CLI's
    --snapshots; the last step from k = 2 on).  The first step whose state
    or L2 norm is not finite raises DivergenceError.
    """
    if not 0.0 < cfl <= 1.0:
        raise CFLError(f"cfl must lie in (0,1], got {cfl}")
    if T <= 0.0:
        raise DomainError(f"horizon must be positive, got {T}")
    n = grid.n
    h = grid.h
    nodes = grid.nodes
    l1 = np.asarray(system.speeds.speed(1, nodes), dtype=float)
    l2 = np.asarray(system.speeds.speed(2, nodes), dtype=float)
    max_speed = float(max(np.max(-l1), np.max(l2)))
    dt = cfl * h / max_speed
    steps = max(1, math.ceil(T / dt - 1e-12))
    dt = T / steps
    if dt * max_speed / h > 1.0 + 1e-9:
        raise CFLError("time step violates the CFL bound")

    y1 = np.asarray(y0[0], dtype=float)
    y2 = np.asarray(y0[1], dtype=float)
    if y1.shape != (n + 1,) or y2.shape != (n + 1,):
        raise DomainError("initial data does not match the grid")
    with np.errstate(over="ignore"):    # an overflowing norm raises at step 1
        norm0 = l2_norm(y1, y2, h)

    # The mirrored state z = [y1; y2[::-1]].  Both components read their
    # upwind neighbour at j + 1 (y1 flows in from x=1, y2 from x=0), so one
    # stencil over the columns j = 0..n-1 updates both:
    #   z_new[:, j] = A z[:, j] + B z[:, j+1] + C (the other component at the
    #   same node, z[::-1, ::-1][:, j]),
    # and column n holds the inflow nodes y1(t,1) and y2(t,0).
    nu = dt / h
    c1 = nu * l1[:-1]
    c2 = nu * l2[1:]
    a, b = (np.asarray(f(nodes), dtype=float)[:-1] for f in (system.a, system.b))
    c, d = (np.asarray(f(nodes), dtype=float)[1:] for f in (system.c, system.d))
    A = np.stack([1.0 + c1 + dt * a, (1.0 - c2 + dt * d)[::-1]])
    B = np.stack([-c1, c2[::-1]])
    C = np.stack([dt * b, (dt * c)[::-1]])
    del l1, l2, c1, c2, a, b, c, d
    q = system.q
    WT = _trapezoid_weights(n, h)
    gains = None
    if isinstance(control, FeedbackLaw):
        gains = _trapezoid_weights(control.nodes.shape[0] - 1,
                                   control.nodes[1] - control.nodes[0])
        gains[0] *= control.f1
        gains[1] *= control.f2[::-1]

    def boundary_u(t_new, z_new):
        if control is None:
            return 0.0
        if gains is not None:
            return float(np.vdot(gains, z_new))
        if isinstance(control, BoundaryReflection):
            return control.k * z_new[1, 0]
        return float(control(t_new))

    times = np.linspace(0.0, T, steps + 1)
    if snapshots is None:
        keep = np.arange(steps + 1)
    else:
        # the first of each run of equal picks (np.unique imports numpy.ma)
        picks = np.linspace(0, steps, min(snapshots, steps + 1)).astype(int)
        keep = picks[np.diff(picks, prepend=-1) != 0]
    kept = set(keep.tolist())
    control_trace = np.empty(steps + 1)
    l2_trace = np.empty(steps + 1)
    linf_trace = np.empty(steps + 1)

    # a double buffer: step m writes states[m % 2] from states[(m-1) % 2]
    # with out=, through views made once; sq is the scratch of the stencil
    # and the norms, so no step allocates an array
    states = np.empty((2, 2, n + 1))
    states[0, 0] = y1
    states[0, 1] = y2[::-1]
    del y1, y2
    sq = np.empty((2, n + 1))
    tmp = sq[:, :-1]
    views = [(zk, zk[:, :-1], zk[:, 1:], zk[::-1, ::-1][:, :-1]) for zk in states]
    z = states[0]
    snaps = [(z[0].copy(), z[1, ::-1].copy())] if 0 in kept else []
    with np.errstate(invalid="ignore", over="ignore"):
        control_trace[0] = boundary_u(0.0, z)
        l2_trace[0] = norm0
        linf_trace[0] = np.abs(z, out=sq).max()
        for m in range(1, steps + 1):
            z, z_here, z_up, z_cross = views[(m - 1) & 1]
            zn, zn_here = views[m & 1][:2]
            np.multiply(A, z_here, out=zn_here)
            np.multiply(B, z_up, out=tmp)
            np.add(zn_here, tmp, out=zn_here)
            np.multiply(C, z_cross, out=tmp)
            np.add(zn_here, tmp, out=zn_here)
            zn[1, n] = q * zn[0, 0]
            zn[0, n] = z[0, n]  # provisional, lets the feedback quadrature close
            u = boundary_u(times[m], zn)
            zn[0, n] = u
            # u sits in zn, and a non-finite entry makes the norm non-finite
            # too, so one check covers the state, u and an overflowing norm
            np.multiply(zn, zn, out=sq)
            l2 = math.sqrt(np.vdot(WT, sq))
            if not math.isfinite(l2):
                raise DivergenceError(f"non-finite state or L2 norm at step {m}", step=m)
            control_trace[m] = u
            if m in kept:
                snaps.append((zn[0].copy(), zn[1, ::-1].copy()))
            l2_trace[m] = l2
            linf_trace[m] = np.abs(zn, out=sq).max()

    meta = {"cfl": cfl, "dt": dt, "max_speed": max_speed,
            "scheme": "upwind-explicit-euler"}
    return SimResult(grid=grid, times=times, snapshots=snaps,
                     control_trace=control_trace, l2_trace=l2_trace,
                     linf_trace=linf_trace, scheme_meta=meta,
                     snapshot_steps=keep)


def canonical_map(speeds: SpeedPair, g: np.ndarray, q: float, t: float, x,
                  trace) -> np.ndarray:
    """Canonical state at time t > 0 and positions x, linear in the x=0 trace.

    trace(s) maps a 1-D array of times to one row per time and one column per
    independent trace tau of the upper component at x=0.  Returns the rows
    [upper; lower], 2*len(x) by the columns of trace.  The upper component is
    tau(t + phi1(x)).  The lower one is the trapezoid quadrature of
    g(chi2(s; t, x)) * tau(s) over [lo, t], lo = max(0, t - phi2(x)), on one
    uniform s-grid over [0, t] with step at most h/max|speeds| and a partial
    first cell, plus the q-reflected inflow q * tau(lo) where lo > 0.  The
    transport of the initial lower state, where lo = 0, is left to the caller.
    The quadrature multiplies only the trace columns up to the last one that
    is nonzero on the s-grid (for the sharpness operator, the free response
    and the hats on [0, t - T1]); with a column-major trace they are a view,
    not a copy.  g is sampled on a uniform grid over [0,1].
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0] - 1
    nodes = np.linspace(0.0, 1.0, n + 1)
    h = 1.0 / n
    K = max(2, math.ceil(t * _max_speed(speeds, nodes) / h))
    delta = t / K
    ss = np.linspace(0.0, t, K + 1)

    V = trace(ss)
    nz = np.flatnonzero(V.any(axis=0))
    used = int(nz[-1]) + 1 if nz.size else 0
    xs = np.asarray(x, dtype=float)
    m = xs.shape[0]
    out = np.empty((2 * m, V.shape[1]))
    upper, lower = out[:m], out[m:]
    s1 = t + speeds.phi_eval(1, xs)
    phi2x = speeds.phi_eval(2, xs)
    lo = np.maximum(0.0, t - phi2x)
    # the partial first cell is [lo, ss[r0]]; r0 = K when lo is in the last cell
    r0 = np.minimum(np.ceil(lo / delta - 1e-12).astype(np.int64), K)
    part = np.where(r0 < K, r0 * delta, t) - lo
    # the partial cell's endpoint s=lo sits on x=0, where chi2 = 0
    wlo = 0.5 * part * g[0] + q * (lo > 0.0)
    cols = np.arange(K + 1)[None, :]
    # row blocks, so that no len(x) by (K+1) array and no trace of all x is
    # ever held
    for b0 in range(0, m, _CANONICAL_ROWS):
        blk = slice(b0, b0 + _CANONICAL_ROWS)
        upper[blk] = trace(s1[blk])
        chi = speeds.phi_inv_ext(2, phi2x[blk, None] + ss[None, :] - t)
        WG = np.interp(np.clip(chi, 0.0, 1.0), nodes, g)
        rb = r0[blk]
        wq = np.where(cols < rb[:, None], 0.0, delta)
        wq[:, K] = 0.5 * delta
        wq[np.arange(rb.shape[0]), rb] = (np.where(rb < K, 0.5 * delta, 0.0)
                                          + 0.5 * part[blk])
        WG *= wq
        lower[blk] = wlo[blk, None] * trace(lo[blk])
        lower[blk, :used] += WG @ V[:, :used]
    return out


def canonical_solution(speeds: SpeedPair, g: np.ndarray, q: float, y0hat,
                       uhat, t: float, x) -> tuple:
    """Evaluate the canonical system at time t and position(s) x.

    g and the initial pair y0hat are node samples on a uniform grid over
    [0,1]; uhat is a control signal (callable on arrays, or None for zero).
    The x=0 trace of the upper component is the transported y10 before time
    T1 and uhat(s - T1) after; canonical_map applies the characteristic
    formulas to it, and the transported y20 is added where no
    characteristic of the lower component has reached x=0 yet.
    """
    if t < 0.0:
        raise DomainError("canonical_solution needs t >= 0")
    g = np.asarray(g, dtype=float)
    nodes = np.linspace(0.0, 1.0, g.shape[0])
    y10 = np.asarray(y0hat[0], dtype=float)
    y20 = np.asarray(y0hat[1], dtype=float)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs < 0.0) or np.any(xs > 1.0):
        raise DomainError("canonical_solution needs x in [0,1]")
    if t == 0.0:
        out1, out2 = np.interp(xs, nodes, y10), np.interp(xs, nodes, y20)
    else:
        def trace(s):
            tau = np.zeros((s.shape[0], 1))
            early = s < speeds.T1
            tau[early, 0] = np.interp(speeds.phi_inv_ext(1, s[early]), nodes, y10)
            if uhat is not None and not early.all():
                tau[~early, 0] = uhat(s[~early] - speeds.T1)
            return tau

        out1, out2 = np.split(canonical_map(speeds, g, q, t, xs, trace)[:, 0], 2)
        p2x = speeds.phi_eval(2, xs)
        free = p2x >= t
        out2[free] += np.interp(speeds.phi_inv_ext(2, p2x[free] - t), nodes, y20)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out1[0]), float(out2[0])
    return out1, out2


def growth_rate(result: SimResult, window) -> float:
    """Least-squares slope of log L2-norm over the given (t0, t1) window."""
    t0, t1 = window
    mask = (result.times >= t0) & (result.times <= t1)
    if int(mask.sum()) < 5:
        raise UndefinedRateError("growth window contains fewer than 5 snapshots")
    norms = result.l2_trace[mask]
    if np.any(norms <= 0.0):
        raise UndefinedRateError("zero norm inside the growth window")
    ts = result.times[mask]
    slope = np.polyfit(ts, np.log(norms), 1)[0]
    return float(slope)


def export_sim_csv(result: SimResult, outdir) -> list:
    """Write a time-series CSV and one CSV per kept snapshot.

    Returns the list of written file paths; snapshots.csv maps each snapshot
    file to its time.  Which snapshots exist is decided by simulate.
    """
    os.makedirs(outdir, exist_ok=True)
    ts_path = os.path.join(outdir, "timeseries.csv")
    _write_csv(ts_path, ["t", "u", "l2_norm", "linf_norm"],
               [result.times, result.control_trace, result.l2_trace, result.linf_trace])
    written = [ts_path]

    picks = result.snapshot_steps
    names = [f"snapshot_{k:06d}.csv" for k in picks]
    for snap, name in zip(result.snapshots, names):
        path = os.path.join(outdir, name)
        _write_csv(path, ["x", "y1", "y2"], [result.grid.nodes, *snap])
        written.append(path)
    index_path = os.path.join(outdir, "snapshots.csv")
    _write_csv(index_path, ["file", "t"], [names, result.times[picks]])
    written.append(index_path)
    return written
