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

import numpy as np

from .coeffs import Grid, trapezoid_weights
from .characteristics import SpeedPair
from .errors import (CFLError, DivergenceError, DomainError, GridMismatchError,
                     UndefinedRateError)
from .system import BoundaryReflection, Control, FeedbackLaw, SystemSpec, write_csv

_CANONICAL_ROWS = 64     # positions per block of the lower-component quadrature

__all__ = ["SimResult", "simulate", "simulate_bytes", "largest_speed", "canonical_map",
           "canonical_map_bytes", "canonical_solution", "growth_rate", "l2_norm",
           "export_sim_csv"]


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


def l2_norm(y1: np.ndarray, y2: np.ndarray, h: float) -> float:
    """Trapezoid L2 norm of the pair, as one weighted dot of the squares of the
    mirrored state z = [y1, y2 reversed]: the arithmetic of every step of simulate."""
    z = np.concatenate([np.asarray(y1, dtype=float), np.asarray(y2, dtype=float)[::-1]])
    z *= z
    return math.sqrt(np.vdot(np.tile(trapezoid_weights(np.size(y1) - 1, h), 2), z))


def largest_speed(speeds: SpeedPair, nodes: np.ndarray) -> float:
    """max |lambda_f| over f = 1, 2 and the nodes."""
    return float(max(np.max(-speeds.speed(1, nodes)), np.max(speeds.speed(2, nodes))))


def simulate_bytes(max_speed: float, n: int, T: float, cfl: float, snapshots: int) -> float:
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

    A horizon that is not finite and positive raises DomainError, and a CFL
    step cfl h / max|lambda| that underflows to 0, or that T divided by is
    not finite, raises CFLError.  A finite step count too large to allocate
    (cfl = 1e-12 at n = 64 and T = 0.5: 233 TiB of traces) raises
    MemoryError; callers check it first (check_run_memory refuses it in
    every command).
    """
    if not 0.0 < cfl <= 1.0:
        raise CFLError(f"cfl must lie in (0,1], got {cfl}")
    if not 0.0 < T < math.inf:
        raise DomainError(f"horizon must be finite and positive, got {T}")
    n = grid.n
    h = grid.h
    nodes = grid.nodes
    l1 = np.asarray(system.speeds.speed(1, nodes), dtype=float)
    l2 = np.asarray(system.speeds.speed(2, nodes), dtype=float)
    max_speed = float(max(np.max(-l1), np.max(l2)))
    dt = cfl * h / max_speed
    if not (dt > 0.0 and math.isfinite(T / dt)):
        raise CFLError(f"cfl = {cfl:g} gives the step {dt:g}, too small to reach T = {T:g}: "
                       "it underflows to 0, or T / step overflows")
    # at most dt (1 + 1e-12), the CFL bound: steps rounds T / dt up, less 1e-12
    steps = max(1, math.ceil(T / dt - 1e-12))
    dt = T / steps

    y1 = np.asarray(y0[0], dtype=float)
    y2 = np.asarray(y0[1], dtype=float)
    if y1.shape != (n + 1,) or y2.shape != (n + 1,):
        raise DomainError("initial data does not match the grid")
    with np.errstate(over="ignore"):    # an overflowing norm raises at step 1
        norm0 = l2_norm(y1, y2, h)

    # The mirrored state z = [y1, y2 reversed], 2(n+1) floats.  Each component
    # reads its upwind neighbour at the next entry (y1 flows in from x=1, y2
    # from x=0) and the other component at the same node in z[::-1], so one
    # stencil updates both:
    #   z_new[:-1] = A z[:-1] + B z[1:] + C z[::-1][:-1].
    # Entry n, the inflow y1(t,1), has zero coefficients and is set afterwards;
    # entry 2n+1 is the inflow y2(t,0) = q z_new[0].
    nu = dt / h
    c1, c2 = nu * l1[:-1], nu * l2[1:]
    a, b = (np.asarray(f(nodes), dtype=float)[:-1] for f in (system.a, system.b))
    c, d = (np.asarray(f(nodes), dtype=float)[1:] for f in (system.c, system.d))
    A, B, C = np.zeros((3, 2 * n + 1))
    A[:n], A[:n:-1] = 1.0 + c1 + dt * a, 1.0 - c2 + dt * d
    B[:n], B[:n:-1] = -c1, c2
    C[:n], C[:n:-1] = dt * b, dt * c
    del l1, l2, c1, c2, a, b, c, d
    q = system.q
    # the weights are symmetric, so both halves of the mirrored state share them
    W = np.tile(trapezoid_weights(n, h), 2)
    # the control law u(t, z_new), chosen once
    if control is None:
        law = lambda t, z: 0.0
    elif isinstance(control, FeedbackLaw):
        if control.nodes.shape[0] != n + 1:
            raise GridMismatchError(f"feedback gains on {control.nodes.shape[0]} nodes do "
                                    f"not match the grid ({n + 1} nodes)")
        gains = W * np.concatenate([control.f1, control.f2[::-1]])
        law = lambda t, z: float(np.vdot(gains, z))
    elif isinstance(control, BoundaryReflection):
        law = lambda t, z: control.k * z[n + 1]
    else:
        law = lambda t, z: float(control(t))

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
    states = np.empty((2, 2 * n + 2))
    states[0, :n + 1] = y1
    states[0, n + 1:] = y2[::-1]
    del y1, y2
    sq = np.empty(2 * n + 2)
    tmp = sq[:-1]
    views = [(zk, zk[:-1], zk[1:], zk[::-1][:-1]) for zk in states]
    z = states[0]
    snaps = [(z[:n + 1].copy(), z[:n:-1].copy())] if 0 in kept else []
    with np.errstate(invalid="ignore", over="ignore"):
        control_trace[0] = law(0.0, z)
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
            zn[-1] = q * zn[0]
            zn[n] = z[n]  # provisional, lets the feedback quadrature close
            u = law(times[m], zn)
            zn[n] = u
            # u sits in zn, and a non-finite entry makes the norm non-finite
            # too, so one check covers the state, u and an overflowing norm
            np.multiply(zn, zn, out=sq)
            l2 = math.sqrt(np.vdot(W, sq))
            if not math.isfinite(l2):
                raise DivergenceError(f"non-finite state or L2 norm at step {m}", step=m)
            control_trace[m] = u
            if m in kept:
                snaps.append((zn[:n + 1].copy(), zn[:n:-1].copy()))
            l2_trace[m] = l2
            linf_trace[m] = np.abs(zn, out=sq).max()

    meta = {"cfl": cfl, "dt": dt, "max_speed": max_speed,
            "scheme": "upwind-explicit-euler"}
    return SimResult(grid=grid, times=times, snapshots=snaps,
                     control_trace=control_trace, l2_trace=l2_trace,
                     linf_trace=linf_trace, scheme_meta=meta,
                     snapshot_steps=keep)


def canonical_map(speeds: SpeedPair, g: np.ndarray, q: float, t: float, x,
                  trace) -> tuple:
    """Canonical state at time t > 0 and positions x, linear in the x=0 trace.

    trace(s) maps a 1-D array of times to the x=0 trace of the upper
    component in sparse form: an integer array of columns and a float array
    of weights, both len(s) by r, so that the trace at s[k] has weight
    weights[k, i] in column cols[k, i] (weights in one column add).  Each
    column is one independent trace tau: for the sharpness operator the
    free response and the hat controls (r = 2), for canonical_solution one
    trace (r = 1).  Returns (upper, lower).  upper is the upper component
    tau(t + phi1(x)), that is trace(t + phi1(x)) in the same sparse form.
    lower is dense, len(x) rows by one column more than the largest column
    that trace returns on [0, t]: the trapezoid quadrature of
    g(chi2(s; t, x)) * tau(s) over [lo, t], lo = max(0, t - phi2(x)), on one
    uniform s-grid over [0, t] with step at most h/max|speeds| and a partial
    first cell, plus the q-reflected inflow q * tau(lo) where lo > 0.  The
    transport of the initial lower state, where lo = 0, is left to the caller.
    The rows go in blocks of _CANONICAL_ROWS.  A block evaluates chi2, g and
    the weights only from the first s-grid point that one of its rows
    weights, and adds each weighted value into the at most r columns that
    the trace at its time touches: a banded sum over the trace's nonzeros in
    column order, so that no s-grid by column trace matrix is formed.  g is
    sampled on a uniform grid over [0,1].
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0] - 1
    nodes = np.linspace(0.0, 1.0, n + 1)
    h = 1.0 / n
    K = max(2, math.ceil(t * largest_speed(speeds, nodes) / h))
    delta = t / K
    ss = np.linspace(0.0, t, K + 1)

    xs = np.asarray(x, dtype=float)
    m = xs.shape[0]
    phi2x = speeds.phi_eval(2, xs)
    lo = np.maximum(0.0, t - phi2x)
    # the partial first cell is [lo, ss[r0]]; r0 = K when lo is in the last cell
    r0 = np.minimum(np.ceil(lo / delta - 1e-12).astype(np.int64), K)
    part = np.where(r0 < K, r0 * delta, t) - lo
    # the partial cell's endpoint s=lo sits on x=0, where chi2 = 0
    wlo = 0.5 * part * g[0] + q * (lo > 0.0)
    cols, weights = trace(ss)
    lo_cols, lo_weights = trace(lo)
    lower = np.zeros((m, 1 + int(max(cols.max(), lo_cols.max(initial=0)))))
    np.add.at(lower, (np.arange(m)[:, None], lo_cols), wlo[:, None] * lo_weights)
    # the trace's nonzeros (time index, column, weight) by column, then by time
    kk, i = np.nonzero(weights)
    cc, vv = cols[kk, i], weights[kk, i]
    order = np.lexsort((kk, cc))
    kk, cc, vv = kk[order], cc[order], vv[order]
    ks = np.arange(K + 1)
    for b0 in range(0, m, _CANONICAL_ROWS):
        blk = slice(b0, b0 + _CANONICAL_ROWS)
        rb = r0[blk]
        k0 = int(rb.min())          # no row of the block weights the points before
        chi = speeds.phi_inv_ext(2, phi2x[blk, None] + ss[None, k0:] - t)
        WG = np.interp(np.clip(chi, 0.0, 1.0, out=chi), nodes, g)
        del chi
        wq = np.where(ks[None, k0:] < rb[:, None], 0.0, delta)
        wq[:, K - k0] = 0.5 * delta
        wq[np.arange(rb.shape[0]), rb - k0] = (np.where(rb < K, 0.5 * delta, 0.0)
                                               + 0.5 * part[blk])
        WG *= wq
        del wq
        inside = kk >= k0
        kb, cb = kk[inside] - k0, cc[inside]
        starts = np.flatnonzero(np.diff(cb, prepend=-1))
        terms = WG[:, kb]
        del WG
        terms *= vv[inside]
        lower[blk, cb[starts]] += np.add.reduceat(terms, starts, axis=1)
    return trace(t + speeds.phi_eval(1, xs)), lower


def canonical_map_bytes(speeds: SpeedPair, t: float, grid: Grid) -> float:
    """Upper bound on the bytes canonical_map(speeds, g, q, t, grid.nodes,
    trace) holds at once beside its dense lower rows, for a trace of at most
    two columns a time: the trace at the K+1 quadrature times, its nonzeros
    sorted by column and the indices of that sort, about 32 floats a time,
    and a few _CANONICAL_ROWS x (K+1) arrays of each row block.  A float, so
    that no t overflows it."""
    cells = t * largest_speed(speeds, grid.nodes) * grid.n + 3.0      # >= K + 1
    return 8.0 * (8.0 * _CANONICAL_ROWS + 32.0) * cells


def canonical_solution(speeds: SpeedPair, g: np.ndarray, q: float, y0hat,
                       uhat, t: float, x) -> tuple:
    """Evaluate the canonical system at time t and position(s) x.

    g and the initial pair y0hat are node samples on a uniform grid over
    [0,1]; uhat is a control signal (callable on arrays, or None for zero).
    The x=0 trace of the upper component is the transported y10 before time
    T1 and uhat(s - T1) after; canonical_map applies the characteristic
    formulas to it as a one-column trace, and the transported y20 is added
    where no characteristic of the lower component has reached x=0 yet.
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
            return np.zeros(tau.shape, dtype=np.int64), tau

        (_, upper), lower = canonical_map(speeds, g, q, t, xs, trace)
        out1, out2 = upper[:, 0], lower[:, 0]
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
    write_csv(ts_path, ["t", "u", "l2_norm", "linf_norm"],
              [result.times, result.control_trace, result.l2_trace, result.linf_trace])
    written = [ts_path]

    picks = result.snapshot_steps
    names = [f"snapshot_{k:06d}.csv" for k in picks]
    for snap, name in zip(result.snapshots, names):
        path = os.path.join(outdir, name)
        write_csv(path, ["x", "y1", "y2"], [result.grid.nodes, *snap])
        written.append(path)
    index_path = os.path.join(outdir, "snapshots.csv")
    write_csv(index_path, ["file", "t"], [names, result.times[picks]])
    written.append(index_path)
    return written
