"""The paper's two results and its counterexample, checked numerically.

verify_settling synthesizes the backstepping feedback and certifies that the
closed loop reaches (numerically) zero at the requested time, with a grid
refinement table as evidence.  verify_sharpness discretizes the
control-to-final-state map of the canonical system and records the least
squares residual of steering the canonical initial state (1, 0) to zero: the
residual sits on a floor below the minimal time and collapses above it.  That
residual comes from block elimination, not one dense solve: the hat controls
only the upper component reads are eliminated exactly in O(n) by Givens
rotations, and one least-squares solve over the lower component's n+1 rows
plus at most 3 compressed upper rows remains; the report's condition is the
condition number of that reduced matrix.  counterexample builds the unstable
eigenmode of the static reflection feedback.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientSpec, Grid, trapezoid_weights
from .characteristics import SpeedPair, speed_table_n
from .config import ScenarioConfig, check_memory
from .errors import DivergenceError, DomainError, PreconditionError, RootBracketError
from .kernels import solve_gains, solve_kernels_bytes, solve_trace
from .mintime import times_report
from .simulator import (canonical_map, canonical_map_bytes, growth_rate, l2_norm,
                        largest_speed, simulate, simulate_bytes)
from .system import BoundaryReflection, SystemSpec

__all__ = [
    "VerificationReport",
    "CounterexampleResult",
    "check_run_memory",
    "verify_settling",
    "verify_sharpness",
    "canonical_sharpness_residual",
    "canonical_sharpness_bytes",
    "counterexample",
]

# Pass rules of verify_settling and verify_sharpness (see their docstrings).
_RESIDUAL_MAX = 0.05
_RATIO_MAX = 0.75
_FLOOR_REL = 0.05
_DROP_REL = 0.05
_MARGIN_FACTOR = 0.1

# The counterexample's horizon, growth-rate window, CFL number and pass rule.
_CX_HORIZON = 2.5
_CX_WINDOW = (0.5, 2.5)
_CX_CFL = 0.9
_CX_RATE_REL_TOL = 0.05


@dataclass
class VerificationReport:
    scenario_id: str
    kind: str
    tmin: float
    requested_time: float | None
    rows: list
    ratios: list
    thresholds: dict
    passed: bool
    runtime: float
    notes: str = ""

    def as_flat_dict(self) -> dict:
        out = {"scenario_id": self.scenario_id, "kind": self.kind,
               "passed": self.passed, "runtime": self.runtime}
        if not math.isnan(self.tmin):
            out["tmin"] = self.tmin
        if self.requested_time is not None:
            out["requested_time"] = self.requested_time
        for r, row in enumerate(self.rows):
            for key, val in row.items():
                out[f"level{r}_{key}"] = val
        for r, ratio in enumerate(self.ratios):
            out[f"ratio_{r}"] = ratio
        for key, val in self.thresholds.items():
            out[f"threshold_{key}"] = val
        if self.notes:
            out["notes"] = self.notes
        return out

    def pretty(self) -> str:
        lines = [f"{self.kind} verification for scenario '{self.scenario_id}'"]
        if not math.isnan(self.tmin):
            lines.append(f"{'Tmin':<18} {self.tmin:.12g}")
        if self.requested_time is not None:
            lines.append(f"{'requested time':<18} {self.requested_time:.12g}")
        for row in self.rows:
            parts = [f"{key}={val:.12g}" if isinstance(val, float) else f"{key}={val}"
                     for key, val in row.items()]
            lines.append("  " + "  ".join(parts))
        if self.ratios:
            lines.append("refinement ratios: "
                         + ", ".join(f"{r:.12g}" for r in self.ratios))
        lines.append("thresholds: " + ", ".join(
            f"{key}={val:.12g}" for key, val in self.thresholds.items()))
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)


def check_run_memory(command: str, cfg: ScenarioConfig, n: int, gains: bool,
                     snapshots: int) -> None:
    """Refuse cfg's gains solve (where gains) and simulation on an n-cell grid
    keeping snapshots states, where they would not fit the physical memory."""
    need = simulate_bytes(largest_speed(cfg.system.speeds, Grid.uniform(n).nodes), n,
                          cfg.horizon, cfg.cfl, snapshots)
    if gains:
        need += solve_kernels_bytes(cfg.system, n, 0)
    check_memory(need, f"{command} at n={n}: {'the gains solve, ' * gains}{snapshots} snapshots"
                 f" and the time steps to horizon {cfg.horizon:.12g}")


def _levels(base_n: int, levels) -> list:
    # n/2, n and 2n: grid_n >= 8 keeps n/2 at the kernel solve's minimum 4
    if levels is not None:
        return [int(n) for n in levels]
    return [base_n // 2, base_n, 2 * base_n]


def _settling_level(cfg: ScenarioConfig, nk: int) -> tuple:
    """(grid, y0, e, norm0) of level nk: its grid, the initial data y0 that
    it simulates, times 2^-e, and the L2 norm of y0.  The certificate squares
    the state, so data whose max lies below 0.5 are simulated times the
    power of two 2^-e that brings it into [0.5, 1): that changes no rounding,
    but keeps the squares of tiny data from underflowing.  Larger data are
    simulated as they are (e = 0)."""
    grid = Grid.uniform(nk)
    y1, y2 = cfg.initial(grid)
    m = max(np.max(np.abs(y1)), np.max(np.abs(y2)))
    e = int(np.frexp(m)[1]) if 0.0 < m < 0.5 else 0
    y0 = (np.ldexp(y1, -e), np.ldexp(y2, -e)) if e else (y1, y2)
    with np.errstate(over="ignore"):     # an overflow: simulate raises at step 1
        return grid, y0, e, l2_norm(y0[0], y0[1], grid.h)


def _ratios(values: list) -> list:
    """The refinement ratios of values, level by level: 0.0 after a value of 0."""
    return [b / a if a > 0 else 0.0 for a, b in zip(values, values[1:])]


def verify_settling(cfg: ScenarioConfig, levels=None) -> VerificationReport:
    """Closed-loop settling certificate at the configured horizon.

    Solves the kernels, builds the feedback, and simulates from the configured
    initial data on (at least) three refinement levels.  Passes when each
    refinement shrinks the final relative L2 residual by a ratio of at most
    _RATIO_MAX and the finest residual is at most _RESIDUAL_MAX; the report
    records both as thresholds.  Requires nonzero initial data and horizon
    >= Tmin, both checked before any solve.
    """
    levels = _levels(cfg.grid.n, levels)
    check_run_memory("verify-settling", cfg, max(levels), True, 0)
    t_start = time.perf_counter()
    data = [_settling_level(cfg, nk) for nk in levels]
    if any(norm0 <= 0.0 for *_, norm0 in data):
        raise PreconditionError("settling verification needs nonzero initial data")
    tr = times_report(cfg.system, grid=cfg.grid)
    if cfg.horizon < tr.Tmin - 1e-12:
        raise PreconditionError(
            f"settling horizon {cfg.horizon:.12g} is below Tmin {tr.Tmin:.12g}")
    rows = []
    for nk, (grid_k, y0, e, norm0) in zip(levels, data):
        law = solve_gains(cfg.system, grid_k)
        sim = simulate(cfg.system, law, y0, cfg.horizon, grid_k, cfg.cfl, snapshots=0)
        res_abs = sim.l2_trace[-1]
        rows.append({"n": nk, "h": grid_k.h, "residual_rel": float(res_abs / norm0),
                     "residual_abs": math.ldexp(res_abs, e), "y0_norm": math.ldexp(norm0, e)})
        del law, sim                     # free this level before the next one
    ratios = _ratios([row["residual_rel"] for row in rows])
    passed = rows[-1]["residual_rel"] <= _RESIDUAL_MAX and all(r <= _RATIO_MAX for r in ratios)
    return VerificationReport(
        scenario_id=cfg.scenario_id, kind="settling", tmin=tr.Tmin,
        requested_time=cfg.horizon, rows=rows, ratios=ratios,
        thresholds={"residual_rel_finest": _RESIDUAL_MAX, "ratio_max": _RATIO_MAX},
        passed=bool(passed), runtime=time.perf_counter() - t_start)


def _orthogonal_rest(first: np.ndarray, vals: np.ndarray, p: int,
                     W: np.ndarray) -> np.ndarray:
    """Rows whose norms measure W minus its projection onto the span of U.

    U has p columns, and its row i is vals[i, 0] in column first[i] and
    vals[i, 1] in column first[i] + 1; a zero vals[i, 0] is skipped, so a
    row may start at column -1, and a row of zeros at any column.  Givens
    rotations reduce [U | W] row by row to [R | RW; 0 | rest] with R upper
    bidiagonal (the Cholesky factor of the tridiagonal U^T U, without forming
    U^T U); ||rest @ c|| = ||(I - P_U) W @ c|| for every c.  Rows that come
    in the order of their columns, as the trace rows do, take at most two
    rotations each.  An entry that would become a diagonal of R below the
    default cutoff of lstsq, eps * max(U.shape) times the largest entry of U,
    is rounding: it is dropped, so that a column in the span of the ones
    before it drops out as it does from the minimum-norm least squares.
    """
    if p == 0:
        return W
    tiny = np.finfo(float).eps * max(first.shape[0], p) * np.abs(vals).max()
    diag, sup = np.zeros(p), np.zeros(p)
    RW = np.zeros((p, W.shape[1]))
    have = np.zeros(p, dtype=bool)
    rest = []
    for i in range(first.shape[0]):
        col, a, b, w = int(first[i]), float(vals[i, 0]), float(vals[i, 1]), W[i]
        if a == 0.0:
            col, a, b = col + 1, b, 0.0
        while col < p and (a != 0.0 or b != 0.0):
            if have[col]:
                rho = math.hypot(diag[col], a)
                c, s = diag[col] / rho, a / rho
                diag[col] = rho
                sup[col], b = c * sup[col] + s * b, c * b - s * sup[col]
                RW[col], w = c * RW[col] + s * w, c * w - s * RW[col]
            elif abs(a) > tiny:
                diag[col], sup[col], RW[col], have[col] = a, b, w, True
                break
            col, a, b = col + 1, b, 0.0
        else:
            rest.append(w)
    return np.array(rest).reshape(-1, W.shape[1])


def canonical_sharpness_residual(speeds: SpeedPair, g: np.ndarray, T: float,
                                 grid: Grid):
    """Least-squares residual of steering the canonical state (1, 0) to zero.

    The control is expanded in hat functions on a uniform time grid with step
    equal to the spatial h; the final state is the canonical map of the x=0
    trace, whose column 0 is the free response and column c >= 1 the hat
    c - 1; the solve keeps that numbering throughout.
    Returns (residual, free_norm, condition, n_controls).

    The operator has a block structure.  An upper row is the trace at
    s = T + phi1(x): two adjacent hats on [T - T1, T], or the free response
    where s < T1.  A lower row is the quadrature over [0, T], so it touches
    only the hats on [0, T - T1]; the two blocks share at most 2 hats.  The
    upper rows stay in the trace's sparse form.  The hats only upper rows
    touch are eliminated exactly by _orthogonal_rest, and a thin QR
    compresses what is left of the upper rows (the shared hats and the free
    response) to at most 3 rows.  One least-squares solve on those rows and
    the n+1 lower rows, over the hats the lower rows touch, gives the
    residual; it is the residual of the whole 2(n+1)-row system to rounding.
    So only the free response, the lower rows over the hats they touch and
    the upper rows over the shared hats are ever dense.  condition is the
    2-norm condition number of the reduced matrix over the singular values
    that lstsq keeps (those above its cutoff eps * max(shape) times the
    largest), so it is below 1 / (eps * max(shape)) and always finite; it
    is 1.0 when elimination leaves no hat, as on the floor side whenever
    T < T1.  The norms are scale-free (_norm): a free norm or residual
    raises DomainError only where its value lies beyond the float range.
    """
    n, h, T1 = grid.n, grid.h, speeds.T1
    M = max(1, round(T / h))
    hc = T / M

    def trace(s):
        # the free response of (1, 0) in column 0 before T1; after it the
        # hats j and j + 1 around s - T1 in columns j + 1 and j + 2.  So each
        # time has weights in a column c and in c + 1.
        cols = np.zeros((s.shape[0], 2), dtype=np.int64)
        vals = np.zeros((s.shape[0], 2))
        vals[:, 0] = s < T1
        late = np.nonzero(s >= T1)[0]
        pos = np.minimum(s[late] - T1, T) / hc   # phi1(1) may round above T1
        j = np.clip(np.floor(pos).astype(np.int64), 0, M - 1)
        w = pos - j
        cols[late, 0] = j + 1
        cols[:, 1] = cols[:, 0] + 1
        vals[late, 0] = 1.0 - w
        vals[late, 1] = w
        return cols, vals

    # a trace g too large for the map overflows it: one DomainError, no warnings
    with np.errstate(over="ignore", invalid="ignore"):
        (cols, vals), lower = canonical_map(speeds, g, 0.0, T, grid.nodes, trace)
        rw = np.sqrt(trapezoid_weights(n, h))[:, None]
        vals *= rw
        lower *= rw
        # upper row i holds vals[i] in columns cols[i] = (c, c + 1), c = 0
        # where vals[i, 0] is the free response
        z = np.concatenate([np.where(cols[:, 0] == 0, vals[:, 0], 0.0), lower[:, 0]])
        free_norm = _norm(z)
        if not math.isfinite(free_norm):
            raise _sharpness_overflow(T)
        # hats in columns [1, s0) only in lower rows, [s0, cl) shared, [cl, M + 2)
        # only in upper rows
        cl = int(np.flatnonzero(lower.any(axis=0)).max(initial=0)) + 1
        up = cols[(vals != 0) & (cols > 0)]
        s0 = min(cl, int(up.min())) if up.size else 1
        W = np.zeros((n + 1, cl - s0 + 1))
        r, k = np.nonzero((cols >= s0) & (cols < cl))
        W[r, cols[r, k] - s0] = vals[r, k]
        W[:, -1] = z[:n + 1]
        R = np.linalg.qr(_orthogonal_rest(cols[:, 0] - cl, np.where(cols >= cl, vals, 0.0),
                                          M + 2 - cl, W), mode="r")
        # the reduced system in the same columns: column 0 the right-hand side
        red = np.zeros((R.shape[0] + n + 1, cl))
        red[:R.shape[0], s0:] = R[:, :-1]
        red[:R.shape[0], 0] = R[:, -1]
        red[R.shape[0]:] = lower[:, :cl]
        del lower
        rhs, red = red[:, 0], red[:, 1:]
        if cl == 1:
            residual, condition = _norm(rhs), 1.0
        else:
            sol, _, rank, svals = np.linalg.lstsq(red, -rhs, rcond=None)
            residual = _norm(red @ sol + rhs)
            condition = float(svals[0] / svals[rank - 1])
    if not math.isfinite(residual):
        raise _sharpness_overflow(T)
    return residual, free_norm, condition, M + 1


def _norm(v: np.ndarray) -> float:
    """The 2-norm of v, taken on v times 2^-e, e the binary exponent of its
    largest |entry|, and scaled back by 2^e: both scalings are exact, so the
    squares neither overflow nor underflow.  Not finite only where the norm
    lies beyond the float range or an entry is not finite."""
    e = int(np.frexp(np.max(np.abs(v), initial=0.0))[1])
    return float(np.ldexp(np.linalg.norm(np.ldexp(v, -e)), e))


def _sharpness_overflow(T: float) -> DomainError:
    return DomainError(f"sharpness residual at T={T:.12g} overflows: the trace g, driven "
                       "by the coupling c, is too large for the canonical map")


def canonical_sharpness_bytes(speeds: SpeedPair, T: float, grid: Grid) -> float:
    """Upper bound on the bytes canonical_sharpness_residual holds at once.

    The sparse trace and the quadrature's row blocks are canonical_map's
    share (canonical_map_bytes).  The lower rows are dense over the hats
    they touch, at most (T - T1) n + 4 columns with the free response; with
    the reduced least-squares matrix and its copy in lstsq that is at most
    three n+4 row arrays of that width.  gelsd's workspace grows like its
    smaller dimension; the travel-time inverses hold temporaries of the
    speed table.  A float, so that no T overflows it.
    """
    n = grid.n
    hats = max(T - speeds.T1, 0.0) * n + 4.0                 # >= the lower rows' columns
    return (8.0 * (3.0 * (n + 4.0) * hats + 200.0 * min(n + 4.0, hats)
                   + 4.0 * speeds.table_nodes.size) + canonical_map_bytes(speeds, T, grid))


def verify_sharpness(cfg: ScenarioConfig, T: float, levels=None) -> VerificationReport:
    """Reachability residual of the canonical system at time T.

    Below Tmin (by at least _MARGIN_FACTOR*Tunif) the pass condition is a
    residual floor of _FLOOR_REL at every level; at or above Tmin it is a
    collapse below _DROP_REL on the finest level.  In the margin band the
    report is informational and passes by definition.  Requires a finite
    T at least the smallest normal float (at T = 5e-324 the quadrature step
    T/2 is 0) and, as every kernel solve does, the zero reflection q = 0.
    """
    if not (math.isfinite(T) and T >= np.finfo(float).tiny):
        raise PreconditionError(f"sharpness horizon must be finite and positive, at least "
                                f"{np.finfo(float).tiny:.12g}, got {T!r}")
    levels = _levels(cfg.grid.n, levels)
    finest = Grid.uniform(max(levels))
    check_memory(solve_kernels_bytes(cfg.system, finest.n, 1)
                 + canonical_sharpness_bytes(cfg.system.speeds, T, finest),
                 f"sharpness at T={T:.12g} on n={finest.n}")
    t_start = time.perf_counter()
    tr = times_report(cfg.system, grid=cfg.grid)
    margin = _MARGIN_FACTOR * tr.Tunif
    rows = []
    for nk in levels:
        grid_k = Grid.uniform(nk)
        g = solve_trace(cfg.system, grid_k)
        res, free_norm, cond, ncontrols = canonical_sharpness_residual(
            cfg.system.speeds, g, T, grid_k)
        # canonical initial data is (1, 0), unit L2 norm by construction
        rel_free = res / free_norm if free_norm > 0 else 0.0
        rows.append({"n": nk, "h": grid_k.h, "residual": float(res),
                     "residual_vs_free": float(rel_free),
                     "residual_vs_initial": float(res),
                     "free_norm": float(free_norm),
                     "condition": float(cond), "n_controls": ncontrols})
    ratios = _ratios([row["residual"] for row in rows])
    if T <= tr.Tmin - margin:
        side = "floor"
        passed = all(row["residual_vs_free"] >= _FLOOR_REL for row in rows)
    elif T >= tr.Tmin:
        side = "drop"
        passed = rows[-1]["residual_vs_initial"] <= _DROP_REL
    else:
        side = "margin"
        passed = True
    return VerificationReport(
        scenario_id=cfg.scenario_id, kind="sharpness", tmin=tr.Tmin,
        requested_time=T, rows=rows, ratios=ratios,
        thresholds={"floor_rel": _FLOOR_REL, "drop_rel": _DROP_REL,
                    "margin": margin},
        passed=bool(passed), runtime=time.perf_counter() - t_start,
        notes=f"side={side}")


@dataclass
class CounterexampleResult:
    k: float
    theta: float
    sigma: float
    y0: tuple
    report: VerificationReport


_K_CRITICAL = 1.0 + 1.0 / math.pi
_INV_PI = (0.3183098861837907, -1.9678676675182486e-17)    # 1/pi as hi + lo
_EIGEN_BRACKET = (-2.0 ** 60, 1.0 - 1e-9)    # of the signed parameter s


def _eigen_theta(s: float) -> complex:
    return complex(s) if s >= 0.0 else complex(0.0, -s)


def _eigen_equation(s: float) -> float:
    """G(s) = F(s) - 1 - 1/pi, for F(s) = sqrt(1 - theta^2) + Re(theta / tan(pi
    theta)), theta = s if s >= 0 else i|s|: -theta^2 / (1 + sqrt(1 - theta^2))
    + (x cot x - 1) / pi with x = pi theta, its last term from its series
    where x^2 < 1/16.  F is flat at its top, F(s) = 1 + 1/pi - (1/2 + pi/3) s|s|
    + ..., so G keeps the digits that F - 1 - 1/pi would cancel.  G falls
    strictly on _EIGEN_BRACKET: on (0, 1) both terms of F do, as (x cot x)' =
    (sin 2x - 2x) / (2 sin^2 x) < 0, and below 0, where F = sqrt(1 + t^2) +
    t coth(pi t) for t = -s, both grow with t, as (x coth x)' = (sinh 2x -
    2x) / (2 sinh^2 x) > 0."""
    mu = s * abs(s)                 # theta^2
    x2 = math.pi * math.pi * mu
    if abs(x2) < 1 / 16:    # its series to x^14: 3e-16 relative here, 4e-12 at x^2 = 1/4
        xcot = x2 * (-1 / 3 + x2 * (-1 / 45 + x2 * (-2 / 945 + x2 * (-1 / 4725 + x2 * (
            -2 / 93555 + x2 * (-1382 / 638512875 + x2 * (-4 / 18243225)))))))
    else:
        x = math.pi * _eigen_theta(s)
        xcot = (x / cmath.tan(x)).real - 1.0
    return -mu / (1.0 + math.sqrt(1.0 - mu)) + xcot / math.pi


def _bisect_scalar(fun, target, lo, hi):
    """The root of a decreasing fun = target on [lo, hi], where
    fun(lo) >= target >= fun(hi), to 200 halvings."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fun(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _reflection_eigenvalue(k: float):
    """(s, sigma): the root s of _eigen_equation(s) = k - 1 - 1/pi, with 1/pi
    taken in two floats, 0.0 within 1e-12 of 1 + 1/pi, and sigma =
    pi*sqrt(1 - theta^2)."""
    if abs(k - _K_CRITICAL) <= 1e-12:
        return 0.0, math.pi
    lo, hi = _EIGEN_BRACKET
    delta = ((k - 1.0) - _INV_PI[0]) - _INV_PI[1]
    if not _eigen_equation(hi) <= delta <= _eigen_equation(lo):
        if k < _K_CRITICAL:
            raise RootBracketError(
                f"branch k<1+1/pi: no root of sqrt(1-t^2)+t*cot(pi t)={k:.12g} "
                f"bracketed on (0, {hi:g})")
        raise RootBracketError(
            f"branch k>1+1/pi: sqrt(1+t^2)+t*coth(pi t)={k:.12g} not bracketed "
            f"on (0, {-lo:g})")
    s = _bisect_scalar(_eigen_equation, delta, lo, hi)
    return s, math.pi * math.sqrt(1.0 - s * abs(s))


def counterexample(k: float, n: int = 800) -> CounterexampleResult:
    """Unstable eigenmode of the reflection-controlled constant-speed system.

    Builds the eigenfunction initial data for y1(t,1) = k*y2(t,1) with
    couplings b = c = pi, simulates it up to _CX_HORIZON, and compares the
    growth rate measured over _CX_WINDOW with the predicted eigenvalue sigma,
    passing within a relative error of _CX_RATE_REL_TOL.
    """
    t_start = time.perf_counter()
    s, sigma = _reflection_eigenvalue(k)
    theta = abs(s)
    table_n = speed_table_n(n)
    # speeds -1 and 1: the step traces, the dozen speed-table arrays that
    # SpeedPair.build holds at once and a few dozen arrays of n+1 nodes,
    # estimated before any of them is allocated
    check_memory(simulate_bytes(1.0, n, _CX_HORIZON, _CX_CFL, 0)
                 + 8.0 * (12 * (table_n + 1) + 32 * (n + 1)),
                 f"counterexample at n={n}")
    grid = Grid.uniform(n)
    xs = grid.nodes
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        # y2 = sin(pi theta x)/theta, pi x or sinh(pi |theta| x)/|theta| for
        # theta = s, 0 or i|s|, and y1 = (sigma y2 + y2') / pi
        theta_x = _eigen_theta(s) * xs
        y20 = (np.pi * xs * np.sinc(theta_x)).real
        dy20 = (np.pi * np.cos(np.pi * theta_x)).real
        y10 = (sigma * y20 + dy20) / np.pi
    if not (np.isfinite(y10).all() and np.isfinite(y20).all()):
        raise DivergenceError(f"the eigenmode of k={k:.12g} overflows: its profile "
                              f"sinh(theta*pi*x) has theta*pi = {theta * np.pi:.6g}", 0)

    speeds = SpeedPair.build(CoefficientSpec.constant(-1.0),
                             CoefficientSpec.constant(1.0),
                             table_n=table_n)
    pi_c = CoefficientSpec.constant(math.pi)
    zero = CoefficientSpec.constant(0.0)
    system = SystemSpec(speeds=speeds, a=zero, b=pi_c, c=pi_c, d=zero, q=0.0)
    sim = simulate(system, BoundaryReflection(k), (y10, y20), _CX_HORIZON, grid, _CX_CFL,
                   snapshots=0)
    rate = growth_rate(sim, _CX_WINDOW)
    rel_err = abs(rate - sigma) / abs(sigma)
    report = VerificationReport(
        scenario_id=f"counterexample_k={k:.12g}", kind="counterexample",
        tmin=float("nan"), requested_time=None,
        rows=[{"n": n, "rate": float(rate), "sigma": float(sigma),
               "theta": float(theta), "rel_err": float(rel_err)}],
        ratios=[], thresholds={"rate_rel_tol": _CX_RATE_REL_TOL},
        passed=bool(rel_err <= _CX_RATE_REL_TOL), runtime=time.perf_counter() - t_start)
    return CounterexampleResult(k=k, theta=theta, sigma=sigma,
                                y0=(y10, y20), report=report)
