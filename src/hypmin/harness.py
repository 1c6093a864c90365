"""Scenario orchestration: config files, the two headline verifications, and
the static-output-feedback counterexample.

verify_settling synthesizes the backstepping feedback and certifies that the
closed loop reaches (numerically) zero at the requested time, with a grid
refinement table as evidence.  verify_sharpness discretizes the
control-to-final-state map of the canonical system and records the least
squares residual of steering the canonical initial state (1, 0) to zero: the
residual sits on a floor below the minimal time and collapses above it.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientSpec, Grid
from .characteristics import SpeedPair
from .errors import ConfigError, PreconditionError, RootBracketError
from .kernels import FeedbackLaw, feedback_gains, solve_kernels, trace_g
from .mintime import times_report
from .simulator import (BoundaryReflection, SystemSpec, growth_rate, l2_norm,
                        simulate)
from .transforms import diag_removal

__all__ = [
    "ScenarioConfig",
    "VerificationReport",
    "CounterexampleResult",
    "load_config",
    "make_initial_data",
    "make_control",
    "verify_settling",
    "verify_sharpness",
    "canonical_sharpness_residual",
    "counterexample",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str
    system: SystemSpec
    grid: Grid
    cfl: float
    horizon: float
    initial: dict
    control: dict
    seed: int
    output_dir: str


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

    def write(self, outdir) -> str:
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, f"report_{self.kind}.json")
        with open(path, "w") as fh:
            json.dump(self.as_flat_dict(), fh, indent=2, default=float)
            fh.write("\n")
        return path


def _coeff_from_dict(d, name: str) -> CoefficientSpec:
    if not isinstance(d, dict) or "family" not in d:
        raise ConfigError(f"coefficient '{name}' must be a tagged record with a family")
    fam = d["family"]
    try:
        if fam == "constant":
            return CoefficientSpec.constant(d["value"])
        if fam == "polynomial":
            return CoefficientSpec.polynomial(d["coeffs"])
        if fam == "step":
            return CoefficientSpec.step(d["ell"], d["lo"], d["hi"])
        if fam == "expbump":
            return CoefficientSpec.expbump(d.get("shift", 0.0))
        if fam == "sampled":
            return CoefficientSpec.sampled(d["xs"], d["values"])
    except KeyError as exc:
        raise ConfigError(f"coefficient '{name}' ({fam}) is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"coefficient '{name}': {exc}") from exc
    raise ConfigError(f"coefficient '{name}' has unknown family '{fam}'")


def _number(d: dict, key: str, convert=float, default=None):
    """d[key] (or default when absent) converted by convert, finite or ConfigError."""
    if key not in d:
        if default is None:
            raise ConfigError(f"config is missing required field '{key}'")
        return default
    try:
        val = convert(d[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be a finite number, got {d[key]!r}") from exc
    if not math.isfinite(val):
        raise ConfigError(f"{key} must be a finite number, got {d[key]!r}")
    return val


def _record(d: dict, key: str, default: dict) -> dict:
    val = d.get(key, default)
    if not isinstance(val, dict):
        raise ConfigError(f"{key} must be an object, got {val!r}")
    return val


def config_from_dict(raw: dict, scenario_id: str = "scenario") -> ScenarioConfig:
    """Validated scenario config from its parsed JSON record.

    Every malformed, missing or non-finite value raises ConfigError before
    any computation.  The schema-v1 keys kernel_tol and kernel_max_iter are
    accepted and ignored: the kernel solve takes one pass and has no
    iteration to tune.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    if "system" not in raw:
        raise ConfigError("config is missing required field 'system'")
    sys_d = _record(raw, "system", {})
    grid_n = _number(raw, "grid_n", int)
    horizon = _number(raw, "horizon")
    if grid_n < 8:
        raise ConfigError(f"grid_n must be at least 8, got {grid_n}")
    if horizon <= 0.0:
        raise ConfigError(f"horizon must be positive, got {horizon}")
    lam1 = _coeff_from_dict(sys_d.get("lambda1"), "lambda1")
    lam2 = _coeff_from_dict(sys_d.get("lambda2"), "lambda2")
    try:
        speeds = SpeedPair.build(lam1, lam2, table_n=max(4096, 4 * grid_n))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    coeffs = {}
    for name in ("a", "b", "c", "d"):
        coeffs[name] = _coeff_from_dict(sys_d.get(name, {"family": "constant", "value": 0.0}),
                                        name)
    system = SystemSpec(speeds=speeds, a=coeffs["a"], b=coeffs["b"],
                        c=coeffs["c"], d=coeffs["d"], q=_number(sys_d, "q", float, 0.0))
    cfl = _number(raw, "cfl", float, 0.9)
    if not 0.0 < cfl <= 1.0:
        raise ConfigError(f"cfl must lie in (0,1], got {cfl}")
    return ScenarioConfig(
        scenario_id=str(raw.get("scenario_id", scenario_id)),
        system=system,
        grid=Grid.uniform(grid_n),
        cfl=cfl,
        horizon=horizon,
        initial=_record(raw, "initial_data", {"kind": "random"}),
        control=_record(raw, "control", {"kind": "feedback"}),
        seed=_number(raw, "seed", int, 42),
        output_dir=str(raw.get("output_dir", "out")),
    )


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    stem = os.path.splitext(os.path.basename(str(path)))[0]
    return config_from_dict(raw, scenario_id=stem)


def make_initial_data(spec: dict, grid: Grid, default_seed: int = 42):
    """Initial data pair on the grid from its config record."""
    kind = spec.get("kind", "random")
    xs = grid.nodes
    if kind == "zero":
        return np.zeros(grid.n + 1), np.zeros(grid.n + 1)
    if kind == "random":
        # piecewise linear on a few nodes: rough but resolution-independent
        seed = int(spec.get("seed", default_seed))
        m = int(spec.get("nodes", 16))
        rng = np.random.default_rng(seed)
        knots = np.linspace(0.0, 1.0, m)
        y1 = np.interp(xs, knots, rng.uniform(-1.0, 1.0, m))
        y2 = np.interp(xs, knots, rng.uniform(-1.0, 1.0, m))
        return y1, y2
    if kind == "samples":
        try:
            y1 = np.interp(xs, spec["y1"]["xs"], spec["y1"]["values"])
            y2 = np.interp(xs, spec["y2"]["xs"], spec["y2"]["values"])
        except KeyError as exc:
            raise ConfigError(f"samples initial data is missing {exc}") from exc
        return y1, y2
    if kind == "family":
        y1 = np.asarray(_coeff_from_dict(spec.get("y1"), "y1")(xs), dtype=float)
        y2 = np.asarray(_coeff_from_dict(spec.get("y2"), "y2")(xs), dtype=float)
        return y1, y2
    raise ConfigError(f"unknown initial_data kind '{kind}'")


def make_control(spec: dict, feedback: FeedbackLaw | None = None):
    """Control object for simulate() from its config record."""
    kind = spec.get("kind", "feedback")
    if kind == "zero":
        return None
    if kind == "feedback":
        if feedback is None:
            raise ConfigError("feedback control requested but no gains were synthesized")
        return feedback
    if kind == "reflection":
        try:
            return BoundaryReflection(float(spec["k"]))
        except KeyError as exc:
            raise ConfigError(f"reflection control is missing {exc}") from exc
    if kind == "samples":
        try:
            ts = np.asarray(spec["ts"], dtype=float)
            vals = np.asarray(spec["values"], dtype=float)
        except KeyError as exc:
            raise ConfigError(f"samples control is missing {exc}") from exc
        return lambda t: float(np.interp(t, ts, vals))
    if kind == "polynomial":
        coeffs = tuple(spec.get("coeffs", ()))
        return lambda t: float(np.polynomial.polynomial.polyval(t, coeffs))
    raise ConfigError(f"unknown control kind '{kind}'")


def _synthesize(cfg: ScenarioConfig, grid: Grid):
    gauge = diag_removal(cfg.system.a, cfg.system.b, cfg.system.c, cfg.system.d,
                         cfg.system.speeds, grid)
    K = solve_kernels(gauge, cfg.system.speeds, None, grid)
    return gauge, K


def _levels(base_n: int, levels) -> list:
    if levels is not None:
        return [int(n) for n in levels]
    return [max(8, base_n // 2), base_n, 2 * base_n]


def verify_settling(cfg: ScenarioConfig, levels=None, threshold_rel: float = 0.05,
                    ratio_max: float = 0.75) -> VerificationReport:
    """Closed-loop settling certificate at the configured horizon.

    Solves the kernels, builds the feedback, and simulates from the configured
    initial data on (at least) three refinement levels.  Passes when the final
    relative L2 residual decreases roughly like h across the levels and is
    below threshold_rel on the finest grid.  Requires horizon >= Tmin.
    """
    t_start = time.perf_counter()
    tr = times_report(cfg.system, grid=cfg.grid)
    if cfg.horizon < tr.Tmin - 1e-12:
        raise PreconditionError(
            f"settling horizon {cfg.horizon:.12g} is below Tmin {tr.Tmin:.12g}")
    rows = []
    residuals = []
    for nk in _levels(cfg.grid.n, levels):
        grid_k = Grid.uniform(nk)
        gauge, K = _synthesize(cfg, grid_k)
        law = feedback_gains(K, gauge)
        y0 = make_initial_data(cfg.initial, grid_k, cfg.seed)
        norm0 = l2_norm(y0[0], y0[1], grid_k.h)
        if norm0 <= 0.0:
            raise PreconditionError("settling verification needs nonzero initial data")
        sim = simulate(cfg.system, law, y0, cfg.horizon, grid_k, cfg.cfl)
        res_abs = sim.l2_trace[-1]
        res_rel = res_abs / norm0
        rows.append({"n": nk, "h": grid_k.h, "residual_rel": float(res_rel),
                     "residual_abs": float(res_abs), "y0_norm": float(norm0),
                     "kernel_residual": K.residual})
        residuals.append(res_rel)
    ratios = [residuals[i + 1] / residuals[i] if residuals[i] > 0 else 0.0
              for i in range(len(residuals) - 1)]
    passed = residuals[-1] <= threshold_rel and all(r <= ratio_max for r in ratios)
    return VerificationReport(
        scenario_id=cfg.scenario_id, kind="settling", tmin=tr.Tmin,
        requested_time=cfg.horizon, rows=rows, ratios=ratios,
        thresholds={"residual_rel_finest": threshold_rel, "ratio_max": ratio_max},
        passed=bool(passed), runtime=time.perf_counter() - t_start)


def canonical_sharpness_residual(speeds: SpeedPair, g: np.ndarray, T: float,
                                 grid: Grid):
    """Least-squares residual of steering the canonical state (1, 0) to zero.

    The control is expanded in hat functions on a uniform time grid with step
    equal to the spatial h; the final state is evaluated through the explicit
    characteristic formulas, so each hat column is one quadrature pass.
    Returns (residual, free_norm, condition, n_controls); the least-squares
    solution is minimum-norm when the normal equations are rank deficient.
    """
    n = grid.n
    h = grid.h
    nodes = grid.nodes
    g = np.asarray(g, dtype=float)
    T1 = speeds.T1
    l1 = np.asarray(speeds.speed(1, nodes), dtype=float)
    l2 = np.asarray(speeds.speed(2, nodes), dtype=float)
    max_speed = float(max(np.max(-l1), np.max(l2)))

    M = max(1, round(T / h))
    hc = T / M
    K = max(2, math.ceil(T * max_speed / h))
    delta = T / K
    ss = np.linspace(0.0, T, K + 1)

    # boundary trace of the upper component at x=0, affine and control parts
    v0 = (ss < T1).astype(float)
    V = np.zeros((K + 1, M + 1))
    late = np.nonzero(ss >= T1)[0]
    pos = (ss[late] - T1) / hc
    j0 = np.clip(np.floor(pos).astype(np.int64), 0, M - 1)
    w = pos - j0
    V[late, j0] = 1.0 - w
    V[late, j0 + 1] = w

    # lower component at time T: weighted quadrature of g along chi2 paths
    phi2x = np.asarray(speeds.phi_eval(2, nodes), dtype=float)
    lo = np.maximum(0.0, T - phi2x)
    chi = np.asarray(speeds.table_nodes_inverse(2, phi2x[:, None] + ss[None, :] - T))
    gch = np.interp(np.clip(chi, 0.0, 1.0), nodes, g)
    r0 = np.ceil(lo / delta - 1e-12).astype(np.int64)
    cols = np.arange(K + 1)[None, :]
    wq = np.where(cols < r0[:, None], 0.0, delta)
    wq[:, K] = 0.5 * delta
    inner = r0 < K
    rows_i = np.nonzero(inner)[0]
    wq[rows_i, r0[rows_i]] = 0.5 * delta
    part = np.where(inner, r0 * delta - lo, T - lo)
    wq[rows_i, r0[rows_i]] += 0.5 * part[rows_i]
    outer = np.nonzero(~inner)[0]
    wq[outer, K] = 0.5 * part[outer]

    WG = wq * gch
    A2 = WG @ V
    z2 = WG @ v0
    # partial-cell endpoint at s=lo contributes g(0)*trace(lo)
    g0 = g[0]
    wlo = 0.5 * part * g0
    aff = lo < T1
    z2 = z2 + np.where(aff & (wlo != 0.0), wlo, 0.0)
    ctrl_rows = np.nonzero(~aff & (wlo != 0.0))[0]
    if ctrl_rows.size:
        posl = (lo[ctrl_rows] - T1) / hc
        jl = np.clip(np.floor(posl).astype(np.int64), 0, M - 1)
        wl = posl - jl
        np.add.at(A2, (ctrl_rows, jl), wlo[ctrl_rows] * (1.0 - wl))
        np.add.at(A2, (ctrl_rows, jl + 1), wlo[ctrl_rows] * wl)

    # upper component at time T
    s1 = T + np.asarray(speeds.phi_eval(1, nodes), dtype=float) - T1
    z1 = (s1 < 0.0).astype(float)
    A1 = np.zeros((n + 1, M + 1))
    up = np.nonzero(s1 >= 0.0)[0]
    pos1 = np.clip(s1[up], 0.0, T) / hc
    j1 = np.clip(np.floor(pos1).astype(np.int64), 0, M - 1)
    w1 = pos1 - j1
    A1[up, j1] = 1.0 - w1
    A1[up, j1 + 1] = w1

    tw = np.full(n + 1, h)
    tw[0] = tw[-1] = 0.5 * h
    rw = np.sqrt(tw)
    A = np.vstack([A1 * rw[:, None], A2 * rw[:, None]])
    z = np.concatenate([z1 * rw, z2 * rw])
    sol, _, _, svals = np.linalg.lstsq(A, -z, rcond=None)
    residual = float(np.linalg.norm(A @ sol + z))
    free_norm = float(np.linalg.norm(z))
    cond = float(svals[0] / svals[-1]) if svals.size and svals[-1] > 0 else float("inf")
    return residual, free_norm, cond, M + 1


def verify_sharpness(cfg: ScenarioConfig, T: float, levels=None,
                     floor_rel: float = 0.05, drop_rel: float = 0.05,
                     margin_factor: float = 0.1) -> VerificationReport:
    """Reachability residual of the canonical system at time T.

    Below Tmin (by at least margin_factor*Tunif) the pass condition is a
    residual floor at every level; at or above Tmin it is a collapse below
    drop_rel on the finest level.  In the margin band the report is
    informational and passes by definition.
    """
    if cfg.system.q != 0.0:
        raise PreconditionError("sharpness check assumes the zero reflection q=0")
    t_start = time.perf_counter()
    tr = times_report(cfg.system, grid=cfg.grid)
    margin = margin_factor * tr.Tunif
    rows = []
    rel_free_all = []
    rel_init_all = []
    for nk in _levels(cfg.grid.n, levels):
        grid_k = Grid.uniform(nk)
        gauge, K = _synthesize(cfg, grid_k)
        g = trace_g(K, cfg.system.speeds)
        res, free_norm, cond, ncontrols = canonical_sharpness_residual(
            cfg.system.speeds, g, T, grid_k)
        # canonical initial data is (1, 0), unit L2 norm by construction
        rel_free = res / free_norm if free_norm > 0 else 0.0
        rows.append({"n": nk, "h": grid_k.h, "residual": float(res),
                     "residual_vs_free": float(rel_free),
                     "residual_vs_initial": float(res),
                     "free_norm": float(free_norm),
                     "condition": float(cond), "n_controls": ncontrols,
                     "kernel_residual": K.residual})
        rel_free_all.append(rel_free)
        rel_init_all.append(res)
    ratios = [rel_init_all[i + 1] / rel_init_all[i] if rel_init_all[i] > 0 else 0.0
              for i in range(len(rel_init_all) - 1)]
    if T <= tr.Tmin - margin:
        side = "floor"
        passed = all(r >= floor_rel for r in rel_free_all)
    elif T >= tr.Tmin:
        side = "drop"
        passed = rel_init_all[-1] <= drop_rel
    else:
        side = "margin"
        passed = True
    return VerificationReport(
        scenario_id=cfg.scenario_id, kind="sharpness", tmin=tr.Tmin,
        requested_time=T, rows=rows, ratios=ratios,
        thresholds={"floor_rel": floor_rel, "drop_rel": drop_rel,
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


def _theta_equation_lower(theta):
    return np.sqrt(1.0 - theta ** 2) + theta / np.tan(theta * np.pi)


def _theta_equation_upper(theta):
    return np.sqrt(1.0 + theta ** 2) + theta / np.tanh(theta * np.pi)


def _bisect_scalar(fun, target, lo, hi, iters=200):
    flo = fun(lo) - target
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fun(mid) - target
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = fm
    return 0.5 * (lo + hi)


def solve_counterexample_branch(k: float):
    """Eigenvalue sigma and profile parameter theta of the reflection system.

    Branches on k against 1 + 1/pi; the profile is sin(theta*pi*x), pi*x, or
    2*sinh(theta*pi*x) respectively, and sigma = pi*sqrt(1 -+ theta^2).
    """
    if abs(k - _K_CRITICAL) <= 1e-12:
        return 0.0, math.pi
    if k < _K_CRITICAL:
        thetas = np.linspace(1e-6, 1.0 - 1e-9, 4097)
        vals = _theta_equation_lower(thetas) - k
        sign_change = np.nonzero(vals[:-1] * vals[1:] <= 0.0)[0]
        if sign_change.size == 0:
            raise RootBracketError(
                f"branch k<1+1/pi: no root of sqrt(1-t^2)+t*cot(pi t)={k:.12g} "
                f"bracketed on ({thetas[0]:g}, {thetas[-1]:g})")
        i = int(sign_change[0])
        theta = _bisect_scalar(_theta_equation_lower, k, thetas[i], thetas[i + 1])
        return float(theta), math.pi * math.sqrt(1.0 - theta ** 2)
    hi = 1.0
    for _ in range(60):
        if _theta_equation_upper(hi) >= k:
            break
        hi *= 2.0
    else:
        raise RootBracketError(
            f"branch k>1+1/pi: sqrt(1+t^2)+t*coth(pi t)={k:.12g} not bracketed "
            f"on (1e-9, {hi:g})")
    theta = _bisect_scalar(_theta_equation_upper, k, 1e-9, hi)
    return float(theta), math.pi * math.sqrt(1.0 + theta ** 2)


def counterexample(k: float, n: int = 800, horizon: float = 2.5,
                   window=(0.5, 2.5), cfl: float = 0.9,
                   rel_tol: float = 0.05) -> CounterexampleResult:
    """Unstable eigenmode of the reflection-controlled constant-speed system.

    Builds the eigenfunction initial data for y1(t,1) = k*y2(t,1) with
    couplings b = c = pi, simulates it, and compares the measured exponential
    growth rate with the predicted eigenvalue sigma.
    """
    t_start = time.perf_counter()
    theta, sigma = solve_counterexample_branch(k)
    grid = Grid.uniform(n)
    xs = grid.nodes
    if abs(k - _K_CRITICAL) <= 1e-12:
        y20 = np.pi * xs
        dy20 = np.full_like(xs, np.pi)
    elif k < _K_CRITICAL:
        y20 = np.sin(theta * np.pi * xs)
        dy20 = theta * np.pi * np.cos(theta * np.pi * xs)
    else:
        y20 = 2.0 * np.sinh(theta * np.pi * xs)
        dy20 = 2.0 * theta * np.pi * np.cosh(theta * np.pi * xs)
    y10 = (sigma * y20 + dy20) / np.pi

    speeds = SpeedPair.build(CoefficientSpec.constant(-1.0),
                             CoefficientSpec.constant(1.0),
                             table_n=max(4096, 4 * n))
    pi_c = CoefficientSpec.constant(math.pi)
    zero = CoefficientSpec.constant(0.0)
    system = SystemSpec(speeds=speeds, a=zero, b=pi_c, c=pi_c, d=zero, q=0.0)
    sim = simulate(system, BoundaryReflection(k), (y10, y20), horizon, grid, cfl)
    rate = growth_rate(sim, window)
    rel_err = abs(rate - sigma) / abs(sigma)
    report = VerificationReport(
        scenario_id=f"counterexample_k={k:.12g}", kind="counterexample",
        tmin=float("nan"), requested_time=None,
        rows=[{"n": n, "rate": float(rate), "sigma": float(sigma),
               "theta": float(theta), "rel_err": float(rel_err)}],
        ratios=[], thresholds={"rate_rel_tol": rel_tol},
        passed=bool(rel_err <= rel_tol), runtime=time.perf_counter() - t_start)
    return CounterexampleResult(k=k, theta=theta, sigma=sigma,
                                y0=(y10, y20), report=report)
