"""Scenario orchestration: config files, the two headline verifications, and
the static-output-feedback counterexample.

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
condition number of that reduced matrix.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import time
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientSpec, Grid
from .characteristics import SpeedPair
from .errors import (ConfigError, DivergenceError, DomainError, PreconditionError,
                     RootBracketError)
from .kernels import FeedbackLaw, solve_gains, solve_kernels_bytes, solve_trace
from .mintime import times_report
from .simulator import (_CANONICAL_ROWS, BoundaryReflection, SystemSpec, _max_speed,
                        _simulate_bytes, _trapezoid_weights, canonical_map, growth_rate,
                        l2_norm, simulate)

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
    "canonical_sharpness_bytes",
    "counterexample",
]

SCHEMA_VERSION = 1

# Largest grid_n: a fixed, machine-independent bound on what loading a config
# allocates, a speed table of 4*grid_n cells.  Each command checks the memory
# of its own kernel solve and simulation.
_GRID_N_MAX = 23169

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
        return _write_json(outdir, f"report_{self.kind}.json", self.as_flat_dict())


def _write_json(outdir, name: str, data: dict) -> str:
    """Write data as indented JSON (numpy scalars as floats) to outdir/name."""
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, default=float)
        fh.write("\n")
    return path


# The numeric fields of each coefficient family, each a number or a list of them.
_FIELDS = {"constant": ("value",), "polynomial": ("coeffs",), "step": ("ell", "lo", "hi"),
           "expbump": ("shift",), "sampled": ("xs", "values")}


def _is_number(v) -> bool:
    """A JSON int or float: a bool or a string never counts as a number."""
    return isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))


def _coeff_from_dict(d, name: str) -> CoefficientSpec:
    if not isinstance(d, dict) or "family" not in d:
        raise ConfigError(f"coefficient '{name}' must be a tagged record with a family")
    fam = d["family"]
    if not isinstance(fam, str) or fam not in _FIELDS:
        raise ConfigError(f"coefficient '{name}' has unknown family {fam!r}")
    for key in _FIELDS[fam]:
        got = d.get(key, [])
        for v in got if isinstance(got, list) else [got]:
            if not _is_number(v):
                raise ConfigError(f"coefficient '{name}' ({fam}): {key} must hold "
                                  f"numbers, got {v!r}")
    try:
        if fam == "constant":
            spec = CoefficientSpec.constant(d["value"])
        elif fam == "polynomial":
            spec = CoefficientSpec.polynomial(d["coeffs"])
        elif fam == "step":
            spec = CoefficientSpec.step(d["ell"], d["lo"], d["hi"])
        elif fam == "expbump":
            spec = CoefficientSpec.expbump(d.get("shift", 0.0))
        else:
            spec = CoefficientSpec.sampled(d["xs"], d["values"])
    except KeyError as exc:
        raise ConfigError(f"coefficient '{name}' ({fam}) is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"coefficient '{name}': {exc}") from exc
    vals = np.hstack([spec.params, *(() if spec.xs is None else (spec.xs, spec.values))])
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"coefficient '{name}' ({fam}) has a non-finite value")
    return spec


def _number(d: dict, key: str, convert=float, default=None):
    """d[key] (or default when absent) converted by convert: a finite number,
    never a bool or a string, and integral where convert is int; else
    ConfigError."""
    if key not in d:
        if default is None:
            raise ConfigError(f"config is missing required field '{key}'")
        return default
    val = d[key]
    try:
        finite = _is_number(val) and math.isfinite(val)
    except OverflowError:               # an int beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{key} must be a finite number, got {val!r}")
    if convert is int and val != math.floor(val):
        raise ConfigError(f"{key} must be an integer, got {val!r}")
    return convert(val)


def _record(d: dict, key: str, default: dict) -> dict:
    val = d.get(key, default)
    if not isinstance(val, dict):
        raise ConfigError(f"{key} must be an object, got {val!r}")
    return val


def _random_fields(spec: dict, default_seed: int) -> tuple:
    """Seed and knot count of random initial data."""
    seed, m = _number(spec, "seed", int, default_seed), _number(spec, "nodes", int, 16)
    if seed < 0 or m < 1:
        raise ConfigError("random data needs seed >= 0 and nodes >= 1")
    # the knots and two draws of m values, with room for the generator's own
    _check_memory(32.0 * m, f"random data with {m} nodes", ConfigError)
    return seed, m


def _kind_record(raw: dict, key: str, seed: int) -> dict:
    """The initial_data or control record, checked by building it.

    Random data is checked by its fields only: drawing it would load
    numpy.random (about 6 MB) in commands that never use the data.
    """
    default = "random" if key == "initial_data" else "feedback"
    rec = _record(raw, key, {"kind": default})
    kind = rec.get("kind", default)
    try:
        if key == "initial_data" and kind == "random":
            _random_fields(rec, seed)
        elif key == "initial_data":
            make_initial_data(rec, Grid.uniform(1), seed)
        elif kind != "feedback":
            make_control(rec)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return rec


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not report it."""
    try:
        return float(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    except (AttributeError, ValueError, OSError):
        return math.inf


def _check_memory(need: float, what: str, error) -> None:
    """Raise error unless an estimate of need bytes fits the physical memory."""
    have = _physical_memory()
    if need > have:
        raise error(f"{what} needs about {need / 1e9:.3g} GB, more than the "
                    f"{have / 1e9:.3g} GB of physical memory")


def _check_run_memory(command: str, cfg: ScenarioConfig, n: int, gains: bool,
                      snapshots: int) -> None:
    """Refuse cfg's gains solve (where gains) and simulation on an n-cell grid
    keeping snapshots states, where they would not fit the physical memory."""
    need = _simulate_bytes(_max_speed(cfg.system.speeds, Grid.uniform(n).nodes), n,
                           cfg.horizon, cfg.cfl, snapshots)
    if gains:
        need += solve_kernels_bytes(cfg.system, n, 0)
    _check_memory(need, f"{command} at n={n}: {'the gains solve, ' * gains}{snapshots} snapshots"
                  f" and the time steps to horizon {cfg.horizon:.12g}", PreconditionError)


def config_from_dict(raw: dict, scenario_id: str = "scenario") -> ScenarioConfig:
    """Validated scenario config from its parsed JSON record.

    Every malformed, missing or non-finite value raises ConfigError before
    any computation, as do a grid_n above _GRID_N_MAX and random data too
    large for the physical memory; each command checks the memory of its own
    solve and simulation.  The schema-v1 keys kernel_tol and kernel_max_iter
    are accepted and ignored: the kernel solve takes one pass and has no
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
    if grid_n > _GRID_N_MAX:
        raise ConfigError(f"grid_n must be at most {_GRID_N_MAX}, got {grid_n}")
    table_n = max(4096, 4 * grid_n)
    lam1 = _coeff_from_dict(sys_d.get("lambda1"), "lambda1")
    lam2 = _coeff_from_dict(sys_d.get("lambda2"), "lambda2")
    coeffs = {}
    for name in ("a", "b", "c", "d"):
        coeffs[name] = _coeff_from_dict(sys_d.get(name, {"family": "constant", "value": 0.0}),
                                        name)
    try:
        speeds = SpeedPair.build(lam1, lam2, table_n=table_n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    system = SystemSpec(speeds=speeds, a=coeffs["a"], b=coeffs["b"],
                        c=coeffs["c"], d=coeffs["d"], q=_number(sys_d, "q", float, 0.0))
    cfl = _number(raw, "cfl", float, 0.9)
    if not 0.0 < cfl <= 1.0:
        raise ConfigError(f"cfl must lie in (0,1], got {cfl}")
    seed = _number(raw, "seed", int, 42)
    return ScenarioConfig(
        scenario_id=str(raw.get("scenario_id", scenario_id)),
        system=system,
        grid=Grid.uniform(grid_n),
        cfl=cfl,
        horizon=horizon,
        initial=_kind_record(raw, "initial_data", seed),
        control=_kind_record(raw, "control", seed),
        seed=seed,
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
        seed, m = _random_fields(spec, default_seed)
        rng = np.random.default_rng(seed)
        knots = np.linspace(0.0, 1.0, m)
        y1 = np.interp(xs, knots, rng.uniform(-1.0, 1.0, m))
        y2 = np.interp(xs, knots, rng.uniform(-1.0, 1.0, m))
        return y1, y2
    if kind in ("samples", "family"):
        out = []
        for name in ("y1", "y2"):
            d = spec.get(name)
            if kind == "samples" and isinstance(d, dict):   # {xs, values}
                d = {**d, "family": "sampled"}
            out.append(np.asarray(_coeff_from_dict(d, name)(xs), dtype=float))
        return tuple(out)
    raise ConfigError(f"unknown initial_data kind {kind!r}")


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
        return BoundaryReflection(_number(spec, "k"))
    if kind == "polynomial":
        poly = _coeff_from_dict({**spec, "family": "polynomial"}, "u")
        return lambda t: float(poly(t))
    if kind == "samples":
        raw = [spec.get("ts"), spec.get("values")]
        if not all(isinstance(r, list) and all(map(_is_number, r)) for r in raw):
            raise ConfigError("samples control needs lists of numbers ts and values")
        try:
            ts, vals = (np.asarray(r, dtype=float) for r in raw)
        except OverflowError as exc:
            raise ConfigError(f"samples control: {exc}") from exc
        if not (0 < ts.size == vals.size and np.isfinite(ts).all() and np.isfinite(vals).all()):
            raise ConfigError("samples control needs finite ts and values of one equal length")
        return lambda t: float(np.interp(t, ts, vals))
    raise ConfigError(f"unknown control kind {kind!r}")


def _levels(base_n: int, levels) -> list:
    # n/2, n and 2n: grid_n >= 8 keeps n/2 at the kernel solve's minimum 4
    if levels is not None:
        return [int(n) for n in levels]
    return [base_n // 2, base_n, 2 * base_n]


def verify_settling(cfg: ScenarioConfig, levels=None) -> VerificationReport:
    """Closed-loop settling certificate at the configured horizon.

    Solves the kernels, builds the feedback, and simulates from the configured
    initial data on (at least) three refinement levels.  Passes when each
    refinement shrinks the final relative L2 residual by a ratio of at most
    _RATIO_MAX and the finest residual is at most _RESIDUAL_MAX; the report
    records both as thresholds.  Requires horizon >= Tmin.
    """
    levels = _levels(cfg.grid.n, levels)
    _check_run_memory("verify-settling", cfg, max(levels), True, 0)
    t_start = time.perf_counter()
    tr = times_report(cfg.system, grid=cfg.grid)
    if cfg.horizon < tr.Tmin - 1e-12:
        raise PreconditionError(
            f"settling horizon {cfg.horizon:.12g} is below Tmin {tr.Tmin:.12g}")
    rows = []
    residuals = []
    for nk in levels:
        grid_k = Grid.uniform(nk)
        law = solve_gains(cfg.system, grid_k)
        y0 = make_initial_data(cfg.initial, grid_k, cfg.seed)
        with np.errstate(over="ignore"):     # an overflow: simulate raises at step 1
            norm0 = l2_norm(y0[0], y0[1], grid_k.h)
        if norm0 <= 0.0:
            raise PreconditionError("settling verification needs nonzero initial data")
        sim = simulate(cfg.system, law, y0, cfg.horizon, grid_k, cfg.cfl, snapshots=0)
        res_abs = sim.l2_trace[-1]
        res_rel = res_abs / norm0
        rows.append({"n": nk, "h": grid_k.h, "residual_rel": float(res_rel),
                     "residual_abs": float(res_abs), "y0_norm": float(norm0)})
        residuals.append(res_rel)
        del law, y0, sim                 # free this level before the next one
    ratios = [residuals[i + 1] / residuals[i] if residuals[i] > 0 else 0.0
              for i in range(len(residuals) - 1)]
    passed = residuals[-1] <= _RESIDUAL_MAX and all(r <= _RATIO_MAX for r in ratios)
    return VerificationReport(
        scenario_id=cfg.scenario_id, kind="settling", tmin=tr.Tmin,
        requested_time=cfg.horizon, rows=rows, ratios=ratios,
        thresholds={"residual_rel_finest": _RESIDUAL_MAX, "ratio_max": _RATIO_MAX},
        passed=bool(passed), runtime=time.perf_counter() - t_start)


def _orthogonal_rest(U: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Rows whose norms measure W minus its projection onto the span of U.

    Every row of U has its nonzeros in two adjacent columns.  Givens
    rotations reduce [U | W] row by row to [R | RW; 0 | rest] with R upper
    bidiagonal (the Cholesky factor of the tridiagonal U^T U, without
    forming U^T U); ||rest @ c|| = ||(I - P_U) W @ c|| for every c.  Rows
    that come in the order of their columns, as the trace rows do, take at
    most two rotations each.  An entry that would become a diagonal of R
    below the default cutoff of lstsq, eps * max(U.shape) times the largest
    entry of U, is rounding: it is dropped, so that a column in the span of
    the ones before it drops out as it does from the minimum-norm least
    squares.
    """
    p = U.shape[1]
    if p == 0:
        return W
    first = (U != 0).argmax(axis=1)
    rows = np.arange(U.shape[0])
    lead = U[rows, first]
    second = np.where(first + 1 < p, U[rows, np.minimum(first + 1, p - 1)], 0.0)
    tiny = np.finfo(float).eps * max(U.shape) * max(U.max(), -U.min())
    diag, sup = np.zeros(p), np.zeros(p)
    RW = np.zeros((p, W.shape[1]))
    have = np.zeros(p, dtype=bool)
    rest = []
    for i in range(U.shape[0]):
        col, a, b, w = int(first[i]), float(lead[i]), float(second[i]), W[i]
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
    trace, whose columns are the free response and the hat controls.
    Returns (residual, free_norm, condition, n_controls).

    The operator has a block structure.  An upper row is the trace at
    s = T + phi1(x): two adjacent hats on [T - T1, T], or the free response
    where s < T1.  A lower row is the quadrature over [0, T], so it touches
    only the hats on [0, T - T1]; the two blocks share at most 2 hats.  The
    hats only upper rows touch are eliminated exactly by _orthogonal_rest,
    and a thin QR compresses what is left of the upper rows (the shared hats
    and the free response) to at most 3 rows.  One least-squares solve on
    those rows and the n+1 lower rows, over the hats the lower rows touch,
    gives the residual; it is the residual of the whole 2(n+1)-row system to
    rounding.  condition is the 2-norm condition number of the reduced
    matrix over the singular values that lstsq keeps (those above its cutoff
    eps * max(shape) times the largest), so it is below 1 / (eps * max(shape))
    and always finite; it is 1.0 when elimination leaves no hat, as on the
    floor side whenever T < T1.  A free norm or residual that overflows
    raises DomainError.
    """
    n, h, T1 = grid.n, grid.h, speeds.T1
    M = max(1, round(T / h))
    hc = T / M

    def trace(s):
        # column 0: free response of (1, 0); then the hat controls at x=0.
        # Column-major, so that column 0 does not touch a page of every row:
        # rows before T1 are otherwise zero and stay off the resident set.
        tau = np.zeros((s.shape[0], M + 2), order="F")
        tau[:, 0] = s < T1
        late = np.nonzero(s >= T1)[0]
        pos = np.minimum(s[late] - T1, T) / hc   # phi1(1) may round above T1
        j = np.clip(np.floor(pos).astype(np.int64), 0, M - 1)
        w = pos - j
        tau[late, j + 1] = 1.0 - w
        tau[late, j + 2] = w
        return tau

    # a trace g too large for the map overflows it: one DomainError, no warnings
    with np.errstate(over="ignore", invalid="ignore"):
        Az = canonical_map(speeds, g, 0.0, T, grid.nodes, trace)
        rw = np.sqrt(_trapezoid_weights(n, h)[0])
        Az *= np.concatenate([rw, rw])[:, None]
        z, A = Az[:, 0], Az[:, 1:]
        free_norm = float(np.linalg.norm(z))
        if not math.isfinite(free_norm):
            raise _sharpness_overflow(T)
        upper, lower = A[:n + 1], A[n + 1:]
        # hats [0, s0) only in lower rows, [s0, cl) shared, [cl, M] only in upper
        lo_hats = np.flatnonzero(lower.any(axis=0))
        cl = int(lo_hats[-1]) + 1 if lo_hats.size else 0
        s0 = min(cl, int(np.argmax(upper.any(axis=0))))
        W = np.column_stack([upper[:, s0:cl], z[:n + 1]])
        R = np.linalg.qr(_orthogonal_rest(upper[:, cl:], W), mode="r")
        rhs = np.concatenate([R[:, -1], z[n + 1:]])
        if cl == 0:
            residual, condition = float(np.linalg.norm(rhs)), 1.0
        else:
            red = np.zeros((rhs.shape[0], cl))
            red[:R.shape[0], s0:] = R[:, :-1]
            red[R.shape[0]:] = lower[:, :cl]
            sol, _, rank, svals = np.linalg.lstsq(red, -rhs, rcond=None)
            residual = float(np.linalg.norm(red @ sol + rhs))
            condition = float(svals[0] / svals[rank - 1])
    if not math.isfinite(residual):
        raise _sharpness_overflow(T)
    return residual, free_norm, condition, M + 1


def _sharpness_overflow(T: float) -> DomainError:
    return DomainError(f"sharpness residual at T={T:.12g} overflows: the trace g, driven "
                       "by the coupling c, is too large for the canonical map")


def canonical_sharpness_bytes(speeds: SpeedPair, T: float, grid: Grid) -> float:
    """Upper bound on the bytes canonical_sharpness_residual holds at once.

    The trace matrix has (K+1) x (M+2) entries (K quadrature cells, M+1 hat
    controls); the canonical map has 2(n+1) rows over them, and the reduced
    least-squares matrix and its copy in lstsq at most n+4 rows each; each
    row block of the quadrature holds a few _CANONICAL_ROWS x (K+1) arrays;
    gelsd's workspace grows like its smaller dimension; the travel-time
    inverses hold temporaries of the speed table.  A float, so that no T
    overflows it.
    """
    n = grid.n
    rows = 2.0 * (n + 1)
    cells = T * _max_speed(speeds, grid.nodes) * n + 3.0     # >= K + 1
    cols = T * n + 3.0                                         # >= M + 2
    return 8.0 * (cells * cols + 3.0 * rows * cols + 8.0 * _CANONICAL_ROWS * (cells + cols)
                  + 200.0 * min(rows, cols) + 4.0 * speeds.table_nodes.size)


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
    _check_memory(solve_kernels_bytes(cfg.system, finest.n, 1)
                  + canonical_sharpness_bytes(cfg.system.speeds, T, finest),
                  f"sharpness at T={T:.12g} on n={finest.n}", PreconditionError)
    t_start = time.perf_counter()
    tr = times_report(cfg.system, grid=cfg.grid)
    margin = _MARGIN_FACTOR * tr.Tunif
    rows = []
    rel_free_all = []
    rel_init_all = []
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
        rel_free_all.append(rel_free)
        rel_init_all.append(res)
    ratios = [rel_init_all[i + 1] / rel_init_all[i] if rel_init_all[i] > 0 else 0.0
              for i in range(len(rel_init_all) - 1)]
    if T <= tr.Tmin - margin:
        side = "floor"
        passed = all(r >= _FLOOR_REL for r in rel_free_all)
    elif T >= tr.Tmin:
        side = "drop"
        passed = rel_init_all[-1] <= _DROP_REL
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
        signs = np.sign(_theta_equation_lower(thetas) - k)   # a product could overflow
        sign_change = np.nonzero(signs[:-1] * signs[1:] <= 0.0)[0]
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


def counterexample(k: float, n: int = 800) -> CounterexampleResult:
    """Unstable eigenmode of the reflection-controlled constant-speed system.

    Builds the eigenfunction initial data for y1(t,1) = k*y2(t,1) with
    couplings b = c = pi, simulates it up to _CX_HORIZON, and compares the
    growth rate measured over _CX_WINDOW with the predicted eigenvalue sigma,
    passing within a relative error of _CX_RATE_REL_TOL.
    """
    t_start = time.perf_counter()
    theta, sigma = solve_counterexample_branch(k)
    table_n = max(4096, 4 * n)
    # speeds -1 and 1: the step traces, the dozen speed-table arrays that
    # SpeedPair.build holds at once and a few dozen arrays of n+1 nodes,
    # estimated before any of them is allocated
    _check_memory(_simulate_bytes(1.0, n, _CX_HORIZON, _CX_CFL, 0)
                  + 8.0 * (12 * (table_n + 1) + 32 * (n + 1)),
                  f"counterexample at n={n}", PreconditionError)
    grid = Grid.uniform(n)
    xs = grid.nodes
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
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
