"""Scenario configs: the JSON schema, its validation, the initial data and
control records, each parsed once into what the commands use, and the
physical-memory check every command runs before it allocates."""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coeffs import CoefficientSpec, Grid
from .characteristics import SpeedPair
from .errors import ConfigError
from .system import BoundaryReflection, Control, SystemSpec

__all__ = ["ScenarioConfig", "FEEDBACK", "config_from_dict", "load_config", "check_memory"]

SCHEMA_VERSION = 1

# Largest grid_n: a fixed, machine-independent bound on what loading a config
# allocates, a speed table of 4*grid_n cells.  Each command checks the memory
# of its own kernel solve and simulation.
_GRID_N_MAX = 23169

# The control of a "feedback" record: the backstepping gains, which each
# command synthesizes on its own grid.
FEEDBACK = "feedback"


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario.  initial maps a grid to the initial data (y1, y2)
    on its nodes; control is simulate's control, or FEEDBACK."""

    scenario_id: str
    system: SystemSpec
    grid: Grid
    cfl: float
    horizon: float
    initial: Callable[[Grid], tuple]
    control: Control | str
    output_dir: str


# Each coefficient family: its numeric fields, each a number or a list of
# them, and its constructor from the record.
_FAMILIES = {
    "constant": (("value",), lambda d: CoefficientSpec.constant(d["value"])),
    "polynomial": (("coeffs",), lambda d: CoefficientSpec.polynomial(d["coeffs"])),
    "step": (("ell", "lo", "hi"), lambda d: CoefficientSpec.step(d["ell"], d["lo"], d["hi"])),
    "expbump": (("shift",), lambda d: CoefficientSpec.expbump(d.get("shift", 0.0))),
    "sampled": (("xs", "values"), lambda d: CoefficientSpec.sampled(d["xs"], d["values"])),
}


def _is_number(v) -> bool:
    """A JSON int or float: a bool or a string never counts as a number."""
    return isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))


def _coeff_from_dict(d, name: str) -> CoefficientSpec:
    if not isinstance(d, dict) or "family" not in d:
        raise ConfigError(f"coefficient '{name}' must be a tagged record with a family")
    fam = d["family"]
    if not isinstance(fam, str) or fam not in _FAMILIES:
        raise ConfigError(f"coefficient '{name}' has unknown family {fam!r}")
    fields, make = _FAMILIES[fam]
    for key in fields:
        got = d.get(key, [])
        for v in got if isinstance(got, list) else [got]:
            if not _is_number(v):
                raise ConfigError(f"coefficient '{name}' ({fam}): {key} must hold "
                                  f"numbers, got {v!r}")
    try:
        spec = make(d)
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
    check_memory(32.0 * m, f"random data with {m} nodes", ConfigError)
    return seed, m


def _initial_data(spec: dict, default_seed: int):
    """The initial data of its config record, a map from a grid to (y1, y2).

    Random data is checked by its fields only and drawn on each call:
    drawing it here would load numpy.random (about 6 MB) in commands that
    never use the data.
    """
    kind = spec.get("kind", "random")
    if kind == "zero":
        return lambda grid: (np.zeros(grid.n + 1), np.zeros(grid.n + 1))
    if kind == "random":
        seed, m = _random_fields(spec, default_seed)

        def draw(grid):     # piecewise linear on a few knots: rough but resolution-independent
            rng = np.random.default_rng(seed)
            knots = np.linspace(0.0, 1.0, m)
            y1 = np.interp(grid.nodes, knots, rng.uniform(-1.0, 1.0, m))
            return y1, np.interp(grid.nodes, knots, rng.uniform(-1.0, 1.0, m))
        return draw
    if kind in ("samples", "family"):
        specs = []
        for name in ("y1", "y2"):
            d = spec.get(name)
            if kind == "samples" and isinstance(d, dict):   # {xs, values}
                d = {**d, "family": "sampled"}
            specs.append(_coeff_from_dict(d, name))
        return lambda grid: tuple(np.asarray(f(grid.nodes), dtype=float) for f in specs)
    raise ConfigError(f"unknown initial_data kind {kind!r}")


def _control(spec: dict):
    """simulate's control of its config record, or FEEDBACK."""
    kind = spec.get("kind", "feedback")
    if kind == "feedback":
        return FEEDBACK
    if kind == "zero":
        return None
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


def _parse_record(raw: dict, key: str, default: str, parse, *args):
    """parse(record, *args) of the raw[key] record, {"kind": default} where
    absent, with key before the text of its ConfigError."""
    rec = _record(raw, key, {"kind": default})
    try:
        return parse(rec, *args)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not report it."""
    try:
        return float(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    except (AttributeError, ValueError, OSError):
        return math.inf


def check_memory(need: float, what: str, error) -> None:
    """Raise error unless an estimate of need bytes fits the physical memory."""
    have = _physical_memory()
    if need > have:
        raise error(f"{what} needs about {need / 1e9:.3g} GB, more than the "
                    f"{have / 1e9:.3g} GB of physical memory")


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
        initial=_parse_record(raw, "initial_data", "random", _initial_data, seed),
        control=_parse_record(raw, "control", "feedback", _control),
        output_dir=str(raw.get("output_dir", "out")),
    )


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:           # not UTF-8, not JSON, or an int of too many digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} is nested too deeply to read") from exc
    stem = os.path.splitext(os.path.basename(str(path)))[0]
    return config_from_dict(raw, scenario_id=stem)

