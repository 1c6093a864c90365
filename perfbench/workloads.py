"""Seeded scenario generator and closed-form oracle for the hypmin benchmark.

Every workload draws its cases from one seed.  A case is a generated scenario
config plus the CLI commands run on it and the outcome each command must
produce.  The expected outcome comes from the closed-form travel times of the
two coefficient families below, never from the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# Speed families with closed-form travel times phi_i(x) = int_0^x 1/|lambda_i|.
FAMILIES = {
    # lambda = -1, +1 with a, b, d active: b != 0 couples the kernel pairs.
    "coupled": {
        "system": {
            "lambda1": {"family": "constant", "value": -1.0},
            "lambda2": {"family": "constant", "value": 1.0},
            "a": {"family": "constant", "value": 0.5},
            "b": {"family": "constant", "value": 1.0},
            "d": {"family": "constant", "value": -0.3},
            "q": 0.0,
        },
        "phi1": lambda x: x,
        "phi2": lambda x: x,
        "max_speed": 1.0,
    },
    # lambda1 = -(1 + x/2), lambda2 = 1 + x, b = 0.
    "varying": {
        "system": {
            "lambda1": {"family": "polynomial", "coeffs": [-1.0, -0.5]},
            "lambda2": {"family": "polynomial", "coeffs": [1.0, 1.0]},
            "a": {"family": "constant", "value": 0.0},
            "b": {"family": "constant", "value": 0.0},
            "d": {"family": "constant", "value": 0.0},
        },
        "phi1": lambda x: 2.0 * math.log1p(0.5 * x),
        "phi2": lambda x: math.log1p(x),
        "max_speed": 2.0,
    },
}

CFL = 0.9

# kind: which commands a case runs.  case_s: nominal wall seconds of one case
# on the reference machine (2 cores, OpenBLAS with 2 threads); the number of
# cases in a run is the run length divided by it, so every run of a workload
# does the same amount of work whatever the speed of the program.
WORKLOADS = {
    "settle_coupled": {"family": "coupled", "grid_n": 400, "kind": "settle", "case_s": 3.5},
    "settle_varying": {"family": "varying", "grid_n": 800, "kind": "settle", "case_s": 4.4},
    "sharpness_sweep": {"family": "varying", "grid_n": 400, "kind": "sharpness", "case_s": 5.2},
    "export_varying": {"family": "varying", "grid_n": 800, "kind": "export", "case_s": 3.8},
}


@dataclass(frozen=True)
class Oracle:
    T1: float
    T2: float
    Tunif: float
    xbar: float
    Xc: float
    Tmin: float


def _bisect(fun, target: float, lo: float, hi: float, iters: int = 200) -> float:
    """Root of an increasing scalar function on [lo, hi]."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fun(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle(family: str, ell: float, grid_n: int) -> Oracle:
    """Tmin = max(T1, T2, psi(1) - psi(Xc)) from the closed-form phi_i.

    Xc is the vanishing prefix of the step c measured the way the CLI measures
    it on its grid_n grid over (0, xbar): the last node before ell, or xbar
    when no node where c != 0 lies below xbar.
    """
    fam = FAMILIES[family]
    phi1, phi2 = fam["phi1"], fam["phi2"]

    def psi(x):
        return phi1(x) + phi2(x)

    T1, T2 = phi1(1.0), phi2(1.0)
    xbar = _bisect(psi, T2, 0.0, 1.0)
    first_bad = math.floor(ell * grid_n) + 1       # first node with x > ell
    Xc = (first_bad - 1) / grid_n if first_bad / grid_n < xbar else xbar
    Tmin = max(T1, T2, psi(1.0) - psi(Xc))
    return Oracle(T1=T1, T2=T2, Tunif=T1 + T2, xbar=xbar, Xc=Xc, Tmin=Tmin)


def round_up_6(t: float) -> float:
    """Round up at the 1e-6 place, clear of the CLI's own Tmin (agrees to ~5e-9)."""
    return math.ceil((t + 1e-8) * 1e6) / 1e6


def sim_steps(T: float, grid_n: int, max_speed: float) -> int:
    """Step count of the upwind scheme at horizon T (the CLI's CFL rule)."""
    dt = CFL * (1.0 / grid_n) / max_speed
    return max(1, math.ceil(T / dt - 1e-12))


@dataclass
class Command:
    argv: list            # CLI arguments after `hypmin`
    expect_exit: int
    check: str            # settle | sharpness | kernels_csv | timeseries_csv
    out: str              # --out directory
    expect: dict = field(default_factory=dict)
    op: int = 0           # commands of a case with the same op form one operation


@dataclass
class Case:
    index: int
    ell: float
    config_path: str
    config_sha256: str
    oracle: Oracle
    commands: list


def make_cases(workload: str, seed: int, n_cases: int, workdir: str) -> list:
    """Generate n_cases configs under workdir and the commands run on each.

    The step location ell of c is drawn at a cell midpoint of the grid_n grid
    in (0, 0.5), one case per equal-width stratum of that range, so that every
    run sees the same spread of Tmin.  Initial-data seeds are random.
    """
    spec = WORKLOADS[workload]
    fam = FAMILIES[spec["family"]]
    n = spec["grid_n"]
    rng = np.random.default_rng(seed)
    half = n // 2                                   # cells j with (j + 0.5)/n < 0.5
    cases = []
    for k in range(n_cases):
        lo = k * half // n_cases
        j = int(rng.integers(lo, max(lo + 1, (k + 1) * half // n_cases)))
        ell = (j + 0.5) / n
        orc = oracle(spec["family"], ell, n)
        horizon = round_up_6(orc.Tmin)
        system = json.loads(json.dumps(fam["system"]))
        system["c"] = {"family": "step", "ell": ell, "lo": 0.0, "hi": 1.0}
        data_seed = int(rng.integers(0, 2**31 - 1))
        cfg = {
            "schema_version": 1,
            "scenario_id": f"{workload}_{k}",
            "system": system,
            "grid_n": n,
            "cfl": CFL,
            "horizon": horizon,
            "initial_data": {"kind": "random", "seed": data_seed, "nodes": 16},
            "control": {"kind": "feedback"},
        }
        text = json.dumps(cfg, indent=2, sort_keys=True) + "\n"
        path = os.path.join(workdir, f"case{k}.json")
        with open(path, "w") as fh:
            fh.write(text)
        out = os.path.join(workdir, f"out{k}")
        cmds = _commands(spec, orc, path, out, horizon, fam["max_speed"])
        cases.append(Case(index=k, ell=ell, config_path=path,
                          config_sha256=hashlib.sha256(text.encode()).hexdigest(),
                          oracle=orc, commands=cmds))
    order = rng.permutation(n_cases)
    return [cases[i] for i in order]


def _commands(spec: dict, orc: Oracle, path: str, out: str, horizon: float,
              max_speed: float) -> list:
    n = spec["grid_n"]
    kind = spec["kind"]
    if kind == "settle":
        return [Command(["verify-settling", path, "--out", out], 0, "settle", out,
                        {"tmin": orc.Tmin})]
    if kind == "sharpness":
        times = {
            "floor": orc.Tmin - 0.2 * orc.Tunif,     # below Tmin - 0.1*Tunif
            "drop": round_up_6(orc.Tmin),            # at Tmin
        }
        times["above"] = round_up_6(orc.Tmin + 0.1 * orc.Tunif)
        cmds = []
        for op, (label, T) in enumerate(times.items()):
            side = "floor" if label == "floor" else "drop"
            d = f"{out}_{label}"
            cmds.append(Command(["verify-sharpness", path, "--T", repr(T), "--out", d],
                                0, "sharpness", d, {"tmin": orc.Tmin, "side": side}, op))
        return cmds
    if kind == "export":
        # one operation: export a scenario's kernels and its simulation
        dk, ds = f"{out}_kernels", f"{out}_simulate"
        return [
            Command(["kernels", path, "--out", dk], 0, "kernels_csv", dk,
                    {"rows": (n + 1) * (n + 2) // 2}),
            Command(["simulate", path, "--out", ds], 0, "timeseries_csv", ds,
                    {"rows": sim_steps(horizon, n, max_speed) + 1}),
        ]
    raise ValueError(kind)
