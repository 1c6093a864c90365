"""Command-line interface.

Exit codes: 0 success or verification pass, 1 verification fail (or a
computation that could not produce a verdict), 2 usage or configuration
errors, or an output that could not be written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

# Every command's modules load with this one, not when the command runs:
# perfbench/run.py times set-up as this import plus load_config, and
# perfbench/traced_cli.py wraps names only in the hypmin modules loaded once
# hypmin.cli is imported, so a module imported later would lose its spans.
from .config import FEEDBACK, check_memory, load_config
from .errors import (CFLError, ConfigError, DivergenceError, DomainError,
                     GridMismatchError, InvalidSpeedsError, PreconditionError,
                     RootBracketError, UndefinedRateError)
from .harness import check_run_memory, counterexample, verify_settling, verify_sharpness
from .kernels import solve_gains, write_kernels_csv
from .mintime import times_report, titchmarsh_check
from .simulator import export_sim_csv, simulate
from .system import export_profile_csv

_USAGE_ERRORS = (ConfigError, PreconditionError, DomainError, CFLError,
                 InvalidSpeedsError, GridMismatchError)
_RUN_ERRORS = (DivergenceError, RootBracketError, UndefinedRateError, np.linalg.LinAlgError)


def _outdir(args, cfg) -> str:
    return args.out or os.path.join(cfg.output_dir, cfg.scenario_id)


def _write_json(outdir, name: str, data: dict, config=None) -> str:
    """Write data as indented JSON (numpy scalars as floats) to outdir/name,
    with where it came from: the SHA-256 of the bytes of the config file at
    path config, if given, and the NumPy version."""
    data = dict(data)
    if config is not None:
        import hashlib      # here, as OpenSSL adds 3.5 MB to every command it is loaded in

        with open(config, "rb") as fh:
            data["config_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    data["numpy_version"] = np.__version__
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, default=float)
        fh.write("\n")
    return path


def _cmd_mintime(args) -> int:
    cfg = load_config(args.config)
    tr = times_report(cfg.system, grid=cfg.grid)
    print(tr.pretty())
    if args.out:
        print(f"wrote {_write_json(args.out, 'times.json', tr.as_dict(), args.config)}")
    return 0


def _new_dirs(path) -> list:
    """The directories os.makedirs(path) creates, innermost first."""
    new = []
    path = os.path.abspath(path)
    while not os.path.exists(path):
        new.append(path)
        path = os.path.dirname(path)
    return new


def _cmd_kernels(args) -> int:
    cfg = load_config(args.config)
    outdir = _outdir(args, cfg)
    made = _new_dirs(outdir)
    path = os.path.join(outdir, "kernels.csv")
    # written under another name, so that a failed solve, or a memory refusal
    # before the file is opened, leaves no kernels.csv and no new directory
    part = path + ".part"
    try:
        os.makedirs(outdir, exist_ok=True)
        g, gains = write_kernels_csv(cfg.system, cfg.grid, part)
        os.replace(part, path)
    except BaseException:
        if os.path.exists(part):
            os.remove(part)
        for d in filter(os.path.isdir, made):   # makedirs may have failed partway
            os.rmdir(d)
        raise
    export_profile_csv(os.path.join(outdir, "g.csv"), cfg.grid.nodes, {"g": g})
    export_profile_csv(os.path.join(outdir, "gains.csv"), gains.nodes,
                       {"f1": gains.f1, "f2": gains.f2})
    print(f"wrote kernels.csv, g.csv, gains.csv to {outdir}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    feedback = cfg.control is FEEDBACK
    check_run_memory("simulate", cfg, cfg.grid.n, feedback, args.snapshots)
    control = solve_gains(cfg.system, cfg.grid) if feedback else cfg.control
    sim = simulate(cfg.system, control, cfg.initial(cfg.grid), cfg.horizon, cfg.grid, cfg.cfl,
                   snapshots=args.snapshots)
    outdir = _outdir(args, cfg)
    export_sim_csv(sim, outdir)
    print(f"simulated {cfg.scenario_id}: steps={len(sim.times) - 1} "
          f"dt={sim.scheme_meta['dt']:.12g}")
    print(f"final norms: l2={sim.l2_trace[-1]:.12g} linf={sim.linf_trace[-1]:.12g}")
    print(f"wrote CSV output to {outdir}")
    return 0


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    rep = verify_sharpness(cfg, args.T) if hasattr(args, "T") else verify_settling(cfg)
    print(rep.pretty())
    _write_json(_outdir(args, cfg), f"report_{rep.kind}.json", rep.as_flat_dict(),
                args.config)
    return 0 if rep.passed else 1


def _cmd_counterexample(args) -> int:
    res = counterexample(args.k, n=args.n)
    print(f"k={args.k:.12g} theta={res.theta:.12g} sigma={res.sigma:.12g}")
    print(res.report.pretty())
    if args.out:
        _write_json(args.out, "report_counterexample.json", res.report.as_flat_dict())
    return 0 if res.report.passed else 1


def _cmd_titchmarsh(args) -> int:
    if args.tau <= 0:
        raise ConfigError("tau must be positive")
    if args.n < 2:
        raise ConfigError(f"--n must be at least 2, got {args.n}")
    if args.tau / args.n < np.finfo(float).tiny:    # a subnormal cell loses the verdict
        raise ConfigError(f"--tau {args.tau:.12g} is too small for --n {args.n}: the cell "
                          "tau/n is below the smallest normal float")
    if not (0.0 <= args.prefix_a <= args.tau and 0.0 <= args.prefix_b <= args.tau):
        raise ConfigError("prefixes must lie in [0, tau]")
    if args.tol <= 0:
        raise ConfigError(f"--tol must be positive, got {args.tol:.12g}")
    # the samples, both indicators, the padded tails and spectra of the FFT
    # convolution and the temporaries of titchmarsh_check: 9.2 arrays of n+1
    # floats at once at n = 2e5, 11.1 at n = 2e4 with both prefixes 0
    check_memory(8.0 * 12 * (args.n + 1), f"--n {args.n}", ConfigError)
    ts = np.linspace(0.0, args.tau, args.n + 1)
    alpha = (ts > args.prefix_a).astype(float)
    beta = (ts > args.prefix_b).astype(float)
    rep = titchmarsh_check(alpha, beta, args.tau, tol=args.tol)
    for key, val in rep.as_dict().items():
        print(f"{key:<18} {val:.12g}" if isinstance(val, float) else f"{key:<18} {val}")
    return 0 if rep.consistent else 1


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line, like every other error, and
    reads a negative number in exponent form (--k -1e200) as a value."""

    def __init__(self, *args, **kwargs):
        import re       # loaded by argparse already

        super().__init__(*args, **kwargs)
        # argparse's own pattern, -1 or -1.5, takes "-1e200" for an option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def finite_float(text: str) -> float:
    """argparse type of every float flag (argparse reports the ValueError)."""
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(text)
    return val


def nonnegative_int(text: str) -> int:
    """argparse type of every integer flag."""
    val = int(text)
    if val < 0:
        raise ValueError(text)
    return val


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="hypmin",
        description="Minimal control time, backstepping synthesis, and "
                    "verification for 1-D 2x2 hyperbolic systems")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("mintime", help="print the times report of a scenario")
    sp.add_argument("config")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_mintime)

    sp = sub.add_parser("kernels", help="solve kernels and export CSVs")
    sp.add_argument("config")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_kernels)

    sp = sub.add_parser("simulate", help="run the scenario simulation")
    sp.add_argument("config")
    sp.add_argument("--out", default=None)
    sp.add_argument("--snapshots", type=nonnegative_int, default=20)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("verify-settling", help="closed-loop settling certificate")
    sp.add_argument("config")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("verify-sharpness", help="reachability residual at a time T")
    sp.add_argument("config")
    sp.add_argument("--T", type=finite_float, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("counterexample",
                        help="unstable eigenmode of the reflection feedback")
    sp.add_argument("--k", type=finite_float, required=True)
    sp.add_argument("--n", type=nonnegative_int, default=800)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_counterexample)

    sp = sub.add_parser("titchmarsh", help="convolution-support consistency check")
    sp.add_argument("--prefix-a", type=finite_float, required=True)
    sp.add_argument("--prefix-b", type=finite_float, required=True)
    sp.add_argument("--tau", type=finite_float, required=True)
    sp.add_argument("--n", type=nonnegative_int, default=1000)
    sp.add_argument("--tol", type=finite_float, default=1e-12)
    sp.set_defaults(func=_cmd_titchmarsh)
    return p


def run_guarded(fn, *args) -> int:
    """fn(*args)'s exit code, or 2 for a usage or configuration error or an
    output that could not be written and 1 for a computation that could not
    finish, reported on one stderr line."""
    try:
        return fn(*args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:      # a config that cannot be read is a ConfigError
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except _RUN_ERRORS as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


def run_cli(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return run_guarded(args.func, args)


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
