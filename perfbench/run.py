"""hypmin benchmark: CLI verdict latency on seeded workloads, plus a layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the directory holding ``src/hypmin``).
Each CLI command runs as its own child process, ``python -m hypmin.cli``, with
``PYTHONPATH`` pointing at that tree.  Every verdict and export is checked
against the closed-form oracle in ``workloads.py``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
(from ``traced_cli.py``) with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, make_cases

HERE = Path(__file__).resolve().parent
TREE = HERE.parent
SETUP_REPEATS = 7
COMMAND_TIMEOUT_S = 120.0
TMIN_TOL = 1e-7

# A fresh interpreter pays this before any CLI command does work.
SETUP_PROBE = ("import sys, hypmin.cli; hypmin.cli.load_config(sys.argv[1]); "
               "print(hypmin.__file__)")

ENV_PROBE = r"""
import ctypes, glob, json, os, platform, numpy as np
blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
threads = None
libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
for lib in glob.glob(os.path.join(libdir, "*openblas*")):
    so = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(so, sym):
            threads = getattr(so, sym)()
            break
print(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version"),
                  "blas_threads": threads}))
"""


@dataclass
class Child:
    """Outcome of one child process: wall time, peak RSS, exit code, output."""

    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    stderr: str
    timed_out: bool


def spawn(argv, env, workdir, timeout=COMMAND_TIMEOUT_S) -> Child:
    """Run argv to completion; time it from spawn to exit and read its rusage."""
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env, cwd=workdir)
        fired = threading.Event()

        def kill():
            fired.set()
            proc.kill()

        killer = threading.Timer(timeout, kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = fired.is_set()
    with open(out_path, errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, errors="replace") as fh:
        stderr = fh.read()
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr, timed_out)


def count_data_rows(path: str) -> int:
    with open(path, "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    return lines - 1


def read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def check(cmd, child: Child) -> dict:
    """Apply the oracle checks to one command.

    ``failed`` marks a command that did not deliver the expected result (wrong
    verdict, usage error, traceback, wrong Tmin, side or row count).
    ``incorrect`` marks the subset whose output is wrong or missing, as
    opposed to a verification verdict of FAIL where PASS was expected.
    """
    reasons = []
    incorrect = False
    info = {}
    if child.timed_out:
        reasons.append("timeout")
        incorrect = True
    if child.exit_code == 2 or "Traceback (most recent call last)" in child.stderr:
        reasons.append(f"exit {child.exit_code} / traceback")
        incorrect = True
    if child.exit_code != cmd.expect_exit:
        reasons.append(f"exit {child.exit_code} != expected {cmd.expect_exit}")
    if cmd.check in ("settle", "sharpness"):
        kind = "settling" if cmd.check == "settle" else "sharpness"
        rep = read_json(os.path.join(cmd.out, f"report_{kind}.json"))
        if rep is None:
            reasons.append("no report")
            incorrect = True
        else:
            tmin = rep.get("tmin", float("nan"))
            if not abs(tmin - cmd.expect["tmin"]) <= TMIN_TOL:
                reasons.append(f"tmin {tmin!r} != oracle {cmd.expect['tmin']!r}")
                incorrect = True
            levels = sorted(int(k[5:-13]) for k in rep if k.startswith("level")
                            and k.endswith("_residual_rel"))
            if levels:
                info["residual_rel"] = rep[f"level{levels[-1]}_residual_rel"]
            info["ratios"] = [rep[k] for k in sorted(rep) if k.startswith("ratio_")]
            if cmd.check == "sharpness":
                side = rep.get("notes", "").removeprefix("side=")
                if side != cmd.expect["side"]:
                    reasons.append(f"side {side!r} != {cmd.expect['side']!r}")
                    incorrect = True
    else:
        name = "kernels.csv" if cmd.check == "kernels_csv" else "timeseries.csv"
        path = os.path.join(cmd.out, name)
        rows = count_data_rows(path) if os.path.isfile(path) else -1
        if rows != cmd.expect["rows"]:
            reasons.append(f"{name} rows {rows} != {cmd.expect['rows']}")
            incorrect = True
    return {"failed": bool(reasons), "incorrect": incorrect, "reasons": reasons, **info}


def git_commit(tree: Path) -> str:
    head = tree / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (tree / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def median(values, default=0.0):
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else default


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    src = TREE / "src"
    if not (src / "hypmin" / "cli.py").is_file():
        print(f"error: no hypmin source tree at {src}", file=sys.stderr)
        return 2
    workroot = TREE / ".bench_work"
    workroot.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot)
    try:
        return run(args, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass


def run(args, src: Path, workdir: str) -> int:
    spec = WORKLOADS[args.workload]
    per_case = spec["case_s"] * (2 if args.trace else 1)
    n_cases = max(1 if args.trace else 2, round(args.seconds / per_case))
    cases = make_cases(args.workload, args.seed, n_cases, workdir)
    env = dict(os.environ, PYTHONPATH=str(src))
    py = sys.executable

    # set-up: fresh interpreter, import, load the workload's config
    setup = []
    for _ in range(SETUP_REPEATS):
        child = spawn([py, "-c", SETUP_PROBE, cases[0].config_path], env, workdir)
        if child.exit_code != 0:
            print(f"error: set-up probe failed:\n{child.stderr}", file=sys.stderr)
            return 1
        hyp_file = Path(child.stdout.strip().splitlines()[-1]).resolve()
        if src.resolve() not in hyp_file.parents:
            print(f"error: child imported {hyp_file}, not the tree under test {src}",
                  file=sys.stderr)
            return 1
        setup.append(child.wall_s)
    setup_s = median(setup)

    env_child = spawn([py, "-c", ENV_PROBE], env, workdir)
    env_block = json.loads(env_child.stdout) if env_child.exit_code == 0 else {}
    env_block.update({
        "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(TREE),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cases": n_cases, "hypmin": str(hyp_file),
        "configs_sha256": {Path(c.config_path).name: c.config_sha256 for c in cases},
    })
    print("env " + json.dumps(env_block, sort_keys=True))

    records = []
    for case in cases:
        for ci, cmd in enumerate(case.commands):
            cid = f"case{case.index}.{ci}"
            child = spawn([py, "-m", "hypmin.cli", *cmd.argv], env, workdir)
            verdict = check(cmd, child)
            rec = {"id": cid, "case": case, "cmd": cmd, "child": child, **verdict}
            shutil.rmtree(cmd.out, ignore_errors=True)
            if args.trace:
                spans_path = os.path.join(workdir, f"{cid}.spans.json")
                traced = spawn([py, str(HERE / "traced_cli.py"), spans_path, cid, "--",
                                *cmd.argv], env, workdir)
                tverdict = check(cmd, traced)
                shutil.rmtree(cmd.out, ignore_errors=True)
                spans = read_json(spans_path)
                rec["trace"] = spans or {"spans": []}
                rec["traced_wall_s"] = traced.wall_s
                # tracing must not change what the command does
                if spans is None or tverdict["failed"] != verdict["failed"]:
                    rec["incorrect"] = True
                    rec["reasons"] = rec["reasons"] + ["traced run differs or left no spans"]
            records.append(rec)
            status = "FAIL " + "; ".join(rec["reasons"]) if rec["failed"] else "ok"
            print(f"cmd {cid} ell={case.ell:.6g} {cmd.argv[0]} "
                  f"wall={child.wall_s:.4f}s rss={child.rss_mb:.1f}MB "
                  f"exit={child.exit_code} {status}")

    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    correct = not any(r["incorrect"] for r in records)
    report_failures(records)
    print(f"failed_op_ratio {failed / attempted:.6g} ({failed}/{attempted})")

    if args.trace:
        metrics = layer_metrics(records, setup_s, failed / attempted)
    else:
        walls = [r["child"].wall_s for r in records]
        ops = {}
        for r in records:
            key = (r["case"].index, r["cmd"].op)
            ops[key] = ops.get(key, 0.0) + r["child"].wall_s
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_s": {"value": median(ops.values()), "unit": "s"},
            "batch_s": {"value": sum(walls), "unit": "s"},
            "peak_rss_mb": {"value": max(r["child"].rss_mb for r in records), "unit": "MB"},
        }
        print(f"samples: {len(ops)} operations, {len(walls)} commands, "
              f"{len(setup)} set-ups")
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def report_failures(records) -> None:
    for r in records:
        if r["failed"]:
            print(f"failed {r['id']}: ell={r['case'].ell!r} Tmin={r['case'].oracle.Tmin:.9g} "
                  f"ratios={r.get('ratios')} residual_rel={r.get('residual_rel')} "
                  f"reasons={r['reasons']}")


LAYERS = ("cli", "harness", "mintime", "kernels", "simulator", "transforms",
          "characteristics", "coeffs")


def command_layers(trace: dict) -> dict:
    """Per-command layer numbers from one command's spans."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    dur = {}
    self_t = {}
    attrs = {}
    for idx, (name, t0, t1, parent, _, at) in enumerate(spans):
        dur[name] = dur.get(name, 0.0) + (t1 - t0)
        self_t[name] = self_t.get(name, 0.0) + (t1 - t0 - child_time[idx])
        for key, val in (at or {}).items():
            attrs.setdefault(name, {}).setdefault(key, []).append(val)
    layer_self = {}
    for name, s in self_t.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s

    # Picard sweeps per kernel solve: four column marches per sweep, or the
    # solver's own iteration count once the march helper is gone.
    sweeps = []
    march_parent = [spans[i][3] for i in range(len(spans)) if spans[i][0] == "kernels.march"]
    for idx, span in enumerate(spans):
        if span[0] != "kernels.solve_kernels":
            continue
        marches = sum(1 for p in march_parent if p == idx)
        if marches:
            sweeps.append(marches / 4.0)
        elif span[5] and "iterations" in span[5]:
            sweeps.append(float(span[5]["iterations"]))
    lstsq = [s for s in spans if s[0] == "harness.lstsq"]
    export_s = sum(dur.get(n, 0.0) for n in
                   ("cli.export_kernels_csv", "cli.export_profile_csv", "cli.export_sim_csv"))
    export_bytes = sum(sum(attrs.get(n, {}).get("bytes", [])) for n in
                       ("cli.export_kernels_csv", "cli.export_profile_csv",
                        "cli.export_sim_csv"))
    steps = sum(attrs.get("simulator.simulate", {}).get("steps", []))

    def has(name):
        return name in dur

    out = {
        "kernels.solve_s": dur.get("kernels.solve_kernels"),
        "kernels.march_s": dur.get("kernels.march"),
        "kernels.sweeps": median(sweeps, None),
        "kernels.march_gb_computed": (sum(attrs["kernels.march"]["bytes"]) / 1e9
                                      if has("kernels.march") else None),
        "kernels.plan_build_s": dur.get("kernels.build_plan"),
        "characteristics.inverse_s": dur.get("characteristics.inverse"),
        "characteristics.inverse_points": (float(sum(attrs["characteristics.inverse"]["points"]))
                                           if has("characteristics.inverse") else None),
        "kernels.solve_self_s": self_t.get("kernels.solve_kernels"),
        "kernels.trace_g_s": dur.get("kernels.trace_g"),
        "kernels.feedback_gains_s": dur.get("kernels.feedback_gains"),
        "simulator.simulate_s": dur.get("simulator.simulate"),
        "simulator.steps": float(steps) if has("simulator.simulate") else None,
        "simulator.step_us": (dur["simulator.simulate"] / steps * 1e6
                              if has("simulator.simulate") and steps else None),
        "simulator.snapshot_mb_computed": (
            sum(attrs["simulator.simulate"]["snapshot_bytes"]) / 1e6
            if has("simulator.simulate") else None),
        "harness.lstsq_s": dur.get("harness.lstsq"),
        "harness.lstsq_first_s": lstsq[0][2] - lstsq[0][1] if lstsq else None,
        "harness.lstsq_calls": float(len(lstsq)) if lstsq else None,
        "harness.lstsq_gflop_computed": (sum(attrs["harness.lstsq"]["flop"]) / 1e9
                                         if lstsq else None),
        "harness.sharpness_assembly_s": self_t.get("harness.sharpness_residual"),
        "harness.verify_self_s": ((self_t.get("harness.verify_settling", 0.0)
                                   + self_t.get("harness.verify_sharpness", 0.0))
                                  if has("harness.verify_settling")
                                  or has("harness.verify_sharpness") else None),
        "cli.export_s": export_s if export_bytes else None,
        "cli.export_mb": export_bytes / 1e6 if export_bytes else None,
        "harness.load_config_s": dur.get("harness.load_config"),
        "characteristics.speedpair_build_s": dur.get("characteristics.speedpair_build"),
        "mintime.times_report_s": dur.get("mintime.times_report"),
        "transforms.diag_removal_s": dur.get("transforms.diag_removal"),
    }
    out.update({f"{layer}.self_s": layer_self.get(layer) for layer in LAYERS})
    return out


UNITS = {"_s": "s", "_us": "us", "_mb": "MB", "_mb_computed": "MB",
         "_gb_computed": "GB", "_gflop_computed": "GFLOP", "_mb_per_s": "MB/s",
         "_points": "count", "_calls": "count", ".sweeps": "count", ".steps": "count",
         "_ratio": "ratio", "_rel": "ratio"}


def unit_of(name: str) -> str:
    for suffix in sorted(UNITS, key=len, reverse=True):
        if name.endswith(suffix):
            return UNITS[suffix]
    raise KeyError(name)


def layer_metrics(records, setup_s: float, failed_ratio: float) -> dict:
    """Per-layer metrics: the median over the commands in which the layer ran
    (0 where it never ran), plus the tracing overhead and the traced wall
    time that no span covers."""
    per_cmd = [command_layers(r["trace"]) for r in records]
    values = {}
    for name in per_cmd[0]:
        values[name] = median([c[name] for c in per_cmd])
    sweeps = values["kernels.sweeps"]
    values["kernels.useful_sweep_ratio"] = 1.0 / sweeps if sweeps else 0.0
    export_s = sum(c["cli.export_s"] or 0.0 for c in per_cmd)
    export_mb = sum(c["cli.export_mb"] or 0.0 for c in per_cmd)
    values["cli.export_mb_per_s"] = export_mb / export_s if export_s else 0.0
    residuals = [r["residual_rel"] for r in records if "residual_rel" in r
                 and r["cmd"].check == "settle"]
    values["harness.settle_residual_rel"] = median(residuals)
    values["cli.failed_op_ratio"] = failed_ratio

    untraced = [r["child"].wall_s for r in records]
    traced = [r["traced_wall_s"] for r in records]
    values["trace.overhead_s"] = sum(traced) - sum(untraced)
    # A traced command's wall time is its set-up, its layers' self times (which
    # sum to run_cli, less load_config already counted in set-up) and a rest
    # no span covers: interpreter teardown and loading the tracer itself.
    rest = []
    for r, u, t in zip(records, untraced, traced):
        spans = r["trace"]["spans"]
        run = sum(s[2] - s[1] for s in spans if s[0] == "cli.run_cli")
        load = sum(s[2] - s[1] for s in spans if s[0] == "harness.load_config")
        covered = setup_s + run - load
        rest.append(t - covered)
        print(f"account {r['id']}: untraced={u:.4f}s traced={t:.4f}s "
              f"setup+layers={covered:.4f}s uncovered={t - covered:+.4f}s "
              f"traced-untraced={t - u:+.4f}s")
    values["trace.unaccounted_s"] = median(rest)
    return {name: {"value": float(values[name]), "unit": unit_of(name)}
            for name in sorted(values)}


if __name__ == "__main__":
    sys.exit(main())
