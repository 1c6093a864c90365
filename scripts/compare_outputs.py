#!/usr/bin/env python3
"""Compare what two hypmin source trees print and write, command by command.

    python scripts/compare_outputs.py OLD NEW [--grid-n N] [CONFIG ...]

On each config (default: NEW's configs/*.json) every tree runs `mintime`,
`kernels`, `simulate`, `verify-settling` and `verify-sharpness` at
T = Tmin - 0.2 Tunif, Tmin and Tmin + 0.1 Tunif (read from the tree's own
times.json).  Once per tree it also runs the commands that take no config:
`counterexample --n 100` at k = 0, 1 + 1/pi and 2, and `titchmarsh
--prefix-a 0.3 --prefix-b 0.2 --tau 1`.  Each tree runs with
PYTHONPATH=<tree>/src, in a scratch directory of its own and with the same
relative --out, the two trees side by side.  Exit codes,
stdout and every output file are compared byte for byte; a JSON file is
compared as its parsed record without `runtime`, `config_sha256` and
`numpy_version`, which vary by run or by tree.  A run whose stderr holds a
Python traceback is a difference too, on either side: no input may end in
one.  Each difference is listed on one line; the exit code is 1 if there
is any, else 0, and 2, before any run, where OLD or NEW has no
src/hypmin/__init__.py.  With --grid-n N both trees run on copies of the
configs whose grid_n is N, each written to a directory of its own in the
scratch directory, under its file name.
"""

import argparse
import glob
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

_VARYING = ("runtime", "config_sha256", "numpy_version")
_SHARPNESS = (("below", -0.2), ("at", 0.0), ("above", 0.1))    # T = Tmin + shift * Tunif
_COUNTEREXAMPLE_K = (0.0, 1.0 + 1.0 / math.pi, 2.0)


def _hypmin(tree: str, work: str, argv: list) -> tuple:
    """(exit code, stdout, the last stderr line where stderr holds a
    traceback, else None)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run([sys.executable, "-m", "hypmin.cli", *argv], cwd=work, env=env,
                          capture_output=True, text=True)
    traceback = None
    if "Traceback (most recent call last):" in proc.stderr:
        traceback = proc.stderr.rstrip().rpartition("\n")[2]
    return proc.returncode, proc.stdout, traceback


def run_tree(tree: str, configs: list, work: str) -> dict:
    """{(config, command): _hypmin's (exit code, stdout, traceback)}, with
    the outputs of each command under work/<config index>-<config name>/
    <command>, and {("counterexample", "k=K"): ...} and {("titchmarsh",):
    ...}, with the counterexample's under work/counterexample/k=K."""
    results = {}
    for K in _COUNTEREXAMPLE_K:
        key = ("counterexample", f"k={K!r}")
        results[key] = _hypmin(tree, work, ["counterexample", f"--k={K!r}", "--n", "100",
                                            "--out", os.path.join(*key)])
    results[("titchmarsh",)] = _hypmin(tree, work, ["titchmarsh", "--prefix-a", "0.3",
                                                    "--prefix-b", "0.2", "--tau", "1"])
    for k, config in enumerate(configs):
        case = f"{k}-{os.path.splitext(os.path.basename(config))[0]}"
        out = lambda command: os.path.join(case, command)
        for command in ("mintime", "kernels", "simulate", "verify-settling"):
            results[case, command] = _hypmin(tree, work, [command, config, "--out", out(command)])
        try:
            with open(os.path.join(work, out("mintime"), "times.json")) as fh:
                times = json.load(fh)
        except OSError:         # mintime failed: its exit code differs or both lack T
            continue
        for label, shift in _SHARPNESS:
            command = f"verify-sharpness-{label}"
            T = times["Tmin"] + shift * times["Tunif"]
            results[case, command] = _hypmin(tree, work, ["verify-sharpness", config, "--T",
                                                          repr(T), "--out", out(command)])
    return results


def _comparable(path: str) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    if not path.endswith(".json"):
        return data
    record = json.loads(data)
    for key in _VARYING:
        record.pop(key, None)
    return json.dumps(record, sort_keys=True).encode()


def _first_line(a: str, b: str) -> str:
    """Where two texts first differ, as 'line k: OLD | NEW'."""
    la, lb = a.splitlines(), b.splitlines()
    k = next((k for k, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
    pick = lambda lines: lines[k] if k < len(lines) else "<end>"
    return f"line {k + 1}: {pick(la)!r} | {pick(lb)!r}"


def differences(works: list, results: list) -> list:
    """One line per difference between the OLD and NEW runs and outputs."""
    diffs = []
    old, new = results
    for key in sorted(set(old) | set(new)):
        where = "/".join(key)
        if key not in old or key not in new:
            diffs.append(f"{where}: run by {'NEW' if key in new else 'OLD'} only")
            continue
        (code_a, out_a, tb_a), (code_b, out_b, tb_b) = old[key], new[key]
        for side, tb in (("OLD", tb_a), ("NEW", tb_b)):
            if tb is not None:
                diffs.append(f"{where}: {side} ends in a traceback: {tb}")
        if code_a != code_b:
            diffs.append(f"{where}: exit code {code_a} | {code_b}")
        if out_a != out_b:
            diffs.append(f"{where}: stdout differs at {_first_line(out_a, out_b)}")
    files = [{os.path.relpath(os.path.join(d, f), w) for d, _, names in os.walk(w)
              for f in names} for w in works]
    for rel in sorted(files[0] | files[1]):
        if rel not in files[0] or rel not in files[1]:
            diffs.append(f"{rel}: written by {'NEW' if rel in files[1] else 'OLD'} only")
            continue
        a, b = (_comparable(os.path.join(w, rel)) for w in works)
        if a != b:
            text = _first_line(a.decode(errors="replace"), b.decode(errors="replace"))
            diffs.append(f"{rel}: differs at {text}")
    return diffs


def _with_grid_n(config: str, n: int, directory: str) -> str:
    """A copy of config in directory, which this creates, under its file
    name, with grid_n n where its top level is a JSON object; any other
    file is copied as it is, for both trees to refuse."""
    with open(config, "rb") as fh:
        data = fh.read()
    try:
        raw = json.loads(data)
    except ValueError:
        raw = None
    if isinstance(raw, dict):
        raw["grid_n"] = n
        data = json.dumps(raw).encode()
    os.makedirs(directory)
    path = os.path.join(directory, os.path.basename(config))
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", help="source tree whose src/ holds the reference hypmin")
    ap.add_argument("new", help="source tree whose src/ holds the hypmin compared with it")
    ap.add_argument("configs", nargs="*", help="configs (default: NEW's configs/*.json)")
    ap.add_argument("--grid-n", type=int, default=None,
                    help="run on copies of the configs with this grid_n")
    args = ap.parse_intermixed_args(argv)
    for tree in (args.old, args.new):
        if not os.path.isfile(os.path.join(tree, "src", "hypmin", "__init__.py")):
            print(f"error: {tree} is not a hypmin source tree: it has no "
                  "src/hypmin/__init__.py", file=sys.stderr)
            return 2
    configs = ([os.path.abspath(c) for c in args.configs]
               or sorted(glob.glob(os.path.join(os.path.abspath(args.new), "configs", "*.json"))))
    with tempfile.TemporaryDirectory() as tmp:
        if args.grid_n is not None:
            configs = [_with_grid_n(c, args.grid_n, os.path.join(tmp, "configs", str(k)))
                       for k, c in enumerate(configs)]
        works = [os.path.join(tmp, "old"), os.path.join(tmp, "new")]
        for work in works:
            os.makedirs(work)
        with ThreadPoolExecutor(2) as pool:
            results = list(pool.map(run_tree, (args.old, args.new), (configs, configs), works))
        diffs = differences(works, results)
    for line in diffs:
        print(line)
    runs = len(set(results[0]) | set(results[1]))
    print(f"{len(diffs)} difference(s) in {runs} runs on {len(configs)} config(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
