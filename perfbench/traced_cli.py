"""Run one hypmin CLI command with a span around each layer's public calls.

    python perfbench/traced_cli.py SPANS_JSON COMMAND_ID -- <hypmin arguments>

The wrappers are installed from outside the program: each target is replaced
in its defining module and under every name another hypmin module imported it
by (``hypmin.cli`` and ``hypmin.harness`` import most of them directly).  A
target that no longer exists is skipped, so refactors of private helpers such
as ``kernels._march`` do not break the trace.  Spans stay in memory and are
written to SPANS_JSON when the command returns; the exit code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import numpy as np

# Bytes the column march reads and writes per triangle point (foot index and
# weight, source coefficient, four gathered neighbours, one store): 8 x 8 B.
MARCH_BYTES_PER_POINT = 64


def _inverse_attrs(args, kwargs, result):
    return {"points": int(np.size(args[-1]))}


def _march_attrs(args, kwargs, result):
    n = args[1].shape[0] - 1
    return {"bytes": MARCH_BYTES_PER_POINT * (n + 1) * (n + 2) // 2}


def _solve_attrs(args, kwargs, result):
    it = getattr(result, "iterations", None)
    return {"iterations": it} if isinstance(it, int) else None


def _simulate_attrs(args, kwargs, result):
    snaps = getattr(result, "snapshots", ())
    nbytes = sum(a.nbytes for snap in snaps for a in snap if isinstance(a, np.ndarray))
    return {"steps": len(result.times) - 1, "snapshot_bytes": nbytes}


def _lstsq_attrs(args, kwargs, result):
    m, n = np.shape(args[0])
    k = min(m, n)
    # Householder bidiagonalisation, the leading cost of LAPACK gelsd.
    return {"flop": 4.0 * m * n * k - 4.0 / 3.0 * k ** 3}


def _size(path) -> int:
    return os.path.getsize(path) if os.path.isfile(path) else 0


def _export_kernels_attrs(args, kwargs, result):
    return {"bytes": _size(args[1])}


def _export_profile_attrs(args, kwargs, result):
    return {"bytes": _size(args[0])}


def _export_sim_attrs(args, kwargs, result):
    return {"bytes": sum(_size(p) for p in result or ())}


# (module, attribute, span name, attrs from (args, kwargs, result))
FUNCTIONS = [
    ("hypmin.harness", "load_config", "harness.load_config", None),
    ("hypmin.harness", "verify_settling", "harness.verify_settling", None),
    ("hypmin.harness", "verify_sharpness", "harness.verify_sharpness", None),
    ("hypmin.harness", "canonical_sharpness_residual", "harness.sharpness_residual", None),
    ("hypmin.harness", "_synthesize", "harness.synthesize", None),
    ("hypmin.harness", "make_initial_data", "harness.make_initial_data", None),
    ("hypmin.kernels", "solve_kernels", "kernels.solve_kernels", _solve_attrs),
    ("hypmin.kernels", "_build_plan", "kernels.build_plan", None),
    ("hypmin.kernels", "_march", "kernels.march", _march_attrs),
    ("hypmin.kernels", "trace_g", "kernels.trace_g", None),
    ("hypmin.kernels", "feedback_gains", "kernels.feedback_gains", None),
    ("hypmin.kernels", "export_kernels_csv", "cli.export_kernels_csv", _export_kernels_attrs),
    ("hypmin.kernels", "export_profile_csv", "cli.export_profile_csv", _export_profile_attrs),
    ("hypmin.simulator", "simulate", "simulator.simulate", _simulate_attrs),
    ("hypmin.simulator", "export_sim_csv", "cli.export_sim_csv", _export_sim_attrs),
    ("hypmin.mintime", "times_report", "mintime.times_report", None),
    ("hypmin.transforms", "diag_removal", "transforms.diag_removal", None),
    ("hypmin.coeffs", "vanishing_prefix", "coeffs.vanishing_prefix", None),
    ("hypmin.coeffs", "relative_tol", "coeffs.relative_tol", None),
    ("numpy.linalg", "lstsq", "harness.lstsq", _lstsq_attrs),
]

# (class path, method, span name, attrs)
METHODS = [
    ("hypmin.characteristics.SpeedPair", "build", "characteristics.speedpair_build", None),
    ("hypmin.characteristics.SpeedPair", "phi_inv_ext", "characteristics.inverse", _inverse_attrs),
    ("hypmin.characteristics.SpeedPair", "psi_inv", "characteristics.inverse", _inverse_attrs),
    ("hypmin.characteristics.SpeedPair", "table_nodes_inverse", "characteristics.inverse",
     _inverse_attrs),
]


class Tracer:
    """Spans [name, start, end, parent index, command id, attrs] kept in memory."""

    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.command_id, None]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result
        return traced

    def install(self) -> list:
        """Wrap every target that exists; returns the names wrapped."""
        importlib.import_module("hypmin.cli")
        hyp_modules = [m for k, m in sys.modules.items()
                       if m is not None and (k == "hypmin" or k.startswith("hypmin."))]
        wrapped = []
        for modname, attr, name, attrs in FUNCTIONS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            new = self.wrap(name, orig, attrs)
            setattr(mod, attr, new)
            for other in hyp_modules:
                for key, val in list(vars(other).items()):
                    if val is orig:
                        setattr(other, key, new)
            wrapped.append(f"{modname}.{attr}")
        for clspath, attr, name, attrs in METHODS:
            modname, clsname = clspath.rsplit(".", 1)
            cls = getattr(importlib.import_module(modname), clsname, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                continue
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__, attrs)))
            else:
                setattr(cls, attr, self.wrap(name, raw, attrs))
            wrapped.append(f"{clspath}.{attr}")
        return wrapped


def main(argv) -> int:
    spans_path, command_id, sep, *cli_argv = argv
    if sep != "--":
        print("usage: traced_cli.py SPANS_JSON COMMAND_ID -- <hypmin arguments>",
              file=sys.stderr)
        return 2
    tracer = Tracer(command_id)
    wrapped = tracer.install()
    import hypmin
    import hypmin.cli
    run_cli = tracer.wrap("cli.run_cli", hypmin.cli.run_cli)
    code = 1
    try:
        code = run_cli(cli_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"command_id": command_id, "exit": code, "wrapped": wrapped,
                       "hypmin_file": hypmin.__file__, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
