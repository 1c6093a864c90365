#!/usr/bin/env python3
"""End-to-end run of the headline scenario.

Runs the `mintime`, `kernels` and `verify-settling` commands (the times
report, the kernel export and the settling certificate at the minimal time,
memory checks included), then sweeps the reachability residual through a
range of horizons so the threshold is visible in one table.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hypmin.cli import _Parser, finite_float, run_cli, run_guarded  # noqa: E402
from hypmin.config import load_config  # noqa: E402
from hypmin.harness import verify_sharpness  # noqa: E402
from hypmin.mintime import times_report  # noqa: E402


def main():
    ap = _Parser(description=__doc__)
    ap.add_argument("--config", default=os.path.join(os.path.dirname(__file__),
                                                     "..", "configs", "headline.json"))
    ap.add_argument("--out", default="out/headline")
    ap.add_argument("--sweep", type=finite_float, nargs="*",
                    default=[1.1, 1.3, 1.45, 1.5, 1.6, 1.8])
    return run_guarded(run, ap.parse_args())


def run(args):
    for argv in (["mintime", args.config], ["kernels", args.config, "--out", args.out]):
        code = run_cli(argv)
        if code:
            return code
        print()
    # a settling FAIL (exit 1) goes on to the sweep
    if run_cli(["verify-settling", args.config, "--out", args.out]) == 2:
        return 2
    print()

    cfg = load_config(args.config)
    print(f"{'T':>8} {'residual':>14} {'vs free state':>14}  side")
    for T in args.sweep:
        srep = verify_sharpness(cfg, T, levels=(cfg.grid.n,))
        row = srep.rows[0]
        side = srep.notes.split("=", 1)[1]
        print(f"{T:>8.3f} {row['residual']:>14.6e} "
              f"{row['residual_vs_free']:>14.6e}  {side}")
    tmin = times_report(cfg.system, grid=cfg.grid).Tmin
    print(f"\nthe residual collapses once T crosses Tmin = {tmin:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
