#!/usr/bin/env python3
"""End-to-end run of the headline scenario.

Prints the times report, solves the kernels and exports them, certifies
settling at the minimal time, and sweeps the reachability residual through
a range of horizons so the threshold is visible in one table.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hypmin.cli import _Parser, finite_float, run_guarded  # noqa: E402
from hypmin.harness import _gauge, load_config, verify_settling, verify_sharpness  # noqa: E402
from hypmin.kernels import (export_kernels_csv, export_profile_csv, solve_kernels,  # noqa: E402
                            trace_g)
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
    cfg = load_config(args.config)
    os.makedirs(args.out, exist_ok=True)

    tr = times_report(cfg.system, grid=cfg.grid)
    print(tr.pretty())
    print()

    K = solve_kernels(_gauge(cfg, cfg.grid), cfg.system.speeds, cfg.grid)
    export_kernels_csv(K, os.path.join(args.out, "kernels.csv"))
    g = trace_g(K, cfg.system.speeds)
    export_profile_csv(os.path.join(args.out, "g.csv"), K.grid.nodes, {"g": g})
    print(f"wrote kernels.csv, g.csv to {args.out}")
    print()

    rep = verify_settling(cfg)
    print(rep.pretty())
    rep.write(args.out)
    print()

    print(f"{'T':>8} {'residual':>14} {'vs free state':>14}  side")
    for T in args.sweep:
        srep = verify_sharpness(cfg, T, levels=(cfg.grid.n,))
        row = srep.rows[0]
        side = srep.notes.split("=", 1)[1]
        print(f"{T:>8.3f} {row['residual']:>14.6e} "
              f"{row['residual_vs_free']:>14.6e}  {side}")
    print(f"\nthe residual collapses once T crosses Tmin = {tr.Tmin:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
