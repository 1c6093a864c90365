#!/usr/bin/env python3
"""Growth-rate sweep of the static reflection feedback y1(t,1) = k y2(t,1).

For each requested k the script builds the unstable eigenmode, simulates it,
and compares the measured exponential growth rate with the predicted
eigenvalue.  No choice of k stabilizes the pi-coupled system.
"""

import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hypmin.cli import _Parser, finite_float, nonnegative_int, run_guarded  # noqa: E402
from hypmin.harness import counterexample  # noqa: E402


def main():
    ap = _Parser(description=__doc__)
    ap.add_argument("--k", type=finite_float, nargs="*",
                    default=[0.0, 1.0, 1.0 + 1.0 / math.pi, 2.0, 4.0])
    ap.add_argument("--n", type=nonnegative_int, default=800)
    return run_guarded(run, ap.parse_args())


def run(args):
    print(f"{'k':>10} {'theta':>10} {'sigma':>10} {'measured':>10} {'rel err':>9}")
    for k in args.k:
        res = counterexample(k, n=args.n)
        row = res.report.rows[0]
        print(f"{k:>10.5f} {res.theta:>10.6f} {res.sigma:>10.6f} "
              f"{row['rate']:>10.6f} {row['rel_err']:>8.3%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
