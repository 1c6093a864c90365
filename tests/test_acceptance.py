"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with plain `pytest`; the summary lines are emitted through the capture
so they are visible in normal runs.
"""

import math
import time

import numpy as np
import pytest

from hypmin import (CoefficientSpec, Grid, SpeedPair, canonical_min_time,
                    nxn_canonical_min_time, predicted_g_prefix, simulate,
                    solve_kernels, times_report, titchmarsh_check, volterra_apply,
                    volterra_invert)
from hypmin.coeffs import prefix_of_samples
from hypmin.config import config_from_dict
from hypmin.harness import counterexample, verify_settling, verify_sharpness

from conftest import (const, exact_transport, headline_raw, make_system,
                      random_kernel_set, smooth_bump)


@pytest.fixture
def announce(capsys):
    def _announce(ok: bool, label: str, detail: str):
        with capsys.disabled():
            print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} | {detail}")
        assert ok, f"{label}: {detail}"

    return _announce


def test_c1_minimal_time_formula(unit_speeds, announce):
    t0 = time.time()
    grid = Grid.uniform(400)
    checks = []
    for ell in (0.0, 0.1, 0.25, 0.4, 0.5):
        system = make_system(unit_speeds, c=CoefficientSpec.step(ell, 0.0, 1.0))
        tr = times_report(system, grid=grid)
        checks.append(abs(tr.Tmin - max(1.0, 2.0 - 2.0 * ell)) <= 1e-10)
    tr_one = times_report(make_system(unit_speeds, c=1.0), grid=grid)
    checks.append(abs(tr_one.Tmin - 2.0) <= 1e-10)
    tr_zero = times_report(make_system(unit_speeds, c=0.0), grid=grid)
    checks.append(abs(tr_zero.Tmin - 1.0) <= 1e-10)
    elapsed = time.time() - t0
    checks.append(elapsed < 1.0)
    announce(all(checks), "1 (minimal-time formula)",
             f"step family and constants exact to 1e-10, runtime {elapsed:.2f}s")


def test_c2_trace_prefix_identity(announce):
    t0 = time.time()
    speeds = SpeedPair.build(CoefficientSpec.polynomial([-1.0, -0.5]),
                             CoefficientSpec.polynomial([1.0, 1.0]))
    c = CoefficientSpec.step(0.2, 0.0, 1.0)
    offsets = {}
    for n in (400, 800):
        grid = Grid.uniform(n)
        g = solve_kernels(make_system(speeds, c=c), grid).g
        tol = 1e-8
        measured = prefix_of_samples(g, grid.h, 1.0, tol)
        predicted = predicted_g_prefix(speeds, c, grid)
        offsets[n] = abs(measured - predicted) / grid.h
    elapsed = time.time() - t0
    ok = offsets[400] <= 2.0 and offsets[800] <= 1.0 and elapsed < 30.0
    announce(ok, "2 (trace prefix identity)",
             f"offset {offsets[400]:.2f} cells at n=400, {offsets[800]:.2f} at "
             f"n=800, runtime {elapsed:.1f}s")


def test_c3_settling(announce):
    t0 = time.time()
    cfg = config_from_dict(headline_raw(n=400, horizon=1.5), "headline")
    rep = verify_settling(cfg, levels=(200, 400, 800))
    res = {row["n"]: row["residual_rel"] for row in rep.rows}
    elapsed = time.time() - t0
    ratio_ok = all(0.375 <= r <= 0.625 for r in rep.ratios)
    ok = res[400] <= 0.05 and ratio_ok and elapsed < 60.0
    announce(ok, "3 (settling at Tmin)",
             f"relative residual {res[400]:.2e} at n=400, ratios "
             f"{[f'{r:.3f}' for r in rep.ratios]}, runtime {elapsed:.1f}s")


def test_c4_sharpness(announce):
    cfg = config_from_dict(headline_raw(n=400, horizon=1.5), "headline")
    rep_low = verify_sharpness(cfg, 1.3, levels=(200, 400, 800))
    rep_high = verify_sharpness(cfg, 1.6, levels=(400,))
    r13 = {row["n"]: row["residual"] for row in rep_low.rows}
    r16 = rep_high.rows[0]["residual"]
    ratio_ok = r13[400] >= 10.0 * r16
    stable_ok = r13[800] >= 0.7 * r13[200]
    ok = ratio_ok and stable_ok and rep_low.passed and rep_high.passed
    announce(ok, "4 (sharpness below Tmin)",
             f"residual(1.3)={r13[400]:.4g} vs residual(1.6)={r16:.4g} at n=400; "
             f"residual(1.3) change 200->800: {r13[800] / r13[200] - 1.0:+.1%}")


def test_c5_titchmarsh_suite(announce):
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(100):
        tau = rng.uniform(0.5, 2.0)
        pa = rng.uniform(0.0, tau)
        pb = rng.uniform(0.0, tau)
        N = 400
        ts = np.linspace(0.0, tau, N + 1)
        alpha = np.where(ts > pa, 0.5 + rng.uniform(0.0, 1.0, N + 1), 0.0)
        beta = np.where(ts > pb, 0.5 + rng.uniform(0.0, 1.0, N + 1), 0.0)
        rep = titchmarsh_check(alpha, beta, tau, tol=1e-12)
        if not rep.consistent:
            failures += 1
    announce(failures == 0, "5 (convolution support suite)",
             f"100 randomized cases, {failures} inconsistencies")


def test_c6_volterra_roundtrip(announce):
    grid = Grid.uniform(400)
    rng = np.random.default_rng(77)
    worst = 0.0
    xs = grid.nodes
    for _ in range(20):
        K = random_kernel_set(grid, rng)
        y1 = np.sin(2 * np.pi * xs * rng.uniform(0.5, 2.0)) + rng.uniform(-1, 1)
        y2 = np.cos(np.pi * xs * rng.uniform(0.5, 2.0)) * rng.uniform(0.5, 2.0)
        b1, b2 = volterra_invert(K, *volterra_apply(K, y1, y2))
        worst = max(worst, float(np.max(np.abs(b1 - y1))),
                    float(np.max(np.abs(b2 - y2))))
    announce(worst <= 1e-8, "6 (Volterra roundtrip)",
             f"20 random kernel sets at n=400, worst error {worst:.2e}")


def test_c7_counterexample(announce):
    details = []
    ok = True
    for k in (1.0 + 1.0 / math.pi, 0.0, 2.0):
        res = counterexample(k, n=800)
        row = res.report.rows[0]
        ok = ok and row["rel_err"] <= 0.05
        details.append(f"k={k:.3f}: rate {row['rate']:.4f} vs sigma "
                       f"{res.sigma:.4f} ({row['rel_err']:.2%})")
    announce(ok, "7 (reflection counterexample)", "; ".join(details))


def test_c8_scheme_order(varying_speeds, announce):
    system = make_system(varying_speeds)
    t = 0.25
    errs = []
    for n in (200, 400, 800):
        grid = Grid.uniform(n)
        y10 = smooth_bump(grid.nodes, 0.6, 0.2)
        y20 = smooth_bump(grid.nodes, 0.35, 0.15)
        sim = simulate(system, None, (y10, y20), t, grid, cfl=0.9)
        ex1, ex2 = exact_transport(varying_speeds, y10, y20, grid.nodes, t)
        got1, got2 = sim.snapshots[-1]
        errs.append(float(np.trapezoid(np.abs(got1 - ex1) + np.abs(got2 - ex2),
                                       dx=grid.h)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = all(0.8 <= o <= 1.2 for o in orders)
    announce(ok, "8 (first-order transport)",
             f"L1 errors {[f'{e:.2e}' for e in errs]}, orders "
             f"{[f'{o:.2f}' for o in orders]}")


def test_c9_nxn_calculator(unit_speeds, announce):
    nodes = np.linspace(0.0, 1.0, 401)
    checks = []
    # reduction to the 2x2 canonical formula
    g = np.where(nodes > 0.3, 0.8, 0.0)
    got = nxn_canonical_min_time([const(-1.0), const(1.0)], [g], [0.0])
    checks.append(abs(got - canonical_min_time(unit_speeds, g, 1e-10)) <= 1e-10)
    # nonzero reflection forces the full crossing time of its component
    gz = np.zeros(401)
    got = nxn_canonical_min_time([const(-1.0), const(1.0), const(2.0)],
                                 [gz, gz], [0.0, 5.0])
    checks.append(abs(got - 1.5) <= 1e-10)
    # three speeds with a half prefix on the slow trace
    g1 = np.where(nodes > 0.5, 1.0, 0.0)
    got = nxn_canonical_min_time([const(-1.0), const(1.0), const(2.0)],
                                 [g1, gz], [0.0, 0.0])
    checks.append(abs(got - 1.5) <= 1e-10)
    announce(all(checks), "9 (n-speed calculator)",
             "three worked examples exact to 1e-10")
