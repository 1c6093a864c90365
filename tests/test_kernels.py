import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypmin import (CoefficientSpec, Grid, SpeedPair, diag_removal, feedback_gains,
                    predicted_g_prefix, sin_map, solve_kernels, trace_g)
from hypmin.coeffs import prefix_of_samples
from hypmin.errors import DomainError
from hypmin.kernels import (_build_plan, _march, _trace_row_direct,
                            export_kernels_csv, export_profile_csv)

from conftest import const


def solve(speeds, a=0.0, b=0.0, c=0.0, d=0.0, n=100, k0=None):
    grid = Grid.uniform(n)

    def spec(v):
        return v if isinstance(v, CoefficientSpec) else const(float(v))

    gauge = diag_removal(spec(a), spec(b), spec(c), spec(d), speeds, grid)
    K = solve_kernels(gauge, speeds, k0, grid)
    return gauge, K


def picard_reference(gauge, speeds, grid, tol=1e-13, max_iter=200):
    """Kernels by successive approximation: frozen-coupling sweeps of _march
    repeated until each kernel's sup-norm update falls below tol relative to
    its size, then the same trace row and weight division as solve_kernels."""
    n = grid.n
    k0 = const(0.0)
    names = ("k11", "k12", "k21", "k22")
    plans = {w: _build_plan(w, speeds, gauge, grid, k0) for w in names}
    P = {w: np.zeros((n + 1, n + 1)) for w in names}
    for _ in range(max_iter):
        new = {w: np.zeros((n + 1, n + 1)) for w in names}
        _march(plans["k11"], new["k11"], P["k12"], P["k12"][:, 0], n)
        _march(plans["k12"], new["k12"], P["k11"], P["k11"].diagonal(), n)
        _march(plans["k21"], new["k21"], P["k22"], P["k22"].diagonal(), n)
        _march(plans["k22"], new["k22"], P["k21"], P["k21"][:, 0], n)
        update = max(np.max(np.abs(new[w] - P[w])) / (np.max(np.abs(new[w])) or 1.0)
                     for w in names)
        P = new
        if update <= tol:
            break
    else:
        pytest.fail(f"reference Picard solve stalled at update {update:g}")
    l1 = np.asarray(speeds.speed(1, grid.nodes), dtype=float)
    l2 = np.asarray(speeds.speed(2, grid.nodes), dtype=float)
    k = {w: P[w] / wgt[None, :] for w, wgt in zip(names, (l1, l2, l1, l2))}
    k["k21"][:, 0] = _trace_row_direct(speeds, gauge, grid, P["k22"]) / l1[0]
    return k


def assert_matches_reference(gauge, K, speeds):
    ref = picard_reference(gauge, speeds, K.grid)
    for name, want in ref.items():
        got = getattr(K, name)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), name


class TestSolveKernels:
    def test_zero_data_zero_kernels(self, unit_speeds):
        _, K = solve(unit_speeds, b=0.0, c=0.0)
        for arr in (K.k11, K.k12, K.k21, K.k22):
            assert np.max(np.abs(arr)) == 0.0

    def test_diagonal_condition(self, unit_speeds):
        c0 = 0.8
        _, K = solve(unit_speeds, b=1.0, c=c0)
        idx = np.arange(K.grid.n + 1)
        assert np.allclose(K.k21[idx, idx], c0 / 2.0, atol=1e-8)
        assert np.allclose(K.k12[idx, idx], -0.5, atol=1e-8)

    def test_diagonal_condition_varying(self, varying_speeds):
        grid_n = 64
        _, K = solve(varying_speeds, b=1.0, c=1.0, n=grid_n)
        nodes = K.grid.nodes
        lam1 = varying_speeds.speed(1, nodes)
        lam2 = varying_speeds.speed(2, nodes)
        idx = np.arange(grid_n + 1)
        assert np.allclose(K.k21[idx, idx], 1.0 / (lam2 - lam1), atol=1e-8)

    def test_edge_conditions(self, unit_speeds):
        k0 = CoefficientSpec.polynomial([0.2, 0.5])
        _, K = solve(unit_speeds, b=0.7, c=1.0, k0=k0)
        assert np.max(np.abs(K.k11[:, 0])) <= 1e-12
        assert np.allclose(K.k22[:, 0], k0(K.grid.nodes), atol=1e-8)

    def test_defect_of_one_pass(self, unit_speeds):
        # one frozen-coupling sweep over the one-pass result changes nothing
        _, K = solve(unit_speeds, b=1.0, c=1.0)
        assert K.residual <= 1e-12

    def test_one_pass_matches_picard_varying(self, varying_speeds):
        c = CoefficientSpec.step(0.3, 0.0, 1.0)
        gauge, K = solve(varying_speeds, b=0.8, c=c, n=120)
        assert K.residual <= 1e-12
        assert np.max(np.abs(K.k12)) > 0.1 and np.max(np.abs(K.k21)) > 0.1
        assert_matches_reference(gauge, K, varying_speeds)

    @settings(max_examples=15, deadline=None)
    @given(b=st.floats(-2.0, 2.0), c=st.floats(-2.0, 2.0),
           lam1=st.floats(-2.0, -0.5), lam2=st.floats(0.5, 2.0))
    def test_one_pass_matches_picard_property(self, b, c, lam1, lam2):
        speeds = SpeedPair.build(const(lam1), const(lam2))
        gauge, K = solve(speeds, b=b, c=c, n=32)
        assert K.residual <= 1e-12
        assert_matches_reference(gauge, K, speeds)

    def test_grid_too_coarse(self, unit_speeds):
        with pytest.raises(DomainError):
            solve(unit_speeds, n=2)

    def test_fine_grid_self_convergence(self, unit_speeds):
        # constant couplings bt = ct = 1; first-order error against a fine
        # oracle solved by the same scheme on an 8x/4x finer grid
        _, K_ref = solve(unit_speeds, b=1.0, c=1.0, n=1024)
        errs = []
        for n in (128, 256):
            _, K = solve(unit_speeds, b=1.0, c=1.0, n=n)
            stride = 1024 // n
            idx = np.arange(n + 1)
            diffs = []
            for name in ("k11", "k12", "k21", "k22"):
                coarse = getattr(K, name)
                ref = getattr(K_ref, name)[::stride, ::stride]
                tri = np.tril(np.ones((n + 1, n + 1), dtype=bool))
                diffs.append(np.max(np.abs((coarse - ref)[tri])))
            errs.append(max(diffs))
        order = math.log2(errs[0] / errs[1])
        assert 0.6 <= order <= 1.6
        assert errs[1] < 0.02


class TestTraceG:
    def test_zero_coupling_gives_zero_trace(self, unit_speeds):
        _, K = solve(unit_speeds, b=1.0, c=0.0)
        g = trace_g(K, unit_speeds)
        assert np.max(np.abs(g)) <= 1e-12

    def test_origin_value(self, unit_speeds):
        c0 = 1.4
        _, K = solve(unit_speeds, b=0.0, c=c0)
        g = trace_g(K, unit_speeds)
        assert g[0] == pytest.approx(c0 / 2.0, abs=1e-10)

    def test_step_prefix_matches_prediction(self, unit_speeds):
        c = CoefficientSpec.step(0.25, 0.0, 1.0)
        _, K = solve(unit_speeds, b=0.5, c=c, n=200)
        g = trace_g(K, unit_speeds)
        tol = max(1e-8, 10.0 * K.residual)
        measured = prefix_of_samples(g, K.grid.h, 1.0, tol)
        predicted = predicted_g_prefix(unit_speeds, c, K.grid)
        assert abs(measured - predicted) <= 2 * K.grid.h

    def test_prefix_invariant_under_free_boundary_data(self, varying_speeds):
        # the free k22 boundary data changes g pointwise but cannot move its
        # vanishing prefix: below the threshold every trace path sees a
        # vanishing coupling, whatever k22 is
        c = CoefficientSpec.step(0.2, 0.0, 1.0)
        prefixes = []
        values = []
        for k0 in (None, const(0.5), CoefficientSpec.polynomial([0.3, -1.0])):
            _, K = solve(varying_speeds, b=0.7, c=c, n=200, k0=k0)
            g = trace_g(K, varying_speeds)
            tol = max(1e-8, 10.0 * K.residual)
            prefixes.append(prefix_of_samples(g, K.grid.h, 1.0, tol))
            values.append(g[150])
        assert prefixes[0] == prefixes[1] == prefixes[2]
        assert abs(values[1] - values[0]) > 1e-3  # g itself does change

    def test_linearity_in_coupling(self, unit_speeds):
        c = CoefficientSpec.step(0.2, 0.0, 0.7)
        c2 = CoefficientSpec.step(0.2, 0.0, 1.4)
        _, Ka = solve(unit_speeds, b=0.0, c=c, n=80)
        _, Kb = solve(unit_speeds, b=0.0, c=c2, n=80)
        ga = trace_g(Ka, unit_speeds)
        gb = trace_g(Kb, unit_speeds)
        assert np.allclose(gb, 2.0 * ga, atol=1e-9)


class TestFeedbackGains:
    def test_zero_kernels_zero_gains(self, unit_speeds):
        gauge, K = solve(unit_speeds, b=0.0, c=0.0)
        law = feedback_gains(K, gauge)
        assert np.max(np.abs(law.f1)) == 0.0
        assert np.max(np.abs(law.f2)) == 0.0
        assert law.control(np.ones(101), np.ones(101)) == 0.0

    def test_trivial_gauge_passthrough(self, unit_speeds):
        gauge, K = solve(unit_speeds, b=1.0, c=1.0)
        law = feedback_gains(K, gauge)
        n = K.grid.n
        assert np.allclose(law.f1, K.k11[n, :])
        assert np.allclose(law.f2, K.k12[n, :])

    def test_gauge_weights_enter(self, unit_speeds):
        gauge, K = solve(unit_speeds, a=1.0, b=1.0, c=1.0, d=0.5)
        law = feedback_gains(K, gauge)
        n = K.grid.n
        want = K.k11[n, :] * gauge.e1 / gauge.e1[-1]
        assert np.allclose(law.f1, want)


class TestSinMap:
    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_symmetric_speeds_halve(self, unit_speeds, x):
        assert sin_map(unit_speeds, x) == pytest.approx(x / 2.0, abs=1e-10)

    def test_at_one_equals_xbar(self, varying_speeds):
        # xbar solves phi1 + phi2 = T2 by definition
        xbar = sin_map(varying_speeds, 1.0)
        psi = varying_speeds.psi_eval(xbar)
        assert psi == pytest.approx(varying_speeds.T2, abs=1e-12)

    def test_interior_bounds(self, varying_speeds):
        for x in (0.1, 0.5, 0.9):
            s = sin_map(varying_speeds, x)
            assert 0.0 < s < x

    def test_scalar_equation_oracle(self):
        # lambda1 = -1, lambda2 = 1+x: sin_map(1) solves s + log(1+s) = log 2.
        from hypmin import SpeedPair
        speeds = SpeedPair.build(const(-1.0), CoefficientSpec.polynomial([1.0, 1.0]))

        def f(s):
            return s + math.log1p(s)

        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(mid) < math.log(2.0):
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert sin_map(speeds, 1.0) == pytest.approx(root, abs=1e-7)

    def test_domain_error(self, unit_speeds):
        with pytest.raises(DomainError):
            sin_map(unit_speeds, 1.2)


class TestPredictedPrefix:
    def test_zero_coupling_gives_one(self, varying_speeds):
        assert predicted_g_prefix(varying_speeds, const(0.0)) == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_step(self, unit_speeds):
        c = CoefficientSpec.step(0.25, 0.0, 1.0)
        val = predicted_g_prefix(unit_speeds, c, Grid.uniform(400))
        assert val == pytest.approx(0.5, abs=2.5e-3)

    def test_nonzero_at_origin_gives_zero(self, unit_speeds):
        assert predicted_g_prefix(unit_speeds, const(1.0)) == pytest.approx(0.0, abs=1e-9)


class TestExports:
    def test_csv_files(self, unit_speeds, tmp_path):
        gauge, K = solve(unit_speeds, b=1.0, c=1.0, n=10)
        kpath = tmp_path / "kernels.csv"
        export_kernels_csv(K, kpath)
        lines = kpath.read_text().strip().splitlines()
        assert lines[0] == "x,xi,k11,k12,k21,k22"
        assert len(lines) == 1 + (11 * 12) // 2
        g = trace_g(K, unit_speeds)
        gpath = tmp_path / "g.csv"
        export_profile_csv(gpath, K.grid.nodes, {"g": g})
        assert gpath.read_text().startswith("x,g")
