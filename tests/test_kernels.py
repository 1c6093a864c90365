import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypmin import (CoefficientSpec, Grid, SpeedPair, diag_removal, feedback_gains,
                    kernels, predicted_g_prefix, simulator, sin_map, solve_kernels,
                    trace_g)
from hypmin.coeffs import prefix_of_samples
from hypmin.errors import DomainError
from hypmin.kernels import (_build_plan, _march_pair, _step_interior, _trace_row_direct,
                            _triangle, export_kernels_csv, export_profile_csv,
                            solve_kernels_bytes)

from conftest import const


def solve(speeds, a=0.0, b=0.0, c=0.0, d=0.0, n=100, k0=None):
    grid = Grid.uniform(n)

    def spec(v):
        return v if isinstance(v, CoefficientSpec) else const(float(v))

    gauge = diag_removal(spec(a), spec(b), spec(c), spec(d), speeds, grid)
    K = solve_kernels(gauge, speeds, k0, grid)
    return gauge, K


def picard_reference(gauge, speeds, grid, tol=1e-13, max_iter=200):
    """Kernels by successive approximation: frozen-coupling sweeps of
    _march_pair, each kernel reading the previous iterate of its partner,
    repeated until each kernel's sup-norm update falls below tol relative to
    its size, then the same trace row and weight division as solve_kernels."""
    n = grid.n
    k0 = const(0.0)
    names = ("k11", "k12", "k21", "k22")
    partner = {"k11": "k12", "k12": "k11", "k21": "k22", "k22": "k21"}
    tri = _triangle(speeds, grid)
    plans = {w: _build_plan(w, speeds, gauge, grid, k0, tri) for w in names}
    P = {w: np.zeros((n + 1, n + 1)) for w in names}
    for _ in range(max_iter):
        new = {w: np.zeros((n + 1, n + 1)) for w in names}
        _march_pair(plans, new, {w: P[partner[w]] for w in names}, n)
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

    @pytest.mark.parametrize("pairs,marches", [(("gains", "trace"), 2), (("gains",), 1),
                                               (("trace",), 1)], ids=["both", "gains", "trace"])
    def test_one_march_per_pair(self, varying_speeds, monkeypatch, pairs, marches):
        # each solved pair is marched once: the one-pass march is its own
        # fixed point, so no second sweep runs over its result
        calls = []
        march = kernels._march_pair

        def counted(plans, P, src, n):
            calls.append(tuple(P))
            march(plans, P, src, n)

        monkeypatch.setattr(kernels, "_march_pair", counted)
        grid = Grid.uniform(16)
        gauge = diag_removal(const(0.0), const(1.0), const(1.0), const(0.0),
                             varying_speeds, grid)
        solve_kernels(gauge, varying_speeds, None, grid, pairs)
        assert len(calls) == marches

    def test_one_pass_matches_picard_varying(self, varying_speeds):
        c = CoefficientSpec.step(0.3, 0.0, 1.0)
        gauge, K = solve(varying_speeds, b=0.8, c=c, n=120)
        assert np.max(np.abs(K.k12)) > 0.1 and np.max(np.abs(K.k21)) > 0.1
        assert_matches_reference(gauge, K, varying_speeds)

    @pytest.mark.parametrize("which", ["k11", "k12", "k21", "k22"])
    def test_packed_plan_feet_on_characteristics(self, varying_speeds, which):
        # marching a field linear in xi from column i-1 yields, at (x_i, x_j),
        # the foot in column i-1 of the characteristic through that point:
        # its invariant is the one at (x_i, x_j)
        n = 24
        grid = Grid.uniform(n)
        gauge = diag_removal(const(0.0), const(1.0), const(1.0), const(0.0),
                             varying_speeds, grid)
        plan = _build_plan(which, varying_speeds, gauge, grid, const(0.0),
                           _triangle(varying_speeds, grid))
        assert plan.fidx.size == plan.fw.size == plan.coefA.size == (n + 1) * (n + 2) // 2
        feet = np.zeros((n + 1, n + 1))
        for i in range(2, n + 1):
            P = np.zeros((n + 1, n + 1))
            P[i - 1] = grid.nodes
            _step_interior(plan, P, np.zeros_like(P), i)
            feet[i] = P[i]
        p1 = lambda x: varying_speeds.phi_eval(1, x)
        p2 = lambda x: varying_speeds.phi_eval(2, x)
        invariant = {"k11": lambda x, xi: p1(x) - p1(xi), "k12": lambda x, xi: p1(x) + p2(xi),
                     "k21": lambda x, xi: p2(x) + p1(xi), "k22": lambda x, xi: p2(x) - p2(xi)}
        ii, jj = np.tril_indices(n + 1)
        x, xprev, foot = grid.nodes[ii], grid.nodes[np.maximum(ii - 1, 0)], feet[ii, jj]
        inside = (ii >= 2) & (foot > 0.0) & (foot < xprev)
        assert inside.sum() > n * n // 4
        drift = invariant[which](xprev, foot) - invariant[which](x, grid.nodes[jj])
        assert np.max(np.abs(drift[inside])) <= 1e-13

    @settings(max_examples=15, deadline=None)
    @given(b=st.floats(-2.0, 2.0), c=st.floats(-2.0, 2.0),
           lam1=st.floats(-2.0, -0.5), lam2=st.floats(0.5, 2.0))
    def test_one_pass_matches_picard_property(self, b, c, lam1, lam2):
        speeds = SpeedPair.build(const(lam1), const(lam2))
        gauge, K = solve(speeds, b=b, c=c, n=32)
        assert_matches_reference(gauge, K, speeds)

    @settings(max_examples=15, deadline=None)
    @given(b=st.floats(-2.0, 2.0), c=st.floats(-2.0, 2.0),
           lam1=st.floats(-2.0, -0.5), lam2=st.floats(0.5, 2.0),
           a=st.floats(0.1, 2.0) | st.floats(-2.0, -0.1),
           d=st.floats(0.1, 2.0) | st.floats(-2.0, -0.1),
           k0=st.floats(0.1, 2.0) | st.floats(-2.0, -0.1))
    def test_pair_solve_matches_full_property(self, b, c, lam1, lam2, a, d, k0):
        # the two 2x2 systems are decoupled: solving one pair gives bitwise
        # the full solve's arrays, and leaves the other pair None
        speeds = SpeedPair.build(const(lam1), const(lam2))
        grid = Grid.uniform(32)
        gauge = diag_removal(const(a), const(b), const(c), const(d), speeds, grid)
        k0 = CoefficientSpec.polynomial([k0, 0.5])
        full = solve_kernels(gauge, speeds, k0, grid)
        for pair, solved in ((("gains",), ("k11", "k12")), (("trace",), ("k21", "k22"))):
            K = solve_kernels(gauge, speeds, k0, grid, pair)
            for name in ("k11", "k12", "k21", "k22"):
                got = getattr(K, name)
                if name in solved:
                    assert got.tobytes() == getattr(full, name).tobytes(), (pair, name)
                else:
                    assert got is None, (pair, name)

    @pytest.mark.parametrize("pairs", [(), ("gain",), ("gains", "k21")])
    def test_unknown_pairs(self, unit_speeds, pairs):
        grid = Grid.uniform(8)
        gauge = diag_removal(const(0.0), const(1.0), const(1.0), const(0.0),
                             unit_speeds, grid)
        with pytest.raises(DomainError, match="pairs must name"):
            solve_kernels(gauge, unit_speeds, None, grid, pairs)

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
        tol = 1e-8
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
            tol = 1e-8
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


def reference_bilinear_triangle(P, x, xi, h, n):
    """The unblocked interpolation: pads its own copy of P on every call."""
    Ppad = P.copy()
    idx = np.arange(n)
    Ppad[idx, idx + 1] = P[idx, idx]
    ix = np.clip(np.floor(x / h).astype(np.int64), 0, n - 1)
    jx = np.clip(np.floor(xi / h).astype(np.int64), 0, n - 1)
    wx = x / h - ix
    wj = xi / h - jx
    return (Ppad[ix, jx] * (1 - wx) * (1 - wj) + Ppad[ix + 1, jx] * wx * (1 - wj)
            + Ppad[ix, jx + 1] * (1 - wx) * wj + Ppad[ix + 1, jx + 1] * wx * wj)


def reference_trace_row_direct(speeds, gauge, grid, P22):
    """The unblocked trace: every (n+1) x (n+1) path array at once."""
    n = grid.n
    nodes = grid.nodes
    p2n = np.asarray(speeds.phi_eval(2, nodes))
    sig = np.asarray(speeds.psi_inv(p2n))
    taus = np.linspace(0.0, 1.0, n + 1)
    X = sig[:, None] + taus[None, :] * (nodes - sig)[:, None]
    XI = np.clip(speeds.phi_inv_ext(1, p2n[:, None] - speeds.phi_eval(2, X)), 0.0, 1.0)
    l1_xi = np.asarray(speeds.speed(1, XI), dtype=float)
    l2_x = np.asarray(speeds.speed(2, X), dtype=float)
    l2_xi = np.asarray(speeds.speed(2, XI), dtype=float)
    ct_xi = gauge.ct_at(XI)
    p22v = reference_bilinear_triangle(P22, X, XI, grid.h, n)
    S = -l1_xi * ct_xi * p22v / (l2_x * l2_xi)
    dx = (nodes - sig) / n
    integral = np.trapezoid(S, axis=1) * dx
    l1_s = np.asarray(speeds.speed(1, sig), dtype=float)
    l2_s = np.asarray(speeds.speed(2, sig), dtype=float)
    p0 = l1_s * gauge.ct_at(sig) / (l2_s - l1_s)
    return p0 + integral


def reference_build_plan(which, speeds, gauge, grid, k0):
    """One plan built on its own: its own triangle indices, and the speeds
    evaluated at every point's column i-1 (int64 indices)."""
    n, h, nodes = grid.n, grid.h, grid.nodes
    p1 = np.asarray(speeds.phi_eval(1, nodes))
    p2 = np.asarray(speeds.phi_eval(2, nodes))
    l1 = np.asarray(speeds.speed(1, nodes), dtype=float)
    l2 = np.asarray(speeds.speed(2, nodes), dtype=float)
    lam1 = lambda x: speeds.speed(1, x)
    lam2 = lambda x: speeds.speed(2, x)
    ii, jj = np.tril_indices(n + 1)
    ip = np.maximum(ii - 1, 0)
    if which == "k11":
        u = p1[jj] - (p1[ii] - p1[ip])
        interior = u >= 0.0
        feet = speeds.phi_inv_ext(1, u)
        coef = lambda x, xi: -lam1(xi) * gauge.ct_at(xi) / (lam1(x) * lam2(xi))
        diag_data, corner = None, 0.0
    elif which == "k12":
        u = p2[jj] + (p1[ii] - p1[ip])
        interior = u <= p2[ip] + 1e-15
        feet = speeds.phi_inv_ext(2, u)
        coef = lambda x, xi: -lam2(xi) * gauge.bt_at(xi) / (lam1(x) * lam1(xi))
        diag_data = l2 * gauge.bt_at(nodes) / (l1 - l2)
        corner = diag_data[0]
    elif which == "k21":
        u = p1[jj] + (p2[ii] - p2[ip])
        interior = u <= p1[ip] + 1e-15
        feet = speeds.phi_inv_ext(1, u)
        coef = lambda x, xi: -lam1(xi) * gauge.ct_at(xi) / (lam2(x) * lam2(xi))
        diag_data = l1 * gauge.ct_at(nodes) / (l2 - l1)
        corner = diag_data[0]
    else:
        u = p2[jj] - (p2[ii] - p2[ip])
        interior = u >= 0.0
        feet = speeds.phi_inv_ext(2, u)
        coef = lambda x, xi: -lam2(xi) * gauge.bt_at(xi) / (lam2(x) * lam1(xi))
        diag_data, corner = None, float(k0(0.0)) * l2[0]

    def interp_setup(pos, clamp_hi):
        idx = np.clip(np.floor(pos / h).astype(np.int64), 0, clamp_hi)
        return idx, pos / h - idx

    xiP = np.clip(feet, 0.0, 1.0)
    fidx, fw = interp_setup(xiP, np.maximum(ii - 2, 0))
    coefA = h * coef(nodes[ip], xiP)
    band = (ii > jj if diag_data is not None else ii > 0) & ~interior
    ii, jj = ii[band], jj[band]
    if which == "k11":
        xstart = np.asarray(speeds.phi_inv_ext(1, p1[ii] - p1[jj]), dtype=float)
        p0 = np.zeros(ii.size)
        cB = (nodes[ii] - xstart) * coef(xstart, np.zeros(ii.size))
    elif which == "k22":
        xstart = np.asarray(speeds.phi_inv_ext(2, p2[ii] - p2[jj]), dtype=float)
        p0 = np.asarray(k0(np.clip(xstart, 0.0, 1.0)), dtype=float) * l2[0]
        cB = (nodes[ii] - xstart) * coef(xstart, np.zeros(ii.size))
    elif which == "k12":
        xstart = np.asarray(speeds.psi_inv(p1[ii] + p2[jj]), dtype=float)
        p0 = lam2(xstart) * gauge.bt_at(xstart) / (lam1(xstart) - lam2(xstart))
        cB = (nodes[ii] - xstart) * coef(xstart, xstart)
    else:
        xstart = np.asarray(speeds.psi_inv(p2[ii] + p1[jj]), dtype=float)
        p0 = lam1(xstart) * gauge.ct_at(xstart) / (lam2(xstart) - lam1(xstart))
        cB = (nodes[ii] - xstart) * coef(xstart, xstart)
    bidx, bw = interp_setup(xstart, n - 1)
    bounds = np.searchsorted(ii, np.arange(n + 2))
    brows = [tuple(a[lo:hi] for a in (jj, p0, cB, bidx, bw))
             for lo, hi in zip(bounds[:-1], bounds[1:])]
    return fidx, fw, coefA, brows, diag_data, corner


class TestSharedPlanGeometry:
    @pytest.mark.parametrize("which", ["k11", "k12", "k21", "k22"])
    def test_plan_matches_unshared_build(self, which):
        # speeds varying at different rates in x, and nonzero k0 data, so
        # that every plan entry depends on which column the speed is read at
        n = 60
        speeds = SpeedPair.build(CoefficientSpec.polynomial([-1.0, -0.5, 0.3]),
                                 CoefficientSpec.polynomial([1.0, 1.0, -0.4]))
        grid = Grid.uniform(n)
        gauge = diag_removal(const(0.4), const(0.8), CoefficientSpec.step(0.3, 0.0, 1.0),
                             const(-0.2), speeds, grid)
        k0 = CoefficientSpec.polynomial([0.2, 0.5])
        plan = _build_plan(which, speeds, gauge, grid, k0, _triangle(speeds, grid))
        fidx, fw, coefA, brows, diag_data, corner = reference_build_plan(
            which, speeds, gauge, grid, k0)
        assert plan.fidx.dtype == np.int32 and np.array_equal(plan.fidx, fidx)
        assert plan.fw.tobytes() == fw.tobytes()
        assert plan.coefA.tobytes() == coefA.tobytes()
        assert np.count_nonzero(coefA) > coefA.size // 4
        assert len(plan.brows) == len(brows) and sum(len(r[0]) for r in brows) >= n
        for got, want in zip(plan.brows, brows):
            assert got[3].dtype == np.int32 and np.array_equal(got[3], want[3])
            for k in (0, 1, 2, 4):
                assert got[k].tobytes() == want[k].tobytes()
        assert (plan.diag_data is None) == (diag_data is None)
        if diag_data is not None:
            assert plan.diag_data.tobytes() == diag_data.tobytes()
        assert np.float64(plan.corner).tobytes() == np.float64(corner).tobytes()


class TestTraceRowBlocks:
    @pytest.mark.parametrize("rows", [101, 64, 7], ids=["one-block", "ragged", "rows-7"])
    def test_blocks_match_unblocked(self, varying_speeds, monkeypatch, rows):
        # n = 100: 101 paths are one block, 64 + 37 (ragged), or 14 x 7 + 3
        n = 100
        grid = Grid.uniform(n)
        gauge = diag_removal(const(0.3), const(0.8), CoefficientSpec.step(0.2, 0.0, 1.0),
                             const(-0.4), varying_speeds, grid)
        P22 = np.tril(np.random.default_rng(7).standard_normal((n + 1, n + 1)))
        monkeypatch.setattr(simulator, "_CANONICAL_ROWS", rows)
        got = _trace_row_direct(varying_speeds, gauge, grid, P22)
        want = reference_trace_row_direct(varying_speeds, gauge, grid, P22)
        assert np.count_nonzero(want) > n // 2
        assert got.tobytes() == want.tobytes()


def solve_peak(gauge, speeds, grid, pairs=("gains", "trace")):
    """tracemalloc peak of one solve_kernels call above its base, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve_kernels(gauge, speeds, None, grid, pairs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_solve_peak_at_n400(self, varying_speeds):
        # the first pair's two kernels while the second pair's second plan
        # is built: with the triangle geometry (1.5), the first plan (1.5)
        # and the second build's plan and temporaries (4.3), about 9.3
        # arrays of (n+1)^2 floats at the peak (10.9 while the four kernels
        # were marched together, 19 before the plans shared their geometry
        # and the trace ran in row blocks)
        n = 400
        grid = Grid.uniform(n)
        gauge = diag_removal(const(0.0), const(0.8), CoefficientSpec.step(0.2, 0.0, 1.0),
                             const(0.0), varying_speeds, grid)
        assert solve_peak(gauge, varying_speeds, grid) <= 10 * (n + 1) ** 2 * 8

    @pytest.mark.parametrize("pair", ["gains", "trace"])
    def test_pair_peak_at_n400(self, varying_speeds, pair):
        # the build of the pair's second plan: the triangle geometry (1.5),
        # the first plan (1.5) and the second build's plan and temporaries
        # (4.3), about 7.3 arrays
        n = 400
        grid = Grid.uniform(n)
        gauge = diag_removal(const(0.0), const(0.8), CoefficientSpec.step(0.2, 0.0, 1.0),
                             const(0.0), varying_speeds, grid)
        assert solve_peak(gauge, varying_speeds, grid, (pair,)) <= 8 * (n + 1) ** 2 * 8

    @pytest.mark.parametrize("n", [4, 16, 64, 150])
    def test_estimate_bounds_peak(self, unit_speeds, varying_speeds, n):
        for speeds in (unit_speeds, varying_speeds):
            grid = Grid.uniform(n)
            gauge = diag_removal(const(0.5), const(1.0), CoefficientSpec.step(0.25, 0.0, 1.0),
                                 const(-0.3), speeds, grid)
            peak = solve_peak(gauge, speeds, grid)
            assert peak <= solve_kernels_bytes(n, speeds.table_nodes.size - 1)


class TestMissingPair:
    """A reader given a KernelSet without the pair it reads names the kernel."""

    def test_feedback_gains(self, unit_speeds):
        grid = Grid.uniform(16)
        gauge = diag_removal(const(0.0), const(1.0), const(1.0), const(0.0),
                             unit_speeds, grid)
        K = solve_kernels(gauge, unit_speeds, None, grid, ("trace",))
        with pytest.raises(DomainError, match="feedback_gains needs kernel k11, k12"):
            feedback_gains(K, gauge)

    def test_trace_g(self, unit_speeds):
        grid = Grid.uniform(16)
        gauge = diag_removal(const(0.0), const(1.0), const(1.0), const(0.0),
                             unit_speeds, grid)
        K = solve_kernels(gauge, unit_speeds, None, grid, ("gains",))
        with pytest.raises(DomainError, match="trace_g needs kernel k21,"):
            trace_g(K, unit_speeds)

    @pytest.mark.parametrize("pair, missing", [("gains", "k21, k22"), ("trace", "k11, k12")])
    def test_export_kernels_csv(self, unit_speeds, tmp_path, pair, missing):
        grid = Grid.uniform(16)
        gauge = diag_removal(const(0.0), const(1.0), const(1.0), const(0.0),
                             unit_speeds, grid)
        K = solve_kernels(gauge, unit_speeds, None, grid, (pair,))
        with pytest.raises(DomainError, match=f"export_kernels_csv needs kernel {missing},"):
            export_kernels_csv(K, tmp_path / "k.csv")
        assert not (tmp_path / "k.csv").exists()


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
