import itertools
import json
import math
import pathlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypmin import (CoefficientSpec, Grid, SpeedPair, diag_removal, kernels,
                    predicted_g_prefix, solve_gains, solve_kernels, solve_trace)
from hypmin.cli import run_cli
from hypmin.coeffs import prefix_of_samples
from hypmin.errors import DomainError, PreconditionError
from hypmin.kernels import (_blocks, _step_interior, solve_kernels_bytes, write_kernels_csv,
                            write_kernels_csv_bytes)
from hypmin.system import export_profile_csv

from conftest import const, make_system, reference_kernels_csv

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def solve(speeds, a=0.0, b=0.0, c=0.0, d=0.0, n=100):
    """The gauge the solve builds (for the references) and the KernelSet."""
    grid = Grid.uniform(n)
    system = make_system(speeds, a, b, c, d)
    return kernels._gauge(system, grid)[0], solve_kernels(system, grid)


def sin_map(speeds, x):
    """The s in (0, x) with phi1(s) + phi2(s) = phi2(x): the diagonal point
    feeding the k21 trace at (x, 0), and xbar at x = 1."""
    return speeds.psi_inv(speeds.phi_eval(2, x))


def reference_march(plans, P, src, n):
    """The whole-triangle column march of the kernels in P, kernel w coupled
    to the field src[w], with plans from reference_build_plan.

    With src the crossed pair itself ({k12: P[k11], k11: P[k12]}) each
    column is solved in dependency order, the one-pass solve; with a fresh P
    and src fixed fields it is one frozen-coupling (Picard) sweep.  A
    diagonal-entered kernel (k12/k21) reads the diagonal of src[w], an
    edge-entered one (k11/k22) its edge xi=0.  A column's boundary points are
    written after all its interior points, kernel by kernel in the order of P.
    """
    edges = {w: src[w][:, 0] if plans[w][4] is None else src[w].diagonal() for w in P}
    for w in P:
        P[w][0, 0] = plans[w][5]
    for i in range(1, n + 1):
        for w in P:
            fidx, fw, coefA, _, diag_data, _ = plans[w]
            m = i if diag_data is not None else i + 1
            row = slice(i * (i + 1) // 2, i * (i + 1) // 2 + m)
            fid, fwt = fidx[row], fw[row]
            prev_self, prev_other = P[w][i - 1], src[w][i - 1]
            up = 1.0 - fwt
            P[w][i, :m] = (prev_self[fid] * up + prev_self[fid + 1] * fwt
                           + coefA[row] * (prev_other[fid] * up + prev_other[fid + 1] * fwt))
        for w in P:
            js, p0, cB, bidx, bw = plans[w][3][i]
            if js.size:
                P[w][i, js] = p0 + cB * (edges[w][bidx] * (1.0 - bw) + edges[w][bidx + 1] * bw)
            if plans[w][4] is not None:
                P[w][i, i] = plans[w][4][i]


NAMES = ("k11", "k12", "k21", "k22")


def trace_row(speeds, gauge, grid, P22):
    """p21 on the edge xi=0 at every node: the trace paths through P22 in
    each of the blocks the trace stream integrates."""
    _, paths = kernels._trace_paths(gauge)
    return np.concatenate([paths(P22, rows) for rows in kernels._row_blocks(grid.n)])


def weighted(P, speeds, gauge, grid):
    """k from the marched p: the direct trace row of k21, then the division
    by lambda_fa(xi), as solve_kernels does."""
    P["k21"][:, 0] = trace_row(speeds, gauge, grid, P["k22"])
    l1 = np.asarray(speeds.speed(1, grid.nodes), dtype=float)
    l2 = np.asarray(speeds.speed(2, grid.nodes), dtype=float)
    return {w: P[w] / wgt[None, :] for w, wgt in zip(NAMES, (l1, l2, l1, l2))}


def reference_kernels(gauge, speeds, grid):
    """The one-pass solve on the whole triangle: each pair marched with its
    diagonal-entered kernel first and its partner live."""
    n = grid.n
    P = {}
    for wd, we in (("k12", "k11"), ("k21", "k22")):
        plans = {w: reference_build_plan(w, speeds, gauge, grid) for w in (wd, we)}
        pair = {w: np.zeros((n + 1, n + 1)) for w in (wd, we)}
        reference_march(plans, pair, {wd: pair[we], we: pair[wd]}, n)
        P.update(pair)
    return weighted(P, speeds, gauge, grid)


def picard_reference(gauge, speeds, grid, tol=1e-13, max_iter=200):
    """Kernels by successive approximation: frozen-coupling sweeps of
    reference_march, each kernel reading the previous iterate of its partner,
    repeated until each kernel's sup-norm update falls below tol relative to
    its size, then the same trace row and weight division as solve_kernels."""
    n = grid.n
    partner = {"k11": "k12", "k12": "k11", "k21": "k22", "k22": "k21"}
    plans = {w: reference_build_plan(w, speeds, gauge, grid) for w in NAMES}
    P = {w: np.zeros((n + 1, n + 1)) for w in NAMES}
    for _ in range(max_iter):
        new = {w: np.zeros((n + 1, n + 1)) for w in NAMES}
        reference_march(plans, new, {w: P[partner[w]] for w in NAMES}, n)
        update = max(np.max(np.abs(new[w] - P[w])) / (np.max(np.abs(new[w])) or 1.0)
                     for w in NAMES)
        P = new
        if update <= tol:
            break
    else:
        pytest.fail(f"reference Picard solve stalled at update {update:g}")
    return weighted(P, speeds, gauge, grid)


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

    @pytest.mark.parametrize("solve", [solve_kernels, solve_gains, solve_trace],
                             ids=["full", "gains", "trace"])
    def test_reflection_is_precondition_error(self, unit_speeds, solve):
        # the kernels' edge condition at xi=0 is that of the zero reflection:
        # each solve builds its own gauge and refuses a system with q != 0
        with pytest.raises(PreconditionError, match=r"^the kernel solve assumes the zero "
                                                    r"reflection q = 0, got q = 0\.5$"):
            solve(make_system(unit_speeds, b=1.0, c=1.0, q=0.5), Grid.uniform(16))

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

    def test_edge_conditions(self, unit_speeds, varying_speeds):
        # k11 and k22 enter through the edge xi=0 with zero data: exactly
        # zero there, at unit and at varying speeds
        for speeds in (unit_speeds, varying_speeds):
            _, K = solve(speeds, b=0.7, c=1.0)
            assert np.max(np.abs(K.k11)) > 0.1 and np.max(np.abs(K.k22)) > 0.1
            assert np.max(np.abs(K.k11[:, 0])) == 0.0
            assert np.max(np.abs(K.k22[:, 0])) == 0.0

    @pytest.mark.parametrize("b,entry,marched", [
        (1.0, "full", ["gains", "trace"]), (1.0, "gains", ["gains"]), (1.0, "trace", ["trace"]),
        (0.0, "full", ["trace"]), (0.0, "gains", []), (0.0, "trace", []),
        ("step", "gains", ["gains"]), ("step", "trace", ["trace"])],
        ids=["both", "gains", "trace", "b0-both", "b0-gains", "b0-trace",
             "b-step-gains", "b-step-trace"])
    def test_one_march_per_pair(self, varying_speeds, monkeypatch, b, entry, marched):
        # each pair an entry point reads is marched once: the one-pass march
        # is its own fixed point, so no second sweep runs over its result;
        # with b = 0 the gains pair and k22 are exactly zero: the gains pair
        # is not marched, the trace pair only for the exported k21 and k22,
        # and a b that vanishes on part of [0, 1] only still is
        calls = []
        march = kernels._march_pair

        def counted(pair, *args):
            calls.append(pair)
            return march(pair, *args)

        monkeypatch.setattr(kernels, "_march_pair", counted)
        grid = Grid.uniform(16)
        b = CoefficientSpec.step(0.5, 0.0, 1.0) if b == "step" else const(b)
        system = make_system(varying_speeds, b=b, c=1.0)
        {"full": solve_kernels, "gains": solve_gains, "trace": solve_trace}[entry](system, grid)
        assert calls == marched

    @pytest.mark.parametrize("b", [0.0, 0.8])
    @pytest.mark.parametrize("entry", ["full", "gains", "trace", "csv"])
    def test_one_setup_per_solve(self, varying_speeds, monkeypatch, tmp_path, entry, b):
        # _gauge is the one set-up: each solve builds its gauge and decides
        # whether the system is coupled once
        calls = {"diag_removal": 0, "_uncoupled": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(kernels, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(kernels, name, counted)
        system = make_system(varying_speeds, b=b, c=1.0)
        grid = Grid.uniform(16)
        if entry == "csv":
            write_kernels_csv(system, grid, tmp_path / "kernels.csv")
        else:
            {"full": solve_kernels, "gains": solve_gains, "trace": solve_trace}[entry](system, grid)
        assert calls == {"diag_removal": 1, "_uncoupled": 1}

    @pytest.mark.parametrize("n", [5, 100])
    def test_equal_cell_times_skip_march(self, unit_speeds, monkeypatch, n):
        # lambda = -1, 1: some k12 feet round past row i-1, but their weight
        # is clamped to 1, so the zero gains need no march and f2 is -0.0
        calls = []
        march = kernels._march_pair
        monkeypatch.setattr(kernels, "_march_pair",
                            lambda pair, *args: calls.append(pair) or march(pair, *args))
        grid = Grid.uniform(n)
        law = solve_gains(make_system(unit_speeds, c=1.0), grid)
        assert calls == []
        assert np.signbit(law.f2).all()

    def test_uncoupled_gains_build_no_row_block(self, varying_speeds, monkeypatch):
        # b = 0: solve_gains takes row n of the zero gains pair directly,
        # without the row blocks that solve_kernels fills
        def no_blocks(n):
            raise AssertionError("a row block was built")

        monkeypatch.setattr(kernels, "_row_blocks", no_blocks)
        system = make_system(varying_speeds, c=CoefficientSpec.step(0.2, 0.0, 1.0))
        law = solve_gains(system, Grid.uniform(1600))
        assert not law.f1.any() and not law.f2.any()

    @pytest.mark.parametrize("b", [0.0, -0.0], ids=["b+0", "b-0"])
    @pytest.mark.parametrize("lam", ["unit", "0.7", "x"])
    @pytest.mark.parametrize("n", [5, 33, 100])
    def test_zero_gains_march_keeps_signs(self, b, lam, n):
        # equal cell times (lambda1 = -lambda2) round some interior feet
        # past x_{i-1}; with the weight clamped the zero march still gives
        # k11 = +0.0 everywhere and k12 = -0.0 on j <= i, +0.0 above
        l1, l2 = {"unit": (const(-1.0), const(1.0)), "0.7": (const(-0.7), const(0.7)),
                  "x": (CoefficientSpec.polynomial([-1.0, -1.0]),
                        CoefficientSpec.polynomial([1.0, 1.0]))}[lam]
        speeds = SpeedPair.build(l1, l2)
        grid = Grid.uniform(n)
        gauge = diag_removal(const(0.0), const(b), const(1.0), const(0.0), speeds, grid)
        blocks, k12, k11 = zip(*kernels._march_pair("gains", gauge))
        lower = np.tril(np.ones((n + 1, n + 1), dtype=bool))
        assert [i for rows in blocks for i in rows] == list(range(n + 1))
        assert np.concatenate(k11).tobytes() == np.zeros((n + 1, n + 1)).tobytes()
        assert np.concatenate(k12).tobytes() == np.where(lower, -0.0, 0.0).tobytes()

    @pytest.mark.parametrize("which", ["k11", "k12", "k21", "k22"])
    def test_plan_weights_in_unit_interval(self, unit_speeds, which):
        # no step extrapolates: the interior and boundary weights of every
        # block plan lie in [0, 1], also where a foot rounds past row i-1
        grid = Grid.uniform(100)
        gauge = diag_removal(const(0.0), const(1.0), const(1.0), const(0.0), unit_speeds, grid)
        for blk in _blocks(gauge):
            plan = kernels._block_plan([which], gauge, blk)
            assert ((plan.fw >= 0.0) & (plan.fw <= 1.0)).all()
        bw = kernels._band(which, gauge).bw
        assert bw.size and ((bw >= 0.0) & (bw <= 1.0)).all()

    @pytest.mark.parametrize("entry,which", [("gains", "k12"), ("trace", "k21")])
    def test_zero_b_large_c_still_overflows(self, entry, which, recwarn):
        # b = 0 but lambda1 * c overflows: the march's source coefficients
        # are infinite and its zeros turn NaN, so both pairs are marched and
        # raise as before, though their exact values would be zero
        speeds = SpeedPair.build(const(-2.0), const(1.0))
        grid = Grid.uniform(16)
        system = make_system(speeds, c=CoefficientSpec.step(0.6, 0.0, 1e308))
        assert kernels._gauge(system, grid)[1]
        solve = solve_gains if entry == "gains" else solve_trace
        with pytest.raises(DomainError, match=f"^kernel {which} overflows"):
            solve(system, grid)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("entry", ["full", "gains", "trace"])
    def test_zero_coupling_grid_too_coarse(self, varying_speeds, entry):
        grid = Grid.uniform(3)
        solve = {"full": solve_kernels, "gains": solve_gains, "trace": solve_trace}[entry]
        with pytest.raises(DomainError, match="need n >= 4"):
            solve(make_system(varying_speeds, c=1.0), grid)

    def test_overflow_is_one_line_domain_error(self, unit_speeds, recwarn):
        # b = c = 1e160 pass the gauge but overflow the march: the row check
        # names the kernel, with no RuntimeWarning on the way
        grid = Grid.uniform(16)
        with pytest.raises(DomainError, match=r"^kernel k1[12] overflows: the couplings b "
                                              r"and c are too large for the kernel solve$"):
            solve_gains(make_system(unit_speeds, b=1e160, c=1e160), grid)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("entry", ["full", "csv"])
    def test_stream_raises_first_error_it_meets(self, unit_speeds, monkeypatch, tmp_path,
                                                entry):
        # blocks of 2 rows: the checks of block 2 (rows 4 and 5) find k21
        # overflowing before the gains march overflows k12 in block 3, and the
        # stream raises k21 there, after 14 plans: 3 gains blocks and the 4
        # trace blocks the trace march has run ahead to, of 2 plans each; it
        # marches no gains block past the error to name k12 (16 plans)
        monkeypatch.setattr(kernels, "BLOCK_POINTS", 40)
        calls = []
        build = kernels._build_plan
        monkeypatch.setattr(kernels, "_build_plan",
                            lambda which, *args: calls.append(which) or build(which, *args))
        system = make_system(unit_speeds, a=0.5, b=1e160,
                             c=CoefficientSpec.step(0.25, 0.0, 1e160), d=-0.3)
        grid = Grid.uniform(16)
        with pytest.raises(DomainError, match="^kernel k21 overflows"):
            if entry == "full":
                solve_kernels(system, grid)
            else:
                write_kernels_csv(system, grid, tmp_path / "kernels.csv")
        assert len(calls) == 14

    @pytest.mark.parametrize("entry", ["gains", "trace"])
    @pytest.mark.parametrize("poison,named", [
        ({"edge": 5, "diagonal": 6}, "edge"), ({"diagonal": 5, "edge": 6}, "diagonal"),
        ({"diagonal": 5, "edge": 5}, "diagonal")], ids=["edge-first", "diagonal-first", "both"])
    def test_march_error_names_first_row(self, varying_speeds, monkeypatch, entry, poison,
                                         named):
        # n = 16 is one row block: the kernel whose row turns non-finite
        # first is named, the diagonal-entered one where both turn in the
        # same row, whatever the order of the kernels' names
        step = kernels._step_boundary

        def poisoned(plan, row, edge, i):
            step(plan, row, edge, i)
            if i >= poison["edge" if plan.on_edge else "diagonal"]:
                row[0] = np.inf

        monkeypatch.setattr(kernels, "_step_boundary", poisoned)
        grid = Grid.uniform(16)
        wd, we = kernels._PAIRS[entry]
        solve = solve_gains if entry == "gains" else solve_trace
        with pytest.raises(DomainError, match=f"^kernel {wd if named == 'diagonal' else we} "):
            solve(make_system(varying_speeds, b=0.8, c=1.0), grid)

    def test_one_pass_matches_picard_varying(self, varying_speeds):
        c = CoefficientSpec.step(0.3, 0.0, 1.0)
        gauge, K = solve(varying_speeds, b=0.8, c=c, n=120)
        assert np.max(np.abs(K.k12)) > 0.1 and np.max(np.abs(K.k21)) > 0.1
        assert_matches_reference(gauge, K, varying_speeds)

    @pytest.mark.parametrize("which", ["k11", "k12", "k21", "k22"])
    def test_packed_plan_feet_on_characteristics(self, varying_speeds, monkeypatch, which):
        # stepping a row linear in xi yields, at (x_i, x_j), the foot in row
        # i-1 of the characteristic through that point: its invariant is the
        # one at (x_i, x_j); blocks of at most 60 points split the triangle
        # into blocks of a few rows, the last one ragged.  The pair's plan
        # steps both kernels at once: which reads its own row, linear in
        # xi, and its partner's, zero
        n = 24
        grid = Grid.uniform(n)
        gauge = diag_removal(const(0.0), const(1.0), const(1.0), const(0.0),
                             varying_speeds, grid)
        monkeypatch.setattr(kernels, "BLOCK_POINTS", 60)
        pair = next(p for p in kernels._PAIRS.values() if which in p)
        t = pair.index(which)
        prev = np.zeros((2, n + 1))
        prev[t] = grid.nodes
        feet = np.zeros((n + 1, n + 1))
        points = 0
        for blk in _blocks(gauge):
            plan = kernels._block_plan(pair, gauge, blk)
            assert plan.fidx.shape == plan.fw.shape == plan.coefA.shape == (2, blk.ii.size)
            points += blk.ii.size
            for i in blk.rows:
                if i >= 2:
                    row = np.zeros((2, n + 1))
                    _step_interior(plan, row, prev, i)
                    feet[i] = row[t]
        assert points == (n + 1) * (n + 2) // 2 - 1       # every row but row 0
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

    @settings(max_examples=20, deadline=None)
    @example(n=33, budget="ragged", varying=True, s1=0.3, s2=0.2, b=0.0, c=0.0,
             lam1=-1.0, lam2=1.0, a=0.5, d=-0.3)
    @example(n=40, budget="row", varying=True, s1=0.3, s2=-0.2, b=-0.0, c=1.5,
             lam1=-0.7, lam2=1.2, a=-0.4, d=0.6)
    @example(n=24, budget="one", varying=False, s1=0.2, s2=0.1, b=0.0, c="step",
             lam1=-1.3, lam2=0.9, a=0.2, d=0.3)
    @example(n=5, budget="ragged", varying=False, s1=0.2, s2=0.1, b=-0.0, c="step",
             lam1=-1.0, lam2=1.0, a=0.2, d=0.3)
    @given(n=st.integers(4, 80), budget=st.sampled_from(["row", "ragged", "one"]),
           varying=st.booleans(), s1=st.floats(0.1, 0.4), s2=st.floats(-0.4, 0.4),
           b=st.floats(-2.0, 2.0), c=st.floats(-2.0, 2.0),
           lam1=st.floats(-2.0, -0.5), lam2=st.floats(0.5, 2.0),
           a=st.floats(0.1, 2.0) | st.floats(-2.0, -0.1),
           d=st.floats(0.1, 2.0) | st.floats(-2.0, -0.1))
    def test_matches_whole_triangle_reference(self, n, budget, varying, s1, s2, b, c,
                                              lam1, lam2, a, d):
        # the row-block march gives bitwise the whole-triangle march's
        # kernels, g and gains, and the two one-pair solves bitwise the
        # full solve's g and gains, whether each block holds one row, a few rows with a
        # ragged last block, or the whole triangle; the examples with b = 0
        # (c zero, constant, a step at 0.3) take the uncoupled path, the last
        # one at lambda = -1, 1 where some of k12's feet round past row i-1;
        # there the reference still integrates g along the paths through its
        # marched k22, which the solves skip
        points = {"row": 1, "ragged": 4 * (n + 1), "one": (n + 1) ** 2}[budget]
        slope = 1.0 if varying else 0.0
        speeds = SpeedPair.build(CoefficientSpec.polynomial([lam1, slope * s1]),
                                 CoefficientSpec.polynomial([lam2, slope * s2]))
        grid = Grid.uniform(n)
        c = CoefficientSpec.step(0.3, 0.0, 1.0) if c == "step" else const(c)
        system = make_system(speeds, a, b, c, d)
        gauge = diag_removal(const(a), const(b), c, const(d), speeds, grid)
        want = reference_kernels(gauge, speeds, grid)
        want_g = -want["k21"][:, 0] * float(speeds.speed(1, 0.0))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "BLOCK_POINTS", points)
            K = solve_kernels(system, grid)
            law = solve_gains(system, grid)
            g = solve_trace(system, grid)
        for name in NAMES:
            assert getattr(K, name).tobytes() == want[name].tobytes(), name
        assert K.gains.f1.tobytes() == (want["k11"][n] * gauge.e1 / gauge.e1[-1]).tobytes()
        assert K.gains.f2.tobytes() == (want["k12"][n] * gauge.e2 / gauge.e1[-1]).tobytes()
        assert K.g.tobytes() == want_g.tobytes()
        assert law.f1.tobytes() == K.gains.f1.tobytes()
        assert law.f2.tobytes() == K.gains.f2.tobytes()
        assert g.tobytes() == K.g.tobytes()

    @pytest.mark.parametrize("b", [0.0, 0.8], ids=["b0", "b0.8"])
    @pytest.mark.parametrize("budget", ["row", "ragged", "one"])
    def test_export_matches_whole_triangle_reference(self, varying_speeds, tmp_path, budget,
                                                     b):
        # write_kernels_csv's file, g and gains are bitwise those of the
        # whole-triangle march, as test_matches_whole_triangle_reference
        # pins solve_kernels', whether each block holds one row, four rows
        # with a ragged last block of one, or the whole triangle
        n = 40
        points = {"row": 1, "ragged": 4 * (n + 1), "one": (n + 1) ** 2}[budget]
        c = CoefficientSpec.step(0.3, 0.0, 1.0)
        system = make_system(varying_speeds, 0.3, b, c, -0.4)
        grid = Grid.uniform(n)
        gauge = diag_removal(const(0.3), const(b), c, const(-0.4), varying_speeds, grid)
        want = reference_kernels(gauge, varying_speeds, grid)
        want_g = -want["k21"][:, 0] * float(varying_speeds.speed(1, 0.0))
        want_f1 = want["k11"][n] * gauge.e1 / gauge.e1[-1]
        want_f2 = want["k12"][n] * gauge.e2 / gauge.e1[-1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "BLOCK_POINTS", points)
            g, gains = write_kernels_csv(system, grid, tmp_path / "new.csv")
        reference_kernels_csv(SimpleNamespace(grid=grid, **want), tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert g.tobytes() == want_g.tobytes()
        assert gains.nodes.tobytes() == grid.nodes.tobytes()
        assert gains.f1.tobytes() == want_f1.tobytes()
        assert gains.f2.tobytes() == want_f2.tobytes()

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
        g = K.g
        assert np.max(np.abs(g)) <= 1e-12

    def test_origin_value(self, unit_speeds):
        c0 = 1.4
        _, K = solve(unit_speeds, b=0.0, c=c0)
        g = K.g
        assert g[0] == pytest.approx(c0 / 2.0, abs=1e-10)

    def test_step_prefix_matches_prediction(self, unit_speeds):
        c = CoefficientSpec.step(0.25, 0.0, 1.0)
        _, K = solve(unit_speeds, b=0.5, c=c, n=200)
        g = K.g
        tol = 1e-8
        measured = prefix_of_samples(g, K.grid.h, 1.0, tol)
        predicted = predicted_g_prefix(unit_speeds, c, K.grid)
        assert abs(measured - predicted) <= 2 * K.grid.h

    def test_linearity_in_coupling(self, unit_speeds):
        c = CoefficientSpec.step(0.2, 0.0, 0.7)
        c2 = CoefficientSpec.step(0.2, 0.0, 1.4)
        _, Ka = solve(unit_speeds, b=0.0, c=c, n=80)
        _, Kb = solve(unit_speeds, b=0.0, c=c2, n=80)
        assert np.allclose(Kb.g, 2.0 * Ka.g, atol=1e-9)


class TestUncoupledOracle:
    """b = 0 kernels against values that no grid enters.  With a = b = d = 0
    the kernels k11, k12 and k22 vanish, and p21 = k21 * lambda1(xi) is
    constant along phi2(x) + phi1(xi) = psi(sigma), where it equals its
    diagonal datum lambda1 c / (lambda2 - lambda1) at sigma; SpeedPair's
    inverses give sigma."""

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["c+", "c-"])
    def test_first_order_against_exact_k21(self, varying_speeds, sign):
        # lambda1 = -(1 + x/2), lambda2 = 1 + x, c = +-(0.7 - 1.3x + 0.4x^2),
        # which changes sign at x = 0.66: the max error over the triangle
        # is about 0.015 h (1.49e-4 at n = 100, 1.88e-5 at n = 800), and
        # g's, read at sigma from the gauge's linear interpolation of c,
        # about 0.05 h^2
        sp = varying_speeds
        c = CoefficientSpec.polynomial([0.7 * sign, -1.3 * sign, 0.4 * sign])
        levels = np.array([100, 200, 400, 800])
        errs, g_errs = [], []
        for n in levels:
            grid = Grid.uniform(n)
            K = solve_kernels(make_system(sp, c=c), grid)
            for k in (K.k11, K.k12, K.k22):
                assert np.max(np.abs(k)) == 0.0
            ii, jj = np.tril_indices(n + 1)
            x, xi = grid.nodes[ii], grid.nodes[jj]
            sigma = sp.psi_inv(sp.phi_eval(2, x) + sp.phi_eval(1, xi))
            l1, l2 = sp.speed(1, sigma), sp.speed(2, sigma)
            exact = l1 * c(sigma) / ((l2 - l1) * sp.speed(1, xi))
            errs.append(np.max(np.abs(K.k21[ii, jj] - exact)))
            g = -exact[jj == 0] * sp.speed(1, 0.0)
            g_errs.append(np.max(np.abs(K.g - g)))
        order = -np.polyfit(np.log(levels), np.log(errs), 1)[0]
        assert 0.9 <= order <= 1.1
        assert 0.012 <= errs[-1] * levels[-1] <= 0.018
        g_order = -np.polyfit(np.log(levels), np.log(g_errs), 1)[0]
        assert 1.9 <= g_order <= 2.1
        assert g_errs[-1] * levels[-1] ** 2 <= 0.06


_DEG = 32       # total degree of the Picard polynomials: the terms reach 2 * 9 + 1


def picard_pair(d, e, tol=1e-14):
    """The solution (w, z) of w = d/2 - (d/2) int_0^beta z(alpha, b) db and
    z = -(e/2) int_beta^alpha w(a, beta) da as its Neumann series in exact
    polynomial arithmetic: arrays C[i, j] of the coefficients of
    alpha^i beta^j, each term both integrals of the last, summed until a
    term is below tol on the triangle (alpha <= 2, beta <= 1)."""
    powers = np.arange(_DEG + 1)
    on_edge = np.add.outer(powers, powers)      # alpha^i beta^j is beta^(i+j) at alpha = beta
    size = lambda C: 2.0 ** powers @ np.abs(C).sum(axis=1)

    def int_alpha(W):
        F = npoly.polyint(W, axis=0)[:-1]
        F[0] -= np.bincount(on_edge.ravel(), F.ravel())[:_DEG + 1]
        return F

    w_term = np.zeros((_DEG + 1, _DEG + 1))
    w_term[0, 0] = d / 2
    w, z = w_term.copy(), np.zeros_like(w_term)
    for _ in range(_DEG // 2):
        z_term = -(e / 2) * int_alpha(w_term)
        w_term = -(d / 2) * npoly.polyint(z_term, axis=1)[:, :-1]
        w, z = w + w_term, z + z_term
        if max(size(w_term), size(z_term)) < tol:
            return tuple(C[:C.any(1).nonzero()[0][-1] + 1, :C.any(0).nonzero()[0][-1] + 1]
                         for C in (w, z))     # without the zero rows and columns
    pytest.fail("the Picard reference did not converge")


def bessel_series(nu, s, terms=30):
    """sum_m s^m / (m! (m+nu)!), which is I_nu(2 sqrt(s)) / s^(nu/2) for s > 0
    and J_nu(2 sqrt(-s)) / (-s)^(nu/2) for s < 0."""
    out, term = np.zeros_like(s), np.full_like(s, 1.0 / math.factorial(nu))
    for m in range(terms):
        out += term
        term = term * s / ((m + 1) * (m + 1 + nu))
    return out


class TestCoupledOracle:
    """Kernels where b != 0 against values that no grid enters.  For unit
    speeds, a = d = 0 and constant b, c, the kernel equations
    Lambda K_x + (K Lambda)_xi + K M = 0, M = [[0, b], [c, 0]], with
    k12 = -b/2 and k21 = c/2 on the diagonal and k11 = k22 = 0 on the edge
    xi = 0 (the zero reflection), read in alpha = x + xi, beta = x - xi:

        k21 = c/2 - (c/2) int_0^beta k22 db,   k22 = -(b/2) int_beta^alpha k21 da,
        k12 = -b/2 + (b/2) int_0^beta k11 db,  k11 = (c/2) int_beta^alpha k12 da,

    so picard_pair(c, b) is (k21, k22) and picard_pair(-b, -c) is (k12, k11).
    With kappa = bc/4, s = kappa alpha beta and G_nu = bessel_series(nu, .):
    k11 = k22 = -kappa (alpha - beta) G_1(s) and
    (k21, k12) = (c/2, -b/2) (G_0(s) - kappa beta^2 G_2(s)).  Then
    g(x) = -lambda1(0) k21(x, 0) = k21 at alpha = beta = x, and the gains
    are k11 and k12 at x = 1."""

    PAIRS = [(0.8, -0.6), (-0.5, 1.2)]

    @staticmethod
    def references(b, c):
        (k21, k22), (k12, k11) = picard_pair(c, b), picard_pair(-b, -c)
        return {"k11": k11, "k12": k12, "k21": k21, "k22": k22}

    @pytest.mark.parametrize("b, c", PAIRS + [(0.9, 0.7)])
    def test_picard_matches_bessel_closed_form(self, b, c):
        # 9 terms each; every kernel within 3e-16 of the closed form, and
        # where bc > 0 the series G_0 within 9e-16 of numpy's I_0
        ii, jj = np.tril_indices(101)
        x, xi = ii / 100, jj / 100
        alpha, beta = x + xi, x - xi
        kappa = b * c / 4
        s = kappa * alpha * beta
        w = bessel_series(0, s) - kappa * beta ** 2 * bessel_series(2, s)
        closed = {"k11": -kappa * (alpha - beta) * bessel_series(1, s), "k12": -b / 2 * w,
                  "k21": c / 2 * w}
        closed["k22"] = closed["k11"]
        for name, C in self.references(b, c).items():
            assert np.max(np.abs(npoly.polyval2d(alpha, beta, C) - closed[name])) <= 1e-14, name
        if kappa > 0:
            assert np.max(np.abs(bessel_series(0, s) - np.i0(2 * np.sqrt(s)))) <= 1e-14

    @pytest.mark.parametrize("b, c, constants", [
        (0.8, -0.6, {"k11": 4.3e-4, "k12": 0.048, "k21": 0.036, "k22": 4.3e-4}),
        (-0.5, 1.2, {"k11": 8.4e-4, "k12": 0.037, "k21": 0.090, "k22": 8.4e-4}),
    ], ids=["b+c-", "b-c+"])
    def test_first_order_against_reference(self, unit_speeds, b, c, constants):
        # the max error over the triangle of each kernel is constants[k] * h
        # at n = 800 (the fitted order of n = 100 ... 800 lies in [0.99,
        # 1.0]); k11 and k22 have the same errors, and the gains f1 and f2,
        # row n of k11 and k12, those of k11 and k12.  g's error falls
        # faster over these levels, by 3.3, 2.9 and 2.6 per halving of h
        # (fitted order 1.55 and 1.44), to 3.9e-8 and 1.3e-7 at n = 800
        ref = self.references(b, c)
        levels = np.array([100, 200, 400, 800])
        errs = {name: [] for name in (*NAMES, "g", "f1", "f2")}
        for n in levels:
            K = solve_kernels(make_system(unit_speeds, b=b, c=c), Grid.uniform(n))
            steps = np.arange(2 * n + 1) / n     # alpha at the nodes, and beta on the first n + 1
            want = {name: npoly.polygrid2d(steps, steps[:n + 1], C) for name, C in ref.items()}
            ii, jj = np.tril_indices(n + 1)
            for name in NAMES:
                got = getattr(K, name)[ii, jj]
                errs[name].append(np.max(np.abs(got - want[name][ii + jj, ii - jj])))
            nodes = np.arange(n + 1)
            errs["g"].append(np.max(np.abs(K.g - want["k21"][nodes, nodes])))
            errs["f1"].append(np.max(np.abs(K.gains.f1 - want["k11"][n + nodes, n - nodes])))
            errs["f2"].append(np.max(np.abs(K.gains.f2 - want["k12"][n + nodes, n - nodes])))
        order = {name: -np.polyfit(np.log(levels), np.log(e), 1)[0] for name, e in errs.items()}
        for name in (*NAMES, "f1", "f2"):
            assert 0.9 <= order[name] <= 1.1, name
        for name, constant in constants.items():
            assert 0.8 <= errs[name][-1] * levels[-1] / constant <= 1.25, name
        assert errs["f1"] == errs["k11"] and errs["f2"] == errs["k12"]
        assert 1.3 <= order["g"] <= 1.7
        assert errs["g"][-1] <= 2e-7


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


def reference_build_plan(which, speeds, gauge, grid):
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
        diag_data, corner = None, 0.0

    def interp_setup(pos, clamp_hi):
        idx = np.clip(np.floor(pos / h).astype(np.int64), 0, clamp_hi)
        return idx, np.clip(pos / h - idx, 0.0, 1.0)

    xiP = np.clip(feet, 0.0, 1.0)
    fidx, fw = interp_setup(xiP, np.maximum(ii - 2, 0))
    coefA = h * coef(nodes[ip], xiP)
    band = (ii > jj if diag_data is not None else ii > 0) & ~interior
    ii, jj = ii[band], jj[band]
    if which in ("k11", "k22"):
        fa, pa = (1, p1) if which == "k11" else (2, p2)
        # a step ending on the edge starts at its own node x_i
        xstart = np.where(jj == 0, nodes[ii], speeds.phi_inv_ext(fa, pa[ii] - pa[jj]))
        p0 = np.zeros(ii.size)
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
    def test_plan_matches_unshared_build(self, monkeypatch, which):
        # speeds varying at different rates in x, so that every plan entry
        # depends on which row the speed is read at; each block of at most
        # 400 points is the matching slice of the whole-triangle build,
        # packed from its first row
        n = 60
        speeds = SpeedPair.build(CoefficientSpec.polynomial([-1.0, -0.5, 0.3]),
                                 CoefficientSpec.polynomial([1.0, 1.0, -0.4]))
        grid = Grid.uniform(n)
        gauge = diag_removal(const(0.4), const(0.8), CoefficientSpec.step(0.3, 0.0, 1.0),
                             const(-0.2), speeds, grid)
        monkeypatch.setattr(kernels, "BLOCK_POINTS", 400)
        fidx, fw, coefA, brows, diag_data, _ = reference_build_plan(which, speeds, gauge, grid)
        assert np.count_nonzero(coefA) > coefA.size // 4
        assert sum(len(r[0]) for r in brows) >= n
        # the band of the whole march, row by row
        band = kernels._band(which, gauge)
        assert band.on_edge == (diag_data is None) and len(band.bounds) == n + 2
        for i in range(n + 1):
            got, want = band.row(i), brows[i]
            assert got[3].dtype == np.intp and np.array_equal(got[3], want[3])
            for k in (0, 1, 2, 4):
                assert got[k].tobytes() == want[k].tobytes()
            assert got[5].tobytes() == (1.0 - want[4]).tobytes()
        blocks = 0
        for blk in _blocks(gauge):
            plan = kernels._block_plan([which], gauge, blk)
            r0, r1 = blk.rows.start, blk.rows.stop
            seg = slice(r0 * (r0 + 1) // 2, r1 * (r1 + 1) // 2)
            assert plan.r0 == r0 and plan.fidx.shape == (1, seg.stop - seg.start)
            assert plan.fidx.dtype == np.intp and np.array_equal(plan.fidx[0], fidx[seg])
            assert plan.fw[0].tobytes() == fw[seg].tobytes()
            assert plan.up[0].tobytes() == (1.0 - fw[seg]).tobytes()
            assert plan.coefA[0].tobytes() == coefA[seg].tobytes()
            blocks += 1
        assert blocks > 3


class TestTraceRowBlocks:
    @pytest.mark.parametrize("rows", [101, 64, 7], ids=["one-block", "ragged", "rows-7"])
    def test_blocks_match_unblocked(self, varying_speeds, monkeypatch, rows):
        # n = 100: blocks of rows x 101 points hold 101 paths (one block),
        # 64 + 37 (ragged), or 14 x 7 + 3; the quadrature leaves P22 as it
        # is (read-only here) and reads it on and below its diagonal only
        # (NaN above it), as the reference reads a copy padded with the
        # diagonal value right of it
        n = 100
        grid = Grid.uniform(n)
        gauge = diag_removal(const(0.3), const(0.8), CoefficientSpec.step(0.2, 0.0, 1.0),
                             const(-0.4), varying_speeds, grid)
        P22 = np.tril(np.random.default_rng(7).standard_normal((n + 1, n + 1)))
        monkeypatch.setattr(kernels, "BLOCK_POINTS", rows * (n + 1))
        lower_only = np.where(np.triu(np.ones_like(P22, dtype=bool), 1), np.nan, P22)
        lower_only.flags.writeable = False
        got = trace_row(varying_speeds, gauge, grid, lower_only)
        want = reference_trace_row_direct(varying_speeds, gauge, grid, P22)
        assert np.count_nonzero(want) > n // 2
        assert got.tobytes() == want.tobytes()


_COEFF = st.floats(-2.0, 2.0)


class TestUncoupledTraceMarch:
    @settings(max_examples=40, deadline=None)
    @example(n=16, points=1, varying=False, lam1=-1.0, lam2=1.0, s1=0.0, s2=0.0, a=0.0,
             d=0.0, c=("step", 0.3, 0.0, 1.0))
    @example(n=33, points=100, varying=True, lam1=-0.7, lam2=1.3, s1=0.4, s2=-0.3, a=0.5,
             d=-0.6, c=("step", 0.2, -1.5, -0.5))
    @example(n=20, points=10 ** 4, varying=True, lam1=-1.2, lam2=0.8, s1=-0.3, s2=0.2,
             a=-0.4, d=0.3, c=("polynomial", -1.0, 2.0, 0.5))
    @given(n=st.integers(4, 48), points=st.sampled_from([1, 100, 10 ** 4]),
           varying=st.booleans(), lam1=st.floats(-2.0, -0.5), lam2=st.floats(0.5, 2.0),
           s1=st.floats(-0.4, 0.4), s2=st.floats(-0.4, 0.4), a=_COEFF, d=_COEFF,
           c=st.tuples(st.just("step"), st.floats(0.0, 1.0), _COEFF, _COEFF)
           | st.tuples(st.just("polynomial"), _COEFF, _COEFF, _COEFF))
    def test_k21_plan_only_keeps_bits(self, n, points, varying, lam1, lam2, s1, s2, a, d, c):
        # an _uncoupled trace march that plans and steps k21 only yields,
        # by bits, the k21 and k22 blocks of the march that plans and steps
        # k22 too: k22 stays +0.0, and k21's steps read those zeros; blocks
        # of one row, a few rows with a ragged last block, or all rows, at
        # constant and linear speeds, c a step or a polynomial of either sign
        slope = 1.0 if varying else 0.0
        speeds = SpeedPair.build(CoefficientSpec.polynomial([lam1, slope * s1]),
                                 CoefficientSpec.polynomial([lam2, slope * s2]))
        kind, *p = c
        c = CoefficientSpec.step(*p) if kind == "step" else CoefficientSpec.polynomial(p)
        grid = Grid.uniform(n)
        gauge = diag_removal(const(a), const(0.0), c, const(d), speeds, grid)
        assert kernels._uncoupled(gauge)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "BLOCK_POINTS", points)
            both = list(kernels._march_pair("trace", gauge))
            k21_only = list(kernels._march_pair("trace", gauge, False))
            assert len(both) == len(k21_only) == len(kernels._row_blocks(n))
        for (rows, d_both, e_both), (rows_only, d_only, e_only) in zip(both, k21_only):
            assert rows == rows_only
            assert d_only.tobytes() == d_both.tobytes()
            assert e_only.tobytes() == e_both.tobytes() == np.zeros_like(e_both).tobytes()

    @pytest.mark.parametrize("b, plans", [(0.0, 81), (0.8, 4 * 81)], ids=["b0", "b0.8"])
    def test_export_plans_per_row_block(self, tmp_path, monkeypatch, b, plans):
        # the kernels command at n = 800 (81 row blocks of 10 rows): with
        # b = 0 the gains pair is not marched and the trace march plans k21
        # only, one plan a block; with b != 0 both pairs plan both kernels
        calls = []
        build = kernels._build_plan
        monkeypatch.setattr(kernels, "_build_plan",
                            lambda which, *args: calls.append(which) or build(which, *args))
        raw = json.loads((CONFIG_DIR / "varying_speeds.json").read_text())
        raw["grid_n"] = 800
        raw["system"]["b"] = {"family": "constant", "value": b}
        path = tmp_path / "varying.json"
        path.write_text(json.dumps(raw))
        assert len(kernels._row_blocks(800)) == 81
        assert run_cli(["kernels", str(path), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == plans
        assert set(calls) == ({"k21"} if b == 0.0 else {"k11", "k12", "k21", "k22"})


def solve_peak(solve):
    """tracemalloc peak of one solve() call above its base, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def step_system(speeds):
    return make_system(speeds, b=0.8, c=CoefficientSpec.step(0.2, 0.0, 1.0))


class TestMemory:
    def test_solve_peak_at_n400(self, varying_speeds):
        # the four kernels (4 arrays of (n+1)^2 floats) and one row block of
        # plans: about 6.2 arrays at the peak (9.3 while the plans covered
        # the whole triangle, 19 before the plans shared their geometry and
        # the trace ran in row blocks)
        n = 400
        grid = Grid.uniform(n)
        system = step_system(varying_speeds)
        peak = solve_peak(lambda: solve_kernels(system, grid))
        assert peak <= 10 * (n + 1) ** 2 * 8

    @pytest.mark.parametrize("entry", ["gains", "trace"])
    def test_pair_peak_at_n400(self, varying_speeds, entry):
        # one row block of plans, which at n = 400 spans a fifth of the
        # triangle, plus k22 for the trace: about 2.2 and 3.2 arrays (7.3
        # while a pair's plans covered the whole triangle)
        n = 400
        grid = Grid.uniform(n)
        system = step_system(varying_speeds)
        solve = solve_gains if entry == "gains" else solve_trace
        assert solve_peak(lambda: solve(system, grid)) <= 8 * (n + 1) ** 2 * 8

    def test_gains_peak_at_n1600(self, varying_speeds):
        # no kernel array at all: one row block of plans and O(n) rows,
        # about 0.15 arrays of (n+1)^2 floats (7.1 with whole-triangle plans)
        n = 1600
        grid = Grid.uniform(n)
        system = step_system(varying_speeds)
        assert solve_peak(lambda: solve_gains(system, grid)) \
            <= (n + 1) ** 2 * 8

    def test_trace_peak_at_n1600(self, varying_speeds):
        # k22, which the trace quadrature reads, plus one row block of
        # plans: about 1.1 arrays (7.1 with whole-triangle plans)
        n = 1600
        grid = Grid.uniform(n)
        system = step_system(varying_speeds)
        assert solve_peak(lambda: solve_trace(system, grid)) \
            <= 2.5 * (n + 1) ** 2 * 8

    @pytest.mark.parametrize("entry", ["gains", "trace"])
    def test_uncoupled_peak_at_n1600(self, varying_speeds, entry):
        # b = 0: no kernel array and no plans, only O(n) floats and the
        # temporaries of the speed table: about 34 and 14 floats per node
        # (0.15 and 1.1 arrays of (n+1)^2 floats when marching)
        n = 1600
        grid = Grid.uniform(n)
        system = make_system(varying_speeds, c=CoefficientSpec.step(0.2, 0.0, 1.0))
        solve = solve_gains if entry == "gains" else solve_trace
        table = varying_speeds.table_nodes.size * 8
        assert solve_peak(lambda: solve(system, grid)) \
            <= 48 * (n + 1) * 8 + 8 * table

    @pytest.mark.parametrize("n", [4, 16, 64, 150, 400])
    def test_estimate_bounds_peak(self, unit_speeds, varying_speeds, n):
        # kept (n+1)^2 arrays besides one row block of plans; at n = 400 a
        # block is a fifth of the triangle
        for speeds, b in itertools.product((unit_speeds, varying_speeds), (0.0, 1.0)):
            grid = Grid.uniform(n)
            system = make_system(speeds, 0.5, b, CoefficientSpec.step(0.25, 0.0, 1.0), -0.3)
            for solve, kept in ((solve_kernels, 4), (solve_trace, 1), (solve_gains, 0)):
                peak = solve_peak(lambda: solve(system, grid))
                assert peak <= solve_kernels_bytes(system, n, kept)


class TestFeedbackGains:
    def test_zero_kernels_zero_gains(self, unit_speeds):
        _, K = solve(unit_speeds, b=0.0, c=0.0)
        law = K.gains
        assert np.max(np.abs(law.f1)) == 0.0
        assert np.max(np.abs(law.f2)) == 0.0
        # the feedback of the unit state, integrated from the gains directly
        assert np.trapezoid(law.f1 + law.f2, law.nodes) == 0.0

    def test_trivial_gauge_passthrough(self, unit_speeds):
        _, K = solve(unit_speeds, b=1.0, c=1.0)
        law = K.gains
        n = K.grid.n
        assert np.allclose(law.f1, K.k11[n, :])
        assert np.allclose(law.f2, K.k12[n, :])

    def test_gauge_weights_enter(self, unit_speeds):
        gauge, K = solve(unit_speeds, a=1.0, b=1.0, c=1.0, d=0.5)
        law = K.gains
        n = K.grid.n
        want = K.k11[n, :] * gauge.e1 / gauge.e1[-1]
        assert np.allclose(law.f1, want)


class TestFloatErrorState:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bc", [1e160, 0.8], ids=["overflowing", "finite"])
    @pytest.mark.parametrize("entry,overflows", [
        ("full", "k12"), ("gains", "k12"), ("trace", "k21"), ("csv", "k12"),
        ("csv_bytes", None)])
    def test_state_stays_the_callers(self, unit_speeds, tmp_path, entry, overflows, bc):
        # each solve computes with float errors ignored and checks what it
        # returns: no RuntimeWarning, and the caller's np.geterr() after it,
        # whether it returns or raises (b = c = 1e160 overflow the march)
        system = make_system(unit_speeds, b=bc, c=bc)
        grid = Grid.uniform(16)
        run = {"full": lambda: solve_kernels(system, grid),
               "gains": lambda: solve_gains(system, grid),
               "trace": lambda: solve_trace(system, grid),
               "csv": lambda: write_kernels_csv(system, grid, tmp_path / "kernels.csv"),
               "csv_bytes": lambda: write_kernels_csv_bytes(system, grid.n, True)}[entry]
        before = np.geterr()
        if bc == 0.8 or overflows is None:
            run()
        else:
            with pytest.raises(DomainError, match=f"^kernel {overflows} overflows"):
                run()
        assert np.geterr() == before


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


class TestPredictedPrefix:
    def test_zero_coupling_gives_one(self, varying_speeds):
        assert predicted_g_prefix(varying_speeds, const(0.0), Grid.uniform(2048)) \
            == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_step(self, unit_speeds):
        c = CoefficientSpec.step(0.25, 0.0, 1.0)
        val = predicted_g_prefix(unit_speeds, c, Grid.uniform(400))
        assert val == pytest.approx(0.5, abs=2.5e-3)

    def test_nonzero_at_origin_gives_zero(self, unit_speeds):
        assert predicted_g_prefix(unit_speeds, const(1.0), Grid.uniform(2048)) \
            == pytest.approx(0.0, abs=1e-9)


class TestExports:
    def test_csv_files(self, unit_speeds, tmp_path):
        _, K = solve(unit_speeds, b=1.0, c=1.0, n=10)
        kpath = tmp_path / "kernels.csv"
        write_kernels_csv(make_system(unit_speeds, b=1.0, c=1.0), K.grid, kpath)
        lines = kpath.read_text().strip().splitlines()
        assert lines[0] == "x,xi,k11,k12,k21,k22"
        assert len(lines) == 1 + (11 * 12) // 2
        g = K.g
        gpath = tmp_path / "g.csv"
        export_profile_csv(gpath, K.grid.nodes, {"g": g})
        assert gpath.read_text().startswith("x,g")
