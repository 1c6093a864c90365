from fractions import Fraction
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypmin import (CoefficientSpec, Grid, SpeedPair, canonical_min_time,
                    diag_removal, nxn_canonical_min_time, simulate, solve_kernels,
                    times_report, titchmarsh_check)
from hypmin.coeffs import prefix_of_samples
from hypmin.errors import GridMismatchError, InvalidSpeedsError
from hypmin.mintime import _leading_convolution

from conftest import const, make_system


class TestTimesReport:
    @pytest.mark.parametrize("ell", [0.0, 0.1, 0.25, 0.4, 0.5])
    def test_symmetric_step_family(self, unit_speeds, ell):
        system = make_system(unit_speeds, c=CoefficientSpec.step(ell, 0.0, 1.0))
        tr = times_report(system, grid=Grid.uniform(400))
        assert tr.T1 == pytest.approx(1.0, abs=1e-12)
        assert tr.T2 == pytest.approx(1.0, abs=1e-12)
        assert tr.Topt == pytest.approx(1.0, abs=1e-12)
        assert tr.Tunif == pytest.approx(2.0, abs=1e-12)
        assert tr.xbar == pytest.approx(0.5, abs=1e-10)
        assert tr.Tmin == pytest.approx(max(1.0, 2.0 - 2.0 * ell), abs=1e-10)

    @pytest.mark.parametrize("hi", [1e-310, 1e-312, 5e-324])
    def test_subnormal_coupling(self, unit_speeds, hi):
        # 1e-12 max |c|, or the strict pass's 1e-2 of it, rounds to 0 here:
        # a tolerance 0 was refused, and mintime exited 2 on a valid config
        grid = Grid.uniform(400)
        tiny, unit = (times_report(make_system(unit_speeds, c=CoefficientSpec.step(0.25, 0.0, v)),
                                   grid) for v in (hi, 1.0))
        key = attrgetter("Xc", "Tmin", "tolerance_limited")
        assert key(tiny) == key(unit) and unit.Tmin == 1.5

    def test_zero_coupling_gives_topt(self, varying_speeds):
        system = make_system(varying_speeds, c=0.0)
        tr = times_report(system, grid=Grid.uniform(2048))
        assert tr.Xc == pytest.approx(tr.xbar, abs=1e-12)
        assert tr.Tmin == pytest.approx(tr.Topt, abs=1e-9)

    def test_full_coupling_gives_tunif(self, varying_speeds):
        system = make_system(varying_speeds, c=1.0)
        tr = times_report(system, grid=Grid.uniform(2048))
        assert tr.Xc == 0.0
        assert tr.Tmin == pytest.approx(tr.Tunif, abs=1e-12)

    def test_pivot_solves_its_equation(self, varying_speeds):
        system = make_system(varying_speeds, c=0.3)
        tr = times_report(system, grid=Grid.uniform(2048))
        psi = varying_speeds.psi_eval(tr.xbar)
        assert abs(psi - varying_speeds.T2) <= 1e-10
        assert 0.0 < tr.xbar < 1.0

    @pytest.mark.parametrize("ell", [0.0, 0.15, 0.3, 0.6])
    def test_ordering_invariant(self, varying_speeds, ell):
        system = make_system(varying_speeds, c=CoefficientSpec.step(ell, 0.0, 2.0))
        tr = times_report(system, grid=Grid.uniform(2048))
        assert tr.Topt <= tr.Tmin + 1e-12
        assert tr.Tmin <= tr.Tunif + 1e-12

    def test_monotone_in_prefix(self, varying_speeds):
        vals = []
        for ell in (0.0, 0.1, 0.2, 0.3, 0.4):
            system = make_system(varying_speeds,
                                 c=CoefficientSpec.step(ell, 0.0, 1.0))
            vals.append(times_report(system, grid=Grid.uniform(2048)).Tmin)
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_gauge_invariance(self, unit_speeds):
        grid = Grid.uniform(512)
        c = CoefficientSpec.step(0.25, 0.0, 1.0)
        system = make_system(unit_speeds, a=0.5, b=1.0, c=c, d=-0.3)
        gauge = diag_removal(system.a, system.b, system.c, system.d,
                             unit_speeds, grid)
        gauged = make_system(unit_speeds, a=0.0,
                             b=CoefficientSpec.sampled(grid.nodes, gauge.bt),
                             c=CoefficientSpec.sampled(grid.nodes, gauge.ct),
                             d=0.0)
        t1 = times_report(system, grid=grid)
        t2 = times_report(gauged, grid=grid)
        assert t1.Xc == t2.Xc
        assert t1.Tmin == pytest.approx(t2.Tmin, abs=1e-12)

    def test_constant_speed_note(self, unit_speeds, varying_speeds):
        sys_const = make_system(unit_speeds, c=CoefficientSpec.step(0.25, 0.0, 1.0))
        note = times_report(sys_const, grid=Grid.uniform(2048)).constant_speed_note
        assert "c = 0 on (0, 1 - T/Tunif)" in note
        sys_var = make_system(varying_speeds, c=0.5)
        assert times_report(sys_var, grid=Grid.uniform(2048)).constant_speed_note is None

    def test_underflowing_xbar(self):
        # |lambda1| / lambda2 underflows and psi^{-1}(T2) rounds to 0: the
        # interval (0, xbar) is empty, Xc is 0 and nothing is saved
        speeds = SpeedPair.build(const(-1e-100), const(1e300))
        system = make_system(speeds, a=0.5, b=1.0, c=CoefficientSpec.step(0.25, 0.0, 1.0),
                             d=-0.3)
        tr = times_report(system, grid=Grid.uniform(16))
        assert tr.xbar == tr.Xc == 0.0
        assert tr.Tmin == tr.Tunif == tr.T1 + tr.T2
        assert not tr.tolerance_limited

    def test_tolerance_limited_flag(self, unit_speeds):
        smooth_tail = make_system(unit_speeds, c=CoefficientSpec.expbump())
        tr = times_report(smooth_tail, grid=Grid.uniform(2048))
        assert tr.tolerance_limited
        step = make_system(unit_speeds, c=CoefficientSpec.step(0.25, 0.0, 1.0))
        assert not times_report(step, grid=Grid.uniform(2048)).tolerance_limited


_PRIME = 2 ** 31 - 1


def upwind_lattice(n, b, c):
    """hypmin's upwind step at lambda = (-1, 1), a = d = q = 0 and dt = h as
    x' = A x + B u over the state x = (y1[0..n], y2[1..n]), u written into
    y1[n]: y1'[j] = y1[j+1] + h b y2[j] (j < n) and y2'[j] = y2[j-1] + h c_j
    y1[j], with y2[0] = 0.  A is the list of its nonzero entries (row, column,
    Fraction); B is row n.  c holds the node values c(x_0..x_n)."""
    h = Fraction(1, n)
    A = [(j, j + 1, Fraction(1)) for j in range(n)]
    A += [(j, n + j, h * b) for j in range(1, n) if b]
    A += [(n + j, n + j - 1, Fraction(1)) for j in range(2, n + 1)]
    A += [(n + j, j, h * Fraction(c[j])) for j in range(1, n + 1) if c[j]]
    return A, n


def _apply_mod(A, X):
    """A @ X mod _PRIME for A as entries and X an int64 matrix of residues."""
    Y = np.zeros_like(X)
    for i, j, a in A:
        coef = a.numerator % _PRIME * pow(a.denominator, -1, _PRIME) % _PRIME
        Y[i] = (Y[i] + coef * X[j]) % _PRIME
    return Y


def _rank_mod(M):
    """Rank of an int64 matrix of residues by Gauss-Jordan elimination mod _PRIME."""
    M = M.copy()
    rank = 0
    for col in range(M.shape[1]):
        rows = np.nonzero(M[rank:, col])[0]
        if rows.size == 0:
            continue
        M[[rank, rank + rows[0]]] = M[[rank + rows[0], rank]]
        M[rank] = M[rank] * pow(int(M[rank, col]), -1, _PRIME) % _PRIME
        rest = np.nonzero(M[:, col])[0]
        rest = rest[rest != rank]
        M[rest] = (M[rest] - np.outer(M[rest, col], M[rank]) % _PRIME) % _PRIME
        rank += 1
        if rank == M.shape[0]:
            break
    return rank


def null_control_index(A, u_row, dim, kmax):
    """Least k with rank [C_k, A^k] = rank C_k, C_k = [B, AB, ..., A^(k-1) B]:
    the fewest steps after which every state can be steered to zero."""
    power = np.eye(dim, dtype=np.int64)          # A^k
    cols = np.zeros((dim, 0), dtype=np.int64)    # C_k
    for k in range(1, kmax + 1):
        cols = np.hstack([cols, power[:, [u_row]]])
        power = _apply_mod(A, power)
        if _rank_mod(np.hstack([cols, power])) == _rank_mod(cols):
            return k
    raise AssertionError(f"not null-controllable in {kmax} steps")


def lattice_and_report(n, b, ell):
    """The lattice's index and the times report of the same step coupling."""
    grid = Grid.uniform(n)
    c = CoefficientSpec.step(ell, 0.0, 1.0)
    system = make_system(SpeedPair.build(const(-1.0), const(1.0)), b=float(b), c=c)
    A, u_row = upwind_lattice(n, b, c(grid.nodes))
    return null_control_index(A, u_row, 2 * n + 1, 2 * n + 4), times_report(system, grid)


def expected_index(n, Tmin):
    # y1 holds n + 1 nodes, the control's node included, so even uncoupled
    # transport takes n + 1 steps to flush them
    return max(round(n * Tmin), n + 1)


class TestDiscreteOracle:
    """The exact null-controllability index of the upwind lattice against Tmin."""

    def test_lattice_is_the_simulator_step(self):
        # the oracle's A, B are hypmin's scheme: k steps of simulate at
        # cfl 1 under an open-loop control equal A^k x + sum A^(k-1-m) B u_m
        n, k, b = 12, 9, Fraction(-7, 3)
        grid = Grid.uniform(n)
        c = CoefficientSpec.step(grid.nodes[4], 0.0, 1.0)
        speeds = SpeedPair.build(const(-1.0), const(1.0))
        rng = np.random.default_rng(3)
        y1, y2 = rng.standard_normal(n + 1), rng.standard_normal(n + 1)
        y2[0] = 0.0
        u = rng.standard_normal(k + 1)
        sim = simulate(make_system(speeds, b=float(b), c=c), lambda t: u[round(t * n)],
                       (y1, y2), k / n, grid, cfl=1.0, snapshots=2)
        A, u_row = upwind_lattice(n, b, c(grid.nodes))
        x = np.concatenate([y1, y2[1:]])
        for m in range(1, k + 1):
            xn = np.zeros_like(x)
            for i, j, a in A:
                xn[i] += float(a) * x[j]
            xn[u_row] = u[m]
            x = xn
        y1k, y2k = sim.snapshots[-1]        # the state after step k
        assert np.max(np.abs(x - np.concatenate([y1k, y2k[1:]]))) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(8, 16), node=st.floats(0.0, 1.0),
           b=st.sampled_from([Fraction(0), Fraction(1), Fraction(-7, 3)]))
    def test_index_is_n_tmin(self, n, node, b):
        m = round(node * n)
        # the last cell below xbar = 1/2 (ROADMAP item 1), pinned below
        if n % 2 == 0 and m == n // 2 - 1:
            m += 1
        index, tr = lattice_and_report(n, b, Grid.uniform(n).nodes[m])
        assert index == expected_index(n, tr.Tmin), (index, tr.Tmin)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: with ell in the last cell "
                       "below xbar, times_report returns Tmin = 1 but the lattice "
                       "needs n + 2 steps")
    def test_last_cell_below_xbar(self):
        index, tr = lattice_and_report(10, Fraction(1), 0.4)
        assert index == 12
        assert index == expected_index(10, tr.Tmin)


class TestCanonicalMinTime:
    def test_zero_trace(self, varying_speeds):
        g = np.zeros(101)
        got = canonical_min_time(varying_speeds, g, 1e-10)
        assert got == pytest.approx(max(varying_speeds.T1, varying_speeds.T2), abs=1e-9)

    def test_nonzero_at_origin(self, varying_speeds):
        g = np.ones(101)
        got = canonical_min_time(varying_speeds, g, 1e-10)
        assert got == pytest.approx(varying_speeds.T1 + varying_speeds.T2, abs=1e-9)

    def test_half_prefix(self, unit_speeds):
        nodes = np.linspace(0.0, 1.0, 401)
        g = np.where(nodes > 0.5, 1.0, 0.0)
        got = canonical_min_time(unit_speeds, g, 1e-10)
        assert got == pytest.approx(1.5, abs=1e-9)

    def test_vanishing_trace_gives_exactly_t1(self):
        # T1 > T2, and T1 + T2 - phi2(1) rounds to one ulp below T1 here
        speeds = SpeedPair.build(const(-0.6), const(2.0))
        assert speeds.T1 > speeds.T2
        assert canonical_min_time(speeds, np.zeros(11), 1e-10) == speeds.T1

    def test_vanishing_trace_no_ulp_above_t1(self):
        # here phi2(1) is T2 bitwise, and (T1 + T2) - T2 rounds one ulp above T1
        speeds = SpeedPair.build(const(-0.7), const(1.0))
        assert speeds.T1 > speeds.T2 == float(speeds.phi_eval(2, 1.0))
        assert (speeds.T1 + speeds.T2) - speeds.T2 > speeds.T1
        assert canonical_min_time(speeds, np.zeros(101), 1e-10) == speeds.T1


class TestNxN:
    def test_two_speeds_reduce_to_canonical(self, unit_speeds):
        nodes = np.linspace(0.0, 1.0, 301)
        g = np.where(nodes > 0.3, 0.8, 0.0)
        got = nxn_canonical_min_time([const(-1.0), const(1.0)], [g], [0.0])
        want = canonical_min_time(unit_speeds, g, 1e-10)
        assert got == pytest.approx(want, abs=1e-10)

    def test_nonzero_reflection_forces_crossing_time(self):
        g = np.zeros(101)
        got = nxn_canonical_min_time([const(-1.0), const(1.0), const(2.0)],
                                     [g, g], [0.0, 5.0])
        # reflected component contributes its full crossing time 1/2
        assert got == pytest.approx(1.0 + 0.5, abs=1e-10)

    def test_three_speed_worked_example(self):
        nodes = np.linspace(0.0, 1.0, 401)
        g1 = np.where(nodes > 0.5, 1.0, 0.0)
        g2 = np.zeros(401)
        got = nxn_canonical_min_time([const(-1.0), const(1.0), const(2.0)],
                                     [g1, g2], [0.0, 0.0])
        assert got == pytest.approx(1.5, abs=1e-10)

    def test_order_violations(self):
        g = np.zeros(11)
        with pytest.raises(InvalidSpeedsError):
            nxn_canonical_min_time([const(1.0), const(2.0)], [g], [0.0])
        with pytest.raises(InvalidSpeedsError):
            nxn_canonical_min_time([const(-1.0), const(2.0), const(1.0)],
                                   [g, g], [0.0, 0.0])

    @pytest.mark.parametrize("tau, amp", [(1e-300, 1.0), (1e-20, 1.0), (1.0, 1.0),
                                          (1e300, 1.0), (1.0, 1e-20), (1e-20, 1e-100)])
    def test_tol_is_relative_to_tau_and_amplitudes(self, tau, amp):
        # the same shapes at every scale give the same prefixes and verdicts
        ts = np.linspace(0.0, 1.0, 401)
        for pa, pb, verdict in ((0.0, 0.0, "nonvanishing"), (0.1, 0.2, "nonvanishing"),
                                (0.6, 0.5, "vanishes")):
            alpha = 3.0 * amp * (ts > pa)
            beta = 0.5 * amp * (ts > pb)
            rep = titchmarsh_check(alpha, beta, tau, tol=1e-12)
            assert rep.verdict == verdict
            assert rep.consistent
            assert (rep.prefix_a, rep.prefix_b) == (pytest.approx(pa * tau, abs=tau / 400),
                                                    pytest.approx(pb * tau, abs=tau / 400))

    def test_zero_factor_vanishes(self):
        ts = np.linspace(0.0, 1.0, 101)
        rep = titchmarsh_check(np.zeros(101), (ts > 0.3).astype(float), 1.0, tol=1e-12)
        assert rep.verdict == "vanishes" and rep.consistent
        assert rep.prefix_a == 1.0 and rep.convolution_max == 0.0

    def test_shape_validation(self):
        with pytest.raises(GridMismatchError):
            nxn_canonical_min_time([const(-1.0), const(1.0)], [], [0.0])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), nspeeds=st.integers(2, 4))
    def test_matches_trapezoid_travel_times(self, data, nspeeds):
        c = data.draw(st.tuples(st.floats(0.5, 2.0), st.floats(-0.3, 0.3),
                                st.floats(-0.2, 0.2)))
        speeds = [CoefficientSpec.polynomial([-c[0], -c[1] * c[0], -c[2] * c[0]])]
        base = 0.0
        for _ in range(nspeeds - 1):
            base += data.draw(st.floats(0.5, 1.5))
            speeds.append(CoefficientSpec.polynomial(
                [base, data.draw(st.floats(-0.1, 0.1)), data.draw(st.floats(-0.1, 0.1))]))
        G, Q = [], []
        for _ in range(nspeeds - 1):
            nodes = np.linspace(0.0, 1.0, data.draw(st.integers(4, 300)) + 1)
            G.append(np.where(nodes > data.draw(st.floats(0.0, 1.2)), 1.0, 0.0))
            Q.append(data.draw(st.sampled_from([0.0, 0.5, -2.0])))
        got = nxn_canonical_min_time(speeds, G, Q)
        assert abs(got - trapezoid_nxn(speeds, G, Q)) <= 1e-8


def trapezoid_nxn(speeds, G, Q, tol=1e-10, quad_n=4096):
    """Reference n-speed threshold from composite trapezoid travel times on
    quad_n cells of each interval, independent of the SpeedPair tables."""
    def travel(lam, a):
        if a >= 1.0:
            return 0.0
        xs = np.linspace(a, 1.0, quad_n + 1)
        return float(np.trapezoid(1.0 / np.abs(lam(xs)), dx=(1.0 - a) / quad_n))

    contrib = [travel(lam, 0.0 if q != 0.0 else
                      prefix_of_samples(g, 1.0 / (g.shape[0] - 1), 1.0, tol))
               for lam, g, q in zip(speeds[1:], G, Q)]
    return max(travel(speeds[0], 0.0) + max(contrib), travel(speeds[1], 0.0))


class TestReflection:
    @pytest.mark.parametrize("q", [0.5, -2.0])
    @pytest.mark.parametrize("speeds", ["unit_speeds", "varying_speeds"])
    def test_reflection_needs_uniform_time(self, request, speeds, q):
        # a trace and a coupling that both vanish on (0, 1/4): with q = 0 the
        # threshold would lie below Tunif
        sp = request.getfixturevalue(speeds)
        system = make_system(sp, c=CoefficientSpec.step(0.25, 0.0, 1.0), q=q)
        tr = times_report(system, grid=Grid.uniform(400))
        g = np.where(np.linspace(0.0, 1.0, 401) > 0.25, 1.0, 0.0)
        nxn = nxn_canonical_min_time([sp.lambda1, sp.lambda2], [g], [q])
        assert tr.Tmin == tr.Tunif == nxn
        assert times_report(make_system(sp, c=system.c), grid=Grid.uniform(400)).Tmin < tr.Tunif
        assert nxn_canonical_min_time([sp.lambda1, sp.lambda2], [g], [0.0]) < nxn
        assert f"reflection q = {q:.12g}" in tr.constant_speed_note
        assert f"Tmin = Tunif = {tr.Tunif:.12g} whatever c" in tr.constant_speed_note


def brute_force_convolution(alpha, beta, dtau):
    """Direct double-loop trapezoid convolution (independent oracle)."""
    N = len(alpha) - 1
    out = np.zeros(N + 1)
    for m in range(1, N + 1):
        acc = 0.0
        for k in range(m + 1):
            w = 0.5 if k in (0, m) else 1.0
            acc += w * alpha[m - k] * beta[k]
        out[m] = dtau * acc
    return out


class TestTitchmarsh:
    def test_constant_factors(self):
        ts = np.linspace(0.0, 1.0, 201)
        ones = np.ones(201)
        rep = titchmarsh_check(ones, ones, 1.0, tol=1e-12)
        assert rep.verdict == "nonvanishing"
        assert rep.convolution_max == pytest.approx(1.0, abs=1e-12)
        assert rep.prefix_sum == 0.0
        assert rep.consistent

    def test_large_prefixes_vanish_exactly(self):
        ts = np.linspace(0.0, 1.0, 501)
        alpha = (ts > 0.6).astype(float)
        beta = (ts > 0.5).astype(float)
        rep = titchmarsh_check(alpha, beta, 1.0, tol=1e-12)
        assert rep.convolution_max == 0.0
        assert rep.verdict == "vanishes"
        assert rep.prefix_sum >= 1.0
        assert rep.consistent

    @pytest.mark.parametrize("early, consistent", [(None, True), (2, False), (30, False)],
                             ids=["one-cell-short", "three-cells-short", "31-cells-short"])
    def test_prefix_sum_short_by_more_than_two_cells(self, early, consistent):
        # first nonzero samples at nodes 41 and 60 of 100: the convolution
        # vanishes on (0, 1] and the measured prefixes, 0.4 and 0.59, are
        # one cell short together.  A sample of 1e-11, above tol but too
        # small to lift the convolution above tol, "early" nodes before
        # node 41 cuts prefix_a short by as many cells: the verdict still
        # reads "vanishes", and the rule's two cells do not cover the gap
        ts = np.linspace(0.0, 1.0, 101)
        alpha = (ts > 0.405).astype(float)
        beta = (ts > 0.595).astype(float)
        if early is not None:
            alpha[41 - early] = 1e-11
        rep = titchmarsh_check(alpha, beta, 1.0, tol=1e-12)
        assert rep.verdict == "vanishes"
        short = round((1.0 - rep.prefix_sum) / rep.cell)
        assert short == 1 + (early or 0)
        assert rep.consistent is consistent

    def test_small_prefixes_nonvanishing(self):
        rng = np.random.default_rng(11)
        ts = np.linspace(0.0, 1.0, 401)
        alpha = np.where(ts > 0.3, 0.5 + rng.uniform(0, 1, 401), 0.0)
        beta = np.where(ts > 0.4, 0.5 + rng.uniform(0, 1, 401), 0.0)
        rep = titchmarsh_check(alpha, beta, 1.0, tol=1e-12)
        assert rep.verdict == "nonvanishing"
        assert rep.consistent

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        ts = np.linspace(0.0, 0.7, 81)
        alpha = np.where(ts > 0.2, rng.uniform(0.5, 1.5, 81), 0.0)
        beta = np.where(ts > 0.1, rng.uniform(0.5, 1.5, 81), 0.0)
        rep = titchmarsh_check(alpha, beta, 0.7, tol=1e-12)
        oracle = brute_force_convolution(alpha, beta, 0.7 / 80)
        assert rep.convolution_max == pytest.approx(np.max(np.abs(oracle)), rel=1e-12)

    @pytest.mark.parametrize("tau, amp", [(1e-300, 1.0), (1e-20, 1.0), (1.0, 1.0),
                                          (1e300, 1.0), (1.0, 1e-20), (1e-20, 1e-100)])
    def test_tol_is_relative_to_tau_and_amplitudes(self, tau, amp):
        # the same shapes at every scale give the same prefixes and verdicts
        ts = np.linspace(0.0, 1.0, 401)
        for pa, pb, verdict in ((0.0, 0.0, "nonvanishing"), (0.1, 0.2, "nonvanishing"),
                                (0.6, 0.5, "vanishes")):
            alpha = 3.0 * amp * (ts > pa)
            beta = 0.5 * amp * (ts > pb)
            rep = titchmarsh_check(alpha, beta, tau, tol=1e-12)
            assert rep.verdict == verdict
            assert rep.consistent
            assert (rep.prefix_a, rep.prefix_b) == (pytest.approx(pa * tau, abs=tau / 400),
                                                    pytest.approx(pb * tau, abs=tau / 400))

    def test_zero_factor_vanishes(self):
        ts = np.linspace(0.0, 1.0, 101)
        rep = titchmarsh_check(np.zeros(101), (ts > 0.3).astype(float), 1.0, tol=1e-12)
        assert rep.verdict == "vanishes" and rep.consistent
        assert rep.prefix_a == 1.0 and rep.convolution_max == 0.0

    def test_shape_validation(self):
        with pytest.raises(GridMismatchError):
            titchmarsh_check(np.zeros(10), np.zeros(11), 1.0, 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 3000), pa=st.floats(0.0, 1.0), pb=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 16))
    def test_fft_matches_direct_convolution(self, n, pa, pb, seed):
        rng = np.random.default_rng(seed)
        ts = np.linspace(0.0, 1.0, n + 1)
        alpha = np.where(ts > pa, rng.uniform(-1.0, 1.5, n + 1), 0.0)
        beta = np.where(ts > pb, rng.uniform(0.5, 1.5, n + 1), 0.0)
        got = _leading_convolution(alpha, beta)
        ref = np.convolve(alpha, beta)[:n + 1]
        # FFT rounding: a few eps of the largest product sum, by log2 of the length
        scale = np.abs(alpha).sum() * np.abs(beta).max()
        assert np.max(np.abs(got - ref), initial=0.0) <= 1e-14 * scale * np.log2(n + 2)
        # below the first nonzero samples the convolution is exactly zero
        start = n + 1
        if alpha.any() and beta.any():
            start = np.flatnonzero(alpha)[0] + np.flatnonzero(beta)[0]
        assert not got[:start].any()


def _chain_pair(speeds, c, grid, a=0.2, b=0.6, d=-0.1):
    """Tmin from the times report and from the solved canonical trace."""
    system = make_system(speeds, a=a, b=b, c=c, d=d)
    g = solve_kernels(system, grid).g
    tol = 1e-8
    return times_report(system, grid=grid).Tmin, canonical_min_time(speeds, g, tol)


class TestConsistencyChain:
    @pytest.mark.parametrize("fixture_name,ell", [("unit_speeds", 0.25),
                                                  ("varying_speeds", 0.2)])
    def test_times_report_matches_canonical(self, request, fixture_name, ell):
        speeds = request.getfixturevalue(fixture_name)
        grid = Grid.uniform(200)
        c = CoefficientSpec.step(ell, 0.0, 1.0)
        from_report, from_canonical = _chain_pair(speeds, c, grid)
        nodes = grid.nodes
        wmax = float(np.max(1.0 / -np.asarray(speeds.speed(1, nodes))
                            + 1.0 / np.asarray(speeds.speed(2, nodes))))
        assert abs(from_canonical - from_report) <= 2.0 * grid.h * wmax

    @pytest.mark.parametrize("c", [
        CoefficientSpec.sampled([0.0, 0.3, 0.30001, 1.0], [0.0, 0.0, 1.0, 1.0]),
        CoefficientSpec.constant(1.0),
        CoefficientSpec.polynomial([0.2, 1.0]),
    ], ids=["sampled", "constant", "polynomial"])
    def test_chain_across_families(self, varying_speeds, c):
        grid = Grid.uniform(200)
        from_report, from_canonical = _chain_pair(varying_speeds, c, grid)
        assert abs(from_canonical - from_report) <= 4.0 * grid.h

    def test_chain_tolerance_limited_tail(self, varying_speeds):
        # smooth tail below every fixed tolerance: both sides give a verdict
        # in the same neighbourhood but measure different tolerance artifacts,
        # and the report flags the case at reporting resolution
        grid = Grid.uniform(200)
        c = CoefficientSpec.expbump()
        from_report, from_canonical = _chain_pair(varying_speeds, c, grid)
        assert abs(from_canonical - from_report) <= 0.1
        fine = times_report(make_system(varying_speeds, c=c), grid=Grid.uniform(2048))
        assert fine.tolerance_limited
