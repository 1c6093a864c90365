import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypmin import CoefficientSpec, SpeedPair, characteristics
from hypmin.errors import InvalidSpeedsError

LN2 = math.log(2.0)


def bisect_oracle(fun, target, lo, hi, iters=80):
    """Plain scalar bisection, independent of the table machinery."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fun(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def flow(speeds, i, s, t, x):
    """Position at time s of the characteristic of lambda_i through (t, x)."""
    sign = -1.0 if i == 1 else 1.0
    return speeds.phi_inv_ext(i, speeds.phi_eval(i, x) + sign * (s - t))


def entry_exit(speeds, i, t, x):
    """Times at which the characteristic of lambda_i through (t, x) crosses
    its inflow and outflow ends: x = 1 and 0 for i = 1, 0 and 1 for i = 2."""
    p = speeds.phi_eval(i, x)
    if i == 1:
        return t + p - speeds.T1, t + p
    return t - p, t + speeds.T2 - p


class TestPhi:
    def test_unit_negative_speed(self, unit_speeds):
        assert unit_speeds.phi_eval(1, 0.7) == pytest.approx(0.7, abs=1e-12)
        assert unit_speeds.T1 == pytest.approx(1.0, abs=1e-12)

    def test_constant_two(self):
        speeds = SpeedPair.build(CoefficientSpec.constant(-1.0),
                                 CoefficientSpec.constant(2.0))
        assert speeds.phi_eval(2, 0.5) == pytest.approx(0.25, abs=1e-12)

    def test_affine_speed_log(self, varying_speeds):
        assert varying_speeds.phi_eval(2, 1.0) == pytest.approx(LN2, abs=1e-7)

    def test_invalid_speeds(self):
        with pytest.raises(InvalidSpeedsError):
            SpeedPair.build(CoefficientSpec.constant(-1.0),
                            CoefficientSpec.polynomial([0.5, -1.0]))
        with pytest.raises(InvalidSpeedsError):
            SpeedPair.build(CoefficientSpec.constant(1.0),
                            CoefficientSpec.constant(1.0))
        for nan_speed in (CoefficientSpec.sampled([0.0, 1.0], [1.0, math.nan]),
                          CoefficientSpec.constant(math.nan)):
            with pytest.raises(InvalidSpeedsError):
                SpeedPair.build(CoefficientSpec.constant(-1.0), nan_speed)
        with pytest.raises(InvalidSpeedsError):
            SpeedPair.build(CoefficientSpec.polynomial([-1.0, math.nan]),
                            CoefficientSpec.constant(1.0))

    @pytest.mark.parametrize("i, tiny", [(1, 1e-300), (2, 1e-160), (2, 5e-324)])
    def test_speed_whose_weight_squares_overflow(self, i, tiny):
        # psi_inv squares 1/|lambda| (and the sum of two such weights): a
        # speed this close to zero made xbar 0 through an overflow
        lam = [CoefficientSpec.constant(-1.0), CoefficientSpec.constant(1.0)]
        lam[i - 1] = CoefficientSpec.constant(tiny if i == 2 else -tiny)
        with pytest.raises(InvalidSpeedsError, match=f"lambda{i} is too close to zero"):
            SpeedPair.build(*lam)

    @pytest.mark.parametrize("big", [1e160, 1e200, 1e300])
    def test_largest_speeds_invert(self, big):
        # a weight 1/|lambda| below about 1e-154 squared to zero (or a
        # subnormal), which doubled the step inside the cell: at 1e200,
        # phi1^{-1}(phi1(0.1)) was 0.10015, and psi^{-1} went past 1 by a
        # table cell where lambda2 << |lambda1|
        speeds = SpeedPair.build(CoefficientSpec.constant(-big),
                                 CoefficientSpec.constant(big / 1e50))
        xs = np.linspace(-0.3, 1.3, 1601)
        for i in (1, 2):
            assert np.max(np.abs(speeds.phi_inv_ext(i, speeds.phi_eval(i, xs)) - xs)) <= 1e-14
        assert np.max(np.abs(speeds.psi_inv(speeds.psi_eval(xs)) - xs)) <= 1e-14
        assert speeds.psi_inv(speeds.T2) <= 1.0

    def test_smallest_speeds_that_pass_invert(self):
        # at |lambda| = 1e-150 every square stays finite and psi_inv is exact
        speeds = SpeedPair.build(CoefficientSpec.constant(-1e-150),
                                 CoefficientSpec.constant(1e-150))
        assert speeds.psi_inv(speeds.T2) == pytest.approx(0.5, rel=1e-12)


class TestPhiInv:
    def test_identity_speed(self, unit_speeds):
        assert unit_speeds.phi_inv_ext(2, 0.3) == pytest.approx(0.3, abs=1e-10)

    def test_affine_full_range(self, varying_speeds):
        assert varying_speeds.phi_inv_ext(2, varying_speeds.T2) == pytest.approx(1.0, abs=1e-9)

    def test_affine_midpoint_closed_form(self, varying_speeds):
        # phi2(x) = log(1+x), so phi2^{-1}(1/2) = e^{1/2} - 1; cross-check the
        # closed form with a bisection oracle on the quadrature itself.
        got = varying_speeds.phi_inv_ext(2, 0.5)
        assert got == pytest.approx(math.exp(0.5) - 1.0, abs=1e-7)
        oracle = bisect_oracle(lambda x: varying_speeds.phi_eval(2, x), 0.5, 0.0, 1.0)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_residual_tolerance(self, varying_speeds):
        for v in np.linspace(0.0, varying_speeds.T2, 17):
            x = varying_speeds.phi_inv_ext(2, v)
            assert abs(varying_speeds.phi_eval(2, x) - v) <= 1e-10 * varying_speeds.T2


def speed_specs(sign):
    """Strategy for a coefficient of the given sign in each family, |value| in [0.2, 5]."""
    mag = st.floats(0.2, 5.0)
    frac = st.floats(-0.4, 0.4)
    where = st.floats(0.05, 0.95)
    return st.one_of(
        mag.map(lambda a: CoefficientSpec.constant(sign * a)),
        st.tuples(mag, frac, frac).map(
            lambda p: CoefficientSpec.polynomial([sign * p[0], sign * p[0] * p[1],
                                                  sign * p[0] * p[2]])),
        st.tuples(where, mag, mag).map(
            lambda p: CoefficientSpec.step(p[0], sign * p[1], sign * p[2])),
        st.tuples(where, mag, mag, mag).map(
            lambda p: CoefficientSpec.sampled([0.0, p[0], 1.0],
                                              [sign * p[1], sign * p[2], sign * p[3]])),
    )


class TestExactInverse:
    @settings(max_examples=60, deadline=None)
    @given(speed_specs(-1.0), speed_specs(1.0), st.sampled_from([16, 333, 4096]))
    def test_round_trips(self, lam1, lam2, table_n):
        speeds = SpeedPair.build(lam1, lam2, table_n=table_n)
        xs = np.linspace(-0.3, 1.3, 1601)
        for i, T in ((1, speeds.T1), (2, speeds.T2)):
            assert np.max(np.abs(speeds.phi_inv_ext(i, speeds.phi_eval(i, xs)) - xs)) <= 1e-14
            vs = np.linspace(-0.2, T + 0.2, 1601)
            assert np.max(np.abs(speeds.phi_eval(i, speeds.phi_inv_ext(i, vs)) - vs)) <= 1e-14
        assert np.max(np.abs(speeds.psi_inv(speeds.psi_eval(xs)) - xs)) <= 1e-14


class TestFlow:
    def test_constant_translation(self, unit_speeds):
        assert flow(unit_speeds, 2, 0.7, 0.2, 0.1) == pytest.approx(0.6, abs=1e-10)
        assert flow(unit_speeds, 1, 0.7, 0.2, 0.9) == pytest.approx(0.4, abs=1e-10)

    def test_fixed_time_is_identity(self, varying_speeds):
        for x in (0.0, 0.3, 1.0):
            assert flow(varying_speeds, 2, 1.3, 1.3, x) == pytest.approx(x, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8), st.floats(-0.8, 0.8),
           st.floats(0.0, 1.0), st.sampled_from([1, 2]))
    def test_group_property(self, varying_speeds, sigma, s, t, x, i):
        inner = flow(varying_speeds, i, s, t, x)
        left = flow(varying_speeds, i, sigma, s, inner)
        right = flow(varying_speeds, i, sigma, t, x)
        assert left == pytest.approx(right, abs=1e-9)

    def test_phi_along_flow_is_linear(self, varying_speeds):
        # phi2 along the forward flow grows at unit rate, phi1 shrinks.
        t, x = 0.2, 0.4
        for ds in (0.05, 0.1, 0.2):
            x2 = flow(varying_speeds, 2, t + ds, t, x)
            assert varying_speeds.phi_eval(2, x2) - varying_speeds.phi_eval(2, x) == \
                pytest.approx(ds, abs=1e-9)
            x1 = flow(varying_speeds, 1, t + ds, t, x)
            assert varying_speeds.phi_eval(1, x1) - varying_speeds.phi_eval(1, x) == \
                pytest.approx(-ds, abs=1e-9)


class TestEntryExit:
    def test_component1_exit_is_crossing_time(self, unit_speeds):
        s_in, s_out = entry_exit(unit_speeds, 1, 0.0, 1.0)
        assert s_out == pytest.approx(1.0, abs=1e-12)
        assert s_in == pytest.approx(0.0, abs=1e-12)

    def test_component2_entry(self, unit_speeds):
        s_in, _ = entry_exit(unit_speeds, 2, 0.8, 0.3)
        assert s_in == pytest.approx(0.5, abs=1e-12)

    def test_component2_exit_log(self, varying_speeds):
        _, s_out = entry_exit(varying_speeds, 2, 0.0, 0.0)
        assert s_out == pytest.approx(LN2, abs=1e-7)

    def test_flow_hits_boundaries(self, varying_speeds):
        t, x = 0.3, 0.6
        s_in1, s_out1 = entry_exit(varying_speeds, 1, t, x)
        assert flow(varying_speeds, 1, s_in1, t, x) == pytest.approx(1.0, abs=1e-9)
        assert flow(varying_speeds, 1, s_out1, t, x) == pytest.approx(0.0, abs=1e-9)
        s_in2, s_out2 = entry_exit(varying_speeds, 2, t, x)
        assert flow(varying_speeds, 2, s_in2, t, x) == pytest.approx(0.0, abs=1e-9)
        assert flow(varying_speeds, 2, s_out2, t, x) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.01, 0.3), st.floats(0.0, 0.69))
    def test_monotonicity_signs(self, varying_speeds, t, dt, x):
        dx = 0.3
        assert entry_exit(varying_speeds, 1, t + dt, x)[0] > \
            entry_exit(varying_speeds, 1, t, x)[0]
        assert entry_exit(varying_speeds, 1, t, x + dx)[0] > \
            entry_exit(varying_speeds, 1, t, x)[0]
        assert entry_exit(varying_speeds, 2, t + dt, x)[0] > \
            entry_exit(varying_speeds, 2, t, x)[0]
        assert entry_exit(varying_speeds, 2, t, x + dx)[0] < \
            entry_exit(varying_speeds, 2, t, x)[0]

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5))
    def test_inverse_equivalence(self, varying_speeds, s, t):
        # s < s_out1(t,1)  iff  s_in1(s,0) < t, up to solver slack
        lhs = s < entry_exit(varying_speeds, 1, t, 1.0)[1] - 1e-9
        rhs = entry_exit(varying_speeds, 1, s, 0.0)[0] < t - 1e-9
        mid = abs(s - entry_exit(varying_speeds, 1, t, 1.0)[1]) <= 2e-9
        assert lhs == rhs or mid


def reference_cell_inv(nodes, tab, wtab, v):
    """The inverse as it was before the SpeedPair held its tables: each call
    scales the weights and takes their slope term, and binary searches
    every cell."""
    T = tab[-1]
    scale = np.ldexp(1.0, -int(np.frexp(wtab.max())[1]))
    ws = wtab * scale
    x = np.clip(v, 0.0, T).reshape(-1)
    k = np.searchsorted(tab[1:-1], x, side="right")
    x -= tab[k]
    x *= scale
    wk = ws[k]
    w = x * (np.diff(ws) * (2.0 / (nodes[1] - nodes[0])))[k]
    w += wk * wk
    np.sqrt(w, out=w)
    w += wk
    x /= w
    x *= 2.0
    x += nodes[k]
    x += np.minimum(v, 0.0).reshape(-1) / wtab[0]
    x += np.maximum(v - T, 0.0).reshape(-1) / wtab[-1]
    return x.reshape(np.shape(v))


def varied_speed(sign, kind, a, ratio, where):
    """A speed of the given sign and kind, |lambda| between a and a * ratio."""
    if kind == "constant":
        return CoefficientSpec.constant(sign * a)
    if kind == "linear":
        return CoefficientSpec.polynomial([sign * a, sign * a * (ratio - 1.0)])
    if kind == "polynomial":        # a at 0 and 1, a * ratio at 1/2
        return CoefficientSpec.polynomial([sign * a, sign * 4 * a * (ratio - 1.0),
                                           -sign * 4 * a * (ratio - 1.0)])
    return CoefficientSpec.sampled([0.0, where, 1.0], [sign * a, sign * a * ratio, sign * a])


_SPEED = st.tuples(st.sampled_from(["constant", "linear", "polynomial", "sampled"]),
                   st.floats(0.2, 5.0), st.floats(1.0, 1e3), st.floats(0.05, 0.95))


def lookup_values(tab):
    """The values where a cell lookup can go wrong: every table value and
    its neighbours one ulp away, 0, -0.0 and T, values beyond [0, T], +-inf
    and NaN, in an order of their own."""
    T = tab[-1]
    v = np.concatenate([tab, np.nextafter(tab, np.inf), np.nextafter(tab, -np.inf),
                        [0.0, -0.0, T, -1e-300, -T, 2.0 * T, np.inf, -np.inf, np.nan]])
    return np.random.default_rng(0).permutation(v)


class TestCellLookup:
    @settings(max_examples=40, deadline=None)
    @example(lam1=("constant", 1.0, 1.0, 0.5), lam2=("constant", 1.0, 1.0, 0.5), table_n=16)
    @example(lam1=("sampled", 1.0, 1e3, 0.3), lam2=("linear", 0.5, 1e3, 0.5), table_n=333)
    @example(lam1=("polynomial", 2.0, 1e3, 0.5), lam2=("sampled", 0.2, 1e3, 0.9),
             table_n=4096)
    @given(lam1=_SPEED, lam2=_SPEED, table_n=st.sampled_from([16, 333, 4096]))
    def test_cells_and_inverses_keep_bits(self, lam1, lam2, table_n):
        # the bucket lookup finds the cell binary search finds, and every
        # inverse is bitwise the one that rebuilt its tables on each call,
        # with no warning, on speeds whose weights vary up to 1e3-fold
        speeds = SpeedPair.build(varied_speed(-1.0, *lam1), varied_speed(1.0, *lam2),
                                 table_n=table_n)
        nodes = speeds.table_nodes
        tables = [(speeds.phi1_table, speeds.w1), (speeds.phi2_table, speeds.w2),
                  (speeds.phi1_table + speeds.phi2_table, speeds.w1 + speeds.w2)]
        invert = [lambda v: speeds.phi_inv_ext(1, v), lambda v: speeds.phi_inv_ext(2, v),
                  speeds.psi_inv]
        for inv, (tab, w), f in zip(speeds.inverses, tables, invert):
            v = lookup_values(tab)
            x = np.clip(v[~np.isnan(v)], 0.0, tab[-1])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cells = characteristics._cell(inv, x)
                got = f(v)
                scalars = [f(float(s)) for s in v[:5]]
            assert np.array_equal(cells, np.searchsorted(tab[1:-1], x, side="right"))
            assert got.tobytes() == reference_cell_inv(nodes, tab, w, v).tobytes()
            assert np.array(scalars).tobytes() == got[:5].tobytes()

    def test_crowded_buckets_are_searched(self):
        # weights 1000-fold apart crowd many short cells into one bucket,
        # more than the walk steps through: those points are binary searched
        speeds = SpeedPair.build(varied_speed(-1.0, "sampled", 1.0, 1e3, 0.3),
                                 varied_speed(1.0, "linear", 0.5, 1e3, 0.5), table_n=333)
        assert all(inv.most > characteristics._WALK for inv in speeds.inverses)
        for inv in speeds.inverses:
            x = np.clip(lookup_values(inv.tab), 0.0, inv.tab[-1])
            x = x[~np.isnan(x)]
            assert np.array_equal(characteristics._cell(inv, x),
                                  np.searchsorted(inv.tab[1:-1], x, side="right"))

    @pytest.mark.parametrize("inverse", ["phi1", "phi2", "psi"])
    def test_inverse_builds_no_table(self, varying_speeds, inverse):
        # the tables of every inverse are built with the SpeedPair: a call
        # on 16 points allocates less than one table of 16385 nodes
        speeds = SpeedPair.build(varying_speeds.lambda1, varying_speeds.lambda2,
                                 table_n=16384)
        f = {"phi1": lambda v: speeds.phi_inv_ext(1, v),
             "phi2": lambda v: speeds.phi_inv_ext(2, v), "psi": speeds.psi_inv}[inverse]
        v = np.linspace(-0.1, 1.5, 16)
        f(v)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            f(v)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < speeds.table_nodes.nbytes
