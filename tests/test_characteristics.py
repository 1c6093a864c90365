import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypmin import CoefficientSpec, SpeedPair, entry_exit, flow, phi, phi_inv
from hypmin.errors import DomainError, InvalidSpeedsError

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


class TestPhi:
    def test_unit_negative_speed(self, unit_speeds):
        assert phi(unit_speeds, 1, 0.7) == pytest.approx(0.7, abs=1e-12)
        assert unit_speeds.T1 == pytest.approx(1.0, abs=1e-12)

    def test_constant_two(self):
        speeds = SpeedPair.build(CoefficientSpec.constant(-1.0),
                                 CoefficientSpec.constant(2.0))
        assert phi(speeds, 2, 0.5) == pytest.approx(0.25, abs=1e-12)

    def test_affine_speed_log(self, varying_speeds):
        assert phi(varying_speeds, 2, 1.0) == pytest.approx(LN2, abs=1e-7)

    def test_domain_error(self, unit_speeds):
        with pytest.raises(DomainError):
            phi(unit_speeds, 2, 1.2)

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


class TestPhiInv:
    def test_identity_speed(self, unit_speeds):
        assert phi_inv(unit_speeds, 2, 0.3) == pytest.approx(0.3, abs=1e-10)

    def test_affine_full_range(self, varying_speeds):
        assert phi_inv(varying_speeds, 2, varying_speeds.T2) == pytest.approx(1.0, abs=1e-9)

    def test_affine_midpoint_closed_form(self, varying_speeds):
        # phi2(x) = log(1+x), so phi2^{-1}(1/2) = e^{1/2} - 1; cross-check the
        # closed form with a bisection oracle on the quadrature itself.
        got = phi_inv(varying_speeds, 2, 0.5)
        assert got == pytest.approx(math.exp(0.5) - 1.0, abs=1e-7)
        oracle = bisect_oracle(lambda x: varying_speeds.phi_eval(2, x), 0.5, 0.0, 1.0)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_residual_tolerance(self, varying_speeds):
        for v in np.linspace(0.0, varying_speeds.T2, 17):
            x = phi_inv(varying_speeds, 2, v)
            assert abs(varying_speeds.phi_eval(2, x) - v) <= 1e-10 * varying_speeds.T2

    def test_domain_error(self, unit_speeds):
        with pytest.raises(DomainError):
            phi_inv(unit_speeds, 1, 1.5)
        with pytest.raises(DomainError):
            phi_inv(unit_speeds, 1, -0.2)


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

    def test_domain_error(self, unit_speeds):
        with pytest.raises(DomainError):
            entry_exit(unit_speeds, 1, 0.0, 1.4)
