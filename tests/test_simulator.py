import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypmin
from hypmin import (CoefficientSpec, Grid, SpeedPair, canonical_solution,
                    diag_removal, growth_rate, l2_norm, simulate,
                    solve_kernels, volterra_apply)
from hypmin.errors import CFLError, DivergenceError, DomainError, UndefinedRateError
from hypmin.kernels import FeedbackLaw
from hypmin.simulator import BoundaryReflection, SimResult, _simulate_bytes, export_sim_csv

from conftest import const, exact_transport, make_system, smooth_bump


class TestSimulate:
    def test_zero_everything_stays_zero(self, unit_speeds):
        grid = Grid.uniform(50)
        system = make_system(unit_speeds, a=0.3, b=1.0, c=0.5, d=-0.2)
        sim = simulate(system, None, (np.zeros(51), np.zeros(51)), 0.5, grid)
        for y1, y2 in sim.snapshots:
            assert np.all(y1 == 0.0) and np.all(y2 == 0.0)

    def test_transport_matches_characteristics(self, varying_speeds):
        grid = Grid.uniform(400)
        system = make_system(varying_speeds)
        y10 = smooth_bump(grid.nodes, 0.6, 0.2)
        y20 = smooth_bump(grid.nodes, 0.35, 0.15)
        t = 0.25
        sim = simulate(system, None, (y10, y20), t, grid, cfl=0.9)
        assert len(sim.snapshots) == len(sim.times)
        assert sim.scheme_meta["dt"] * sim.scheme_meta["max_speed"] / grid.h <= 1 + 1e-12
        ex1, ex2 = exact_transport(varying_speeds, y10, y20, grid.nodes, t)
        got1, got2 = sim.snapshots[-1]
        err = np.trapezoid(np.abs(got1 - ex1) + np.abs(got2 - ex2), dx=grid.h)
        assert err <= 0.02

    def test_transport_first_order(self, varying_speeds):
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
            errs.append(np.trapezoid(np.abs(got1 - ex1) + np.abs(got2 - ex2),
                                     dx=grid.h))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert 0.8 <= order <= 1.2

    def test_cfl_validation(self, unit_speeds):
        grid = Grid.uniform(20)
        system = make_system(unit_speeds)
        with pytest.raises(CFLError):
            simulate(system, None, (np.zeros(21), np.zeros(21)), 0.5, grid, cfl=1.5)
        with pytest.raises(CFLError):
            simulate(system, None, (np.zeros(21), np.zeros(21)), 0.5, grid, cfl=0.0)

    def test_bad_horizon_and_data(self, unit_speeds):
        grid = Grid.uniform(20)
        system = make_system(unit_speeds)
        with pytest.raises(DomainError):
            simulate(system, None, (np.zeros(21), np.zeros(21)), -1.0, grid)
        with pytest.raises(DomainError):
            simulate(system, None, (np.zeros(10), np.zeros(21)), 0.5, grid)

    def test_divergence_detection(self, unit_speeds):
        grid = Grid.uniform(20)
        system = make_system(unit_speeds)
        bad = np.zeros(21)
        bad[10] = np.inf
        with pytest.raises(DivergenceError) as err:
            simulate(system, None, (bad, np.zeros(21)), 0.5, grid)
        assert err.value.step >= 1

    def test_finite_speed_propagation(self, unit_speeds):
        # no coupling, unit CFL: support moves exactly one cell per step
        grid = Grid.uniform(200)
        system = make_system(unit_speeds)
        y10 = smooth_bump(grid.nodes, 0.5, 0.2)
        y20 = smooth_bump(grid.nodes, 0.5, 0.2)
        t = 0.25
        sim = simulate(system, None, (y10, y20), t, grid, cfl=1.0)
        y1, y2 = sim.snapshots[-1]
        xs = grid.nodes
        assert np.all(np.abs(y1[(xs < 0.3 - t - grid.h) | (xs > 0.7 - t + grid.h)]) <= 1e-14)
        assert np.all(np.abs(y2[(xs < 0.3 + t - grid.h) | (xs > 0.7 + t + grid.h)]) <= 1e-14)

    def test_closed_loop_zero_is_invariant(self, unit_speeds):
        grid = Grid.uniform(60)
        system = make_system(unit_speeds, a=0.5, b=1.0,
                             c=CoefficientSpec.step(0.25, 0.0, 1.0), d=-0.3)
        law = solve_kernels(system, grid).gains
        sim = simulate(system, law, (np.zeros(61), np.zeros(61)), 1.0, grid)
        assert sim.l2_trace[-1] == 0.0
        assert np.all(sim.control_trace == 0.0)

    def test_reflection_boundary(self, unit_speeds):
        from hypmin import BoundaryReflection
        grid = Grid.uniform(100)
        system = make_system(unit_speeds)
        y20 = smooth_bump(grid.nodes, 0.8, 0.15)
        sim = simulate(system, BoundaryReflection(2.0), (np.zeros(101), y20),
                       0.3, grid, cfl=1.0)
        y1, y2 = sim.snapshots[-1]
        # the y2 bump reached x=1 and re-enters through y1 with gain 2
        assert y1[-1] == pytest.approx(2.0 * y2[-1], abs=1e-12)
        assert np.max(np.abs(y1)) > 0.5

    def test_signal_control_enters(self, unit_speeds):
        grid = Grid.uniform(100)
        system = make_system(unit_speeds)
        sim = simulate(system, lambda t: math.sin(3 * t), (np.zeros(101), np.zeros(101)),
                       0.5, grid, cfl=1.0)
        y1, _ = sim.snapshots[-1]
        # u(t) injected at x=1 travels left a distance t
        inj = y1[grid.nodes > 0.5 + grid.h]
        assert np.max(np.abs(inj)) > 0.1
        assert sim.control_trace[-1] == pytest.approx(math.sin(1.5), abs=1e-12)


def reference_simulate(system, control, y0, T, grid, cfl=0.9):
    """The step loop simulate replaced: full history, np.trapezoid norms and
    control quadrature, and an isfinite scan of both components per step.
    Returns (times, snapshots, control_trace, l2_trace, linf_trace)."""
    n, h, nodes = grid.n, grid.h, grid.nodes
    l1 = np.asarray(system.speeds.speed(1, nodes), dtype=float)
    l2 = np.asarray(system.speeds.speed(2, nodes), dtype=float)
    max_speed = float(max(np.max(-l1), np.max(l2)))
    dt = cfl * h / max_speed
    steps = max(1, math.ceil(T / dt - 1e-12))
    dt = T / steps
    a, b, c, d = (np.asarray(f(nodes), dtype=float)
                  for f in (system.a, system.b, system.c, system.d))
    q = system.q
    y1 = np.array(y0[0], dtype=float)
    y2 = np.array(y0[1], dtype=float)

    def norm(y1, y2):
        return float(np.sqrt(np.trapezoid(y1 * y1 + y2 * y2, dx=h)))

    def boundary_u(t_new, y1_new, y2_new):
        if control is None:
            return 0.0
        if isinstance(control, FeedbackLaw):
            hc = control.nodes[1] - control.nodes[0]
            return float(np.trapezoid(control.f1 * y1_new + control.f2 * y2_new, dx=hc))
        if isinstance(control, BoundaryReflection):
            return control.k * y2_new[n]
        return float(control(t_new))

    times = np.linspace(0.0, T, steps + 1)
    snapshots = [(y1.copy(), y2.copy())]
    control_trace = [boundary_u(0.0, y1, y2)]
    l2_trace = [norm(y1, y2)]
    linf_trace = [float(max(np.max(np.abs(y1)), np.max(np.abs(y2))))]
    nu = dt / h
    for m in range(1, steps + 1):
        with np.errstate(invalid="ignore", over="ignore"):
            s1 = a * y1 + b * y2
            s2 = c * y1 + d * y2
            y1n = y1.copy()
            y2n = y2.copy()
            y1n[:-1] = y1[:-1] - nu * l1[:-1] * (y1[1:] - y1[:-1]) + dt * s1[:-1]
            y2n[1:] = y2[1:] - nu * l2[1:] * (y2[1:] - y2[:-1]) + dt * s2[1:]
            y1n[-1] = y1[-1]
            y2n[0] = q * y1n[0]
            u = boundary_u(times[m], y1n, y2n)
            y1n[-1] = u
        if not (np.isfinite(y1n).all() and np.isfinite(y2n).all() and np.isfinite(u)):
            raise DivergenceError(f"non-finite state at step {m}", step=m)
        y1, y2 = y1n, y2n
        control_trace.append(u)
        snapshots.append((y1.copy(), y2.copy()))
        l2_trace.append(norm(y1, y2))
        linf_trace.append(float(max(np.max(np.abs(y1)), np.max(np.abs(y2)))))
    return times, snapshots, np.array(control_trace), np.array(l2_trace), np.array(linf_trace)


def _same_bits(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


# The step folds the upwind update into A z + B z[j+1] + C (other component)
# and takes u and the L2 norm as one dot product each, so it rounds otherwise
# than the reference: traces and snapshots agree within this share of the
# reference's own largest magnitude; times and picks agree bitwise.
REL_TOL = 1e-12


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and \
        np.max(np.abs(got - want)) <= REL_TOL * np.max(np.abs(want))


def _assert_matches_reference(sim, ref, snapshots):
    times, snaps, ctrl, l2, linf = ref
    assert _same_bits(sim.times, times)
    assert _close(sim.control_trace, ctrl)
    assert _close(sim.l2_trace, l2)
    assert _close(sim.linf_trace, linf)
    if snapshots is None:
        picks = np.arange(len(times))
    else:      # the pick rule export_sim_csv used to apply to the full history
        count = min(snapshots, len(times))
        picks = np.unique(np.linspace(0, len(times) - 1, count).astype(int))
    assert _same_bits(sim.snapshot_steps, picks)
    assert len(sim.snapshots) == len(picks)
    for k, (y1, y2) in zip(picks, sim.snapshots):
        want = np.stack(snaps[k])
        assert _close(np.stack([y1, y2]), want)


def reference_divergence_step(system, control, y0, T, grid, cfl=0.9):
    """The first step whose state or L2 norm the reference finds non-finite
    (None if none is): the reference raises on the state alone and records
    an overflowing norm in its trace."""
    try:
        with np.errstate(over="ignore"):
            l2 = reference_simulate(system, control, y0, T, grid, cfl)[3]
    except DivergenceError as err:
        return err.step
    bad = np.flatnonzero(~np.isfinite(l2[1:]))
    return int(bad[0]) + 1 if bad.size else None


class TestSimulateMatchesReference:
    """The folded step matches the old one within REL_TOL, whatever the control."""

    @staticmethod
    def _case(kind, unit_speeds, varying_speeds):
        n = 60
        grid = Grid.uniform(n)
        rng = np.random.default_rng(11)
        y0 = (rng.uniform(-1, 1, n + 1), rng.uniform(-1, 1, n + 1))
        if kind == "feedback":
            system = make_system(varying_speeds, a=0.3, b=0.8,
                                 c=CoefficientSpec.step(0.3, 0.0, 1.0), d=-0.2)
            control = solve_kernels(system, grid).gains
        elif kind == "reflection":
            system = make_system(unit_speeds, b=math.pi, c=math.pi)
            control = BoundaryReflection(1.2)
        elif kind == "open-loop":
            system = make_system(varying_speeds, a=0.5, d=0.1, q=0.4)
            control = lambda t: math.sin(3 * t)
        else:
            system = make_system(unit_speeds, a=0.2, b=1.0, c=-0.5, d=0.3)
            control = None
        return system, control, y0, grid

    @pytest.mark.parametrize("snapshots", [None, 0, 1, 3, 10 ** 6])
    @pytest.mark.parametrize("kind", ["feedback", "reflection", "open-loop", "zero"])
    def test_traces_and_kept_snapshots(self, unit_speeds, varying_speeds, kind, snapshots):
        system, control, y0, grid = self._case(kind, unit_speeds, varying_speeds)
        ref = reference_simulate(system, control, y0, 0.9, grid)
        sim = simulate(system, control, y0, 0.9, grid, snapshots=snapshots)
        _assert_matches_reference(sim, ref, snapshots)
        assert np.max(np.abs(ref[2])) > 0.0 or control is None

    def test_nan_only_in_y2_diverges_at_step_one(self, unit_speeds):
        # a NaN at the outflow node of y2 stays out of y1's first update, so
        # only a check of both components catches it at step 1
        grid = Grid.uniform(20)
        system = make_system(unit_speeds)
        y2 = np.zeros(21)
        y2[-1] = np.nan
        y0 = (np.ones(21), y2)
        with pytest.raises(DivergenceError) as ref:
            reference_simulate(system, None, y0, 0.5, grid)
        with pytest.raises(DivergenceError) as err:
            simulate(system, None, y0, 0.5, grid, snapshots=0)
        assert err.value.step == ref.value.step == 1


@st.composite
def speed_pairs(draw):
    """lambda1 < 0 < lambda2, each constant or a polynomial with positive
    lead and nonnegative higher coefficients (so bounded away from 0)."""
    def speed(sign):
        coeffs = [sign * draw(st.floats(0.25, 3.0))]
        coeffs += [sign * v for v in draw(st.lists(st.floats(0.0, 2.0), max_size=2))]
        if len(coeffs) == 1:
            return CoefficientSpec.constant(coeffs[0])
        return CoefficientSpec.polynomial(coeffs)

    return SpeedPair.build(speed(-1.0), speed(1.0))


def drawn_control(kind, grid, rng):
    if kind == "feedback":
        return FeedbackLaw(nodes=grid.nodes, f1=rng.uniform(-2, 2, grid.n + 1),
                           f2=rng.uniform(-2, 2, grid.n + 1))
    if kind == "reflection":
        return BoundaryReflection(float(rng.uniform(-2, 2)))
    if kind == "signal":
        return lambda t: math.sin(5.0 * t)
    return None


_couplings = st.tuples(*[st.floats(-3.0, 3.0)] * 4)
_kinds = st.sampled_from(["zero", "signal", "feedback", "reflection"])


class TestSimulateProperties:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 200), speeds=speed_pairs(), abcd=_couplings,
           q=st.floats(-1.5, 1.5), cfl=st.floats(0.05, 1.0), T=st.floats(0.05, 0.5),
           kind=_kinds, snapshots=st.sampled_from([None, 0, 1, 3, 20]),
           seed=st.integers(0, 2 ** 16))
    def test_matches_reference(self, n, speeds, abcd, q, cfl, T, kind, snapshots, seed):
        grid = Grid.uniform(n)
        rng = np.random.default_rng(seed)
        system = make_system(speeds, *abcd, q=q)
        control = drawn_control(kind, grid, rng)
        y0 = (rng.uniform(-1, 1, n + 1), rng.uniform(-1, 1, n + 1))
        ref = reference_simulate(system, control, y0, T, grid, cfl)
        sim = simulate(system, control, y0, T, grid, cfl, snapshots=snapshots)
        _assert_matches_reference(sim, ref, snapshots)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 60), speeds=speed_pairs(), abcd=_couplings,
           q=st.floats(-1.5, 1.5), cfl=st.floats(0.05, 1.0), kind=_kinds,
           component=st.sampled_from([0, 1]), end=st.sampled_from([0, -1]),
           value=st.sampled_from([math.nan, math.inf, -math.inf, 1e200]),
           seed=st.integers(0, 2 ** 16))
    def test_divergence_step_matches_reference(self, n, speeds, abcd, q, cfl, kind,
                                               component, end, value, seed):
        grid = Grid.uniform(n)
        rng = np.random.default_rng(seed)
        system = make_system(speeds, *abcd, q=q)
        control = drawn_control(kind, grid, rng)
        y0 = (rng.uniform(-1, 1, n + 1), rng.uniform(-1, 1, n + 1))
        y0[component][end] = value
        want = reference_divergence_step(system, control, y0, 0.2, grid, cfl)
        assert want is not None
        with pytest.raises(DivergenceError) as err:
            simulate(system, control, y0, 0.2, grid, cfl, snapshots=0)
        assert err.value.step == want
        assert str(err.value) == f"non-finite state or L2 norm at step {want}"

    @pytest.mark.parametrize("n", [4, 61, 400])
    def test_step_zero_norm_is_l2_norm(self, varying_speeds, n):
        # verify_settling divides by l2_norm of the data: the same bits
        grid = Grid.uniform(n)
        rng = np.random.default_rng(n)
        y0 = (rng.uniform(-1, 1, n + 1), rng.uniform(-1, 1, n + 1))
        sim = simulate(make_system(varying_speeds, b=1.0), None, y0, 0.1, grid, snapshots=0)
        assert _same_bits(sim.l2_trace[0], l2_norm(y0[0], y0[1], grid.h))


class TestSimulateImports:
    def test_no_masked_arrays(self):
        # np.unique imports numpy.ma, about 20 ms in each process that
        # simulates; a fresh interpreter shows whether simulate pulls it in
        src = os.path.dirname(os.path.dirname(hypmin.__file__))
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from hypmin import CoefficientSpec, Grid, SpeedPair, SystemSpec, simulate
            c = CoefficientSpec.constant
            system = SystemSpec(speeds=SpeedPair.build(c(-1.0), c(1.0)), a=c(0.0),
                                b=c(1.0), c=c(1.0), d=c(0.0), q=0.0)
            grid = Grid.uniform(16)
            for snapshots in (0, 5, None):
                simulate(system, None, (np.sin(grid.nodes), np.cos(grid.nodes)), 0.5,
                         grid, snapshots=snapshots)
            print("numpy.ma" in sys.modules)
            """)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestSimulateMemory:
    N = 1600

    def _setup(self, varying_speeds):
        grid = Grid.uniform(self.N)
        rng = np.random.default_rng(3)
        y0 = (rng.uniform(-1, 1, self.N + 1), rng.uniform(-1, 1, self.N + 1))
        system = make_system(varying_speeds, a=0.3, b=0.8, c=-0.5, d=0.2)
        simulate(system, None, y0, 0.01, grid, snapshots=0)   # lazy imports
        return system, y0, grid

    @pytest.mark.parametrize("kind", ["zero", "feedback"])
    def test_peak_is_traces_plus_scratch(self, varying_speeds, kind):
        system, y0, grid = self._setup(varying_speeds)
        control = drawn_control(kind, grid, np.random.default_rng(4))
        T, cfl = 0.5, 0.9
        # 10**9 keeps the state of every step, as many as the estimate counts
        for snapshots in (0, 20, 10 ** 9):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                sim = simulate(system, control, y0, T, grid, cfl, snapshots=snapshots)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert len(sim.snapshots) == min(snapshots, len(sim.times))
            kept = _simulate_bytes(sim.scheme_meta["max_speed"], self.N, T, cfl, snapshots)
            # the double buffer, the scratch, A, B, C and the two weight tables
            # are 16 arrays of n+1 floats; measured 14.4 (zero) and 16.4 (feedback)
            assert peak <= kept + 18 * 8 * (self.N + 1)
            del sim

    def test_steps_allocate_no_array(self, varying_speeds):
        # the signal control runs once per step: from the first step on, the
        # traced peak may grow by Python scalars, never by an array
        system, y0, grid = self._setup(varying_speeds)
        probe = {"base": None, "grow": 0}

        def signal(t):
            current, peak = tracemalloc.get_traced_memory()
            if probe["base"] is None and t > 0.0:
                probe["base"] = current
                tracemalloc.reset_peak()
            elif probe["base"] is not None:
                probe["grow"] = max(probe["grow"], peak - probe["base"])
            return 0.1

        tracemalloc.start()
        try:
            sim = simulate(system, signal, y0, 0.5, grid, snapshots=0)
        finally:
            tracemalloc.stop()
        assert len(sim.times) > 100
        assert probe["grow"] < 8 * (self.N + 1)

class TestCanonicalSolution:
    def test_source_free_transport(self, unit_speeds):
        npts = 101
        nodes = np.linspace(0.0, 1.0, npts)
        g = np.zeros(npts)
        y0 = (np.sin(nodes), np.cos(nodes))
        got1, got2 = canonical_solution(unit_speeds, g, 0.0, y0, None, 0.3, nodes)
        s_in2 = 0.3 - nodes
        want2 = np.where(s_in2 <= 0.0, np.interp(np.clip(nodes - 0.3, 0, 1),
                                                 nodes, y0[1]), 0.0)
        assert np.allclose(got2, want2, atol=1e-12)

    def test_control_region(self, unit_speeds):
        npts = 101
        nodes = np.linspace(0.0, 1.0, npts)
        g = np.zeros(npts)
        y0 = (np.full(npts, 0.7), np.zeros(npts))
        uhat = lambda s: np.sin(s)
        # s_in1(t,x) = t + x - 1
        v1, _ = canonical_solution(unit_speeds, g, 0.0, y0, uhat, 1.5, 0.2)
        assert v1 == pytest.approx(math.sin(0.7), abs=1e-12)
        v1, _ = canonical_solution(unit_speeds, g, 0.0, y0, uhat, 0.3, 0.3)
        assert v1 == pytest.approx(0.7, abs=1e-12)

    def test_constant_source_worked_example(self, unit_speeds):
        npts = 201
        nodes = np.linspace(0.0, 1.0, npts)
        g = np.ones(npts)
        y0 = (np.ones(npts), 0.7 + nodes)
        _, v2 = canonical_solution(unit_speeds, g, 0.0, y0, None, 0.5, 0.5)
        assert v2 == pytest.approx(0.7 + 0.5, abs=1e-10)

    def test_reflection_inflow(self, unit_speeds):
        npts = 101
        nodes = np.linspace(0.0, 1.0, npts)
        g = np.zeros(npts)
        y0 = (np.full(npts, 0.5), np.zeros(npts))
        # q-reflection: for s_in2 > 0 the lower state carries q*y1(s_in2, 0)
        _, v2 = canonical_solution(unit_speeds, g, 2.0, y0, None, 0.4, 0.1)
        assert v2 == pytest.approx(2.0 * 0.5, abs=1e-12)

    def test_time_zero_returns_data(self, varying_speeds):
        nodes = np.linspace(0.0, 1.0, 101)
        y0 = (np.sin(3 * nodes), np.cos(2 * nodes))
        got1, got2 = canonical_solution(varying_speeds, np.ones(101), 0.7, y0,
                                        np.sin, 0.0, nodes)
        assert np.array_equal(got1, y0[0]) and np.array_equal(got2, y0[1])

    def test_domain_errors(self, unit_speeds):
        g = np.zeros(11)
        y0 = (np.zeros(11), np.zeros(11))
        with pytest.raises(DomainError):
            canonical_solution(unit_speeds, g, 0.0, y0, None, -0.1, 0.5)
        with pytest.raises(DomainError):
            canonical_solution(unit_speeds, g, 0.0, y0, None, 0.5, 1.5)


class TestReflectionCrossCheck:
    def test_simulated_reflection_matches_canonical(self, unit_speeds):
        # independent paths: upwind scheme vs exact characteristic formulas;
        # unit CFL with unit speeds makes both exact, so they must agree to
        # rounding through the x=0 reflection
        grid = Grid.uniform(400)
        xs = grid.nodes
        y10 = smooth_bump(xs, 0.35, 0.2)
        y20 = np.zeros_like(xs)
        q = 0.8
        system = make_system(unit_speeds, q=q)
        t = 0.7
        sim = simulate(system, None, (y10, y20), t, grid, cfl=1.0)
        got1, got2 = sim.snapshots[-1]
        want1, want2 = canonical_solution(unit_speeds, np.zeros_like(xs), q,
                                          (y10, y20), None, t, xs)
        assert np.max(np.abs(got1 - want1)) <= 1e-12
        assert np.max(np.abs(got2 - want2)) <= 1e-12
        assert np.max(np.abs(got2)) > 0.3  # the reflection actually fired


class TestGrowthRate:
    def _synthetic(self, sigma, steps=40):
        times = np.linspace(0.0, 2.0, steps + 1)
        norms = 0.7 * np.exp(sigma * times)
        grid = Grid.uniform(4)
        return SimResult(grid=grid, times=times, snapshots=[],
                         control_trace=np.zeros(steps + 1), l2_trace=norms,
                         linf_trace=norms)

    def test_exact_exponential(self):
        res = self._synthetic(1.37)
        assert growth_rate(res, (0.0, 2.0)) == pytest.approx(1.37, abs=1e-6)

    def test_negative_rate(self):
        res = self._synthetic(-0.8)
        assert growth_rate(res, (0.5, 2.0)) == pytest.approx(-0.8, abs=1e-6)

    def test_too_few_snapshots(self):
        res = self._synthetic(1.0, steps=10)
        with pytest.raises(UndefinedRateError):
            growth_rate(res, (0.0, 0.1))

    def test_zero_norm(self):
        res = self._synthetic(1.0)
        res.l2_trace[5] = 0.0
        with pytest.raises(UndefinedRateError):
            growth_rate(res, (0.0, 2.0))


class TestConsistencyChain:
    def test_physical_vs_canonical(self):
        speeds = SpeedPair.build(CoefficientSpec.polynomial([-1.0, -0.25]),
                                 CoefficientSpec.polynomial([1.2, 0.5]))
        a, b = const(0.4), const(0.8)
        c, d = CoefficientSpec.polynomial([0.5, 1.0]), const(-0.3)
        system = make_system(speeds, a=a, b=b, c=c, d=d)
        T = 0.8
        errs = []
        for n in (150, 300):
            grid = Grid.uniform(n)
            gauge = diag_removal(a, b, c, d, speeds, grid)    # the Volterra map's weights
            K = solve_kernels(system, grid)
            g = K.g
            y10 = smooth_bump(grid.nodes, 0.5, 0.2)
            y20 = smooth_bump(grid.nodes, 0.4, 0.15)
            sim = simulate(system, None, (y10, y20), T, grid, cfl=0.9)

            def to_hat(y1, y2):
                return volterra_apply(K, gauge.e1 * y1, gauge.e2 * y2)

            yh0 = to_hat(y10, y20)
            uhat_vals = np.array([to_hat(s1, s2)[0][n] for s1, s2 in sim.snapshots])
            uhat = lambda s: np.interp(s, sim.times, uhat_vals)
            yh_sim = to_hat(*sim.snapshots[-1])
            yh_exact = canonical_solution(speeds, g, 0.0, yh0, uhat, T, grid.nodes)
            errs.append(math.sqrt(np.trapezoid(
                (yh_sim[0] - yh_exact[0]) ** 2 + (yh_sim[1] - yh_exact[1]) ** 2,
                dx=grid.h)))
        assert errs[0] <= 0.01
        assert errs[1] <= 0.75 * errs[0]


class TestExport:
    def test_csv_output(self, unit_speeds, tmp_path):
        grid = Grid.uniform(20)
        system = make_system(unit_speeds)
        y0 = (np.sin(grid.nodes), np.cos(grid.nodes))
        sim = simulate(system, None, y0, 0.2, grid, snapshots=4)
        files = export_sim_csv(sim, tmp_path)
        assert (tmp_path / "timeseries.csv").exists()
        assert (tmp_path / "snapshots.csv").exists()
        assert sum(1 for f in files if "snapshot_" in str(f)) == 4
        header = (tmp_path / "timeseries.csv").read_text().splitlines()[0]
        assert header == "t,u,l2_norm,linf_norm"
