import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hypmin
from hypmin import (CoefficientSpec, Grid, SpeedPair, canonical_solution,
                    diag_removal, growth_rate, l2_norm, simulate, simulator,
                    solve_kernels, volterra_apply)
from hypmin.coeffs import trapezoid_weights
from hypmin.errors import (CFLError, DivergenceError, DomainError, GridMismatchError,
                           UndefinedRateError)
from hypmin.kernels import FeedbackLaw, solve_gains
from hypmin.simulator import (BoundaryReflection, SimResult, largest_speed, simulate_bytes,
                              canonical_map, export_sim_csv)

from conftest import const, dense_canonical_map, exact_transport, make_system, smooth_bump

EPS = np.finfo(float).eps


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
        # cfl out of (0, 1], and steps too small to take: at 5e-324 the step
        # underflows to 0 (was ZeroDivisionError), and T / step overflows at
        # 1e-310, a subnormal step (was OverflowError), and at 1e-300 and
        # T = 1e10, a normal one
        grid = Grid.uniform(64)
        system = make_system(unit_speeds)
        for cfl, T in [(1.5, 0.5), (0.0, 0.5), (5e-324, 0.5), (1e-310, 0.5), (1e-300, 1e10)]:
            with pytest.raises(CFLError):
                simulate(system, None, (np.zeros(65), np.zeros(65)), T, grid, cfl=cfl,
                         snapshots=0)

    def test_bad_horizon_and_data(self, unit_speeds):
        # nan and inf were a bare ValueError and an OverflowError
        grid = Grid.uniform(20)
        system = make_system(unit_speeds)
        for T in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="^horizon must be finite and positive"):
                simulate(system, None, (np.zeros(21), np.zeros(21)), T, grid, snapshots=0)
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

    def test_feedback_from_another_grid(self, unit_speeds):
        system = make_system(unit_speeds, c=CoefficientSpec.step(0.25, 0.0, 1.0))
        law = solve_gains(system, Grid.uniform(20))
        with pytest.raises(GridMismatchError, match=r"on 21 nodes .* \(41 nodes\)"):
            simulate(system, law, (np.zeros(41), np.zeros(41)), 0.5, Grid.uniform(40))

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
        with np.errstate(over="ignore", invalid="ignore"):   # 0 * inf in a zero gain
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
    if kind == "zero-feedback":     # the gains of b = 0: f2 is -0.0
        return FeedbackLaw(nodes=grid.nodes, f1=np.zeros(grid.n + 1),
                           f2=np.full(grid.n + 1, -0.0))
    if kind == "reflection":
        return BoundaryReflection(float(rng.uniform(-2, 2)))
    if kind == "signal":
        return lambda t: math.sin(5.0 * t)
    return None


_couplings = st.tuples(*[st.floats(-3.0, 3.0)] * 4)
_kinds = st.sampled_from(["zero", "signal", "feedback", "zero-feedback", "reflection"])


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

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(4, 64), speeds=speed_pairs(),
           cfl=st.floats(0.0, 1.0, exclude_min=True),
           steps=st.floats(0.0, 1000.0, exclude_min=True))
    @example(n=64, speeds=SpeedPair.build(CoefficientSpec.constant(-1.0),
                                          CoefficientSpec.constant(1.0)),
             cfl=1.0, steps=1.0 + 1e-12)
    def test_step_keeps_cfl_bound(self, n, speeds, cfl, steps):
        # horizons of `steps` CFL steps dt0 = cfl h / max_speed, from below
        # one to long: the step count rounds T / dt0 up, less 1e-12, so dt is
        # at most dt0 (1 + 1e-12) and the CFL number dt max_speed / h at most
        # 1 + 1e-12, up to the rounding of dt0 and dt (the example reaches
        # 1 + 1e-12: T = dt0 (1 + 1e-12) is one step)
        grid = Grid.uniform(n)
        T = steps * (cfl * grid.h / largest_speed(speeds, grid.nodes))
        assume(T > 0.0)
        zero = np.zeros(n + 1)
        meta = simulate(make_system(speeds), None, (zero, zero), T, grid, cfl,
                        snapshots=0).scheme_meta
        assert meta["dt"] * meta["max_speed"] * n <= (1 + 1e-12) * (1 + 8 * EPS)

    @pytest.mark.parametrize("n", [4, 61, 400])
    def test_step_zero_norm_is_l2_norm(self, varying_speeds, n):
        # verify_settling divides by l2_norm of the data: the same bits
        grid = Grid.uniform(n)
        rng = np.random.default_rng(n)
        y0 = (rng.uniform(-1, 1, n + 1), rng.uniform(-1, 1, n + 1))
        sim = simulate(make_system(varying_speeds, b=1.0), None, y0, 0.1, grid, snapshots=0)
        assert _same_bits(sim.l2_trace[0], l2_norm(y0[0], y0[1], grid.h))


class TestSimulateOneStep:
    """One step of simulate is the per-node upwind formula, bitwise: each
    entry takes the same products and sums in the same order, whatever the
    layout of the state."""

    @pytest.mark.parametrize("q", [0.0, 0.7])
    @pytest.mark.parametrize("kind", ["zero", "signal", "feedback", "zero-feedback",
                                      "reflection"])
    @pytest.mark.parametrize("n", [4, 61, 400])
    def test_step_is_upwind_formula(self, varying_speeds, n, kind, q):
        grid = Grid.uniform(n)
        h, nodes = grid.h, grid.nodes
        rng = np.random.default_rng(n)
        system = make_system(varying_speeds, a=CoefficientSpec.polynomial([0.3, -0.5]), b=0.8,
                             c=CoefficientSpec.step(0.3, -0.5, 1.0), d=-0.4, q=q)
        control = drawn_control(kind, grid, rng)
        y1, y2 = rng.uniform(-1, 1, n + 1), rng.uniform(-1, 1, n + 1)
        T = 0.9 * h / largest_speed(varying_speeds, nodes)
        sim = simulate(system, control, (y1, y2), T, grid, snapshots=2)
        assert len(sim.times) == 2
        dt = sim.times[1]
        l1, l2 = varying_speeds.speed(1, nodes), varying_speeds.speed(2, nodes)
        a, b, c, d = (f(nodes) for f in (system.a, system.b, system.c, system.d))
        c1, c2 = (dt / h) * l1[:-1], (dt / h) * l2[1:]
        y1n, y2n = y1.copy(), np.empty(n + 1)
        y1n[:-1] = ((1.0 + c1 + dt * a[:-1]) * y1[:-1] + (-c1) * y1[1:]) + (dt * b[:-1]) * y2[:-1]
        y2n[1:] = ((1.0 - c2 + dt * d[1:]) * y2[1:] + c2 * y2[:-1]) + (dt * c[1:]) * y1[1:]
        y2n[0] = q * y1n[0]
        if kind in ("feedback", "zero-feedback"):
            w = np.tile(trapezoid_weights(n, h), 2)
            gains = w * np.concatenate([control.f1, control.f2[::-1]])
            u = float(np.vdot(gains, np.concatenate([y1n, y2n[::-1]])))
        elif kind == "reflection":
            u = control.k * y2n[n]
        else:
            u = 0.0 if control is None else control(dt)
        y1n[n] = u
        assert _same_bits(sim.control_trace[1], u)
        assert _same_bits(sim.snapshots[1][0], y1n)
        assert _same_bits(sim.snapshots[1][1], y2n)
        assert _same_bits(sim.l2_trace[1], l2_norm(y1n, y2n, h))
        assert u != 0.0 or kind in ("zero", "zero-feedback")


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
            kept = simulate_bytes(sim.scheme_meta["max_speed"], self.N, T, cfl, snapshots)
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


def sparse_trace(kind, width, seed, T1):
    """A trace callable in canonical_map's sparse form and the same trace as
    dense rows, for canonical_map and the dense reference.

    "random": two columns per time picked by a hash of s (they may coincide,
    and a third of the weights are exactly 0) with weights smooth in s.
    "hats": the sharpness operator's form, the free response in column 0
    before T1 and two adjacent hats of width-1 after it."""
    c = np.random.default_rng(seed).uniform(0.5, 40.0, 6)

    def sparse(s):
        s = np.asarray(s, dtype=float)
        if kind == "hats":
            late = s >= T1
            pos = np.clip(s - T1, 0.0, None) * c[0]
            j = np.minimum(np.floor(pos).astype(np.int64), width - 3)
            w = np.clip(pos - j, 0.0, 1.0)
            cols = np.where(late, j + 1, 0)[:, None] + np.array([0, 1])
            vals = np.where(late[:, None], np.stack([1.0 - w, w], axis=1), [1.0, 0.0])
            return cols, vals
        cols = np.stack([np.floor(c[0] * s + c[1]), np.floor(c[2] * s)], axis=1)
        cols = cols.astype(np.int64) % width
        vals = np.stack([np.sin(c[3] * s + 1.0), np.cos(c[4] * s)], axis=1)
        vals[np.floor(c[5] * s).astype(np.int64) % 3 == 0, 1] = 0.0
        return cols, vals

    return sparse, lambda s: scattered(*sparse(s), width)


def scattered(cols, vals, width):
    """Dense rows of width columns from (column, weight) pairs."""
    out = np.zeros((cols.shape[0], width))
    np.add.at(out, (np.arange(cols.shape[0])[:, None], cols), vals)
    return out


class TestCanonicalMapReference:
    """The sparse-trace quadrature against the dense reference map."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(8, 60), t=st.floats(0.05, 3.0), q=st.floats(-2.0, 2.0),
           kind=st.sampled_from(["random", "hats"]), width=st.integers(3, 40),
           seed=st.integers(0, 2 ** 32 - 1), rows=st.sampled_from(["one", "ragged", "many"]),
           varying=st.booleans())
    def test_matches_dense_reference(self, unit_speeds, varying_speeds, n, t, q, kind, width,
                                     seed, rows, varying):
        speeds = varying_speeds if varying else unit_speeds
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(n + 1)
        # the nodes, unsorted points, and x = 0 and 1e-9, whose lo lies in the
        # last quadrature cell (r0 = K)
        x = np.concatenate([np.linspace(0.0, 1.0, n + 1), rng.uniform(0.0, 1.0, 7),
                            [0.0, 1e-9]])
        block = {"one": x.size, "ragged": 10, "many": 3}[rows]
        sparse, dense = sparse_trace(kind, width, seed, speeds.T1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_CANONICAL_ROWS", block)
            (cols, vals), lower = canonical_map(speeds, g, q, t, x, sparse)
        ref = dense_canonical_map(speeds, g, q, t, x, dense)
        # the same map on |g|, |q| and |trace|: the sum of the absolute terms
        scale = dense_canonical_map(speeds, np.abs(g), abs(q), t, x,
                                    lambda s: np.abs(dense(s)))
        m = x.size
        assert np.array_equal(scattered(cols, vals, width), ref[:m])
        L = lower.shape[1]
        assert L <= width and not ref[m:, L:].any()
        assert np.all(np.abs(lower - ref[m:, :L]) <= 1e-12 * scale[m:, :L])
        assert np.array_equal(lower == 0.0, ref[m:, :L] == 0.0)

    @pytest.mark.parametrize("block", [64, 7])
    @pytest.mark.parametrize("n, t", [(50, 0.4), (200, 1.34), (200, 2.5), (400, 1.0)])
    def test_chi2_only_at_weighted_points(self, monkeypatch, varying_speeds, n, t, block):
        # every point that a row weights, plus at most one triangle per row
        # block: the points before lo of its rows, after the block's smallest lo
        counted = []
        inverse = SpeedPair.phi_inv_ext

        def counting(self, i, v):
            if i == 2:
                counted.append(np.size(v))
            return inverse(self, i, v)

        monkeypatch.setattr(SpeedPair, "phi_inv_ext", counting)
        monkeypatch.setattr(simulator, "_CANONICAL_ROWS", block)
        x = np.linspace(0.0, 1.0, n + 1)
        sparse, _ = sparse_trace("hats", n + 2, 1, varying_speeds.T1)
        canonical_map(varying_speeds, np.ones(n + 1), 0.0, t, x, sparse)
        K = max(2, math.ceil(t * largest_speed(varying_speeds, x) / (1.0 / n)))
        lo = np.maximum(0.0, t - varying_speeds.phi_eval(2, x))
        r0 = np.minimum(np.ceil(lo / (t / K) - 1e-12).astype(np.int64), K)
        weighted = int(np.sum(K + 1 - r0))
        triangles = 0
        for b0 in range(0, n + 1, block):
            rb = r0[b0:b0 + block]
            step = int(np.max(-np.diff(rb))) if rb.size > 1 else 0
            triangles += rb.size * (rb.size - 1) // 2 * step
        assert weighted <= sum(counted) <= weighted + triangles
        if t > 1.0:
            assert sum(counted) < 0.75 * (K + 1) * (n + 1)


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
