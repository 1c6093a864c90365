import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.linalg import norm
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypmin import CoefficientSpec, Grid, harness, simulator, times_report
from hypmin.errors import ConfigError, DomainError, PreconditionError
from hypmin.cli import _write_json
from hypmin.config import FEEDBACK, config_from_dict, load_config
from hypmin.harness import (canonical_sharpness_residual, counterexample, verify_settling,
                            verify_sharpness)
from hypmin.kernels import solve_trace
from hypmin.simulator import BoundaryReflection, simulate

from conftest import dense_canonical_map, headline_raw, make_system

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def varying_raw(n=200, horizon=1.25):
    """Space-varying speeds with a step coupling; Tmin is about 1.1311."""
    return {
        "schema_version": 1,
        "system": {
            "lambda1": {"family": "polynomial", "coeffs": [-1.0, -0.5]},
            "lambda2": {"family": "polynomial", "coeffs": [1.0, 1.0]},
            "a": {"family": "constant", "value": 0.4},
            "b": {"family": "constant", "value": 0.7},
            "c": {"family": "step", "ell": 0.2, "lo": 0.0, "hi": 1.0},
            "d": {"family": "constant", "value": -0.2},
        },
        "grid_n": n,
        "horizon": horizon,
    }


def transport_raw(n=64, horizon=1.0, cfl=1.0):
    return {
        "schema_version": 1,
        "system": {
            "lambda1": {"family": "constant", "value": -1.0},
            "lambda2": {"family": "constant", "value": 1.0},
        },
        "grid_n": n,
        "horizon": horizon,
        "cfl": cfl,
    }


class TestConfig:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(headline_raw()))
        cfg = load_config(path)
        assert cfg.scenario_id == "scenario"
        assert cfg.grid.n == 400
        assert cfg.horizon == 1.5
        assert cfg.system.q == 0.0
        assert cfg.system.c(0.3) == 1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_schema_version(self):
        raw = headline_raw()
        raw["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_dict(raw)

    def test_missing_required(self):
        raw = headline_raw()
        del raw["horizon"]
        with pytest.raises(ConfigError, match="horizon"):
            config_from_dict(raw)

    def test_unknown_family(self):
        raw = headline_raw()
        raw["system"]["c"] = {"family": "fourier", "coeffs": [1]}
        with pytest.raises(ConfigError, match="fourier"):
            config_from_dict(raw)

    def test_family_missing_field(self):
        raw = headline_raw()
        raw["system"]["c"] = {"family": "step", "ell": 0.2}
        with pytest.raises(ConfigError, match="step"):
            config_from_dict(raw)

    def test_sign_violation_is_config_error(self):
        raw = headline_raw()
        raw["system"]["lambda2"] = {"family": "constant", "value": -2.0}
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_retired_kernel_keys_ignored(self):
        raw = headline_raw(n=64)
        raw["kernel_tol"] = -1.0
        raw["kernel_max_iter"] = 0
        cfg = config_from_dict(raw)
        assert cfg.grid.n == 64 and cfg.horizon == 1.5
        assert not {"kernel_tol", "kernel_max_iter"} & set(vars(cfg))

    def test_bad_cfl(self):
        raw = headline_raw()
        raw["cfl"] = 1.5
        with pytest.raises(ConfigError, match="cfl"):
            config_from_dict(raw)


def initial(record):
    """cfg.initial of headline_raw with the initial_data record."""
    return config_from_dict({**headline_raw(n=16), "initial_data": record}).initial


def control(record):
    """cfg.control of headline_raw with the control record."""
    return config_from_dict({**headline_raw(n=16), "control": record}).control


class TestInitialAndControl:
    def test_zero(self):
        grid = Grid.uniform(16)
        y1, y2 = initial({"kind": "zero"})(grid)
        assert not y1.any() and not y2.any()

    def test_random_deterministic(self):
        grid = Grid.uniform(32)
        a = initial({"kind": "random", "seed": 42})(grid)
        b = initial({"kind": "random", "seed": 42})(grid)
        c = initial({"kind": "random", "seed": 7})(grid)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])
        assert np.max(np.abs(a[0])) <= 1.0
        # a record without a seed draws with the config's (42 in headline_raw)
        d = initial({"kind": "random"})(grid)
        assert np.array_equal(a[0], d[0]) and np.array_equal(a[1], d[1])

    def test_random_drawn_on_call(self):
        # random data is checked by its fields on load and drawn by
        # cfg.initial: loading a config does not import numpy.random
        code = ("import sys; from hypmin.config import load_config; "
                "cfg = load_config(sys.argv[1]); print('numpy.random' in sys.modules); "
                "cfg.initial(cfg.grid); print('numpy.random' in sys.modules)")
        src = os.path.dirname(os.path.dirname(harness.__file__))
        config = os.path.join(src, "..", "configs", "varying_speeds.json")
        proc = subprocess.run([sys.executable, "-c", code, config], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    def test_random_same_profile_across_grids(self):
        data = initial({"kind": "random", "seed": 1})
        coarse, fine = data(Grid.uniform(64)), data(Grid.uniform(128))
        assert fine[0][::2] == pytest.approx(coarse[0])

    def test_samples_and_family(self):
        grid = Grid.uniform(10)
        y1, y2 = initial(
            {"kind": "samples",
             "y1": {"xs": [0.0, 1.0], "values": [0.0, 2.0]},
             "y2": {"xs": [0.0, 1.0], "values": [1.0, 1.0]}})(grid)
        assert y1[5] == pytest.approx(1.0)
        y1, y2 = initial(
            {"kind": "family",
             "y1": {"family": "constant", "value": 3.0},
             "y2": {"family": "polynomial", "coeffs": [0.0, 1.0]}})(grid)
        assert y1[0] == 3.0 and y2[-1] == pytest.approx(1.0)

    def test_samples_built_once_at_load(self, monkeypatch):
        built = []
        sampled = CoefficientSpec.sampled
        monkeypatch.setattr(CoefficientSpec, "sampled",
                            staticmethod(lambda *args: built.append(1) or sampled(*args)))
        data = initial({"kind": "samples",
                        "y1": {"xs": [0.0, 1.0], "values": [0.0, 2.0]},
                        "y2": {"xs": [0.0, 1.0], "values": [1.0, 1.0]}})
        assert len(built) == 2
        for n in (8, 16):
            y1, _ = data(Grid.uniform(n))
            assert y1[n // 2] == pytest.approx(1.0)
        assert len(built) == 2

    def test_unknown_kinds(self):
        with pytest.raises(ConfigError, match="^initial_data: unknown initial_data kind"):
            initial({"kind": "weird"})
        with pytest.raises(ConfigError, match="^control: unknown control kind"):
            control({"kind": "weird"})

    def test_control_kinds(self):
        assert control({"kind": "zero"}) is None
        refl = control({"kind": "reflection", "k": 2.0})
        assert isinstance(refl, BoundaryReflection) and refl.k == 2.0
        sig = control({"kind": "samples", "ts": [0.0, 1.0], "values": [0.0, 4.0]})
        assert sig(0.5) == pytest.approx(2.0)
        poly = control({"kind": "polynomial", "coeffs": [1.0, 2.0]})
        assert poly(2.0) == pytest.approx(5.0)
        # the gains of a feedback record are each command's to synthesize
        assert control({"kind": "feedback"}) is FEEDBACK
        assert config_from_dict(headline_raw(n=16)).control is FEEDBACK


class TestVerifySettling:
    def test_pure_transport_exact(self):
        # settling time is Topt = 1; at exactly T=1 the discrete snapshot still
        # carries the measure-zero trailing trace on the boundary node, so the
        # machine-zero check runs one cell later (horizon kept a multiple of h
        # so that unit CFL keeps the shifts exact).
        cfg = config_from_dict(transport_raw(horizon=1.0625), "transport")
        rep = verify_settling(cfg, levels=(64,))
        assert rep.passed
        assert rep.rows[0]["residual_rel"] <= 1e-14

    def test_pure_transport_at_topt_boundary_artifact(self):
        # at exactly Topt only the h/2-weighted boundary nodes survive
        cfg = config_from_dict(transport_raw(horizon=1.0), "transport")
        rep = verify_settling(cfg, levels=(64,))
        assert rep.rows[0]["residual_abs"] <= math.sqrt(rep.rows[0]["h"])

    def test_precondition(self):
        cfg = config_from_dict(headline_raw(n=64, horizon=1.2), "early")
        with pytest.raises(PreconditionError):
            verify_settling(cfg)

    def test_zero_initial_data_refused_before_any_solve(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("solved before the initial data were checked")

        monkeypatch.setattr(harness, "times_report", never)
        monkeypatch.setattr(harness, "solve_gains", never)
        raw = headline_raw(n=64)
        raw["initial_data"] = {"kind": "zero"}
        cfg = config_from_dict(raw, "zero")
        with pytest.raises(PreconditionError, match="needs nonzero initial data"):
            verify_settling(cfg)

    @pytest.mark.parametrize("case", ["varying-step", "headline"])
    def test_tiny_initial_data_scale_exactly(self, case):
        # the certificate squares the state: at 2^-531 the norms underflowed
        # to residuals 0 and a false PASS, and from 2^-534 on the data were
        # refused as zero.  Each level runs on its data times a power of two,
        # exact, so the rows are those of the unscaled data times the scale
        if case == "headline":
            cfg = load_config(os.path.join(CONFIG_DIR, "headline.json"))
        else:
            with open(os.path.join(CONFIG_DIR, "varying_speeds.json")) as fh:
                raw = json.load(fh)
            raw["system"]["c"]["ell"] = 0.470625
            raw.update(grid_n=100, horizon=0.810931)
            cfg = config_from_dict(raw, case)
        base = verify_settling(cfg)
        assert base.passed == (case == "headline")
        for k in (-531, -1000):
            scale = math.ldexp(1.0, k)
            tiny = dataclasses.replace(
                cfg, initial=lambda grid, s=scale: tuple(s * y for y in cfg.initial(grid)))
            rep = verify_settling(tiny)
            assert rep.passed is base.passed and rep.ratios == base.ratios
            for row, want in zip(rep.rows, base.rows, strict=True):
                assert row["residual_rel"] == want["residual_rel"]
                assert row["residual_abs"] == want["residual_abs"] * scale
                assert row["y0_norm"] == want["y0_norm"] * scale

    def test_settled_stays_settled(self):
        base = config_from_dict(headline_raw(n=200, horizon=1.5), "tmin")
        later = config_from_dict(headline_raw(n=200, horizon=1.7), "after")
        r0 = verify_settling(base, levels=(200,)).rows[0]["residual_rel"]
        r1 = verify_settling(later, levels=(200,)).rows[0]["residual_rel"]
        assert r1 <= r0 * 1.05

    def test_varying_speeds_end_to_end(self):
        cfg = config_from_dict(varying_raw(), "varying")
        rep = verify_settling(cfg, levels=(100, 200, 400))
        assert rep.passed
        assert rep.rows[1]["residual_rel"] <= 1e-3
        assert all(r <= 0.65 for r in rep.ratios)

    def test_varying_speeds_sharpness_sides(self):
        cfg = config_from_dict(varying_raw(), "varying")
        floor = verify_sharpness(cfg, 0.9, levels=(200,))
        assert floor.notes == "side=floor" and floor.passed
        assert floor.rows[0]["residual_vs_free"] >= 0.2
        drop = verify_sharpness(cfg, 1.2, levels=(200,))
        assert drop.notes == "side=drop" and drop.passed
        assert drop.rows[0]["residual_vs_initial"] <= 1e-6

    def test_closed_loop_trace_and_decay(self):
        # synthesized feedback gives a time-continuous control trace (step
        # increments O(dt), never O(1) jumps) and a decaying closed loop
        from hypmin import growth_rate, solve_kernels
        cfg = config_from_dict(headline_raw(n=200, horizon=1.4), "trace")
        grid = cfg.grid
        law = solve_kernels(cfg.system, grid).gains
        y0 = cfg.initial(grid)
        sim = simulate(cfg.system, law, y0, 1.4, grid, 0.9)
        du = np.abs(np.diff(sim.control_trace))
        assert du.max() <= 2.0 * sim.scheme_meta["dt"]
        assert growth_rate(sim, (0.1, 1.3)) < -1.0

    def test_deterministic_reports(self):
        cfg = config_from_dict(headline_raw(n=100, horizon=1.5), "det")
        a = verify_settling(cfg, levels=(100,)).as_flat_dict()
        b = verify_settling(cfg, levels=(100,)).as_flat_dict()
        a.pop("runtime"), b.pop("runtime")
        assert a == b

    def test_report_write(self, tmp_path):
        cfg = config_from_dict(transport_raw(), "transport")
        rep = verify_settling(cfg, levels=(32, 64))
        path = _write_json(tmp_path, "report_settling.json", rep.as_flat_dict())
        data = json.loads(open(path).read())
        assert data["kind"] == "settling"
        assert "level0_residual_rel" in data


class TestDefaultLevels:
    @pytest.mark.parametrize("verify", ["settling", "sharpness"])
    def test_levels_double_at_smallest_grid(self, verify):
        # grid_n 8, the smallest valid value: the default levels are 4, 8
        # and 16, with no repeated coarsest level (and so no ratio of 1)
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "varying_speeds.json")
        with open(path) as fh:
            raw = json.load(fh)
        raw["grid_n"] = 8
        cfg = config_from_dict(raw, "coarsest")
        rep = verify_settling(cfg) if verify == "settling" else verify_sharpness(cfg, 1.3)
        assert [row["n"] for row in rep.rows] == [4, 8, 16]
        assert rep.passed


class TestVerifySharpness:
    def test_floor_below_topt(self):
        cfg = config_from_dict(transport_raw(n=64, horizon=1.0), "floor")
        rep = verify_sharpness(cfg, 0.7, levels=(64, 128))
        assert rep.notes == "side=floor"
        assert rep.passed
        for row in rep.rows:
            assert row["residual_vs_free"] >= 0.5

    def test_drop_at_topt_without_coupling(self):
        cfg = config_from_dict(transport_raw(n=64, horizon=1.0), "drop")
        rep = verify_sharpness(cfg, 1.0, levels=(64,))
        assert rep.notes == "side=drop"
        assert rep.passed
        assert rep.rows[0]["residual_vs_initial"] <= 1e-10

    def test_margin_band_informational(self):
        cfg = config_from_dict(headline_raw(n=64), "margin")
        rep = verify_sharpness(cfg, 1.45, levels=(64,))
        assert rep.notes == "side=margin"
        assert rep.passed

    def test_reflection_unsupported(self):
        raw = headline_raw(n=64)
        raw["system"]["q"] = 0.5
        cfg = config_from_dict(raw, "reflected")
        with pytest.raises(PreconditionError):
            verify_sharpness(cfg, 1.0)

    @pytest.mark.parametrize("T", [0.8, 1.4])
    def test_row_blocks_do_not_change_operator(self, monkeypatch, T):
        cfg = config_from_dict(varying_raw(n=100), "blocks")
        grid = Grid.uniform(100)
        g = np.random.default_rng(3).standard_normal(101)
        out = []
        for rows in (101, 64, 7):       # one block, a ragged last block, many
            monkeypatch.setattr(simulator, "_CANONICAL_ROWS", rows)
            out.append(canonical_sharpness_residual(cfg.system.speeds, g, T, grid))
        assert out[0][0] > 1e-3
        for res in out[1:]:
            assert res[3] == out[0][3]
            np.testing.assert_allclose(res[:3], out[0][:3], rtol=1e-12, atol=0.0)


    @settings(max_examples=20, deadline=None)
    @given(ell=st.floats(0.01, 0.49))
    def test_sides_pass_for_any_step_location(self, ell):
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "varying_speeds.json")
        with open(path) as fh:
            raw = json.load(fh)
        raw["system"]["c"]["ell"] = ell
        raw["grid_n"] = 64
        cfg = config_from_dict(raw, "ell")
        tr = times_report(cfg.system, grid=cfg.grid)
        for T in (tr.Tmin - 0.2 * tr.Tunif, tr.Tmin + 1e-6, tr.Tmin + 0.1 * tr.Tunif):
            assert verify_sharpness(cfg, T, levels=(64,)).passed, T

    @pytest.mark.parametrize("T", [1.0, 1.5])
    def test_peak_at_n800_within_estimate(self, T):
        # the memory check's estimate bounds the peak, and no dense trace
        # matrix or 2(n+1)-row operator (15.4 MB at T = 1.5) is held
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "varying_speeds.json")
        cfg = load_config(path)
        n = 800
        verify_sharpness(cfg, T, levels=(64,))      # imports and caches filled
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            verify_sharpness(cfg, T, levels=(n,))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        grid = Grid.uniform(n)
        assert peak <= (harness.solve_kernels_bytes(cfg.system, n, 1)
                        + harness.canonical_sharpness_bytes(cfg.system.speeds, T, grid))
        M = round(T * n)
        assert peak < 2 * (n + 1) * (M + 2) * 8

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the floor steers only the datum "
                       "(1, 0), which reaches 0 with no control once T >= T1 + T2 - psi(Xc) "
                       "= 1.05, below Tmin = T2 = 1.25: residual and free norm read 0")
    def test_t2_dominant_floor_below_tmin(self):
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "t2_dominant.json")
        rep = verify_sharpness(load_config(path), 1.05)
        assert rep.notes == "side=floor"
        assert rep.passed

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_horizon_must_be_finite_and_positive(self, T):
        cfg = config_from_dict(headline_raw(n=64), "horizon")
        with pytest.raises(PreconditionError, match="finite and positive"):
            verify_sharpness(cfg, T, levels=(64,))


class TestSharpnessScale:
    @pytest.mark.parametrize("config, hi, T", [
        ("varying_speeds", 1e160, 0.95), ("varying_speeds", 1e-160, 0.95),
        ("headline", 1e-300, 1.2), ("varying_speeds", 1e300, 0.95),
        ("varying_speeds", 1e-300, 0.95)])
    def test_scale_of_c_keeps_the_floor(self, config, hi, T):
        # the norms squared their entries: a trace g above about 1e154
        # overflowed them, a DomainError where the map is finite, and below
        # about 1e-154 they underflowed to residual = free norm = 0, a FAIL
        with open(os.path.join(CONFIG_DIR, f"{config}.json")) as fh:
            raw = json.load(fh)
        raw["system"]["c"]["hi"] = hi
        rep = verify_sharpness(config_from_dict(raw, config), T, levels=(100,))
        assert rep.notes == "side=floor" and rep.passed
        row = rep.rows[0]
        assert 0.0 < row["residual"] <= row["free_norm"] < math.inf

    def test_trace_beyond_the_map_overflows(self, varying_speeds, recwarn):
        # g = 1e308 overflows the canonical map itself: one DomainError
        with pytest.raises(DomainError, match=r"^sharpness residual at T=0\.9 overflows"):
            canonical_sharpness_residual(varying_speeds, np.full(33, 1e308), 0.9,
                                         Grid.uniform(32))
        assert len(recwarn) == 0


def dense_operator(speeds, g, T, grid):
    """The weighted sharpness operator of canonical_sharpness_residual as one
    dense 2(n+1)-row matrix from the dense reference map: (A, z), the hat
    columns and the free response."""
    n, h, T1 = grid.n, grid.h, speeds.T1
    M = max(1, round(T / h))
    hc = T / M

    def trace(s):
        tau = np.zeros((s.shape[0], M + 2))
        tau[:, 0] = s < T1
        late = np.nonzero(s >= T1)[0]
        pos = np.minimum(s[late] - T1, T) / hc
        j = np.clip(np.floor(pos).astype(np.int64), 0, M - 1)
        tau[late, j + 1] = 1.0 - (pos - j)
        tau[late, j + 2] = pos - j
        return tau

    Az = dense_canonical_map(speeds, g, 0.0, T, grid.nodes, trace)
    rw = np.full(n + 1, math.sqrt(h))
    rw[0] = rw[-1] = math.sqrt(0.5 * h)
    Az *= np.concatenate([rw, rw])[:, None]
    return Az[:, 1:], Az[:, 0]


def assert_matches_dense(speeds, g, T, grid, conditioned=False):
    """Block elimination agrees with one dense minimum-norm lstsq to rounding.

    The bound is 1e-12 + 1e-10 * residual, plus, unless the case is known to
    be well conditioned, the first-order rounding error of both solves, eps *
    max(shape) * (dense condition + reduced condition) * free_norm.  Where
    the whole operator is ill conditioned (|lambda1| near 1) the dense solve
    is often the less accurate one: at lambda1 = -0.964, n = 35 a 60-digit
    SVD gives 0.00155122259724, the elimination 0.0015512225972437 and lstsq
    0.0015513116.  Where lstsq cuts off a singular value below its rcond
    that exact arithmetic keeps (2e-17 of the largest at lambda1 = -0.977,
    n = 41: exact 0.0195417997603, the elimination 0.019541799760288, lstsq
    0.019543190), the elimination may keep that direction; its residual then
    lies below lstsq's and matches the distance from z to the span of every
    column of A, within the same bound.  That distance comes from 50-digit
    arithmetic, not from a double SVD: the SVD's backward error, eps times the
    largest singular value, is as large as the kept one, so projecting on
    its left singular vectors misses the distance by far more than the
    bound (at lambda1 = -0.97265625, lambda2 = 1.90625, ell = 0.21875,
    n = 39, T = Tmin: 50 digits 7.2703200837369e-08, the elimination
    7.270320083736933e-08, that projection 7.43e-08, lstsq 7.47e-08).
    """
    got = canonical_sharpness_residual(speeds, g, T, grid)
    A, z = dense_operator(speeds, g, T, grid)
    sol, _, rank, svals = np.linalg.lstsq(A, -z, rcond=None)
    ref = float(norm(A @ sol + z))
    tol = 1e-12 + 1e-10 * ref
    if not conditioned:
        kappa = svals[0] / svals[rank - 1] + got[2]
        tol += np.finfo(float).eps * max(A.shape) * kappa * norm(z)
    if abs(got[0] - ref) > tol:
        exact = column_span_distance(A, z)
        assert abs(got[0] - exact) <= tol and got[0] < ref, (T, got, ref, exact)
    # the reference sums the quadrature in another order: rounding apart
    assert got[1] == pytest.approx(norm(z), rel=1e-12, abs=0.0) and got[3] == A.shape[1]
    assert math.isfinite(got[2]) and got[2] >= 1.0
    return got, ref


def column_span_distance(A, z):
    """Distance from z to the span of A's columns, with the double A and z
    taken as exact, by Gram-Schmidt twice over in 50 digits.  A column
    within 1e-40 of the longest of the span of those before it is dropped:
    it adds nothing to the span, and normalising its remainder would add a
    direction of rounding."""
    with mpmath.workdps(50):
        cols = [mpmath.matrix(c.tolist()) for c in A.T]
        tiny = max(mpmath.norm(c) for c in cols) * mpmath.mpf(10) ** -40
        basis = []

        def rest(v):
            for _ in range(2):
                for q in basis:
                    v -= q * (q.T * v)[0]
            return v

        for c in cols:
            c = rest(c)
            if mpmath.norm(c) > tiny:
                basis.append(c / mpmath.norm(c))
        return float(mpmath.norm(rest(mpmath.matrix(z.tolist()))))


def constant_speed_cfg(lam1, lam2, ell, n):
    raw = headline_raw(n=n)
    raw["system"]["lambda1"]["value"] = lam1
    raw["system"]["lambda2"]["value"] = lam2
    raw["system"]["c"]["ell"] = ell
    return config_from_dict(raw, "speeds")


def sharpness_trace(cfg, n):
    grid = Grid.uniform(n)
    return solve_trace(cfg.system, grid)


class TestSharpnessSolve:
    @settings(max_examples=25, deadline=None)
    @given(lam1=st.floats(0.3, 2.0), lam2=st.floats(0.5, 2.0),
           ell=st.floats(0.01, 0.49, exclude_min=True, exclude_max=True),
           n=st.integers(16, 64))
    # lstsq cuts a singular value of 5.5e-16 of the largest at T = Tmin
    @example(lam1=0.97265625, lam2=1.90625, ell=0.21875, n=39)
    # T2 = 1.25 > T1 = 0.5, as in ROADMAP item 2's reproduction
    @example(lam1=2.0, lam2=0.8, ell=0.4, n=64)
    def test_matches_dense_lstsq(self, lam1, lam2, ell, n):
        cfg = constant_speed_cfg(-lam1, lam2, ell, n)
        tr = times_report(cfg.system, grid=cfg.grid)
        g = sharpness_trace(cfg, n)
        speeds = cfg.system.speeds
        # floor, margin, drop and above sides, T < T1 (no shared hat), and
        # item 2's floor-side horizon 1.05
        for T in (tr.Tmin - 0.2 * tr.Tunif, tr.Tmin - 0.05 * tr.Tunif, tr.Tmin,
                  tr.Tmin + 0.1 * tr.Tunif, 0.5 * speeds.T1, 1.05):
            assert_matches_dense(speeds, g, T, Grid.uniform(n))

    @pytest.mark.parametrize("T", [0.9, 1.9, 2.1, 2.13, 2.8])
    def test_rank_deficient_upper_block(self, monkeypatch, T):
        # lambda1 = -0.5: upper rows lie two hat widths apart, so most hats
        # that only upper rows touch share their one row with a neighbour
        # and lie in its span
        cfg = constant_speed_cfg(-0.5, 1.0, 0.25, 32)
        g = sharpness_trace(cfg, 32)
        blocks = []
        rest = harness._orthogonal_rest

        def record(first, vals, p, W):
            # U with a column -1 in front, where a skipped zero lead sits;
            # a row of zeros may point anywhere, so clip it into the block
            U = np.zeros((first.shape[0], p + 2))
            rows = np.arange(first.shape[0])
            for k in (0, 1):
                U[rows, np.maximum(first + 1 + k, 0)] += vals[:, k]
            blocks.append(U[:, 1:p + 1])
            return rest(first, vals, p, W)

        monkeypatch.setattr(harness, "_orthogonal_rest", record)
        assert_matches_dense(cfg.system.speeds, g, T, Grid.uniform(32), conditioned=True)
        U = blocks[0]
        touched = int(np.count_nonzero(np.any(U != 0, axis=0)))
        assert np.linalg.matrix_rank(U) < touched

    @pytest.mark.parametrize("ell", [0.1, 0.3, 0.45])
    def test_varying_speeds_match_dense(self, ell):
        raw = varying_raw(n=64)
        raw["system"]["c"]["ell"] = ell
        cfg = config_from_dict(raw, "varying")
        tr = times_report(cfg.system, grid=cfg.grid)
        for n in (64, 128):
            g = sharpness_trace(cfg, n)
            for T in (tr.Tmin - 0.2 * tr.Tunif, tr.Tmin - 0.05 * tr.Tunif, tr.Tmin,
                      tr.Tmin * (1 + 1e-6), tr.Tmin + 0.1 * tr.Tunif):
                assert_matches_dense(cfg.system.speeds, g, T, Grid.uniform(n),
                                     conditioned=True)

    @pytest.mark.parametrize("n", [64, 128])
    def test_t2_dominant_varying_speeds_match_dense(self, n):
        # ROADMAP item 2's second symptom: T1 = 0.7048 < T2 = 1.4250 < Tmin.
        # Its margin side's reduced condition reads 2.7e6 (n = 64) and 1.9e7
        # (n = 128), so the bound keeps its rounding term
        raw = varying_raw(n=n)
        raw["system"] = {
            "lambda1": {"family": "constant", "value": -1.41881},
            "lambda2": {"family": "polynomial", "coeffs": [0.55352, 0.32084]},
            "a": {"family": "constant", "value": 0.02824},
            "b": {"family": "constant", "value": 1.66867},
            "c": {"family": "step", "ell": 0.23375, "lo": 0.0, "hi": 1.14468},
            "d": {"family": "constant", "value": -0.50497},
        }
        cfg = config_from_dict(raw, "t2_varying")
        speeds = cfg.system.speeds
        assert speeds.T2 > speeds.T1
        tr = times_report(cfg.system, grid=cfg.grid)
        g = sharpness_trace(cfg, n)
        for T in (tr.Tmin - 0.2 * tr.Tunif, tr.Tmin - 0.05 * tr.Tunif, tr.Tmin,
                  tr.Tmin + 0.1 * tr.Tunif):
            assert_matches_dense(speeds, g, T, Grid.uniform(n))

    def test_no_lstsq_on_the_whole_operator(self, monkeypatch):
        shapes = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda a, b, **kw: shapes.append(a.shape) or lstsq(a, b, **kw))
        cfg = config_from_dict(varying_raw(n=64), "varying")
        tr = times_report(cfg.system, grid=cfg.grid)
        for n in (32, 64, 128):
            g = sharpness_trace(cfg, n)
            for T in (tr.Tmin - 0.2 * tr.Tunif, tr.Tmin - 0.05 * tr.Tunif, tr.Tmin,
                      tr.Tmin + 0.1 * tr.Tunif):
                shapes.clear()
                canonical_sharpness_residual(cfg.system.speeds, g, T, Grid.uniform(n))
                # the lower rows plus at most 3 compressed upper ones
                assert len(shapes) == 1 and shapes[0][0] <= n + 4, (n, T, shapes)

    def test_condition_finite_without_shared_hats(self, tmp_path):
        # T = 0.51 < T1: elimination leaves no hat, and condition reads 1.0
        raw = varying_raw(n=64)
        raw["system"]["c"]["ell"] = 0.45
        cfg = config_from_dict(raw, "varying")
        assert 0.51 < cfg.system.speeds.T1
        rep = verify_sharpness(cfg, 0.51, levels=(64,))

        def no_constant(name):
            raise ValueError(f"{name} is not valid JSON")

        path = _write_json(tmp_path, "report_sharpness.json", rep.as_flat_dict())
        data = json.loads(open(path).read(), parse_constant=no_constant)
        assert data["level0_condition"] == 1.0


class TestCounterexample:
    def test_critical_branch_profile(self):
        res = counterexample(1.0 + 1.0 / math.pi, n=200)
        assert res.sigma == pytest.approx(math.pi, abs=1e-12)
        assert res.theta == 0.0
        xs = np.linspace(0.0, 1.0, 201)
        assert res.y0[1] == pytest.approx(math.pi * xs)
        assert res.y0[0] == pytest.approx(math.pi * xs + 1.0)

    def test_lower_branch_root(self):
        s, sigma = harness._reflection_eigenvalue(0.0)
        theta = abs(s)
        assert 0.0 < theta < 1.0
        assert math.sqrt(1 - theta ** 2) + theta / math.tan(theta * math.pi) == \
            pytest.approx(0.0, abs=1e-10)
        assert sigma == pytest.approx(math.pi * math.sqrt(1 - theta ** 2), abs=1e-12)

    def test_upper_branch_root(self):
        s, sigma = harness._reflection_eigenvalue(2.0)
        theta = abs(s)
        assert theta > 0.0
        assert math.sqrt(1 + theta ** 2) + theta / math.tanh(theta * math.pi) == \
            pytest.approx(2.0, abs=1e-10)
        assert sigma > math.pi

    @pytest.mark.parametrize("k", [
        1 + 1 / math.pi + 2e-12, 1 + 1 / math.pi - 2e-12, 1 + 1 / math.pi + 1e-9,
        1 + 1 / math.pi - 1e-9, 1.30, 1.31, 1.325, 1.33, 0.0, 0.5, 1.0, 2.0, 4.0, 10.0])
    def test_branch_root_matches_mpmath(self, k):
        # theta to 1e-13 relative against a 60-digit root of the same
        # equation: next to 1 + 1/pi, where F is flat at its top, on both
        # sides of the switch from the series of x cot x - 1 to the direct
        # term (x^2 = 1/16 near k = 1.3085 and -1/16 near 1.3281), and far
        # from it
        theta = abs(harness._reflection_eigenvalue(k)[0])
        with mpmath.workdps(60):
            upper = mpmath.mpf(k) > 1 + 1 / mpmath.pi

            def excess(t):      # rises with t on both branches
                if upper:
                    return mpmath.sqrt(1 + t * t) + t * mpmath.coth(mpmath.pi * t) - k
                return k - mpmath.sqrt(1 - t * t) - t * mpmath.cot(mpmath.pi * t)

            lo, hi = mpmath.mpf(theta) * (1 - 1e-3), mpmath.mpf(theta) * (1 + 1e-3)
            assert excess(lo) < 0 < excess(hi)
            for _ in range(100):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if excess(mid) < 0 else (lo, mid)
            assert abs(theta - lo) <= 1e-13 * lo

    @pytest.mark.parametrize("k", [0.0, 2.0])
    def test_measured_rate_tracks_sigma(self, k):
        res = counterexample(k, n=400)
        assert res.report.passed
        assert res.report.rows[0]["rel_err"] <= 0.05

    def test_eigenmode_direction_after_one_step(self, unit_speeds):
        from hypmin import CoefficientSpec
        k = 1.0 + 1.0 / math.pi
        grid = Grid.uniform(800)
        xs = grid.nodes
        y0 = (math.pi * xs + 1.0, math.pi * xs)
        pi_c = CoefficientSpec.constant(math.pi)
        system = make_system(unit_speeds, b=pi_c, c=pi_c)
        sim = simulate(system, BoundaryReflection(k), y0, 0.01, grid, cfl=0.9)
        v0 = np.concatenate(sim.snapshots[0])
        v1 = np.concatenate(sim.snapshots[1])
        cosang = v0 @ v1 / (np.linalg.norm(v0) * np.linalg.norm(v1))
        assert math.acos(min(1.0, cosang)) < 0.01


@settings(max_examples=40, deadline=None)
@given(k=st.floats(-50.0, 50.0))
@example(k=0.0)
@example(k=1.0 + 1.0 / math.pi)
@example(k=2.0)
def test_counterexample_eigenmode_boundary_conditions(k):
    # the eigenmode meets y1(1) = k*y2(1) and y2(0) = 0 on either side of
    # 1 + 1/pi, whatever its amplitude
    y10, y20 = counterexample(k, n=32).y0
    scale = max(np.abs(y10).max(), np.abs(y20).max())
    assert abs(y10[-1] - k * y20[-1]) <= 1e-12 * scale
    assert abs(y20[0]) <= 1e-12 * scale
