import json
import math
import os

import numpy as np
import pytest
from numpy.linalg import norm
from hypothesis import given, settings
from hypothesis import strategies as st

from hypmin import Grid, harness, simulator, times_report
from hypmin.errors import ConfigError, PreconditionError
from hypmin.harness import (canonical_sharpness_residual, config_from_dict,
                            counterexample, load_config,
                            make_control, make_initial_data,
                            solve_counterexample_branch, verify_settling,
                            verify_sharpness)
from hypmin.kernels import FeedbackLaw, solve_trace
from hypmin.simulator import BoundaryReflection, simulate

from conftest import headline_raw, make_system


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


class TestInitialAndControl:
    def test_zero(self):
        grid = Grid.uniform(16)
        y1, y2 = make_initial_data({"kind": "zero"}, grid)
        assert not y1.any() and not y2.any()

    def test_random_deterministic(self):
        grid = Grid.uniform(32)
        a = make_initial_data({"kind": "random", "seed": 42}, grid)
        b = make_initial_data({"kind": "random", "seed": 42}, grid)
        c = make_initial_data({"kind": "random", "seed": 7}, grid)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])
        assert np.max(np.abs(a[0])) <= 1.0

    def test_random_same_profile_across_grids(self):
        coarse = make_initial_data({"kind": "random", "seed": 1}, Grid.uniform(64))
        fine = make_initial_data({"kind": "random", "seed": 1}, Grid.uniform(128))
        assert fine[0][::2] == pytest.approx(coarse[0])

    def test_samples_and_family(self):
        grid = Grid.uniform(10)
        y1, y2 = make_initial_data(
            {"kind": "samples",
             "y1": {"xs": [0.0, 1.0], "values": [0.0, 2.0]},
             "y2": {"xs": [0.0, 1.0], "values": [1.0, 1.0]}}, grid)
        assert y1[5] == pytest.approx(1.0)
        y1, y2 = make_initial_data(
            {"kind": "family",
             "y1": {"family": "constant", "value": 3.0},
             "y2": {"family": "polynomial", "coeffs": [0.0, 1.0]}}, grid)
        assert y1[0] == 3.0 and y2[-1] == pytest.approx(1.0)

    def test_unknown_kinds(self):
        grid = Grid.uniform(8)
        with pytest.raises(ConfigError):
            make_initial_data({"kind": "weird"}, grid)
        with pytest.raises(ConfigError):
            make_control({"kind": "weird"})

    def test_control_kinds(self):
        assert make_control({"kind": "zero"}) is None
        refl = make_control({"kind": "reflection", "k": 2.0})
        assert isinstance(refl, BoundaryReflection) and refl.k == 2.0
        sig = make_control({"kind": "samples", "ts": [0.0, 1.0], "values": [0.0, 4.0]})
        assert sig(0.5) == pytest.approx(2.0)
        poly = make_control({"kind": "polynomial", "coeffs": [1.0, 2.0]})
        assert poly(2.0) == pytest.approx(5.0)
        law = FeedbackLaw(nodes=np.linspace(0, 1, 3), f1=np.zeros(3), f2=np.zeros(3))
        assert make_control({"kind": "feedback"}, feedback=law) is law
        with pytest.raises(ConfigError):
            make_control({"kind": "feedback"})


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
        from hypmin.harness import make_initial_data
        cfg = config_from_dict(headline_raw(n=200, horizon=1.4), "trace")
        grid = cfg.grid
        law = solve_kernels(cfg.system, grid).gains
        y0 = make_initial_data(cfg.initial, grid, cfg.seed)
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
        path = rep.write(tmp_path)
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

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_horizon_must_be_finite_and_positive(self, T):
        cfg = config_from_dict(headline_raw(n=64), "horizon")
        with pytest.raises(PreconditionError, match="finite and positive"):
            verify_sharpness(cfg, T, levels=(64,))


def dense_operator(speeds, g, T, grid):
    """The weighted sharpness operator of canonical_sharpness_residual as one
    dense 2(n+1)-row matrix: (A, z), the hat columns and the free response."""
    n, h, T1 = grid.n, grid.h, speeds.T1
    M = max(1, round(T / h))
    hc = T / M

    def trace(s):
        tau = np.zeros((s.shape[0], M + 2), order="F")
        tau[:, 0] = s < T1
        late = np.nonzero(s >= T1)[0]
        pos = np.minimum(s[late] - T1, T) / hc
        j = np.clip(np.floor(pos).astype(np.int64), 0, M - 1)
        tau[late, j + 1] = 1.0 - (pos - j)
        tau[late, j + 2] = pos - j
        return tau

    Az = simulator.canonical_map(speeds, g, 0.0, T, grid.nodes, trace)
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
    lies between lstsq's and that of projecting on every left singular
    vector, which can only be smaller.
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
        left = np.linalg.svd(A, full_matrices=False)[0]
        assert norm(z - left @ (left.T @ z)) - tol <= got[0] < ref, (T, got, ref)
    assert got[1] == norm(z) and got[3] == A.shape[1]
    assert math.isfinite(got[2]) and got[2] >= 1.0
    return got, ref


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
    def test_matches_dense_lstsq(self, lam1, lam2, ell, n):
        cfg = constant_speed_cfg(-lam1, lam2, ell, n)
        tr = times_report(cfg.system, grid=cfg.grid)
        g = sharpness_trace(cfg, n)
        speeds = cfg.system.speeds
        # floor, margin, drop and above sides, and T < T1 (no shared hat)
        for T in (tr.Tmin - 0.2 * tr.Tunif, tr.Tmin - 0.05 * tr.Tunif, tr.Tmin,
                  tr.Tmin + 0.1 * tr.Tunif, 0.5 * speeds.T1):
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
        monkeypatch.setattr(harness, "_orthogonal_rest",
                            lambda U, W: blocks.append(U.copy()) or rest(U, W))
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

        data = json.loads(open(rep.write(tmp_path)).read(), parse_constant=no_constant)
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
        theta, sigma = solve_counterexample_branch(0.0)
        assert 0.0 < theta < 1.0
        assert math.sqrt(1 - theta ** 2) + theta / math.tan(theta * math.pi) == \
            pytest.approx(0.0, abs=1e-10)
        assert sigma == pytest.approx(math.pi * math.sqrt(1 - theta ** 2), abs=1e-12)

    def test_upper_branch_root(self):
        theta, sigma = solve_counterexample_branch(2.0)
        assert theta > 0.0
        assert math.sqrt(1 + theta ** 2) + theta / math.tanh(theta * math.pi) == \
            pytest.approx(2.0, abs=1e-10)
        assert sigma > math.pi

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
