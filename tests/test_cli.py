import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hypmin
from hypmin import Grid, harness
from hypmin.cli import run_cli

from conftest import headline_raw


@pytest.fixture
def headline_path(tmp_path):
    path = tmp_path / "headline.json"
    raw = headline_raw(n=64)
    raw["output_dir"] = str(tmp_path / "out")
    path.write_text(json.dumps(raw))
    return str(path)


class TestMintime:
    def test_prints_tmin(self, headline_path, capsys):
        assert run_cli(["mintime", headline_path]) == 0
        out = capsys.readouterr().out
        assert "Tmin" in out
        assert "1.5" in out

    def test_missing_config(self, tmp_path, capsys):
        assert run_cli(["mintime", str(tmp_path / "none.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1}))
        assert run_cli(["mintime", str(bad)]) == 2


class TestReflection:
    """q != 0: mintime answers T1 + T2, every kernel solve is refused, and
    open-loop simulation runs."""

    @pytest.fixture
    def reflected(self, tmp_path):
        def write(horizon=1.5, control=None):
            raw = headline_raw(n=64, horizon=horizon)
            raw["system"]["q"] = 0.5
            if control is not None:
                raw["control"] = control
            path = tmp_path / "reflected.json"
            path.write_text(json.dumps(raw))
            return str(path)
        return write

    def test_mintime_is_uniform_time(self, reflected, capsys):
        assert run_cli(["mintime", reflected()]) == 0
        assert re.search(r"^Tmin +2$", capsys.readouterr().out, re.M)

    @pytest.mark.parametrize("argv", [["kernels"], ["verify-sharpness", "--T", "2"],
                                      ["simulate"], ["verify-settling"]],
                             ids=lambda a: a[0])
    def test_kernel_solve_is_one_line_exit_2(self, reflected, tmp_path, capsys, argv):
        path = reflected(horizon=2.0)
        assert run_cli([argv[0], path, *argv[1:], "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ") and "q = 0.5" in err

    def test_open_loop_simulate(self, reflected, tmp_path):
        path = reflected(control={"kind": "zero"})
        assert run_cli(["simulate", path, "--out", str(tmp_path / "out")]) == 0


class TestConfigErrors:
    @pytest.mark.parametrize("path, value", [
        (("system",), []),
        (("grid_n",), "abc"),
        (("grid_n",), math.inf),
        (("system", "q"), "x"),
        (("system", "b"), {"family": "constant", "value": []}),
        (("horizon",), math.nan),
        (("cfl",), math.nan),
        (("cfl",), math.inf),
        (("initial_data",), []),
        (("system", "lambda2"), {"family": "sampled", "xs": [0, 1], "values": [1, math.nan]}),
        (("system", "lambda2"), {"family": "sampled", "xs": [0, math.nan, 1], "values": [1, 1, 1]}),
        (("system", "lambda1"), {"family": "polynomial", "coeffs": [-1.0, -math.inf]}),
        (("system", "b"), {"family": "constant", "value": math.nan}),
        (("system", "c"), {"family": "step", "ell": 0.25, "lo": 0.0, "hi": math.inf}),
        (("seed",), -1),
        (("initial_data",), {"kind": "random", "nodes": "x"}),
        (("initial_data",), {"kind": "random", "seed": -3}),
        (("initial_data",), {"kind": "bogus"}),
        (("control",), {"kind": "reflection", "k": "x"}),
        (("control",), {"kind": "reflection"}),
        (("control",), {"kind": "bogus"}),
        (("control",), {"kind": "random"}),
        (("initial_data",), {"kind": "samples", "y1": {"xs": [0, 1], "values": [1]},
                             "y2": {"xs": [0, 1], "values": [0, 0]}}),
        (("initial_data",), {"kind": "samples", "y1": {"xs": [0, 1], "values": [math.nan, 1]},
                             "y2": {"xs": [0, 1], "values": [0, 0]}}),
        (("initial_data",), {"kind": "samples", "y1": {"xs": [0.2, 1], "values": [1, 1]},
                             "y2": {"xs": [0, 1], "values": [0, 0]}}),
        (("initial_data",), {"kind": "family", "y1": {"family": "constant", "value": 1.0}}),
        (("control",), {"kind": "samples", "ts": ["a"], "values": [1]}),
        (("control",), {"kind": "samples", "ts": [0, 1], "values": [1]}),
        (("control",), {"kind": "polynomial", "coeffs": ["a"]}),
        (("control",), {"kind": "polynomial", "coeffs": []}),
        (("system", "b"), {"family": "polynomial", "coeffs": []}),
        (("grid_n",), 40.7),
        (("grid_n",), "40"),
        (("horizon",), "2.0"),
        (("cfl",), True),
        (("seed",), 3.9),
        (("system", "b"), {"family": "constant", "value": "1"}),
        (("system", "b"), {"family": "constant", "value": True}),
        (("system", "c"), {"family": "step", "ell": "0.2", "lo": 0.0, "hi": 1.0}),
        (("system", "lambda1"), {"family": "polynomial", "coeffs": [-1.0, "0.5"]}),
        (("initial_data",), {"kind": "random", "nodes": 3.5}),
        (("control",), {"kind": "reflection", "k": False}),
        (("control",), {"kind": "samples", "ts": [0, 1], "values": [1, "1"]}),
        (("system", "b"), {"family": ["constant"], "value": 1.0}),
    ], ids=["system-list", "grid_n-string", "grid_n-inf", "q-string", "coeff-list",
            "horizon-nan", "cfl-nan", "cfl-inf", "initial_data-list",
            "lambda2-sampled-nan", "lambda2-sampled-xs-nan", "lambda1-polynomial-minus-inf", "b-constant-nan",
            "c-step-inf", "seed-negative", "initial_data-nodes-string",
            "initial_data-seed-negative", "initial_data-kind", "control-k-string",
            "control-k-missing", "control-kind", "control-kind-random", "samples-length",
            "samples-nan", "samples-not-covering", "family-missing-y2", "control-ts-string",
            "control-samples-length", "control-coeffs-string", "control-coeffs-empty",
            "b-polynomial-empty", "grid_n-fraction", "grid_n-numeric-string",
            "horizon-numeric-string", "cfl-bool", "seed-fraction", "b-value-string",
            "b-value-bool", "c-ell-string", "lambda1-coeff-string", "initial_data-nodes-fraction",
            "control-k-bool", "control-values-string", "b-family-list"])
    def test_bad_value_is_one_line_exit_2(self, tmp_path, capsys, path, value):
        raw = headline_raw(n=64)
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        for command in ("mintime", "simulate", "verify-settling"):
            assert run_cli([command, str(bad), "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1
            assert err.startswith("error: ") and path[-1] in err
            assert "Traceback" not in err


def _run_one_line_exit_2(argv, capsys):
    """run_cli(argv) under tracemalloc: (seconds, traced peak bytes, stderr)."""
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        code = run_cli(argv)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ") and "Traceback" not in err
    return elapsed, peak, err


class TestMemoryCap:
    """A size whose memory estimate exceeds the machine is rejected before any work."""

    @pytest.mark.parametrize("field, value, words", [
        ("grid_n", 10 ** 7, "grid_n must be at most 23169, got 10000000"),
        ("grid_n", 23170, "grid_n must be at most 23169"),
        ("grid_n", 2000, "grid_n 2000: the kernel solve at n=4000 needs about 1.55 GB"),
        ("grid_n", 10 ** 400, "grid_n must be a finite number"),
        ("horizon", 1e300, "horizon 1e+300: the time steps"),
        ("cfl", 1e-300, "the time steps at n=128"),
        ("initial_data", {"kind": "random", "nodes": 10 ** 12},
         "initial_data: random data with 1000000000000 nodes needs about 3.2e+04 GB"),
    ], ids=["grid_n-1e7", "grid_n-int32", "grid_n-memory", "grid_n-huge-int", "horizon-1e300",
            "cfl-1e-300", "random-nodes-1e12"])
    @pytest.mark.parametrize("command", ["mintime", "kernels", "simulate", "verify-settling"])
    def test_config_beyond_cap(self, tmp_path, capsys, monkeypatch, field, value, words,
                               command):
        # the machine reports 1 GB, so the cap is the same everywhere
        monkeypatch.setattr(harness, "_physical_memory", lambda: 1e9)
        raw = headline_raw(n=64)
        raw[field] = value
        path = tmp_path / "big.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        elapsed, peak, err = _run_one_line_exit_2([command, str(path), "--out", str(out)],
                                                  capsys)
        assert words in err
        assert elapsed < 0.5 and peak < 5e6
        assert not out.exists()

    def test_sharpness_time_beyond_cap(self, tmp_path, capsys, monkeypatch):
        # varying speeds at grid_n 400: the trace matrix at T = 50 on the
        # finest level n = 800 alone is about 26 GB, more than the 16 GB the
        # machine is made to report here
        monkeypatch.setattr(harness, "_physical_memory", lambda: 16e9)
        raw = json.loads((CONFIG_DIR / "varying_speeds.json").read_text())
        path = tmp_path / "varying.json"
        path.write_text(json.dumps(raw))
        cfg = harness.load_config(path)
        est = harness.canonical_sharpness_bytes(cfg.system.speeds, 50.0, Grid.uniform(800))
        assert 25e9 < est < 30e9
        out = tmp_path / "out"
        elapsed, peak, err = _run_one_line_exit_2(
            ["verify-sharpness", str(path), "--T", "50", "--out", str(out)], capsys)
        assert "sharpness at T=50 on n=800 needs about" in err
        assert elapsed < 0.5 and peak < 5e6
        assert not out.exists()

    @pytest.mark.parametrize("n", [10 ** 7, 10 ** 12])
    def test_counterexample_n_beyond_cap(self, capsys, monkeypatch, n):
        # the speed table and the step traces are estimated before either
        # is allocated (about 4.9 GB at n = 1e7)
        monkeypatch.setattr(harness, "_physical_memory", lambda: 1e9)
        elapsed, peak, err = _run_one_line_exit_2(
            ["counterexample", "--k", "1", "--n", str(n)], capsys)
        assert f"counterexample at n={n} needs about" in err
        assert elapsed < 0.5 and peak < 5e6

    @pytest.mark.parametrize("n", [10 ** 9, 10 ** 11])
    def test_titchmarsh_n_beyond_cap(self, capsys, monkeypatch, n):
        # the samples and the convolution are estimated before any of them is
        # allocated (about 96 GB at n = 1e9)
        monkeypatch.setattr(harness, "_physical_memory", lambda: 1e9)
        elapsed, peak, err = _run_one_line_exit_2(
            ["titchmarsh", "--prefix-a", "0.1", "--prefix-b", "0.2", "--tau", "1",
             "--n", str(n)], capsys)
        assert f"--n {n} needs about" in err
        assert elapsed < 0.5 and peak < 5e6

    def test_titchmarsh_estimate_bounds_peak(self, capsys, monkeypatch):
        # with the machine reporting exactly the traced peak of a run, the
        # same run is rejected: the estimate lies above what it holds
        argv = ["titchmarsh", "--prefix-a", "0.1", "--prefix-b", "0.2", "--tau", "1",
                "--n", "20000"]
        tracemalloc.start()
        try:
            assert run_cli(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak > 8 * 8 * 20001
        capsys.readouterr()
        monkeypatch.setattr(harness, "_physical_memory", lambda: float(peak))
        _run_one_line_exit_2(argv, capsys)

    def test_titchmarsh_large_n_is_fast(self, capsys):
        # the FFT convolution: O(n log n), where the direct one took seconds
        t0 = time.perf_counter()
        code = run_cli(["titchmarsh", "--prefix-a", "0.1", "--prefix-b", "0.2",
                        "--tau", "1", "--n", "200000"])
        elapsed = time.perf_counter() - t0
        assert code == 0 and "nonvanishing" in capsys.readouterr().out
        assert elapsed < 1.0

    def test_physical_memory_is_reported(self):
        assert 0 < harness._physical_memory() < math.inf


class TestGaugeOverflow:
    @pytest.mark.parametrize("argv", [["kernels"], ["simulate"], ["verify-settling"],
                                      ["verify-sharpness", "--T", "1"]],
                             ids=["kernels", "simulate", "verify-settling", "verify-sharpness"])
    def test_large_diagonal_coupling(self, tmp_path, capsys, recwarn, argv):
        # a = 1136 makes the gauge weight exp(1136 x) overflow: one line,
        # exit 2, no NaN kernels written and no RuntimeWarning
        raw = headline_raw(n=16)
        raw["system"]["a"] = {"family": "constant", "value": 1136}
        path = tmp_path / "big_a.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        _, _, err = _run_one_line_exit_2([argv[0], str(path), *argv[1:], "--out", str(out)],
                                         capsys)
        assert "coefficient a is too large" in err
        assert len(recwarn) == 0
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["kernels"], ["simulate"], ["verify-settling"],
                                      ["verify-sharpness", "--T", "2"]],
                             ids=["kernels", "simulate", "verify-settling", "verify-sharpness"])
    def test_large_couplings_overflow_kernel(self, tmp_path, capfd, recwarn, argv):
        # b = c(hi) = 1e160 pass the gauge but overflow the kernel march: one
        # line naming the kernel, exit 2, no RuntimeWarning, no LAPACK message
        # on stdout and nothing written
        raw = headline_raw(n=16)
        raw["system"]["b"] = {"family": "constant", "value": 1e160}
        raw["system"]["c"] = {"family": "step", "ell": 0.25, "lo": 0.0, "hi": 1e160}
        path = tmp_path / "big_bc.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_cli([argv[0], str(path), *argv[1:], "--out", str(out)]) == 2
        captured = capfd.readouterr()
        assert len(captured.err.strip().splitlines()) == 1
        assert re.fullmatch(r"error: kernel k\d\d overflows: the couplings b and c are "
                            r"too large for the kernel solve\n", captured.err)
        assert len(recwarn) == 0
        assert not any(line.startswith("**") for line in captured.out.splitlines())
        assert not out.exists()


    def test_large_trace_overflows_sharpness(self, tmp_path, capsys, recwarn):
        # b = 0 and c(hi) = 1e303: the trace g is finite, but the canonical
        # map of its free response overflows below T1: one line, exit 2, no
        # RuntimeWarning (it printed residual=inf and a FAIL verdict)
        raw = json.loads((CONFIG_DIR / "varying_speeds.json").read_text())
        raw["system"]["c"]["hi"] = 1e303
        raw["grid_n"] = 32
        path = tmp_path / "big_c.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        _, _, err = _run_one_line_exit_2(["verify-sharpness", str(path), "--T", "0.9",
                                          "--out", str(out)], capsys)
        assert re.fullmatch(r"error: sharpness residual at T=0\.9 overflows: .*\n", err)
        assert len(recwarn) == 0
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["mintime"], ["kernels"], ["simulate"],
                                      ["verify-settling"], ["verify-sharpness", "--T", "1"]],
                             ids=["mintime", "kernels", "simulate", "verify-settling",
                                  "verify-sharpness"])
    def test_speed_near_zero_names_the_speed(self, tmp_path, capsys, recwarn, argv):
        # lambda1 = -1e-300: the squared travel-time weight 1/lambda1^2
        # overflows.  mintime printed a RuntimeWarning and "eps must lie in
        # (0,1], got 0.0", kernels blamed the couplings b and c
        raw = json.loads((CONFIG_DIR / "varying_speeds.json").read_text())
        raw["system"]["lambda1"] = {"family": "constant", "value": -1e-300}
        raw["grid_n"] = 16
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        _, _, err = _run_one_line_exit_2([argv[0], str(path), *argv[1:], "--out", str(out)],
                                         capsys)
        assert err.startswith("error: lambda1 is too close to zero on [0,1]")
        assert len(recwarn) == 0
        assert not out.exists()


class TestDivergence:
    @pytest.mark.parametrize("command", ["simulate", "verify-settling"])
    def test_overflowing_state_norm(self, tmp_path, capsys, recwarn, command):
        # y1 = 1e200 is finite, but its squares overflow the L2 norm: one
        # line, exit 1, no RuntimeWarning and nothing written (simulate
        # printed l2=inf and exit 0, verify-settling a NaN residual and FAIL)
        raw = json.loads((CONFIG_DIR / "varying_speeds.json").read_text())
        raw["grid_n"] = 32
        raw["initial_data"] = {"kind": "family", "y1": {"family": "constant", "value": 1e200},
                               "y2": {"family": "constant", "value": 0.0}}
        path = tmp_path / "big_y.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_cli([command, str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"computation failed: non-finite state or L2 norm at step 1\n", err)
        assert len(recwarn) == 0
        assert not out.exists()


CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

_SPECIALS = [math.nan, math.inf, -math.inf, -1.0, 0.0, 1e300, -1e300, 1e-300]
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                  st.lists(st.integers(-2, 2), max_size=3),
                  st.dictionaries(st.sampled_from(["family", "kind", "value", "xs"]),
                                  st.integers(-2, 2), max_size=2),
                  st.sampled_from(_SPECIALS))
# In-range values stay small enough to run in milliseconds; the sizes past
# the memory cap (which must be rejected) are the only large ones.
_IN_RANGE = {
    "grid_n": st.one_of(st.integers(-3, 64), st.sampled_from([10 ** 7, 10 ** 12])),
    "horizon": st.floats(0.05, 3.0),
    "cfl": st.floats(0.01, 1.5),
    "seed": st.integers(-3, 10 ** 6),
    "nodes": st.one_of(st.integers(-3, 40), st.sampled_from([10 ** 12])),
}


def _paths(rec, prefix=()):
    """Every key path into a config record, inner records included."""
    for key, val in rec.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from _paths(val, prefix + (key,))


@st.composite
def mutated_configs(draw):
    name = draw(st.sampled_from(sorted(p.name for p in CONFIG_DIR.glob("*.json"))))
    raw = json.loads((CONFIG_DIR / name).read_text())
    raw["grid_n"] = draw(st.integers(8, 64))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(raw))))
        target = raw
        for key in path[:-1]:
            target = target[key]
        if draw(st.booleans()) and len(path) > 1:
            del target[path[-1]]
            continue
        value = st.floats(-5.0, 5.0) if path[-1] not in _IN_RANGE else _IN_RANGE[path[-1]]
        target[path[-1]] = draw(st.one_of(value, _JUNK))
    return raw


class TestConfigFuzz:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=mutated_configs(),
           command=st.sampled_from(["mintime", "kernels", "simulate", "verify-settling",
                                    "verify-sharpness"]),
           T=st.floats(0.1, 3.0))
    def test_exit_code_and_one_line(self, tmp_path, capsys, raw, command, T):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(raw))
        argv = [command, str(path), "--out", str(tmp_path / "out")]
        if command == "verify-sharpness":
            argv += ["--T", repr(T)]
        capsys.readouterr()
        code = run_cli(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert len(err.strip().splitlines()) <= 1
        assert "Traceback" not in err


class TestNumericFlags:
    @pytest.mark.parametrize("argv", [
        ["verify-sharpness", "CONFIG", "--T", "-1"],
        ["verify-sharpness", "CONFIG", "--T", "0"],
        ["verify-sharpness", "CONFIG", "--T", "nan"],
        ["verify-sharpness", "CONFIG", "--T", "inf"],
        ["simulate", "CONFIG", "--snapshots", "-1"],
        ["counterexample", "--k", "nan"],
        ["counterexample", "--k", "1", "--n", "x"],
        ["titchmarsh", "--prefix-a", "0.1", "--prefix-b", "0.2", "--tau", "inf"],
        ["titchmarsh", "--prefix-a", "0.1", "--prefix-b", "0.2", "--tau", "1", "--n", "-3"],
        ["titchmarsh", "--prefix-a", "0.1", "--prefix-b", "0.2", "--tau", "1", "--tol", "nan"],
    ], ids=["T-negative", "T-zero", "T-nan", "T-inf", "snapshots-negative", "k-nan",
            "n-string", "tau-inf", "n-negative", "tol-nan"])
    def test_bad_number_is_one_line_exit_2(self, headline_path, tmp_path, capsys, argv):
        out = tmp_path / "never"
        argv = [headline_path if a == "CONFIG" else a for a in argv]
        if argv[0] in ("verify-sharpness", "simulate"):
            argv += ["--out", str(out)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()     # rejected before any work


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 2

    def test_missing_required_option(self, capsys):
        assert run_cli(["titchmarsh", "--prefix-a", "0.5"]) == 2

    def test_no_arguments(self, capsys):
        assert run_cli([]) == 2


class TestVerifyCommands:
    def test_settling_precondition_exit_2(self, tmp_path, capsys):
        raw = headline_raw(n=64, horizon=1.2)  # below Tmin = 1.5
        path = tmp_path / "early.json"
        path.write_text(json.dumps(raw))
        assert run_cli(["verify-settling", str(path)]) == 2
        assert "Tmin" in capsys.readouterr().err

    def test_settling_pass(self, tmp_path, capsys):
        raw = {
            "schema_version": 1,
            "system": {
                "lambda1": {"family": "constant", "value": -1.0},
                "lambda2": {"family": "constant", "value": 1.0},
            },
            "grid_n": 64,
            "horizon": 1.25,
            "cfl": 1.0,
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "transport.json"
        path.write_text(json.dumps(raw))
        assert run_cli(["verify-settling", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        report = tmp_path / "out" / "transport" / "report_settling.json"
        assert report.exists()
        assert json.loads(report.read_text())["passed"] is True

    def test_sharpness_floor(self, tmp_path, capsys):
        raw = headline_raw(n=64)
        path = tmp_path / "headline.json"
        path.write_text(json.dumps(raw))
        code = run_cli(["verify-sharpness", str(path), "--T", "1.0",
                        "--out", str(tmp_path / "sh")])
        assert code == 0
        assert "side=floor" in capsys.readouterr().out


class TestArtifactCommands:
    def test_kernels_exports(self, headline_path, tmp_path, capsys):
        outdir = tmp_path / "kout"
        assert run_cli(["kernels", headline_path, "--out", str(outdir)]) == 0
        for name in ("kernels.csv", "g.csv", "gains.csv"):
            assert (outdir / name).exists()
        with open(outdir / "kernels.csv", "rb") as fh:
            rows = fh.read().split(b"\r\n")
        assert rows[-1] == b""                   # every row, the last too, ends in CRLF
        assert len(rows) - 2 == 65 * 66 // 2     # (n+1)(n+2)/2 data rows at n = 64

    def test_simulate_exports(self, headline_path, tmp_path, capsys):
        outdir = tmp_path / "sim"
        assert run_cli(["simulate", headline_path, "--out", str(outdir),
                        "--snapshots", "3"]) == 0
        assert (outdir / "timeseries.csv").exists()
        assert (outdir / "snapshots.csv").exists()

    def test_counterexample(self, capsys):
        assert run_cli(["counterexample", "--k", "0.0", "--n", "200"]) == 0
        out = capsys.readouterr().out
        assert "sigma" in out


class TestInstalledEntryPoint:
    def test_module_invocation(self, headline_path):
        # the child imports the same hypmin tree as this test, installed or not
        src = os.path.dirname(os.path.dirname(hypmin.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "hypmin.cli", "mintime", headline_path],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "Tmin" in proc.stdout


class TestTitchmarshCommand:
    def test_vanishing_case(self, capsys):
        code = run_cli(["titchmarsh", "--prefix-a", "0.6", "--prefix-b", "0.5",
                        "--tau", "1"])
        assert code == 0
        assert "vanishes" in capsys.readouterr().out

    def test_nonvanishing_case(self, capsys):
        code = run_cli(["titchmarsh", "--prefix-a", "0.1", "--prefix-b", "0.2",
                        "--tau", "1"])
        assert code == 0
        assert "nonvanishing" in capsys.readouterr().out

    def test_bad_prefixes(self, capsys):
        assert run_cli(["titchmarsh", "--prefix-a", "2.0", "--prefix-b", "0.2",
                        "--tau", "1"]) == 2

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_too_few_samples_names_the_flag(self, capsys, n):
        assert run_cli(["titchmarsh", "--prefix-a", "0.1", "--prefix-b", "0.2",
                        "--tau", "1", "--n", n]) == 2
        assert capsys.readouterr().err == f"error: --n must be at least 2, got {n}\n"

    def test_tiny_tau_is_consistent(self, capsys):
        # the convolution of two indicators is about tau: against the
        # absolute --tol, tau = 1e-300 read "vanishes", consistent False, exit 1
        assert run_cli(["titchmarsh", "--prefix-a", "0", "--prefix-b", "0",
                        "--tau", "1e-300", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "verdict            nonvanishing" in out
        assert "consistent         True" in out

    def test_two_samples_suffice(self, capsys):
        assert run_cli(["titchmarsh", "--prefix-a", "0.1", "--prefix-b", "0.2",
                        "--tau", "1", "--n", "2"]) == 0
        assert "nonvanishing" in capsys.readouterr().out
