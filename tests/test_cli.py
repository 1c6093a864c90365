import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hypmin.cli
import hypmin.config
from hypmin import Grid, harness, kernels
from hypmin.cli import run_cli

from conftest import headline_raw

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


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


    def test_underflowing_xbar_is_uniform_time(self, tmp_path, capsys):
        # |lambda1| / lambda2 = 1e-400 underflows: psi^{-1}(T2) is 0, so c has
        # no prefix to measure and Tmin = T1 + T2, where vanishing_prefix
        # refused the empty interval (exit 2, "eps must lie in (0,1]")
        raw = headline_raw(n=16)
        raw["system"]["lambda1"]["value"] = -1e-100
        raw["system"]["lambda2"]["value"] = 1e300
        path = tmp_path / "xbar.json"
        path.write_text(json.dumps(raw))
        assert run_cli(["mintime", str(path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        tr = json.loads((tmp_path / "out" / "times.json").read_text())
        assert tr["xbar"] == tr["Xc"] == 0.0
        assert tr["Tmin"] == tr["T1"] + tr["T2"]

    def test_speeds_past_1e154_exit_0(self, tmp_path, capsys):
        # 1/|lambda| squared underflowed in the travel-time inverse, which
        # put xbar = psi^{-1}(T2) a table cell past 1: exit 2 with "eps
        # must lie in (0,1], got 1.0002441406249998"
        raw = headline_raw(n=16)
        raw["system"]["lambda1"]["value"] = -1.2245141809718367e+295
        raw["system"]["lambda2"]["value"] = 1.8554463717060281e+245
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(raw))
        assert run_cli(["mintime", str(path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        tr = json.loads((tmp_path / "out" / "times.json").read_text())
        assert 0.0 < tr["xbar"] <= 1.0


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
        (("grid_n",), 4),
        (("horizon",), 0),
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
            "control-k-bool", "control-values-string", "b-family-list", "grid_n-4",
            "horizon-zero"])
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

    @pytest.mark.parametrize("command", ["mintime", "kernels", "simulate", "verify-settling",
                                         "verify-sharpness"])
    def test_list_root_is_one_line_exit_2(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([headline_raw(n=64)]))
        argv = [command, str(bad), "--out", str(tmp_path / "out")]
        if command == "verify-sharpness":
            argv += ["--T", "1"]
        err = _run_one_line_exit_2(argv, capsys)[2]
        assert err == "error: config root must be an object\n"
        assert not (tmp_path / "out").exists()

    def test_zero_initial_data_settling_is_one_line_exit_2(self, tmp_path, capsys):
        # the settling residual is relative to the norm of the initial data
        raw = headline_raw(n=64)
        raw["initial_data"] = {"kind": "zero"}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(raw))
        argv = ["verify-settling", str(path), "--out", str(tmp_path / "out")]
        err = _run_one_line_exit_2(argv, capsys)[2]
        assert err == "error: settling verification needs nonzero initial data\n"

    @pytest.mark.parametrize("text, words", [
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100000 + b"]" * 100000, "nested too deeply"),
        (b'{"grid_n": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
    ], ids=["not-utf8", "nested-1e5", "int-5000-digits"])
    def test_unreadable_json_is_one_line_exit_2(self, tmp_path, capsys, text, words):
        # a UnicodeDecodeError, a RecursionError and the ValueError of the
        # int digit limit from json.load each ended in a traceback (exit 1)
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        err = _run_one_line_exit_2(["mintime", str(bad)], capsys)[2]
        assert err.startswith(f"error: config {bad} ") and words in err


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


# a config value that loading refuses, whatever the command
_LOADING_CAPS = [
    ("grid_n-1e7", {"grid_n": 10 ** 7}, "grid_n must be at most 23169, got 10000000"),
    ("grid_n-int32", {"grid_n": 23170}, "grid_n must be at most 23169"),
    ("grid_n-huge-int", {"grid_n": 10 ** 400}, "grid_n must be a finite number"),
    ("random-nodes-1e12", {"initial_data": {"kind": "random", "nodes": 10 ** 12}},
     "initial_data: random data with 1000000000000 nodes needs about 3.2e+04 GB"),
]


class TestMemoryCap:
    """A size whose memory estimate exceeds the machine is rejected before any
    work: a config value on loading, and what a command allocates at its
    entry point."""

    @pytest.mark.parametrize("command, values, flags, words", [
        *(pytest.param(command, values, [], words, id=f"{command}-{name}")
          for command in ("mintime", "kernels", "simulate", "verify-settling")
          for name, values, words in _LOADING_CAPS),
        # k22 (1.15 GB), two plan blocks and one CSV block of grid_n + 1
        # points, one trace path
        pytest.param("kernels", {"grid_n": 12000}, [], "kernels at n=12000: the kernel "
                     "marches and the CSV export needs about 1.17 GB",
                     id="kernels-grid_n-memory"),
        # the step traces at grid_n, and at the finest level 2*grid_n
        pytest.param("simulate", {"horizon": 1e300}, [], "simulate at n=64: the gains solve, "
                     "20 snapshots and the time steps to horizon 1e+300 needs about "
                     "2.28e+294 GB", id="simulate-horizon-1e300"),
        pytest.param("simulate", {"cfl": 1e-300}, [], "simulate at n=64: the gains solve, 20 "
                     "snapshots and the time steps to horizon 1.5 needs about 3.07e+294 GB",
                     id="simulate-cfl-1e-300"),
        pytest.param("verify-settling", {"horizon": 1e300}, [], "verify-settling at n=128: "
                     "the gains solve, 0 snapshots and the time steps to horizon 1e+300 "
                     "needs about 4.55e+294 GB", id="verify-settling-horizon-1e300"),
        pytest.param("verify-settling", {"cfl": 1e-300}, [], "verify-settling at n=128: "
                     "the gains solve, 0 snapshots and the time steps to horizon 1.5 needs "
                     "about 6.14e+294 GB", id="verify-settling-cfl-1e-300"),
        # the kept states: 13 335 of them at grid_n 8000
        pytest.param("simulate", {"grid_n": 8000}, ["--snapshots", "1000000"],
                     "simulate at n=8000: the gains solve, 1000000 snapshots and the time "
                     "steps to horizon 1.5 needs about 1.72 GB", id="simulate-snapshots"),
        # an open-loop run solves no gains
        pytest.param("simulate", {"horizon": 1e300, "control": {"kind": "zero"}}, [],
                     "simulate at n=64: 20 snapshots and the time steps to horizon 1e+300 "
                     "needs about", id="simulate-open-loop"),
    ])
    def test_config_beyond_cap(self, tmp_path, capsys, monkeypatch, command, values, flags,
                               words):
        # the machine reports 1 GB, so the cap is the same everywhere
        monkeypatch.setattr(hypmin.config, "_physical_memory", lambda: 1e9)
        raw = headline_raw(n=64)
        raw.update(values)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        elapsed, peak, err = _run_one_line_exit_2(
            [command, str(path), "--out", str(out), *flags], capsys)
        assert words in err
        assert elapsed < 0.5 and peak < 5e6
        assert not out.exists()

    @pytest.mark.parametrize("values", [
        {"horizon": 1e300},
        {"cfl": 1e-300},
        # varying speeds at grid_n 16 with lambda2 = 1e300: steps of about 1e-302
        {"system": {**json.loads((CONFIG_DIR / "varying_speeds.json").read_text())["system"],
                    "lambda2": {"family": "constant", "value": 1e300}}, "grid_n": 16},
    ], ids=["horizon-1e300", "cfl-1e-300", "lambda2-1e300"])
    @pytest.mark.parametrize("command", ["mintime", "kernels"])
    def test_no_time_steps_without_a_simulation(self, tmp_path, capsys, monkeypatch, values,
                                                command):
        # neither command simulates, so neither is charged the time steps
        monkeypatch.setattr(hypmin.config, "_physical_memory", lambda: 1e9)
        raw = headline_raw(n=64)
        raw.update(values)
        path = tmp_path / "long.json"
        path.write_text(json.dumps(raw))
        assert run_cli([command, str(path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_sharpness_time_beyond_cap(self, tmp_path, capsys, monkeypatch):
        # varying speeds at grid_n 400: at T = 50 on the finest level n = 800
        # the lower rows, dense over about 39 000 hats, and the reduced
        # least-squares matrix alone are about 1.1 GB, more than the 1 GB the
        # machine is made to report here
        monkeypatch.setattr(hypmin.config, "_physical_memory", lambda: 1e9)
        raw = json.loads((CONFIG_DIR / "varying_speeds.json").read_text())
        path = tmp_path / "varying.json"
        path.write_text(json.dumps(raw))
        cfg = hypmin.config.load_config(path)
        est = harness.canonical_sharpness_bytes(cfg.system.speeds, 50.0, Grid.uniform(800))
        assert 1.05e9 < est < 1.2e9
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
        monkeypatch.setattr(hypmin.config, "_physical_memory", lambda: 1e9)
        elapsed, peak, err = _run_one_line_exit_2(
            ["counterexample", "--k", "1", "--n", str(n)], capsys)
        assert f"counterexample at n={n} needs about" in err
        assert elapsed < 0.5 and peak < 5e6

    @pytest.mark.parametrize("n", [10 ** 9, 10 ** 11])
    def test_titchmarsh_n_beyond_cap(self, capsys, monkeypatch, n):
        # the samples and the convolution are estimated before any of them is
        # allocated (about 96 GB at n = 1e9)
        monkeypatch.setattr(hypmin.config, "_physical_memory", lambda: 1e9)
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
        monkeypatch.setattr(hypmin.config, "_physical_memory", lambda: float(peak))
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
        assert 0 < hypmin.config._physical_memory() < math.inf


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


# log-uniform magnitudes over nearly the whole float range
_MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
_SIGNED = st.tuples(st.sampled_from([-1.0, 1.0]), _MAGNITUDE).map(lambda t: t[0] * t[1])


class TestExportFloatLimits:
    """mintime, kernels and simulate on constant coefficients near the float limits."""

    N = 16

    def write_config(self, directory, horizon=1.5, **values):
        system = {"lambda1": -1.0, "lambda2": 1.0, "a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0}
        system.update(values)
        raw = headline_raw(n=self.N, horizon=horizon)
        raw["system"] = {k: {"family": "constant", "value": v} for k, v in system.items()}
        path = directory / "limits.json"
        path.write_text(json.dumps(raw))
        return str(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(["mintime", "kernels", "simulate"]), lambda1=_MAGNITUDE,
           lambda2=_MAGNITUDE, a=_SIGNED, b=_SIGNED, c=_SIGNED, d=_SIGNED,
           horizon=_MAGNITUDE)
    def test_exit_code_one_line_and_rows(self, tmp_path_factory, capsys, monkeypatch, command,
                                         lambda1, lambda2, a, b, c, d, horizon):
        # with the machine reporting 2 MB, a simulation that runs takes at
        # most about 6e4 steps, and a longer one is refused before any work;
        # kernels, whose CSV block alone is charged 4.2 MB, gets 20 MB, so
        # that its marches run
        memory = 2e7 if command == "kernels" else 2e6
        monkeypatch.setattr(hypmin.config, "_physical_memory", lambda: memory)
        work = tmp_path_factory.mktemp("limits")
        path = self.write_config(work, horizon, lambda1=-lambda1, lambda2=lambda2, a=a, b=b,
                                 c=c, d=d)
        out = work / "out"
        capsys.readouterr()
        code = run_cli([command, path, "--out", str(out)])
        std = capsys.readouterr()
        assert code in (0, 1, 2)
        assert len(std.err.strip().splitlines()) <= 1
        assert "Traceback" not in std.err
        if code != 0:
            return

        def rows(name):
            with open(out / name, "rb") as fh:
                return fh.read().count(b"\r\n") - 1     # the header row is not a row

        if command == "mintime":
            assert "Tmin" in json.loads((out / "times.json").read_text())
            return
        if command == "kernels":
            assert rows("kernels.csv") == (self.N + 1) * (self.N + 2) // 2
            assert rows("g.csv") == rows("gains.csv") == self.N + 1
            return
        steps = int(re.search(r"steps=(\d+)", std.out).group(1))
        assert rows("timeseries.csv") == steps + 1
        snaps = sorted(p.name for p in out.glob("snapshot_*.csv"))
        assert rows("snapshots.csv") == len(snaps) == min(20, steps + 1)
        assert all(rows(name) == self.N + 1 for name in snaps)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["kernels", "simulate"])
    @pytest.mark.parametrize("values, what", [
        # the march's p12 = k12*lambda2 is finite, k12 = p12/lambda2 is not
        ({"lambda1": -1e-20, "lambda2": 1e-150, "b": -1e20, "c": -1e-20}, "kernel k12"),
        # the gauge weight e1(1) = exp(-709) puts 1/e1(1) into f2
        ({"a": -709.0, "b": 1e300}, "gain f2"),
    ], ids=["speed-near-zero", "gauge-near-underflow"])
    def test_overflow_past_the_march_exit_2(self, tmp_path, capsys, command, values, what):
        path = self.write_config(tmp_path, **values)
        assert run_cli([command, path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {what} overflows: the couplings b and c are too large "
                       "for the kernel solve\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("values", [
        {"lambda1": -1e-20, "lambda2": 1e-150, "b": -1e20, "c": -1e-20},
        {"a": -709.0, "b": 1e300},
    ], ids=["speed-near-zero", "gauge-near-underflow"])
    def test_overflow_while_streaming_leaves_no_file(self, tmp_path, capsys, monkeypatch,
                                                     values):
        # kernels.csv is written in blocks of 7 points as the rows are
        # solved, so f2 fails after the whole file was written: no
        # kernels.csv is left, nor the directories the command made, and a
        # directory that was there keeps its files
        monkeypatch.setattr(kernels, "BLOCK_POINTS", 7)
        path = self.write_config(tmp_path, **values)
        out = tmp_path / "out"
        assert run_cli(["kernels", path, "--out", str(out / "k")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
        (out / "k").mkdir(parents=True)
        (out / "k" / "kernels.csv").write_text("earlier")
        assert run_cli(["kernels", path, "--out", str(out / "k")]) == 2
        assert os.listdir(out / "k") == ["kernels.csv"]
        assert (out / "k" / "kernels.csv").read_text() == "earlier"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_speed_product_past_the_float_range_exit_0(self, tmp_path, capsys):
        # lambda2^2 = 1e310 overflows in the trace quadrature's denominator:
        # its integrand is +-0, so g is its finite diagonal term at every node
        path = self.write_config(tmp_path, lambda2=1e155, b=-1.0, c=-1.0)
        out = tmp_path / "out"
        assert run_cli(["kernels", path, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = (out / "g.csv").read_text().splitlines()[1:]
        assert len(rows) == self.N + 1 and all(r.endswith(",-1e-155") for r in rows)


def _assert_one_line(code, err):
    assert code in (0, 1, 2)
    assert len(err.strip().splitlines()) <= 1
    assert "Traceback" not in err


class TestFlagFloatLimits:
    """verify-sharpness --T and titchmarsh --tau near the float limits, under
    the rules of TestExportFloatLimits."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=st.sampled_from(["headline", "varying"]), T=_MAGNITUDE)
    def test_sharpness_time(self, tmp_path_factory, capsys, monkeypatch, config, T):
        # 2 MB reported: a large T is refused before its trace matrix exists
        monkeypatch.setattr(hypmin.config, "_physical_memory", lambda: 2e6)
        work = tmp_path_factory.mktemp("sharp")
        raw = (headline_raw() if config == "headline"
               else json.loads((CONFIG_DIR / "varying_speeds.json").read_text()))
        raw["grid_n"] = 16
        path = work / "sharp.json"
        path.write_text(json.dumps(raw))
        capsys.readouterr()
        code = run_cli(["verify-sharpness", str(path), "--T", repr(T),
                        "--out", str(work / "out")])
        _assert_one_line(code, capsys.readouterr().err)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tau=_MAGNITUDE, a=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           b=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           n=st.sampled_from([2, 3, 10, 1000]))
    def test_titchmarsh_tau(self, capsys, monkeypatch, tau, a, b, n):
        # prefixes as fractions of tau, so that both lie in [0, tau]
        monkeypatch.setattr(hypmin.config, "_physical_memory", lambda: 2e6)
        capsys.readouterr()
        code = run_cli(["titchmarsh", "--prefix-a", repr(a * tau), "--prefix-b", repr(b * tau),
                        "--tau", repr(tau), "--n", str(n)])
        _assert_one_line(code, capsys.readouterr().err)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_sharpness_time_exit_2(self, tmp_path, capsys):
        # T = 5e-324 made the quadrature step T/2 zero: a division by zero,
        # then an IndexError traceback (exit 1)
        path = tmp_path / "headline.json"
        path.write_text(json.dumps(headline_raw(n=16)))
        assert run_cli(["verify-sharpness", str(path), "--T", "5e-324",
                        "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: sharpness horizon must be finite and positive, at least "
            "2.22507385851e-308, got 5e-324\n")

    @pytest.mark.parametrize("tau,n", [("1e-315", "100000"), ("5e-324", "2")])
    def test_subnormal_titchmarsh_cell_exit_2(self, capsys, tau, n):
        # a cell tau/n below the smallest normal float (1e-320, 0) read every
        # convolution as vanishing: consistent False, exit 1
        assert run_cli(["titchmarsh", "--prefix-a", "0", "--prefix-b", "0", "--tau", tau,
                        "--n", n]) == 2
        assert capsys.readouterr().err.endswith("the cell tau/n is below the smallest "
                                                "normal float\n")

    def test_titchmarsh_coarse_cells_consistent(self, capsys):
        # at n = 3 both indicators are zero on nodes 0 and 1 only: the discrete
        # convolution vanishes on (0, tau), as it should within a cell of
        # prefix sum 0.992, and the measured prefixes, each up to one cell
        # short, sum to 2/3, within the two cells the rule allows
        assert run_cli(["titchmarsh", "--prefix-a", "0.39675", "--prefix-b", "0.59523",
                        "--tau", "1", "--n", "3"]) == 0


class TestSettlingCounterexampleFloatLimits:
    """verify-settling on TestExportFloatLimits' configs, and counterexample
    --k and --n, under the rules of TestExportFloatLimits."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lambda1=_MAGNITUDE, lambda2=_MAGNITUDE, a=_SIGNED, b=_SIGNED, c=_SIGNED,
           d=_SIGNED, horizon=_MAGNITUDE)
    def test_verify_settling(self, tmp_path_factory, capsys, monkeypatch, lambda1, lambda2,
                             a, b, c, d, horizon):
        monkeypatch.setattr(hypmin.config, "_physical_memory", lambda: 2e6)
        work = tmp_path_factory.mktemp("settle")
        path = TestExportFloatLimits().write_config(work, horizon, lambda1=-lambda1,
                                                    lambda2=lambda2, a=a, b=b, c=c, d=d)
        capsys.readouterr()
        code = run_cli(["verify-settling", path, "--out", str(work / "out")])
        _assert_one_line(code, capsys.readouterr().err)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(k=_SIGNED | st.floats(-5.0, 5.0), n=st.integers(0, 64) | st.integers(0, 10**18))
    def test_counterexample(self, capsys, monkeypatch, k, n):
        # 2 MB reported: a large n is refused before its speed table exists
        monkeypatch.setattr(hypmin.config, "_physical_memory", lambda: 2e6)
        capsys.readouterr()
        code = run_cli(["counterexample", f"--k={k!r}", "--n", str(n)])
        _assert_one_line(code, capsys.readouterr().err)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k, words", [
        # the root scan multiplied two values of about 1e181: an overflow
        # warning on the way to the same line
        ("-5.8e180", "computation failed: branch k<1+1/pi: no root of "),
        # theta*pi = 1164 overflowed sinh and cosh of the eigenmode: five
        # warnings, then "non-finite state or L2 norm at step 1"
        ("741.27", "computation failed: the eigenmode of k=741.27 overflows: "),
        # beyond the ends of the eigenvalue bracket: 2^60 above 1 + 1/pi, and
        # 1 - 1e-9, where the equation is about -3.18e8, below it
        ("3e18", "computation failed: branch k>1+1/pi: "),
        ("-3.2e8", "computation failed: branch k<1+1/pi: no root of "),
    ], ids=["k-huge-negative", "k-eigenmode-overflow", "k-above-bracket", "k-below-bracket"])
    def test_counterexample_k_one_line_exit_1(self, capsys, k, words):
        assert run_cli(["counterexample", f"--k={k}", "--n", "48"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(words) and err.count("\n") == 1


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
        ["titchmarsh", "--prefix-a", "0.1", "--prefix-b", "0.2", "--tau", "1", "--tol", "0"],
        ["titchmarsh", "--prefix-a", "0.1", "--prefix-b", "0.2", "--tau", "1",
         "--tol=-1e-12"],
        ["titchmarsh", "--prefix-a", "0", "--prefix-b", "0", "--tau", "0"],
    ], ids=["T-negative", "T-zero", "T-nan", "T-inf", "snapshots-negative", "k-nan",
            "n-string", "tau-inf", "n-negative", "tol-nan", "tol-zero", "tol-negative",
            "tau-zero"])
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


class TestNegativeExponentValues:
    """A negative flag value in exponent form, given as the next argument, is
    a value like its --flag=VALUE form, not an unknown option."""

    @pytest.mark.parametrize("argv", [
        ["counterexample", "--k", "-1e200", "--n", "10"],
        ["titchmarsh", "--prefix-a", "1e-5", "--prefix-b", "-1e-5", "--tau", "1"],
        ["counterexample", "--k", "-1.5E-3", "--n", "10"],
    ], ids=["counterexample-k", "titchmarsh-prefix-b", "counterexample-k-upper-e"])
    def test_spaced_value_reads_as_joined(self, capsys, argv):
        flag = 2 if argv[0] == "counterexample" else 4
        joined = argv[:flag - 1] + [f"{argv[flag - 1]}={argv[flag]}"] + argv[flag + 1:]
        code = run_cli(joined)
        want = capsys.readouterr()
        assert run_cli(argv) == code
        got = capsys.readouterr()
        assert "expected one argument" not in want.err
        assert (got.out, got.err) == (want.out, want.err)


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

    def test_kernels_builds_its_gauge_once(self, headline_path, tmp_path, monkeypatch):
        # the memory check reads the writer's own set-up (it ran two)
        calls = []
        gauge = kernels._gauge
        monkeypatch.setattr(kernels, "_gauge", lambda *args: calls.append(args) or gauge(*args))
        assert run_cli(["kernels", headline_path, "--out", str(tmp_path / "k")]) == 0
        assert len(calls) == 1

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

    def test_reports_say_where_they_came_from(self, headline_path, tmp_path, capsys):
        # the config file's SHA-256 and the NumPy version close every JSON
        # file; the counterexample has no config
        digest = hashlib.sha256(pathlib.Path(headline_path).read_bytes()).hexdigest()
        out = tmp_path / "prov"
        for argv in (["mintime", headline_path], ["verify-settling", headline_path],
                     ["verify-sharpness", headline_path, "--T", "1.6"]):
            run_cli(argv + ["--out", str(out)])
        assert run_cli(["counterexample", "--k", "0.5", "--n", "100", "--out", str(out)]) == 0
        files = {"times.json": digest, "report_settling.json": digest,
                 "report_sharpness.json": digest, "report_counterexample.json": None}
        assert sorted(os.listdir(out)) == sorted(files)
        for name, want in files.items():
            data = json.loads((out / name).read_text())
            assert list(data)[-1] == "numpy_version" and data["numpy_version"] == np.__version__
            assert data.get("config_sha256") == want, name

    @pytest.mark.parametrize("argv", [
        ["mintime", "{config}"], ["kernels", "{config}"], ["simulate", "{config}"],
        ["verify-settling", "{config}"], ["verify-sharpness", "{config}", "--T", "1.6"],
        ["counterexample", "--k", "0.5", "--n", "100"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
    def test_unwritable_out_is_one_line_exit_2(self, tmp_path, capsys, argv, under):
        # an --out that is a file, or a directory under one, was a
        # FileExistsError or NotADirectoryError traceback (exit 1)
        config = tmp_path / "headline.json"
        config.write_text(json.dumps(headline_raw(n=16)))
        (tmp_path / "f").touch()
        before = sorted(tmp_path.rglob("*"))
        argv = [a.format(config=config) for a in argv] + ["--out", str(tmp_path / "f" / under)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot write output: ")
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before    # no kernels.csv.part, no directory


class TestInstalledEntryPoint:
    def test_benchmark_setup_probe_loader(self):
        # perfbench/run.py's SETUP_PROBE times hypmin.cli.load_config(path)
        # as the set-up of every benchmark command: the name stays bound in
        # cli, to the one config loader
        import hypmin.cli
        assert hypmin.cli.load_config is hypmin.config.load_config
        cfg = hypmin.cli.load_config(CONFIG_DIR / "headline.json")
        assert cfg.scenario_id == "headline" and cfg.grid.n == 400

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

    @pytest.mark.parametrize("tol", ["0", "-1e-12"])
    def test_nonpositive_tol_is_refused_before_the_convolution(self, monkeypatch, capsys, tol):
        # it was refused by titchmarsh_check, after the FFT convolution of
        # --n samples had run
        monkeypatch.setattr(hypmin.cli, "titchmarsh_check", None)
        assert run_cli(["titchmarsh", "--prefix-a", "0.1", "--prefix-b", "0.2", "--tau", "1",
                        "--n", "5000000", f"--tol={tol}"]) == 2
        assert capsys.readouterr().err == f"error: --tol must be positive, got {float(tol):.12g}\n"

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
