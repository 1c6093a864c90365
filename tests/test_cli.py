import json
import math
import os
import subprocess
import sys

import pytest

import hypmin
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
    ], ids=["system-list", "grid_n-string", "grid_n-inf", "q-string", "coeff-list",
            "horizon-nan", "cfl-nan", "cfl-inf", "initial_data-list",
            "lambda2-sampled-nan", "lambda2-sampled-xs-nan", "lambda1-polynomial-minus-inf", "b-constant-nan",
            "c-step-inf", "seed-negative", "initial_data-nodes-string",
            "initial_data-seed-negative", "initial_data-kind", "control-k-string",
            "control-k-missing", "control-kind"])
    def test_bad_value_is_one_line_exit_2(self, tmp_path, capsys, path, value):
        raw = headline_raw(n=64)
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        for command in ("mintime", "verify-settling"):
            assert run_cli([command, str(bad)]) == 2
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1
            assert err.startswith("error: ") and path[-1] in err
            assert "Traceback" not in err


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
