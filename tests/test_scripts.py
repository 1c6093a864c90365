import importlib.util
import json
import os
import subprocess
import sys

import pytest

from conftest import headline_raw

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def _run(script, *args, cwd):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=120)


def test_run_headline(tmp_path):
    config = tmp_path / "headline.json"
    config.write_text(json.dumps(headline_raw(n=64)))
    proc = _run("run_headline.py", "--config", str(config), "--out", str(tmp_path / "out"),
                "--sweep", "1.3", "1.6", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    sides = [line.split()[-1] for line in proc.stdout.splitlines()
             if line.endswith(("floor", "drop", "margin"))]
    assert sides == ["floor", "drop"]
    assert {"kernels.csv", "g.csv", "gains.csv"} <= set(os.listdir(tmp_path / "out"))


def _one_line_error(proc, code=2):
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    prefix = "error: " if code == 2 else "computation failed: "
    assert len(lines) == 1 and lines[0].startswith(prefix), proc.stderr


def test_run_headline_reflection_is_one_line_error(tmp_path):
    # q != 0 passes the times report but no kernel solve accepts it
    raw = headline_raw(n=32)
    raw["system"]["q"] = 0.5
    config = tmp_path / "headline.json"
    config.write_text(json.dumps(raw))
    proc = _run("run_headline.py", "--config", str(config), "--out", str(tmp_path / "out"),
                cwd=tmp_path)
    _one_line_error(proc)
    assert "Tmin" in proc.stdout


def test_run_headline_missing_config_is_one_line_error(tmp_path):
    proc = _run("run_headline.py", "--config", str(tmp_path / "missing.json"),
                "--out", str(tmp_path / "out"), cwd=tmp_path)
    _one_line_error(proc)
    assert proc.stdout == ""


def test_run_headline_checks_kernel_memory(tmp_path, capsys, monkeypatch):
    # the kernel step is the kernels command: with 2 MB reported it is
    # refused before the solve (the script used to solve and write the
    # kernels, and was refused only at verify-settling)
    spec = importlib.util.spec_from_file_location("run_headline",
                                                  os.path.join(SCRIPTS, "run_headline.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    from hypmin import harness
    monkeypatch.setattr(harness, "_physical_memory", lambda: 2e6)
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["run_headline.py", "--out", str(out)])
    assert script.main() == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: kernels at n=400: the kernel marches")
    assert not (out / "kernels.csv").exists()


def test_run_counterexample(tmp_path):
    proc = _run("run_counterexample.py", "--k", "2", "--n", "100", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2


@pytest.mark.parametrize("args,code", [
    (["--n", "0"], 2),                 # DomainError: no grid cell
    (["--n", "10000000000"], 2),       # PreconditionError: beyond memory
    (["--n", "-1"], 2),                # argparse: not a nonnegative int
    (["--k", "nan"], 2),               # argparse: not a finite float
    (["--n", "1"], 1),                 # UndefinedRateError: too few snapshots
    (["--k", "1e300"], 1),             # RootBracketError: no eigenvalue bracket
], ids=["n0", "n-huge", "n-negative", "k-nan", "n1", "k-huge"])
def test_run_counterexample_errors_are_one_line(tmp_path, args, code):
    proc = _run("run_counterexample.py", "--k", "2", *args, cwd=tmp_path)
    _one_line_error(proc, code)


def test_run_headline_bad_sweep_is_one_line_error(tmp_path):
    proc = _run("run_headline.py", "--sweep", "inf", "--out", str(tmp_path / "out"),
                cwd=tmp_path)
    _one_line_error(proc)
    assert proc.stdout == ""
