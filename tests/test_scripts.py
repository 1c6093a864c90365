import json
import os
import subprocess
import sys

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


def _one_line_error(proc):
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


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


def test_run_counterexample(tmp_path):
    proc = _run("run_counterexample.py", "--k", "2", "--n", "100", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2
