import importlib.util
import json
import os
import shutil
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
    from hypmin import config
    monkeypatch.setattr(config, "_physical_memory", lambda: 2e6)
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


def test_compare_outputs(tmp_path):
    # two copies of the tree print and write the same; a copy that writes
    # its CSV numbers with 11 digits differs in every CSV file with a
    # varying column, and in nothing else
    src = os.path.join(SCRIPTS, "..", "src")
    for tree in ("a", "b", "c"):
        shutil.copytree(src, tmp_path / tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    csv_py = tmp_path / "c" / "src" / "hypmin" / "system.py"      # the one CSV format
    csv_py.write_text(csv_py.read_text().replace('"%.12g"', '"%.11g"'))
    config = tmp_path / "headline.json"
    config.write_text(json.dumps(headline_raw(n=32)))
    trees = [str(tmp_path / tree) for tree in ("a", "b", "c")]
    same = _run("compare_outputs.py", trees[0], trees[1], str(config), cwd=tmp_path)
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout == "0 difference(s) in 11 runs on 1 config(s)\n"
    changed = _run("compare_outputs.py", trees[0], trees[2], str(config), cwd=tmp_path)
    assert changed.returncode == 1, changed.stdout + changed.stderr
    listed = changed.stdout.splitlines()
    assert listed[-1].endswith("in 11 runs on 1 config(s)")
    differing = {line.split(":")[0] for line in listed[:-1]}
    assert {"0-headline/kernels/kernels.csv", "0-headline/kernels/g.csv",
            "0-headline/simulate/timeseries.csv"} <= differing
    assert all(name.endswith(".csv") for name in differing)


def test_compare_outputs_lists_stderr(tmp_path):
    # q != 0 passes the times report, and every kernel solve refuses it on
    # one error line; a copy that rewords that line exits and prints the
    # same, with the same files, and differs only in the stderr of the runs
    # that solve kernels
    src = os.path.join(SCRIPTS, "..", "src")
    for tree in ("a", "b"):
        shutil.copytree(src, tmp_path / tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    kernels_py = tmp_path / "b" / "src" / "hypmin" / "kernels.py"
    text = kernels_py.read_text()
    assert "the kernel solve assumes" in text
    kernels_py.write_text(text.replace("the kernel solve assumes", "every kernel solve needs"))
    raw = headline_raw(n=32)
    raw["system"]["q"] = 0.5
    config = tmp_path / "headline.json"
    config.write_text(json.dumps(raw))
    proc = _run("compare_outputs.py", str(tmp_path / "a"), str(tmp_path / "b"), str(config),
                cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    listed = proc.stdout.splitlines()
    assert listed[-1].endswith("in 11 runs on 1 config(s)")
    where = {line.split(": ")[0] for line in listed[:-1]}
    assert {"0-headline/kernels", "0-headline/simulate",
            "0-headline/verify-sharpness-at"} <= where
    assert all(": stderr differs at line 1: 'error: the kernel solve assumes" in line
               and "| 'error: every kernel solve needs" in line for line in listed[:-1])


def test_compare_outputs_grid_n(tmp_path, capsys, monkeypatch):
    # grid_n 4 is refused, so only the five commands that need no times.json
    # run on the config itself; with --grid-n 16 the three sharpness runs
    # follow, and the config file is left as it was.  A config of the same
    # name elsewhere whose top level is no JSON object is copied as it is,
    # beside the first and not over it, and both trees refuse it: 4 more runs
    src = os.path.join(SCRIPTS, "..", "src")
    for tree in ("a", "b"):
        shutil.copytree(src, tmp_path / tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    config = tmp_path / "headline.json"
    config.write_text(json.dumps(headline_raw(n=4)))
    trees = [str(tmp_path / tree) for tree in ("a", "b")]
    refused = _run("compare_outputs.py", *trees, str(config), cwd=tmp_path)
    assert refused.stdout == "0 difference(s) in 8 runs on 1 config(s)\n"
    (tmp_path / "other").mkdir()
    not_object = tmp_path / "other" / "headline.json"
    not_object.write_text("[]")
    same = _run("compare_outputs.py", *trees, "--grid-n", "16", str(config), str(not_object),
                cwd=tmp_path)
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout == "0 difference(s) in 15 runs on 2 config(s)\n"
    assert json.loads(config.read_text()) == headline_raw(n=4)
    # --grid-n given more than once (a repeat counts once): one set of
    # copies per N, each in a directory of its own with its grid_n and
    # listed under nN/, both trees on every set in one invocation; the
    # runs are recorded here, not made
    spec = importlib.util.spec_from_file_location("compare_outputs",
                                                  os.path.join(SCRIPTS, "compare_outputs.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    seen = []

    def record(tree, cases, work):
        for case, path in cases:
            with open(path) as fh:
                text = fh.read()
            seen.append((tree, case, os.path.dirname(path),
                         json.loads(text).get("grid_n") if text != "[]" else text))
        return {}

    monkeypatch.setattr(script, "run_tree", record)
    assert script.main([*trees, "--grid-n", "16", str(config), "--grid-n", "12",
                        str(not_object), "--grid-n", "16"]) == 0
    assert capsys.readouterr().out == "0 difference(s) in 0 runs on 4 config(s)\n"
    for tree in trees:
        cases = [(case, n) for t, case, _, n in seen if t == tree]
        assert cases == [("n16/0-headline", 16), ("n16/1-headline", "[]"),
                         ("n12/0-headline", 12), ("n12/1-headline", "[]")]
    assert len({directory for *_, directory, _ in seen}) == 4


def test_compare_outputs_refuses_missing_tree(tmp_path):
    # a path with no src/hypmin/__init__.py is refused before any run: its
    # runs used to fail alike on both sides and compare as equal
    missing = [str(tmp_path / tree) for tree in ("a", "b")]
    proc = _run("compare_outputs.py", *missing, os.path.join(SCRIPTS, "..", "configs",
                                                             "transport.json"), cwd=tmp_path)
    _one_line_error(proc)
    assert proc.stdout == ""


def test_compare_outputs_lists_tracebacks(tmp_path):
    # two copies of a tree whose cli raises run the same and print the same,
    # but each run that ends in a traceback is listed, on both sides
    for tree in ("a", "b"):
        package = tmp_path / tree / "src" / "hypmin"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text('raise RuntimeError("no cli")\n')
    config = tmp_path / "headline.json"
    config.write_text(json.dumps(headline_raw(n=32)))
    proc = _run("compare_outputs.py", str(tmp_path / "a"), str(tmp_path / "b"), str(config),
                cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    listed = proc.stdout.splitlines()
    assert listed[-1] == "16 difference(s) in 8 runs on 1 config(s)"
    sides = [line.split(": ")[1] for line in listed[:-1]]
    assert sides == ["OLD ends in a traceback", "NEW ends in a traceback"] * 8
    assert all(line.endswith(": RuntimeError: no cli") for line in listed[:-1])


def test_compare_outputs_lists_warnings(tmp_path):
    # two copies of a tree whose cli prints a Python warning and exits 0 run
    # the same and print the same, but each warning is listed, on both sides
    for tree in ("a", "b"):
        package = tmp_path / tree / "src" / "hypmin"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text('import warnings\n'
                                         'warnings.warn("overflow in cli", RuntimeWarning)\n')
    config = tmp_path / "headline.json"
    config.write_text(json.dumps(headline_raw(n=32)))
    proc = _run("compare_outputs.py", str(tmp_path / "a"), str(tmp_path / "b"), str(config),
                cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    listed = proc.stdout.splitlines()
    assert listed[-1] == "16 difference(s) in 8 runs on 1 config(s)"
    sides = [line.split(": ")[1] for line in listed[:-1]]
    assert sides == ["OLD prints a warning", "NEW prints a warning"] * 8
    assert all(line.endswith(": RuntimeWarning: overflow in cli") for line in listed[:-1])


def test_code_lines(tmp_path):
    # docstrings, comments and blank lines are not code; a multi-line string
    # that is not a docstring counts on each of its lines, and a directory
    # counts its .py files
    source = '''"""Module docstring,
over two lines."""

# a comment
import os  # a comment after code


def f(x):
    """Function docstring."""

    # another comment
    text = """not a
docstring"""
    return x, text


class C:
    """Class docstring,
    over two lines."""
    y = "a string, not a docstring"
'''
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(source)
    (tmp_path / "pkg" / "empty.py").write_text('"""Only a docstring."""\n')
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    proc = _run("code_lines.py", "pkg/mod.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["7", "pkg/mod.py", "7", "total"]
    proc = _run("code_lines.py", "pkg", cwd=tmp_path)
    assert proc.stdout.split() == ["0", "pkg/empty.py", "7", "pkg/mod.py", "7", "total"]
    assert _run("code_lines.py", cwd=tmp_path).returncode == 2
