"""Byte identity of the CSV exports against per-cell csv.writer references.

The reference writers below are the original per-row implementations of
the kernels.csv export, export_profile_csv and export_sim_csv (which picked
the snapshots from a full history, as simulate now does); the blocked
writer, and write_kernels_csv's rows streamed from the kernel marches, must
reproduce their files byte for byte, including CRLF line ends and the text
of -0.0, nan, +-inf, subnormals and large integers under "%.12g", whether a
column is formatted per cell, written once as a constant, or gathered from
(text, index).
"""

import csv
import json
import os
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypmin import CoefficientSpec, Grid, SpeedPair, kernels, simulate, solve_kernels, system
from hypmin.cli import run_cli
from hypmin.errors import DomainError, InvalidSpeedsError
from hypmin.config import FEEDBACK, load_config
from hypmin.kernels import solve_gains, solve_trace, write_kernels_csv, write_kernels_csv_bytes
from hypmin.simulator import export_sim_csv
from hypmin.system import export_profile_csv

from conftest import const, make_system

SPECIALS = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
            123456789012345.0, 0.1, -1.0 / 3.0, 1e300, 0.0]
CONSTANTS = [0.0, -0.0, float("nan"), float("inf"), 5e-324, 1e300]
CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def reference_kernels_csv(K, path):
    nodes = K.grid.nodes
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "xi", "k11", "k12", "k21", "k22"])
        for i in range(K.grid.n + 1):
            for j in range(i + 1):
                w.writerow([f"{nodes[i]:.12g}", f"{nodes[j]:.12g}",
                            f"{K.k11[i, j]:.12g}", f"{K.k12[i, j]:.12g}",
                            f"{K.k21[i, j]:.12g}", f"{K.k22[i, j]:.12g}"])


def reference_profile_csv(path, nodes, columns):
    names = list(columns)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x"] + names)
        for i, x in enumerate(nodes):
            w.writerow([f"{x:.12g}"] + [f"{columns[nm][i]:.12g}" for nm in names])


def reference_sim_csv(result, outdir, max_snapshots=20):
    os.makedirs(outdir, exist_ok=True)
    written = []
    ts_path = os.path.join(outdir, "timeseries.csv")
    with open(ts_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "u", "l2_norm", "linf_norm"])
        for k, t in enumerate(result.times):
            w.writerow([f"{t:.12g}", f"{result.control_trace[k]:.12g}",
                        f"{result.l2_trace[k]:.12g}", f"{result.linf_trace[k]:.12g}"])
    written.append(ts_path)

    count = min(max_snapshots, len(result.times))
    picks = np.unique(np.linspace(0, len(result.times) - 1, count).astype(int))
    index_path = os.path.join(outdir, "snapshots.csv")
    with open(index_path, "w", newline="") as fh:
        wI = csv.writer(fh)
        wI.writerow(["file", "t"])
        for k in picks:
            name = f"snapshot_{k:06d}.csv"
            path = os.path.join(outdir, name)
            y1, y2 = result.snapshots[k]
            with open(path, "w", newline="") as fs:
                w = csv.writer(fs)
                w.writerow(["x", "y1", "y2"])
                for i, xv in enumerate(result.grid.nodes):
                    w.writerow([f"{xv:.12g}", f"{y1[i]:.12g}", f"{y2[i]:.12g}"])
            wI.writerow([name, f"{result.times[k]:.12g}"])
            written.append(path)
    written.append(index_path)
    return written


@pytest.fixture(params=[7, system.BLOCK_POINTS], ids=["rows-7", "rows-default"])
def csv_rows(request, monkeypatch):
    """Block size of the writers, the kernel stream's and write_csv's: 7
    splits every file into several blocks."""
    monkeypatch.setattr(kernels, "BLOCK_POINTS", request.param)
    monkeypatch.setattr(system, "BLOCK_POINTS", request.param)
    return request.param


def test_kernels_csv_bytes(csv_rows, varying_speeds, tmp_path):
    # the special values of a kernel column are those of any column of
    # csv_block: test_profile_csv_bytes and test_indexed_column_bytes
    system = step_system(varying_speeds, 0.8)
    grid = Grid.uniform(10)
    write_kernels_csv(system, grid, tmp_path / "new.csv")
    reference_kernels_csv(solve_kernels(system, grid), tmp_path / "ref.csv")
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert len(new.splitlines()) == 1 + 11 * 12 // 2     # 66 rows: ragged last block


def test_profile_csv_bytes(csv_rows, tmp_path):
    nodes = np.linspace(0.0, 1.0, 2 * len(SPECIALS) + 3)
    rng = np.random.default_rng(5)
    special = np.concatenate([SPECIALS, -np.array(SPECIALS), rng.normal(size=3)])
    columns = {"f1": special, "f2": list(rng.normal(size=nodes.size))}
    export_profile_csv(tmp_path / "new.csv", nodes, columns)
    reference_profile_csv(tmp_path / "ref.csv", nodes, columns)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert b"nan" in new and b"-inf" in new and b"-0," in new and b"\r\n" in new


@pytest.mark.parametrize("max_snapshots", [0, 1, 4, 20])
def test_sim_csv_bytes(csv_rows, unit_speeds, tmp_path, max_snapshots):
    # the reference picks from the full history; simulate keeps only its picks
    grid = Grid.uniform(22)
    y0 = (np.sin(grid.nodes), np.cos(grid.nodes))
    system = make_system(unit_speeds, a=0.2, b=1.0)
    full = simulate(system, None, y0, 0.4, grid)
    kept = simulate(system, None, y0, 0.4, grid, snapshots=max_snapshots)
    for sim in (full, kept)[:2 if max_snapshots else 1]:    # step 0 is kept if any
        sim.snapshots[0] = (np.array(SPECIALS * 3)[:23], sim.snapshots[0][1])
    new = export_sim_csv(kept, tmp_path / "new")
    ref = reference_sim_csv(full, str(tmp_path / "ref"), max_snapshots=max_snapshots)
    assert [os.path.basename(p) for p in new] == [os.path.basename(p) for p in ref]
    for p, q in zip(new, ref):
        assert_same_bytes(p, q)


def assert_same_bytes(new, ref):
    with open(new, "rb") as a, open(ref, "rb") as b:
        assert a.read() == b.read(), os.path.basename(new)


def step_system(speeds, b):
    """Constant b and c a step at 0.2; at b = 0 only k21 is nonzero."""
    return make_system(speeds, b=b, c=CoefficientSpec.step(0.2, 0.0, 1.0))


@pytest.mark.parametrize("rows", [0, 1, 9])
@pytest.mark.parametrize("value", CONSTANTS, ids=repr)
def test_constant_column_bytes(csv_rows, tmp_path, value, rows):
    # one row makes every column constant, the x column too
    nodes = np.linspace(0.0, 1.0, rows)
    columns = {"c": np.full(rows, value), "y": np.random.default_rng(8).normal(size=rows)}
    export_profile_csv(tmp_path / "new.csv", nodes, columns)
    reference_profile_csv(tmp_path / "ref.csv", nodes, columns)
    assert_same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")
    assert len((tmp_path / "new.csv").read_bytes().split(b"\r\n")) == rows + 2


def test_mixed_signed_zeros_are_not_constant(csv_rows, tmp_path):
    # equal values with different bits: both signs must survive
    nodes = np.linspace(0.0, 1.0, 20)
    z = np.zeros(nodes.size)
    z[[3, 11]] = -0.0
    columns = {"z": z, "w": -z}
    export_profile_csv(tmp_path / "new.csv", nodes, columns)
    reference_profile_csv(tmp_path / "ref.csv", nodes, columns)
    assert_same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes().count(b",-0,") == 2


def test_indexed_column_bytes(csv_rows, tmp_path):
    values = np.array(SPECIALS)
    index = np.array([3, 3, 0, 9, 1, 1, 1, 5, 2, 8, 0, 7, 4, 6, 6, 9, 2, 3])
    y = np.random.default_rng(7).normal(size=index.size)
    # the (text, index) columns of kernels.csv's x and xi, formatted once
    with open(tmp_path / "new.csv", "w", newline="") as fh:
        fh.write("x,y\r\n" + system.csv_block([(system.csv_text(values), index), y]))
    reference_profile_csv(tmp_path / "ref.csv", values[index], {"y": y})
    assert_same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")


def test_uncoupled_kernels_csv_bytes(csv_rows, varying_speeds, tmp_path):
    system = step_system(varying_speeds, 0.0)
    K = solve_kernels(system, Grid.uniform(12))
    i, j = np.tril_indices(13)
    for k in (K.k11, K.k12, K.k22):
        assert np.unique(k[i, j].view(np.uint64)).size == 1
    assert np.unique(K.k21[i, j]).size > 1
    write_kernels_csv(system, K.grid, tmp_path / "new.csv")
    reference_kernels_csv(K, tmp_path / "ref.csv")
    assert_same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")


class TestExportMemory:
    @pytest.mark.parametrize("b", [0.0, 0.8], ids=["b0", "b0.8"])
    def test_kernels_command_peak_at_n800(self, tmp_path, b):
        # the command streams its rows: with b = 0 it holds no (n+1)^2
        # array, about 3.2 MB at the peak, and with b != 0 k22 only, about
        # 11.0 MB (37.4 and 38.7 MB while it held the four kernels and
        # gathered their triangle); its estimate bounds both
        n = 800
        raw = json.loads((CONFIG_DIR / "varying_speeds.json").read_text())
        raw["grid_n"] = n
        raw["system"]["b"] = {"family": "constant", "value": b}
        path = tmp_path / "varying.json"
        path.write_text(json.dumps(raw))
        argv = ["kernels", str(path), "--out", str(tmp_path / "out")]
        assert run_cli(argv) == 0           # imports and caches filled before tracing
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert run_cli(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        cfg = load_config(path)
        block = max(kernels.BLOCK_POINTS, n + 1)       # points of one row block
        plan_block = 8 * 32 * block         # as solve_kernels_bytes charges it
        csv_block = 512 * block             # one block of trace paths
        if b == 0.0:
            assert peak <= 8e6
        else:
            assert peak <= 8 * (n + 1) ** 2 + 2 * plan_block + csv_block
        assert peak <= write_kernels_csv_bytes(cfg.system, n, b != 0.0)


def assert_same_solve(K, g, gains):
    assert g.tobytes() == K.g.tobytes()
    for name in ("nodes", "f1", "f2"):
        assert getattr(gains, name).tobytes() == getattr(K.gains, name).tobytes(), name


# each case keeps the id it had when the plans (first) and the trace paths
# (last) had block sizes of their own: plans of 7 points and paths of 1 point
# were blocks of one row, as a block of 1 point is now, and both defaults held
# every row, as the one default does
_BLOCK_IDS = {1: ("rows-7", "paths-1"), 60: ("rows-60", "points-60"),
              kernels.BLOCK_POINTS: ("rows-default", "points-default")}


@pytest.mark.parametrize("n, b, path_points", [
    pytest.param(n, b, points, id=f"{plans}-{n}-{b}-{paths}")
    for points, (plans, paths) in _BLOCK_IDS.items()
    for n in (4, 5, 16, 40) for b in (0.0, 0.8, "step")])
def test_streamed_kernels_bytes(varying_speeds, monkeypatch, tmp_path, n, b, path_points):
    # the row blocks streamed from the marches are the file of
    # solve_kernels' arrays, and g and the gains its own, as is
    # solve_trace's g (which concatenates the same blocks' trace edges),
    # whether each row block, which sets the march's plans, the trace paths
    # and the file's block together, holds one row (the writer one row
    # behind the trace march), a few, or all; b = 0 is uncoupled (k21's
    # trace entry known at once), a b that vanishes on (0, 0.5) only is not
    monkeypatch.setattr(kernels, "BLOCK_POINTS", path_points)
    b = CoefficientSpec.step(0.5, 0.0, 0.8) if b == "step" else b
    system = make_system(varying_speeds, a=0.3, b=b, c=CoefficientSpec.step(0.2, 0.0, 1.0),
                         d=-0.4)
    grid = Grid.uniform(n)
    K = solve_kernels(system, grid)
    g, gains = write_kernels_csv(system, grid, tmp_path / "new.csv")
    reference_kernels_csv(K, tmp_path / "ref.csv")
    assert_same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")
    assert_same_solve(K, g, gains)
    assert solve_trace(system, grid).tobytes() == K.g.tobytes()


# log-uniform magnitudes over nearly the whole float range
_MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
_SIGNED = st.tuples(st.sampled_from([-1.0, 1.0]), _MAGNITUDE).map(lambda t: t[0] * t[1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@example(lambda1=1e-20, lambda2=1e-150, b=-1e20, c=-1e-20, hi=1.0, a=0.0)
@example(lambda1=1.0, lambda2=1.0, b=1e300, c=1.0, hi=1.0, a=-709.0)
@example(lambda1=1e142, lambda2=1e229, b=1e-183, c=-1e-261, hi=1e278, a=-680.0)
@example(lambda1=1e34, lambda2=1e19, b=1e-83, c=-1e239, hi=-1e-133, a=153.0)
@example(lambda1=1e79, lambda2=1e96, b=1e184, c=-1e91, hi=-1e-23, a=-491.0)
@given(lambda1=_MAGNITUDE, lambda2=_MAGNITUDE, b=_SIGNED, c=_SIGNED, hi=_SIGNED,
       a=st.floats(-700.0, 700.0))
def test_streamed_kernels_raise_as_solve_kernels(tmp_path_factory, lambda1, lambda2, b, c,
                                                 hi, a):
    # near the float limits the stream raises the DomainError that
    # solve_kernels raises first, though its rows meet the failing checks
    # in another order (row by row, not kernel by kernel), or writes the
    # same file.  The examples overflow k12 and f2 only past the march; the
    # trace march before the gains march; a k21 row before the gains march;
    # and a k21 row before the trace march (which the parent reports)
    try:
        speeds = SpeedPair.build(const(-lambda1), const(lambda2))
    except InvalidSpeedsError:
        return
    system = make_system(speeds, a=a, b=b, c=CoefficientSpec.step(0.3, c, hi))
    grid = Grid.uniform(16)
    path = tmp_path_factory.mktemp("stream") / "new.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "BLOCK_POINTS", 40)
        try:
            K, want = solve_kernels(system, grid), None
        except DomainError as exc:
            want = str(exc)
        try:
            got, gains = None, write_kernels_csv(system, grid, path)
        except DomainError as exc:
            got = str(exc)
    assert got == want
    if want is None:
        reference_kernels_csv(K, path.with_name("ref.csv"))
        assert_same_bytes(path, path.with_name("ref.csv"))
        assert_same_solve(K, *gains)


def test_cli_exports_bytes_uncoupled(csv_rows, tmp_path):
    # varying_speeds.json has b = 0: k11, k12, k22, f1 and f2 are constant
    path = str(CONFIG_DIR / "varying_speeds.json")
    cfg = load_config(path)
    out, ref = tmp_path / "out", tmp_path / "ref"
    assert run_cli(["kernels", path, "--out", str(out / "k")]) == 0
    K = solve_kernels(cfg.system, cfg.grid)
    law = K.gains
    os.makedirs(ref / "k")
    reference_kernels_csv(K, ref / "k" / "kernels.csv")
    reference_profile_csv(ref / "k" / "g.csv", K.grid.nodes, {"g": K.g})
    reference_profile_csv(ref / "k" / "gains.csv", law.nodes, {"f1": law.f1, "f2": law.f2})
    assert sorted(os.listdir(out / "k")) == sorted(os.listdir(ref / "k"))
    for name in os.listdir(ref / "k"):
        assert_same_bytes(out / "k" / name, ref / "k" / name)

    assert cfg.control is FEEDBACK
    full = simulate(cfg.system, solve_gains(cfg.system, cfg.grid), cfg.initial(cfg.grid),
                    cfg.horizon, cfg.grid, cfg.cfl)
    for snapshots in (20, 0):
        d = f"s{snapshots}"
        assert run_cli(["simulate", path, "--out", str(out / d),
                        "--snapshots", str(snapshots)]) == 0
        written = reference_sim_csv(full, str(ref / d), max_snapshots=snapshots)
        assert sorted(os.listdir(out / d)) == sorted(map(os.path.basename, written))
        for p in written:
            assert_same_bytes(out / d / os.path.basename(p), p)
