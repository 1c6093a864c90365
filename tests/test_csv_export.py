"""Byte identity of the CSV exports against per-cell csv.writer references.

The reference writers below are the original per-row implementations of
export_kernels_csv, export_profile_csv and export_sim_csv (which picked the
snapshots from a full history, as simulate now does); the blocked writer
must reproduce their files byte for byte, including CRLF line ends and the
text of -0.0, nan, +-inf, subnormals and large integers under "%.12g".
"""

import csv
import os

import numpy as np
import pytest

from hypmin import Grid, kernels, simulate
from hypmin.kernels import export_kernels_csv, export_profile_csv
from hypmin.simulator import export_sim_csv

from conftest import make_system, random_kernel_set

SPECIALS = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
            123456789012345.0, 0.1, -1.0 / 3.0, 1e300, 0.0]


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


@pytest.fixture(params=[7, kernels._CSV_ROWS], ids=["rows-7", "rows-default"])
def csv_rows(request, monkeypatch):
    """Block size of the writer: 7 splits every file into several blocks."""
    monkeypatch.setattr(kernels, "_CSV_ROWS", request.param)
    return request.param


def test_kernels_csv_bytes(csv_rows, tmp_path):
    K = random_kernel_set(Grid.uniform(10), np.random.default_rng(3))
    K.k21[4, :len(SPECIALS[:5])] = SPECIALS[:5]
    export_kernels_csv(K, tmp_path / "new.csv")
    reference_kernels_csv(K, tmp_path / "ref.csv")
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
        with open(p, "rb") as a, open(q, "rb") as b:
            assert a.read() == b.read(), os.path.basename(p)
