"""The records every layer shares, and the one CSV format.

The bottom of the package above coeffs, characteristics and errors: the
physical system (SystemSpec), the controls simulate takes (BoundaryReflection,
FeedbackLaw and Control), the solved kernels (KernelSet), and the writer of
every CSV file.  It imports no solver, so neither do the minimal-time formula
and the config loader, which need only these records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .coeffs import CoefficientSpec, Grid
from .characteristics import SpeedPair

BLOCK_POINTS = 8192     # points of a kernel row block (rows x n+1), rows of a write_csv block

__all__ = ["SystemSpec", "BoundaryReflection", "FeedbackLaw", "Control", "KernelSet",
           "csv_text", "csv_block", "write_csv", "export_profile_csv"]


@dataclass(frozen=True)
class SystemSpec:
    """Speeds, internal couplings, and the x=0 reflection coefficient q."""

    speeds: SpeedPair
    a: CoefficientSpec
    b: CoefficientSpec
    c: CoefficientSpec
    d: CoefficientSpec
    q: float = 0.0


@dataclass(frozen=True)
class BoundaryReflection:
    """Static output feedback at x=1: y1(t,1) = k * y2(t,1)."""

    k: float


@dataclass(frozen=True)
class FeedbackLaw:
    """Feedback gains: u(t) = int_0^1 (f1 y1(t,.) + f2 y2(t,.)), a trapezoid
    quadrature on nodes that simulate folds into one dot product per step."""

    nodes: np.ndarray = field(repr=False)
    f1: np.ndarray = field(repr=False)
    f2: np.ndarray = field(repr=False)


Control = Union[Callable[[float], float], FeedbackLaw, BoundaryReflection, None]


@dataclass(frozen=True)
class KernelSet:
    """Solved kernels sampled on the triangle (entries with xi > x are zero),
    and g(x) = -k21(x,0)*lambda1(0) and the feedback gains on its nodes."""

    grid: Grid
    k11: np.ndarray = field(repr=False)
    k12: np.ndarray = field(repr=False)
    k21: np.ndarray = field(repr=False)
    k22: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    gains: FeedbackLaw = field(repr=False)


def csv_text(values) -> np.ndarray:
    """Each value formatted once as "%.12g", an object array of strings."""
    return np.array(["%.12g" % v for v in np.asarray(values).tolist()], dtype=object)


def csv_block(columns) -> str:
    """The CSV rows of equal-length columns, formatted by one row template.

    Numbers are written as "%.12g", string columns verbatim (nothing is
    quoted), and every row ends in CRLF.  A column may be a pair (text,
    index) standing for text[index], with text from csv_text.  A numeric
    column whose entries all have the same bits (so -0.0 and 0.0 differ) is
    written into the template as literal text, formatted once.
    """
    fields, parts = [], []
    for c in columns:
        c = c[0][c[1]] if isinstance(c, tuple) else np.asarray(c)
        rows = len(c)
        if c.dtype.kind in "USO":
            fields.append("%s")
        else:
            c = c.astype(np.float64, copy=False)
            bits = c.view(np.uint64)
            if rows and (bits == bits[0]).all():
                fields.append(("%.12g" % c[0]).replace("%", "%%"))
                continue
            fields.append("%.12g")
        parts.append(c)
    cells = [None] * (rows * len(parts))
    for j, c in enumerate(parts):
        cells[j::len(parts)] = c.tolist()
    return ((",".join(fields) + "\r\n") * rows) % tuple(cells)


def write_csv(path, header, columns) -> None:
    """Write equal-length columns under a header row, the one CSV format
    (csv_block), in blocks of BLOCK_POINTS rows, so that a large file's
    text is never held at once."""
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, rows, BLOCK_POINTS):
            fh.write(csv_block([c[lo:lo + BLOCK_POINTS] for c in columns]))


def export_profile_csv(path, nodes: np.ndarray, columns: dict) -> None:
    """Write one or more sampled profiles as (x, value...) CSV columns."""
    write_csv(path, ["x", *columns], [nodes, *columns.values()])
