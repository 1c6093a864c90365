"""The records every layer shares, and the one CSV format.

The bottom of the package above coeffs, characteristics and errors: the
physical system (SystemSpec), the controls simulate takes (BoundaryReflection,
FeedbackLaw and Control), the solved kernels (KernelSet), and the writer of
every CSV file: csv_block for columns, and csv_triangle for the triangle
rows of kernels.csv, which share its number text, row end and
constant-column rule.  It imports no solver, so neither do the
minimal-time formula and the config loader, which need only these records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .coeffs import CoefficientSpec, Grid
from .characteristics import SpeedPair

BLOCK_POINTS = 8192     # points of a kernel row block (rows x n+1), rows of a write_csv block
_NUMBER = "%.12g"       # the CSV text of every number
_EOL = "\r\n"           # the end of every CSV row

__all__ = ["SystemSpec", "BoundaryReflection", "FeedbackLaw", "Control", "KernelSet",
           "csv_text", "csv_header", "csv_block", "csv_triangle", "write_csv",
           "export_profile_csv"]


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
    """Each value formatted once as a CSV number, an object array of strings."""
    return np.array([_NUMBER % v for v in np.asarray(values).tolist()], dtype=object)


def _number_field(first: float, varies: bool) -> str:
    """The template field of a numeric column: _NUMBER where it varies, else
    its one value as literal text, formatted once.  A column is constant
    where all its entries have the same bits, so -0.0 and 0.0 differ."""
    return _NUMBER if varies else (_NUMBER % first).replace("%", "%%")


def csv_block(columns) -> str:
    """The CSV rows of equal-length columns, formatted by one row template.

    Numbers are written as "%.12g", string columns verbatim (nothing is
    quoted), and every row ends in CRLF.  A constant numeric column is
    written into the template as literal text (_number_field).
    """
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0])
    if not rows:
        return ""
    fields, parts = [], []
    for c in columns:
        if c.dtype.kind in "USO":
            fields.append("%s")
        else:
            c = c.astype(np.float64, copy=False)
            bits = c.view(np.uint64)
            varies = (bits != bits[0]).any()
            fields.append(_number_field(c[0], varies))
            if not varies:
                continue
        parts.append(c)
    cells = [None] * (rows * len(parts))
    for j, c in enumerate(parts):
        cells[j::len(parts)] = c.tolist()
    return ((",".join(fields) + _EOL) * rows) % tuple(cells)


def csv_triangle(text: list, rows: range, columns) -> str:
    """The CSV rows (x_i, x_j, columns...) of the triangle points (i, j),
    j <= i, of rows i in rows, row by row: byte for byte the csv_block of
    the x_i and x_j text columns and each column at those points.

    text holds the nodes' csv_text as a list.  Each column is an array of
    len(rows) x (n+1) floats whose row k holds row rows.start + k; only its
    entries j <= i are read.  Row i has a template of its own: x_i's text,
    and each column that is constant on the block's points (_number_field),
    as literal text.  Its cells are x_j's text and row i of each varying
    column, sliced to j <= i.
    """
    above = np.arange(columns[0].shape[1]) > np.arange(rows.start, rows.stop)[:, None]
    fields, parts = [], []
    for c in columns:
        bits = c.view(np.uint64)
        varies = ((bits != bits[0, 0]) & ~above).any()
        fields.append(_number_field(c[0, 0], varies))
        if varies:
            parts.append(c)
    tail = ",%s," + ",".join(fields) + _EOL      # x_j's text, then the columns
    m = 1 + len(parts)
    lines = []
    for k, i in enumerate(rows):
        cells = [None] * (m * (i + 1))
        cells[::m] = text[:i + 1]
        for j, c in enumerate(parts, 1):
            cells[j::m] = c[k, :i + 1].tolist()
        lines.append((text[i].replace("%", "%%") + tail) * (i + 1) % tuple(cells))
    return "".join(lines)


def csv_header(names) -> str:
    """The header row of a CSV file: the column names, ending as every row does."""
    return ",".join(names) + _EOL


def write_csv(path, header, columns) -> None:
    """Write equal-length columns under a header row, the one CSV format
    (csv_block), in blocks of BLOCK_POINTS rows, so that a large file's
    text is never held at once."""
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0])
    with open(path, "w", newline="") as fh:
        fh.write(csv_header(header))
        for lo in range(0, rows, BLOCK_POINTS):
            fh.write(csv_block([c[lo:lo + BLOCK_POINTS] for c in columns]))


def export_profile_csv(path, nodes: np.ndarray, columns: dict) -> None:
    """Write one or more sampled profiles as (x, value...) CSV columns."""
    write_csv(path, ["x", *columns], [nodes, *columns.values()])
