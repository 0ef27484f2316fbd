"""Data ingestion, column standardization, and PCA reduction."""
from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .models import DataMatrix, as_matrix


def load_csv(source, has_header: bool = False) -> DataMatrix:
    """Parse a rectangular numeric CSV file into a DataMatrix.

    source is a path, or a text file opened with newline="", read once.
    Each record is converted into one flat array of doubles as it is read;
    a row that does not convert, or whose sum is not finite, is checked
    cell by cell.  The first ragged row, non-numeric or non-finite cell, or
    record the csv module cannot read is a ValueError that names it.
    """
    if not hasattr(source, "read"):
        with open(source, newline="") as fh:
            return load_csv(fh, has_header)
    names = width = None
    values = array("d")
    lineno = 0
    try:
        for lineno, rec in enumerate(csv.reader(source), start=1):
            if len(rec) <= 1 and not (rec and rec[0].strip()):
                continue
            if width is None:
                width = len(rec)
                if has_header:
                    names = tuple(s.strip() for s in rec)
                    continue
            if len(rec) != width:
                raise ValueError(f"ragged row {lineno}: expected {width} "
                                 f"fields, got {len(rec)}")
            try:
                row = list(map(float, rec))
                if not math.isfinite(sum(row)):
                    raise ValueError
            except ValueError:
                row = list(_checked_cells(lineno, rec))
            values.extend(row)
    except csv.Error as exc:
        raise ValueError(f"unreadable row {lineno + 1}: {exc}") from None
    if not values:
        raise ValueError("no data rows in file")
    return DataMatrix(np.frombuffer(values).reshape(-1, width), names)


def _checked_cells(lineno: int, rec: list[str]):
    """The values of record lineno; its first non-numeric or non-finite cell
    raises a ValueError that names it."""
    for colno, cell in enumerate(rec, start=1):
        try:
            v = float(cell)
        except ValueError:
            raise ValueError(f"non-numeric cell at row {lineno}, "
                             f"column {colno}: {cell!r}") from None
        if not math.isfinite(v):
            raise ValueError(f"non-finite cell at row {lineno}, "
                             f"column {colno}: {cell!r}")
        yield v


def save_csv(path, rows, header=None) -> None:
    """Write rows as CSV with "\\n" line endings, after an optional header
    row.  A DataMatrix or array is taken as floats, a 1-D array as one
    column; any other rows are written cell by cell.

    A float is written as its repr, so it reads back to the same bits; None
    is an empty cell, and any other cell (an int) is written by str.
    """
    if isinstance(rows, (DataMatrix, np.ndarray)):
        rows = as_matrix(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header:
            writer.writerow(list(header))
        writer.writerows(
            ["" if v is None else repr(float(v)) if isinstance(v, float)
             else str(v) for v in row] for row in rows)


def standardize(X, center: bool = True, scale: bool = True) -> DataMatrix:
    """Shift columns to mean 0 and/or rescale to unit sample variance.

    Each column is first divided by 2^(e - 1), e the frexp exponent of its
    largest magnitude, so that no mean or standard deviation overflows,
    even at 1e308; 2^e itself would overflow there.  Scaling by a power of
    two is exact, so the output bits do not change unless a value falls
    below the normal range; a column that is not scaled to unit variance
    is multiplied back, and a centred value too large to be multiplied
    back is a ValueError, raised before any value overflows.
    """
    names = X.feature_names if isinstance(X, DataMatrix) else None
    V = as_matrix(X).copy()
    shift = np.frexp(np.abs(V).max(axis=0))[1] - 1
    unit = np.ldexp(1.0, shift)
    V /= unit
    if center:
        V -= V.mean(axis=0)
    if scale:
        if len(V) < 2:
            raise ValueError(f"scaling needs at least 2 rows, got {len(V)}")
        sd = V.std(axis=0, ddof=1)
        bad = np.nonzero(sd == 0)[0]
        if bad.size:
            label = names[bad[0]] if names else str(bad[0])
            raise ValueError(f"cannot scale constant column {label}")
        V /= sd
    else:
        # V * unit is exact unless its frexp exponent passes 1024, that of
        # the largest double
        bad = np.nonzero(np.frexp(np.abs(V).max(axis=0))[1] + shift > 1024)[0]
        if bad.size:
            label = names[bad[0]] if names else str(bad[0])
            raise ValueError(f"centred column {label} exceeds the largest "
                             f"double; rescale it too (--scale)")
        V *= unit
    return DataMatrix(V, names)


@dataclass(frozen=True)
class PcaResult:
    """Principal component scores and the quantities behind a scree plot."""

    scores: DataMatrix
    stdev_per_component: np.ndarray
    loadings: np.ndarray


def pca(X, q: int) -> PcaResult:
    """Project centered data onto its top q principal axes via SVD.

    Sign convention: within each component the largest-magnitude loading
    entry is made positive, so outputs are deterministic across platforms.
    """
    V = as_matrix(X)
    n, p = V.shape
    if n < 2:
        raise ValueError(f"PCA needs at least 2 rows, got {n}")
    if not 1 <= q <= min(n - 1, p):
        raise ValueError(f"q must be in [1, {min(n - 1, p)}], got {q}")
    C = V - V.mean(axis=0)
    U, s, Vt = np.linalg.svd(C, full_matrices=False)
    load = Vt.T
    for j in range(load.shape[1]):
        i = np.argmax(np.abs(load[:, j]))
        if load[i, j] < 0:
            load[:, j] = -load[:, j]
    stdev = s / np.sqrt(n - 1)
    scores = C @ load[:, :q]
    return PcaResult(DataMatrix(scores), stdev, load[:, :q].copy())
