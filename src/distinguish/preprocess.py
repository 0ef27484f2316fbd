"""Data ingestion, column standardization, and PCA reduction."""
from __future__ import annotations

import csv
import io
from array import array
from dataclasses import dataclass

import numpy as np

from .models import DataMatrix, as_matrix


def _records(fh):
    """The (line number, cells) of each record of an open CSV file that is
    not blank."""
    return ((lineno, rec) for lineno, rec
            in enumerate(csv.reader(fh), start=1)
            if len(rec) > 1 or rec and rec[0].strip())


def load_csv(path, has_header: bool = False) -> DataMatrix:
    """Parse a rectangular numeric CSV file into a DataMatrix.

    Ragged rows and non-numeric cells are reported with their position.
    Each row is converted as it is read, into one flat array of doubles
    that is checked for finiteness once; on any problem the file is read
    again cell by cell (_parse_cells), to name the first bad row or cell;
    a pipe is read into memory first, so that it can be read again.
    """
    with open(path, newline="") as fh:
        if not fh.seekable():
            fh = io.StringIO(fh.read(), newline="")
        records = _records(fh)
        names: tuple[str, ...] | None = None
        if has_header:
            header = next(records, None)
            if header is not None:
                names = tuple(s.strip() for s in header[1])
        width = len(names) if names is not None else None
        values = array("d")
        try:
            for _, rec in records:
                width = width or len(rec)
                if len(rec) != width:
                    raise ValueError
                values.extend(map(float, rec))
        except ValueError:
            pass
        else:
            if not values:
                raise ValueError("no data rows in file")
            V = np.frombuffer(values)
            if np.isfinite(V).all():
                return DataMatrix(V.reshape(-1, width), names)
        fh.seek(0)
        records = _records(fh)
        if has_header:
            next(records)
        return DataMatrix(_parse_cells(records, width), names)


def _parse_cells(records, width: int) -> np.ndarray:
    """The values of the (line number, cells) records, checked cell by
    cell: the first ragged row, or non-numeric or non-finite cell, in file
    order raises a ValueError that names it."""
    rows = []
    for lineno, rec in records:
        if len(rec) != width:
            raise ValueError(f"ragged row {lineno}: expected {width} "
                             f"fields, got {len(rec)}")
        vals = []
        for colno, cell in enumerate(rec, start=1):
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(f"non-numeric cell at row {lineno}, "
                                 f"column {colno}: {cell!r}") from None
            if not np.isfinite(v):
                raise ValueError(f"non-finite cell at row {lineno}, "
                                 f"column {colno}: {cell!r}")
            vals.append(v)
        rows.append(vals)
    return np.asarray(rows, dtype=float)


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
    singular_values: np.ndarray
    stdev_per_component: np.ndarray
    loadings: np.ndarray


def pca(X, q: int) -> PcaResult:
    """Project centered data onto its top q principal axes via SVD.

    Sign convention: within each component the largest-magnitude loading
    entry is made positive, so outputs are deterministic across platforms.
    """
    V = as_matrix(X)
    n, p = V.shape
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
    return PcaResult(DataMatrix(scores), s.copy(), stdev, load[:, :q].copy())
