"""Data ingestion, column standardization, and PCA reduction."""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .models import DataMatrix, as_matrix


def load_csv(path, has_header: bool = False) -> DataMatrix:
    """Parse a rectangular numeric CSV file into a DataMatrix.

    Ragged rows and non-numeric cells are reported with their position.
    """
    rows: list[list[float]] = []
    names: tuple[str, ...] | None = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        width = None
        for lineno, rec in enumerate(reader, start=1):
            if not rec or (len(rec) == 1 and rec[0].strip() == ""):
                continue
            if has_header and names is None and not rows:
                names = tuple(s.strip() for s in rec)
                width = len(names)
                continue
            if width is None:
                width = len(rec)
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
    if not rows:
        raise ValueError("no data rows in file")
    return DataMatrix(np.asarray(rows, dtype=float), names)


def save_csv(path, X, feature_names=None) -> None:
    X = as_matrix(X)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if feature_names:
            writer.writerow(list(feature_names))
        for row in X:
            writer.writerow([repr(float(v)) for v in row])


def standardize(X, center: bool = True, scale: bool = True) -> DataMatrix:
    """Shift columns to mean 0 and/or rescale to unit sample variance."""
    names = X.feature_names if isinstance(X, DataMatrix) else None
    V = as_matrix(X).copy()
    if center:
        V -= V.mean(axis=0)
    if scale:
        sd = V.std(axis=0, ddof=1)
        bad = np.nonzero(sd == 0)[0]
        if bad.size:
            label = names[bad[0]] if names else str(bad[0])
            raise ValueError(f"cannot scale constant column {label}")
        V /= sd
    return DataMatrix(V, names)


@dataclass(frozen=True)
class PcaResult:
    """Principal component scores and the quantities behind a scree plot."""

    scores: DataMatrix
    singular_values: np.ndarray
    stdev_per_component: np.ndarray
    loadings: np.ndarray

    def to_dict(self) -> dict:
        return {
            "scores": self.scores.to_dict(),
            "singular_values": self.singular_values.tolist(),
            "stdev_per_component": self.stdev_per_component.tolist(),
            "loadings": self.loadings.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PcaResult":
        return cls(DataMatrix.from_dict(d["scores"]),
                   np.asarray(d["singular_values"], dtype=float),
                   np.asarray(d["stdev_per_component"], dtype=float),
                   np.asarray(d["loadings"], dtype=float))


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
