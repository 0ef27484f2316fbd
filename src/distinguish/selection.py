"""Choosing the number of clusters: gap statistic, risk-constrained
selection, and the validity indices used for comparison (silhouette,
adjusted Rand, split stability, prediction strength).

The k-means fits of one K that share a shape run as one stack of restarts
(estimators.fit_kmeans_many): all gap reference datasets, and each side of
the half-splits across all repetitions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import (cut_tree, fit_hclust, fit_kmeans, fit_kmeans_many,
                         partition_to_gaussians, sq_dists)
from .models import BLOCK_ELEMENTS, Partition, as_matrix
from .pmc import PmcSettings, pmc_mc
from .rng import derive_seed, stream

CLUSTERERS = ("kmeans", "hclust")


def _cluster(X: np.ndarray, K: int, method: str,
             seed: int | None) -> Partition:
    if method == "kmeans":
        return fit_kmeans(X, K, seed=seed).partition
    if method == "hclust":
        return cut_tree(fit_hclust(X), K)
    raise ValueError(f"clusterer must be one of {CLUSTERERS}")


def _cluster_many(Xs, K: int, method: str, seeds) -> list[Partition]:
    """_cluster on each dataset of a (D, n, p) stack, seeds[d] for the d-th."""
    if method == "kmeans":
        return [fit.partition for fit in fit_kmeans_many(Xs, K, seeds)]
    return [_cluster(X, K, method, None) for X in Xs]


def _within_dispersion(X: np.ndarray, part: Partition) -> float:
    """Pooled within-cluster sum of squared distances to cluster means."""
    total = 0.0
    for k in range(part.K):
        S = X[part.labels == k]
        total += float(((S - S.mean(axis=0)) ** 2).sum())
    return total


def gap_statistic(X, clusterer: str = "kmeans",
                  k_range=range(1, 9), B: int = 50,
                  seed: int | None = None
                  ) -> dict[int, tuple[float | None, float | None]]:
    """Gap and its standard error per K.

    gap(K) compares log within-cluster dispersion of the data against the
    mean over B reference datasets drawn uniformly over the feature-wise
    bounding box; the standard error carries the sqrt(1 + 1/B) factor.
    A K whose clusters have no within-cluster dispersion (K reaches the
    number of distinct rows) has no log dispersion: its gap and standard
    error are None, and its reference datasets are not fitted.
    """
    V = as_matrix(X)
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValueError("k_range is empty")
    if B < 10:
        raise ValueError("B must be >= 10")
    lo, hi = V.min(axis=0), V.max(axis=0)
    refs = np.empty((B,) + V.shape)
    for b in range(B):
        refs[b] = lo + stream(seed, "gap-ref", b).random(V.shape) * (hi - lo)
    out: dict[int, tuple[float, float]] = {}
    for K in ks:
        part = _cluster(V, K, clusterer, derive_seed(seed, "gap-obs", K))
        within = _within_dispersion(V, part)
        if within == 0.0:
            out[K] = (None, None)
            continue
        log_w = np.log(within)
        ref_parts = _cluster_many(
            refs, K, clusterer,
            [derive_seed(seed, "gap-fit", (b << 12) | K) for b in range(B)])
        ref_log = np.array([np.log(_within_dispersion(R, rp))
                            for R, rp in zip(refs, ref_parts)])
        gap = float(ref_log.mean() - log_w)
        sd = float(ref_log.std(ddof=0) * np.sqrt(1.0 + 1.0 / B))
        out[K] = (gap, sd)
    return out


def _defined(table: dict[int, tuple[float | None, float | None]]
             ) -> list[int]:
    """The K of a gap table whose gap is defined, in increasing order."""
    ks = [k for k in sorted(table) if table[k][0] is not None]
    if not ks:
        raise ValueError("the gap statistic is undefined for every K: the "
                         "data have no within-cluster dispersion at any")
    return ks


def argmax_gap(table: dict[int, tuple[float | None, float | None]]) -> int:
    """K with the largest defined gap; ties break toward the smaller K."""
    return max(_defined(table), key=lambda k: table[k][0])


@dataclass(frozen=True)
class SelectionResult:
    K: int
    infeasible: bool

    def to_dict(self) -> dict:
        return {"K": self.K, "infeasible": self.infeasible}


def select_k_constrained(scores: dict[int, float], pmc: dict[int, float],
                         tau: float) -> SelectionResult:
    """Minimize the loss subject to the risk staying at or below tau.

    `scores` is a smaller-is-better loss per K (use negative gap or
    negative BIC).  When no K satisfies the constraint the result carries
    the risk-minimizing K flagged infeasible.
    """
    if set(scores) != set(pmc):
        raise ValueError("scores and pmc must cover the same K values")
    ks = sorted(scores)
    feasible = [k for k in ks if pmc[k] <= tau]
    if feasible:
        return SelectionResult(min(feasible, key=lambda k: (scores[k], k)),
                               False)
    return SelectionResult(min(ks, key=lambda k: (pmc[k], k)), True)


def silhouette(X, part: Partition) -> float:
    """Mean silhouette width with Euclidean distances; singletons score 0."""
    V = as_matrix(X)
    if part.K < 2:
        raise ValueError("silhouette requires K >= 2")
    n = V.shape[0]
    lab = part.labels
    sizes = np.bincount(lab, minlength=part.K)
    # distance sums to each cluster, in row blocks whose (rows, n, p)
    # difference array holds at most BLOCK_ELEMENTS elements
    cluster_sums = np.empty((n, part.K))
    step = max(1, BLOCK_ELEMENTS // V.size)
    for lo in range(0, n, step):
        D = np.sqrt(sq_dists(V[lo:lo + step], V))
        for k in range(part.K):
            cluster_sums[lo:lo + step, k] = D[:, lab == k].sum(axis=1)
    rows = np.arange(n)
    own = sizes[lab]
    a = cluster_sums[rows, lab] / np.maximum(own - 1, 1)
    mean_to = cluster_sums / sizes
    mean_to[rows, lab] = np.inf
    b = mean_to.min(axis=1)
    denom = np.maximum(a, b)
    s = np.divide(b - a, denom, out=np.zeros(n),  # singletons score 0
                  where=(own > 1) & (denom != 0))
    return float(s.mean())


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected pair-counting agreement between two partitions."""
    la = a.labels if isinstance(a, Partition) else np.asarray(a, dtype=int)
    lb = b.labels if isinstance(b, Partition) else np.asarray(b, dtype=int)
    if la.size != lb.size:
        raise ValueError("partitions must have equal length")
    n = la.size
    _, ia = np.unique(la, return_inverse=True)
    _, ib = np.unique(lb, return_inverse=True)
    table = np.zeros((ia.max() + 1, ib.max() + 1))
    np.add.at(table, (ia, ib), 1.0)

    def comb2(x):
        return (x * (x - 1.0) / 2.0).sum()

    sum_cells = comb2(table)
    sum_rows = comb2(table.sum(axis=1))
    sum_cols = comb2(table.sum(axis=0))
    total = n * (n - 1.0) / 2.0
    expected = sum_rows * sum_cols / total if total > 0 else 0.0
    max_index = (sum_rows + sum_cols) / 2.0
    denom = max_index - expected
    if denom == 0:
        return 1.0
    return float((sum_cells - expected) / denom)


def _centroids(X: np.ndarray, part: Partition) -> np.ndarray:
    return np.vstack([X[part.labels == k].mean(axis=0)
                      for k in range(part.K)])


def _nearest(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return sq_dists(X, centroids).argmin(axis=1)


def _split_fits(V: np.ndarray, K: int, clusterer: str, reps: int,
                seed: int | None, split: str, fit: str):
    """Per repetition, the two halves of a random split of the rows (from
    the `split` stream) and a partition of each half.

    Each side is clustered as one stack across all repetitions, since every
    first half has n // 2 rows; side s of repetition r is seeded with
    derive_seed(seed, fit, 2 * r + s).
    """
    n = V.shape[0]
    halves = [np.split(stream(seed, split, r).permutation(n), [n // 2])
              for r in range(reps)]
    sides = [_cluster_many(V[np.array([h[side] for h in halves])], K,
                           clusterer,
                           [derive_seed(seed, fit, 2 * r + side)
                            for r in range(reps)])
             for side in (0, 1)]
    return list(zip(halves, zip(*sides)))


def _kept_together(labels: np.ndarray) -> float:
    """Fraction of the ordered pairs of distinct entries whose labels are
    equal: exact integer counts, O(m) rather than an m x m comparison."""
    m = labels.size
    c = np.bincount(labels)
    return ((c * c).sum() - m) / (m * (m - 1))


def lange_stability(X, clusterer: str, K: int, reps: int = 20,
                    seed: int | None = None) -> float:
    """Agreement between direct and transferred clusterings of half-splits.

    Each repetition splits the rows in two, clusters both halves, extends
    each half's clustering to the other by nearest centroid, and scores the
    adjusted Rand agreement with the direct clustering of that half.
    """
    V = as_matrix(X)
    if K < 2:
        raise ValueError("stability requires K >= 2")
    if reps < 2:
        raise ValueError("reps must be >= 2")
    scores = []
    for halves, parts in _split_fits(V, K, clusterer, reps, seed,
                                     "stability-split", "stability-fit"):
        cents = [_centroids(V[idx], part) for idx, part in zip(halves, parts)]
        for src in (0, 1):
            dst = 1 - src
            induced = _nearest(V[halves[dst]], cents[src])
            scores.append(adjusted_rand_index(induced, parts[dst].labels))
    return float(np.mean(scores))


def prediction_strength(X, clusterer: str, K: int, reps: int = 20,
                        seed: int | None = None) -> float:
    """Worst-cluster co-membership agreement across half-splits.

    For each split, test points are clustered directly and also classified
    by nearest training centroid; each test cluster is scored by the
    fraction of its point pairs kept together by the classifier, and the
    minimum over clusters is averaged over repetitions.
    """
    V = as_matrix(X)
    if K < 2:
        raise ValueError("prediction strength requires K >= 2")
    if reps < 2:
        raise ValueError("reps must be >= 2")
    values = []
    for (train, test), (train_part, test_part) in _split_fits(
            V, K, clusterer, reps, seed, "ps-split", "ps-fit"):
        transfer = _nearest(V[test], _centroids(V[train], train_part))
        worst = 1.0
        scored = False
        for c in range(test_part.K):
            members = np.nonzero(test_part.labels == c)[0]
            if members.size < 2:
                continue
            scored = True
            worst = min(worst, _kept_together(transfer[members]))
        values.append(worst if scored else 1.0)
    return float(np.mean(values))


def selection_table(X, method: str = "kmeans", k_range=range(1, 9),
                    tau: float = 0.05, B: int = 50, reps: int = 20,
                    m_samples: int = 100000, seed: int | None = None) -> dict:
    """Per-K diagnostics table plus the risk-constrained selection.

    Rows carry gap, gap sd, risk of the fitted per-cluster Gaussians,
    silhouette, split stability, and prediction strength (the last three
    only for K >= 2).  Only a K with a defined gap can be selected.
    """
    V = as_matrix(X)
    ks = sorted(set(int(k) for k in k_range))
    gaps = gap_statistic(V, method, ks, B=B, seed=seed)
    defined = _defined(gaps)
    rows = []
    pmc_by_k: dict[int, float] = {}
    for K in ks:
        part = _cluster(V, K, method, derive_seed(seed, "table-fit", K))
        model = partition_to_gaussians(V, part)
        est = pmc_mc(model, None,
                     PmcSettings(m_samples=m_samples,
                                 seed=derive_seed(seed, "table-pmc", K)))
        pmc_by_k[K] = est.value
        row = {
            "K": K,
            "gap": gaps[K][0],
            "gap_sd": gaps[K][1],
            "pmc": est.value,
            "pmc_std_error": est.std_error,
            "silhouette": silhouette(V, part) if K >= 2 else None,
            "stability": lange_stability(
                V, method, K, reps=reps,
                seed=derive_seed(seed, "table-st", K)) if K >= 2 else None,
            "prediction_strength": prediction_strength(
                V, method, K, reps=reps,
                seed=derive_seed(seed, "table-ps", K)) if K >= 2 else None,
        }
        rows.append(row)
    scores = {K: -gaps[K][0] for K in defined}
    chosen = select_k_constrained(scores, {K: pmc_by_k[K] for K in scores},
                                  tau)
    return {"rows": rows, "tau": tau, "selected_K": chosen.K,
            "infeasible": chosen.infeasible}
