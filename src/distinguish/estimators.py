"""Clustering estimators: k-means, Ward agglomeration, Gaussian mixture EM
with BIC model-size selection, and conversion of hard partitions to
Gaussian mixtures.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.special import logsumexp

from .models import (MixtureModel, Partition, as_matrix, gaussian_log_density,
                     mixture)
from .rng import derive_seed, stream


class DegenerateFitError(RuntimeError):
    """Raised when every EM initialization collapses numerically."""


def default_regularization(X) -> float:
    """Scale-aware covariance floor: 1e-6 times the mean feature variance."""
    V = as_matrix(X)
    if V.shape[0] < 2:
        return 1e-6
    return 1e-6 * float(V.var(axis=0, ddof=1).mean())


def _unit_sum(w: np.ndarray) -> None:
    """Nudge the largest weight, in place, until the weights sum to 1.0
    exactly in floating point (at most 10 passes)."""
    for _ in range(10):
        resid = 1.0 - np.sum(w)
        if resid == 0.0:
            break
        w[np.argmax(w)] += resid


def newick(n_leaves: int, merges) -> str:
    """Newick text of a binary merge tree, branch lengths from heights.

    Leaves are 0..n_leaves-1 and the i-th (left, right, height) merge
    creates node n_leaves + i.
    """
    height = [0.0] * n_leaves
    text = [str(i) for i in range(n_leaves)]
    for a, b, h in merges:
        a, b = int(a), int(b)
        text.append(f"({text[a]}:{h - height[a]:.10g},"
                    f"{text[b]}:{h - height[b]:.10g})")
        height.append(h)
    return text[-1] + ";"


def sq_dists(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances between the rows of X and C."""
    return ((X[:, None, :] - C[None]) ** 2).sum(axis=-1)


# ---------------------------------------------------------------- k-means

@dataclass(frozen=True)
class KmeansFit:
    partition: Partition
    centroids: np.ndarray
    distortion: float
    restarts_used: int
    # distortion after each Lloyd iteration of the winning restart
    distortion_path: tuple = ()

    def to_dict(self) -> dict:
        return {
            "partition": self.partition.to_dict(),
            "centroids": self.centroids.tolist(),
            "distortion": self.distortion,
            "restarts_used": self.restarts_used,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "KmeansFit":
        return cls(Partition.from_dict(d["partition"]),
                   np.asarray(d["centroids"], dtype=float),
                   float(d["distortion"]), int(d["restarts_used"]))


def _kmeanspp_centers(X: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((K, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = sq_dists(X, centers[:1])[:, 0]
    for j in range(1, K):
        total = d2.sum()
        if total <= 0:
            centers[j] = X[rng.integers(n)]
        else:
            centers[j] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, sq_dists(X, centers[j:j + 1])[:, 0])
    return centers


def _lloyd(X: np.ndarray, centers: np.ndarray, max_iter: int):
    n, K = X.shape[0], centers.shape[0]
    labels = None
    path = []
    for _ in range(max_iter):
        d2 = sq_dists(X, centers)
        new_labels = d2.argmin(axis=1)
        for j in range(K):
            mask = new_labels == j
            if mask.any():
                centers[j] = X[mask].mean(axis=0)
            else:
                # repair: hand the point farthest from its centroid to the
                # empty cluster so K never shrinks
                far = d2[np.arange(n), new_labels].argmax()
                new_labels[far] = j
                centers[j] = X[far]
                for jj in range(K):
                    m2 = new_labels == jj
                    if m2.any():
                        centers[jj] = X[m2].mean(axis=0)
        path.append(float(((X - centers[new_labels]) ** 2).sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    for j in range(K):
        centers[j] = X[labels == j].mean(axis=0)
    distortion = float(((X - centers[labels]) ** 2).sum())
    return labels, centers, distortion, tuple(path)


def fit_kmeans(X, K: int, restarts: int = 10, seed: int | None = None,
               max_iter: int = 300) -> KmeansFit:
    """Best-of-restarts Lloyd iteration from kmeans++ starting centers."""
    V = as_matrix(X)
    n = V.shape[0]
    if not 1 <= K <= n:
        raise ValueError(f"need 1 <= K <= n={n}, got K={K}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    best = None
    for r in range(restarts):
        rng = stream(seed, "kmeans-restart", r)
        centers = _kmeanspp_centers(V, K, rng)
        labels, centers, distortion, path = _lloyd(V, centers.copy(), max_iter)
        if best is None or distortion < best[0]:
            best = (distortion, labels, centers, path)
    distortion, labels, centers, path = best
    # relabel clusters by order of first appearance so output is canonical
    order = {}
    for lab in labels:
        if lab not in order:
            order[lab] = len(order)
    relabeled = np.array([order[lab] for lab in labels])
    centroids = np.vstack([centers[old] for old in
                           sorted(order, key=order.get)])
    return KmeansFit(Partition(relabeled, K), centroids, distortion, restarts,
                     path)


# ------------------------------------------------- hierarchical clustering

@dataclass(frozen=True)
class HclustTree:
    """Agglomerative Ward merge list.

    Node ids follow the usual convention: 0..n-1 are leaves, and the i-th
    merge creates node n+i.  Heights are Ward costs on squared Euclidean
    distances, non-decreasing along the merge sequence.
    """

    n: int
    merges: np.ndarray  # (n-1, 3): left id, right id, height

    def to_dict(self) -> dict:
        return {"n": self.n, "merges": self.merges.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "HclustTree":
        return cls(int(d["n"]), np.asarray(d["merges"], dtype=float))

    def to_newick(self) -> str:
        """Newick text with branch lengths from merge heights."""
        return newick(self.n, self.merges)


def fit_hclust(X) -> HclustTree:
    """Ward-linkage agglomeration on squared Euclidean distances."""
    V = as_matrix(X)
    if V.shape[0] < 2:
        raise ValueError("hierarchical clustering needs n >= 2")
    Z = linkage(V, method="ward")
    merges = np.column_stack([Z[:, 0], Z[:, 1], Z[:, 2] ** 2])
    return HclustTree(V.shape[0], merges)


def cut_tree(tree: HclustTree, K: int) -> Partition:
    """Partition induced by removing the last K-1 merges."""
    n = tree.n
    if not 1 <= K <= n:
        raise ValueError(f"need 1 <= K <= n={n}, got K={K}")
    parent = list(range(n + len(tree.merges)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n - K):
        a, b, _ = tree.merges[i]
        node = n + i
        parent[find(int(a))] = node
        parent[find(int(b))] = node
    labels = np.empty(n, dtype=int)
    seen: dict[int, int] = {}
    for i in range(n):
        root = find(i)
        if root not in seen:
            seen[root] = len(seen)
        labels[i] = seen[root]
    return Partition(labels, K)


# ------------------------------------------------ partitions to mixtures

def partition_to_gaussians(X, part: Partition, reg: float | None = None
                           ) -> MixtureModel:
    """Fit one Gaussian per cluster of a hard partition.

    Weights are the cluster frequencies n_k/n, adjusted so they sum to 1.0
    exactly in floating point; covariances are maximum-likelihood (divide
    by n_k) plus reg times the identity.
    """
    V = as_matrix(X)
    n, p = V.shape
    lab = part.labels
    if lab.size != n:
        raise ValueError("partition length != number of rows")
    if reg is None:
        reg = default_regularization(V)
    w = np.array([(lab == k).sum() / n for k in range(part.K)])
    _unit_sum(w)
    means, covs = [], []
    for k in range(part.K):
        S = V[lab == k]
        mu = S.mean(axis=0)
        d = S - mu
        C = d.T @ d / S.shape[0] + reg * np.eye(p)
        means.append(mu)
        covs.append((C + C.T) / 2.0)
    return mixture(w, means, covs)


# ------------------------------------------------------------ mixture EM

@dataclass(frozen=True)
class EmFit:
    model: MixtureModel
    loglik: float
    bic: float
    iterations: int
    converged: bool
    # observed-data loglik after each EM iteration of the winning start
    loglik_path: tuple = ()

    def to_dict(self) -> dict:
        return {"model": self.model.to_dict(), "loglik": self.loglik,
                "bic": self.bic, "iterations": self.iterations,
                "converged": self.converged}

    @classmethod
    def from_dict(cls, d: dict) -> "EmFit":
        return cls(MixtureModel.from_dict(d["model"]), float(d["loglik"]),
                   float(d["bic"]), int(d["iterations"]), bool(d["converged"]))


def free_parameters(kappa: int, p: int) -> int:
    """Weights, means, and symmetric covariances of a full-covariance fit."""
    return (kappa - 1) + kappa * p + kappa * p * (p + 1) // 2


def _seed_responsibilities(X: np.ndarray, kappa: int,
                           rng: np.random.Generator, soft: bool) -> np.ndarray:
    n, p = X.shape
    centers = _kmeanspp_centers(X, kappa, rng)
    d2 = sq_dists(X, centers)
    if soft:
        nearest = np.take_along_axis(d2, d2.argmin(axis=1)[:, None], axis=1)
        h2 = max(float(nearest.mean()) / p, 1e-12)
        a = -0.5 * d2 / h2
        resp = np.exp(a - a.max(axis=1, keepdims=True))
    else:
        resp = np.zeros((n, kappa))
        resp[np.arange(n), d2.argmin(axis=1)] = 1.0
        resp += 1e-10
    return resp / resp.sum(axis=1, keepdims=True)


def _em_single(X: np.ndarray, resp: np.ndarray, reg: float,
               tol: float, max_iter: int):
    n, p = X.shape
    kappa = resp.shape[1]
    ll_prev = -np.inf
    converged = False
    it = 0
    path = []
    for it in range(1, max_iter + 1):
        nk = resp.sum(axis=0)
        if nk.min() / n < 1e-8:
            return None
        w = nk / n
        mu = (resp.T @ X) / nk[:, None]
        covs = []
        logd = np.empty((n, kappa))
        for j in range(kappa):
            d = X - mu[j]
            C = (resp[:, j, None] * d).T @ d / nk[j] + reg * np.eye(p)
            C = (C + C.T) / 2.0
            try:
                L = np.linalg.cholesky(C)
            except np.linalg.LinAlgError:
                return None
            if np.linalg.cond(C) > 1e12:
                return None
            covs.append(C)
            logd[:, j] = gaussian_log_density(X, mu[j], L)
        a = np.log(w) + logd
        lz = logsumexp(a, axis=1)
        ll = float(lz.sum())
        path.append(ll)
        resp = np.exp(a - lz[:, None])
        if it > 1 and ll - ll_prev < tol * abs(ll):
            converged = True
            break
        ll_prev = ll
    _unit_sum(w)
    return ll, w, mu, covs, it, converged, tuple(path)


def fit_gmm_em(X, kappa: int, tol: float = 1e-8, max_iter: int = 500,
               n_init: int = 5, seed: int | None = None,
               reg: float | None = None) -> EmFit:
    """Full-covariance mixture fit, best of n_init runs by final loglik.

    Responsibilities are seeded from kmeans++ centers, alternating a soft
    (distance-kernel) and a hard assignment across initializations.  An
    initialization that collapses (component weight under 1e-8 or covariance
    condition number over 1e12) is discarded; if all collapse the fit is
    reported as degenerate.
    """
    V = as_matrix(X)
    n, p = V.shape
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if n <= kappa:
        raise ValueError(f"need n > kappa, got n={n}, kappa={kappa}")
    if reg is None:
        reg = default_regularization(V)
    best = None
    for i in range(n_init):
        rng = stream(seed, "em-init", i)
        resp = _seed_responsibilities(V, kappa, rng, soft=(i % 2 == 0))
        result = _em_single(V, resp, reg, tol, max_iter)
        if result is None:
            continue
        if best is None or result[0] > best[0]:
            best = result
    if best is None:
        raise DegenerateFitError("degenerate fit")
    ll, w, mu, covs, iterations, converged, path = best
    model = mixture(w, mu, covs)
    bic = 2.0 * ll - free_parameters(kappa, p) * np.log(n)
    return EmFit(model, ll, float(bic), iterations, converged, path)


def select_gmm_bic(X, kappa_range, tol: float = 1e-8, max_iter: int = 500,
                   n_init: int = 5, seed: int | None = None,
                   reg: float | None = None) -> EmFit:
    """Fit over a range of component counts and keep the BIC maximizer.

    Ties break toward the smaller count; counts whose fits all collapse are
    skipped with a warning.
    """
    kappas = sorted(set(int(k) for k in kappa_range))
    if not kappas:
        raise ValueError("kappa_range is empty")
    best: EmFit | None = None
    for kappa in kappas:
        try:
            fit = fit_gmm_em(X, kappa, tol=tol, max_iter=max_iter,
                             n_init=n_init,
                             seed=derive_seed(seed, "bic-scan", kappa),
                             reg=reg)
        except (DegenerateFitError, ValueError) as exc:
            warnings.warn(f"skipping kappa={kappa}: {exc}", stacklevel=2)
            continue
        if best is None or fit.bic > best.bic:
            best = fit
    if best is None:
        raise DegenerateFitError("degenerate fit")
    return best
