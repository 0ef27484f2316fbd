"""Clustering estimators: k-means, Ward agglomeration, Gaussian mixture EM
with BIC model-size selection, and conversion of hard partitions to
Gaussian mixtures.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.cluster.hierarchy import linkage

from .models import (BLOCK_ELEMENTS, MixtureModel, Partition, as_matrix,
                     gaussian_log_density, mixture)
from .rng import derive_seed, stream


class DegenerateFitError(RuntimeError):
    """Raised when every EM initialization collapses numerically."""


def default_regularization(X):
    """Scale-aware covariance floor: 1e-6 times the mean feature variance.

    For a (D, n, p) stack of datasets, an array of D floors, one each.
    """
    V = as_matrix(X)
    if V.shape[-2] < 2:
        floor = np.full(V.shape[:-2], 1e-6)
    else:
        floor = 1e-6 * V.var(axis=-2, ddof=1).mean(axis=-1)
    return float(floor) if V.ndim == 2 else floor


def _unit_sum(w: np.ndarray) -> None:
    """Nudge the largest weight, in place, until the weights sum to 1.0
    exactly in floating point (at most 10 passes); each row of a stack of
    weight vectors (..., K) separately."""
    for _ in range(10):
        resid = 1.0 - w.sum(axis=-1, keepdims=True)
        if not resid.any():
            break
        top = w.argmax(axis=-1)[..., None]
        np.put_along_axis(w, top, np.take_along_axis(w, top, -1) + resid, -1)


def sq_dists(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances between the rows of X and C."""
    return np.ascontiguousarray(_stack_sq_dists(X[None], C[None])[0].T)


def _stack_sq_dists(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(S, K, rows) squared distances between the rows of X (S, rows, p)
    and the centres C (S, K, p).

    One coordinate at a time keeps the long rows axis innermost.  The
    coordinates add up as ((x - c) ** 2).sum(axis=-1) adds them: left to
    right below 8 terms, pairwise by numpy's own sum from 8 on.
    """
    p = X.shape[-1]
    if p >= 8:
        return ((X[:, None] - C[:, :, None]) ** 2).sum(axis=-1)
    d2 = (X[:, None, :, 0] - C[:, :, 0, None]) ** 2
    for c in range(1, p):
        d2 += (X[:, None, :, c] - C[:, :, c, None]) ** 2
    return d2


# ---------------------------------------------------------------- k-means

@dataclass(frozen=True)
class KmeansFit:
    partition: Partition
    centroids: np.ndarray
    distortion: float
    restarts_used: int
    # distortion after each Lloyd iteration of the winning restart
    distortion_path: tuple = ()


def _kmeanspp_centers(X: np.ndarray, K: int, rngs) -> np.ndarray:
    """(S, K, p) kmeans++ centres for a stack of starts: start s draws from
    the rows of X[s] (n, p) with rngs[s].

    Each next centre is a row drawn with probability proportional to its
    squared distance to the nearest centre so far, or uniformly once every
    distance is 0.  The draw is rng.choice(n, p=d2 / total) written out: the
    first index whose normalised cumulative sum exceeds rng.random().
    """
    S, n, _ = X.shape
    own = np.arange(S)
    centers = np.empty((S, K, X.shape[2]))
    centers[:, 0] = X[own, [rng.integers(n) for rng in rngs]]
    d2 = _stack_sq_dists(X, centers[:, :1])[:, 0]
    for j in range(1, K):
        total = d2.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cdf = (d2 / total[:, None]).cumsum(axis=1)
            cdf /= cdf[:, -1:]
        u = np.array([rng.random() if t > 0 else np.nan
                      for rng, t in zip(rngs, total)])
        pick = (cdf <= u[:, None]).sum(axis=1)
        for i in np.flatnonzero(total <= 0):
            pick[i] = rngs[i].integers(n)
        centers[:, j] = X[own, pick]
        d2 = np.minimum(d2, _stack_sq_dists(X, centers[:, j:j + 1])[:, 0])
    return centers


def _segment_means(X: np.ndarray, labels: np.ndarray, K: int,
                   out: np.ndarray) -> np.ndarray:
    """Write each start's non-empty cluster means into out (S, K, p) and
    return the (S, K) cluster sizes; X is (S, n, p), labels (S, n).

    A weighted bincount adds each cluster's rows in row order, the order
    in which X[mask].mean(axis=0) adds them for p >= 2, so the means are
    the same to the bit.
    """
    S, n, p = X.shape
    bins = (labels + K * np.arange(S)[:, None]).ravel()
    counts = np.bincount(bins, minlength=S * K).reshape(S, K)
    full = counts > 0
    for c in range(p):
        sums = np.bincount(bins, weights=X[..., c].ravel(), minlength=S * K)
        out[..., c][full] = sums.reshape(S, K)[full] / counts[full]
    return counts


def _repair(X: np.ndarray, labels: np.ndarray, centers: np.ndarray,
            previous: np.ndarray) -> None:
    """Refill one start's empty clusters in place, in index order.

    Each empty cluster takes the point farthest from its centre as it was
    at the start of the iteration (previous), among the clusters of at
    least two rows, and every non-empty mean is recomputed after each
    hand-over.  No hand-over empties a cluster: while one is empty, n >= K
    rows leave some cluster with at least two.
    """
    K = centers.shape[0]
    counts = np.bincount(labels, minlength=K)
    for j in np.flatnonzero(counts == 0):
        d2 = ((X - previous[labels]) ** 2).sum(axis=-1)
        d2[counts[labels] < 2] = -np.inf
        far = d2.argmax()
        counts[labels[far]] -= 1
        counts[j] = 1
        labels[far] = j
        _segment_means(X[None], labels[None], K, centers[None])


def _lloyd(X: np.ndarray, centers: np.ndarray, max_iter: int):
    """Lloyd iterations for a stack of starts: start s runs on X[s] (n, p)
    from centers[s] (K, p), which is updated in place.

    Each iteration assigns the rows of every active start in one
    squared-difference pass, in row blocks of at most BLOCK_ELEMENTS
    differences, and updates all centroids with one set of segment sums.
    Only a start with an empty cluster is repaired, on its own.  A start
    leaves the batch once its labels equal those of the iteration before
    or of the one before that: a repair can hand a point back and forth,
    and centres follow from the labels, so such a start would cycle with
    period 2 until max_iter.  It keeps its current labels and centres.
    Returns the (S, n) labels and each start's distortion after every
    iteration it ran.
    """
    S, n, p = X.shape
    K = centers.shape[1]
    labels = np.empty((S, n), dtype=np.intp)
    paths = [[] for _ in range(S)]
    act = np.arange(S)
    Xa, Ca, La = X, centers, np.full((S, n), -1)
    La2 = La
    for it in range(max_iter):
        a = act.size
        rows = max(1, BLOCK_ELEMENTS // (a * K * p))
        new = np.empty((a, n), dtype=np.intp)
        for lo in range(0, n, rows):
            new[:, lo:lo + rows] = _stack_sq_dists(Xa[:, lo:lo + rows],
                                                   Ca).argmin(axis=1)
        C = Ca.copy()
        counts = _segment_means(Xa, new, K, C)
        for i in np.flatnonzero((counts == 0).any(axis=1)):
            _repair(Xa[i], new[i], C[i], Ca[i])
        dist = np.zeros(a)
        own = np.arange(a)[:, None]
        for lo in range(0, n, rows):
            dist += ((Xa[:, lo:lo + rows] - C[own, new[:, lo:lo + rows]]) ** 2
                     ).sum(axis=(1, 2))
        for s, d in zip(act.tolist(), dist.tolist()):
            paths[s].append(d)
        stop = ((new == La).all(axis=1) | (new == La2).all(axis=1)
                | (it + 1 == max_iter))
        labels[act[stop]] = new[stop]
        centers[act[stop]] = C[stop]
        keep = ~stop
        if not keep.any():
            break
        act, Xa, Ca = act[keep], Xa[keep], C[keep]
        La, La2 = new[keep], La[keep]
    return labels, paths


def fit_kmeans_many(Xs, K: int, seeds, restarts: int = 10,
                    max_iter: int = 300) -> list[KmeansFit]:
    """fit_kmeans on each of the D datasets of a (D, n, p) stack, with
    seeds[d] for dataset d, in one stacked Lloyd loop.

    Restart r of dataset d starts from kmeans++ centres drawn on
    stream(seeds[d], "kmeans-restart", r).  The D x restarts starts run in
    chunks whose squared-difference array holds at most BLOCK_ELEMENTS
    elements; a start too large for that runs alone in row blocks.  Starts
    do not interact, so each fit equals fit_kmeans on its dataset.
    """
    Xs = np.asarray(Xs, dtype=float)
    D, n, p = Xs.shape
    if not 1 <= K <= n:
        raise ValueError(f"need 1 <= K <= n={n}, got K={K}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    S = D * restarts
    chunk = max(1, BLOCK_ELEMENTS // (n * K * p))
    fits = []
    for lo in range(0, S, chunk):
        owner = np.arange(lo, min(S, lo + chunk)) // restarts
        X = Xs[owner]
        centers = _kmeanspp_centers(
            X, K, [stream(seeds[d], "kmeans-restart", s % restarts)
                   for s, d in enumerate(owner, lo)])
        labels, paths = _lloyd(X, centers, max_iter)
        # starts run dataset by dataset, so a fit is final at its last start
        for i, s in enumerate(range(lo, lo + owner.size)):
            if s % restarts == 0 or paths[i][-1] < best[0]:
                best = (paths[i][-1], labels[i], centers[i], tuple(paths[i]))
            if s % restarts == restarts - 1:
                fits.append(_canonical_fit(*best, restarts))
    return fits


def _canonical_fit(distortion: float, labels: np.ndarray,
                   centers: np.ndarray, path: tuple,
                   restarts: int) -> KmeansFit:
    """KmeansFit with clusters numbered by order of first appearance."""
    K = centers.shape[0]
    present, first = np.unique(labels, return_index=True)
    order = present[np.argsort(first)]
    rank = np.empty(K, dtype=int)
    rank[order] = np.arange(order.size)
    return KmeansFit(Partition(rank[labels], K), centers[order], distortion,
                     restarts, path)


def fit_kmeans(X, K: int, restarts: int = 10, seed: int | None = None,
               max_iter: int = 300) -> KmeansFit:
    """Best-of-restarts Lloyd iteration from kmeans++ starting centers.

    The restarts run as one stack (fit_kmeans_many with one dataset); the
    first restart with the smallest distortion wins.
    """
    V = as_matrix(X)
    return fit_kmeans_many(V[None], K, [seed], restarts, max_iter)[0]


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
    # top-down: the K roots label themselves, and walking the first n-K
    # merges in reverse hands each node's label to both of its children
    root = list(range(2 * n - K))
    pairs = tree.merges[:n - K, :2].astype(int).tolist()
    for i in range(n - K - 1, -1, -1):
        a, b = pairs[i]
        root[a] = root[b] = root[n + i]
    # canonical labels: clusters numbered by first appearance among leaves
    seen: dict[int, int] = {}
    return Partition(np.array([seen.setdefault(r, len(seen))
                               for r in root[:n]]), K)


# ------------------------------------------------ partitions to mixtures

def _gaussian_moments(X: np.ndarray, labels: np.ndarray, K: int,
                      reg: np.ndarray):
    """Weights (D, K), means (D, K, p) and covariances (D, K, p, p) of the
    K clusters of each dataset of a stack: X is (D, n, p), labels (D, n)
    with every cluster non-empty, reg (D,) one covariance floor each.

    Weights are the cluster frequencies n_k/n, adjusted so that each
    dataset's weights sum to 1.0 exactly in floating point; covariances are
    maximum likelihood (divide by n_k) plus reg times the identity.  Means
    are segment sums; each cluster's scatter is one batched product over
    all datasets of the centred rows, zeroed outside the cluster.
    """
    D, n, p = X.shape
    means = np.empty((D, K, p))
    counts = _segment_means(X, labels, K, means)
    d = X - means[np.arange(D)[:, None], labels]
    covs = np.empty((D, K, p, p))
    for k in range(K):
        inside = np.where((labels == k)[..., None], d, 0.0)
        covs[:, k] = inside.swapaxes(-1, -2) @ d
    covs /= counts[..., None, None]
    covs += reg[:, None, None, None] * np.eye(p)
    w = counts / n
    _unit_sum(w)
    return w, means, (covs + covs.swapaxes(-1, -2)) / 2.0


def partition_to_gaussians(X, part: Partition, reg: float | None = None
                           ) -> MixtureModel:
    """Fit one Gaussian per cluster of a hard partition: the one-dataset
    case of the stacked moment fit (_gaussian_moments), validated by
    mixture()."""
    V = as_matrix(X)
    if part.labels.size != V.shape[0]:
        raise ValueError("partition length != number of rows")
    if reg is None:
        reg = default_regularization(V)
    w, means, covs = _gaussian_moments(V[None], part.labels[None], part.K,
                                       np.array([reg], dtype=float))
    return mixture(w[0], means[0], covs[0])


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


def free_parameters(kappa: int, p: int) -> int:
    """Weights, means, and symmetric covariances of a full-covariance fit."""
    return (kappa - 1) + kappa * p + kappa * p * (p + 1) // 2


def _seed_responsibilities(X: np.ndarray, kappa: int,
                           rng: np.random.Generator, soft: bool) -> np.ndarray:
    n, p = X.shape
    centers = _kmeanspp_centers(X[None], kappa, [rng])[0]
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


# The moment form's terms are as large as ||x - mean||^2 times a precision
# of at most 1 / reg, so it loses about eps * max ||x - mean||^2 / reg to
# cancellation; above this bound EM uses the centred form.  On heavy-tailed
# data near the bound the two forms' logliks agreed within 3e-11 relative.
_MOMENT_FORM_BOUND = 1e-7


def _moment_form_ok(X: np.ndarray, reg: float) -> bool:
    """Whether EM on the centred rows X may use the moment form."""
    r2 = np.einsum("ij,ij->i", X, X).max()
    return reg > 0 and np.finfo(float).eps * r2 <= _MOMENT_FORM_BOUND * reg


def _features(X: np.ndarray) -> np.ndarray:
    """Rows [1, x, vec(x x^T)] of X."""
    n, p = X.shape
    return np.hstack([np.ones((n, 1)), X,
                      (X[:, :, None] * X[:, None]).reshape(n, p * p)])


def _centred_scatter(X, R, mu, kappas, off):
    """(C, p, p) responsibility-weighted scatter about each mean, from the
    centred differences, start by start in row blocks of at most
    BLOCK_ELEMENTS differences."""
    n, p = X.shape
    scatter = np.zeros((mu.shape[0], p, p))
    for lo, kappa in zip(off.tolist(), kappas.tolist()):
        c = slice(lo, lo + kappa)
        rows = max(1, BLOCK_ELEMENTS // (kappa * p))
        for a in range(0, n, rows):
            d = X[a:a + rows] - mu[c, None]
            scatter[c] += (R[c, a:a + rows, None] * d).transpose(0, 2, 1) @ d
    return scatter


def _segments(kappas: np.ndarray):
    """First component of each start, and the start of each component, in
    a stack of starts with the given component counts."""
    return (np.concatenate([[0], np.cumsum(kappas)[:-1]]),
            np.repeat(np.arange(kappas.size), kappas))


def _drop(keep: np.ndarray, kappas: np.ndarray, per_start, per_component):
    """The per-start and per-component arrays of the starts in keep."""
    comp = np.repeat(keep, kappas)
    return [a[keep] for a in per_start], [a[comp] for a in per_component]


def _em_stack(V: np.ndarray, resps, reg: float, tol: float, max_iter: int):
    """EM for a stack of starts on the rows of V (n, p): start s runs from
    the responsibilities resps[s] (n, kappa_s).

    The components of all starts lie along one axis, and every product is
    batched per component, so a start's fit does not depend on the others
    in its stack.  X is V centred once on its mean.  The moment form works
    from the row features Z = [1, x, vec(x x^T)]: one product R^T Z per
    component gives the weight, the mean and the scatter
    R^T XX / n_k - mu mu^T, and one product Z b per component gives the log
    density, whose Mahalanobis term is vec(x x^T).vec(P) - 2 x.P mu +
    mu.P mu.  One eigh per iteration gives the condition check, the
    log-determinant and P.  Where that form would cancel (_moment_form_ok),
    the scatter and the log-density come from the centred differences
    instead.  Row blocks bound Z at BLOCK_ELEMENTS elements.

    A start leaves the stack when it converges, at max_iter, or when it
    collapses: a weight under 1e-8, or a covariance whose smallest
    eigenvalue is <= 0 or below 1e-12 of its largest.  Returns per start
    (loglik, weights, means, covariances, iterations, converged, loglik
    path), or None for a start that collapsed.
    """
    n, p = V.shape
    xbar = V.mean(axis=0)
    X = V - xbar
    moments = _moment_form_ok(X, reg)
    rows = max(1, BLOCK_ELEMENTS // (1 + p + p * p))
    whole = _features(X) if n <= rows else None

    def blocks():
        if whole is not None:
            yield 0, whole
        else:
            for lo in range(0, n, rows):
                yield lo, _features(X[lo:lo + rows])

    kap = np.array([r.shape[1] for r in resps])
    act = np.arange(kap.size)
    # C order: a row of R is one component, unit stride whatever the stack
    R = np.concatenate(resps, axis=1).T.copy()
    floor = reg * np.eye(p)
    out = [None] * kap.size
    paths = [[] for _ in resps]
    ll_prev = np.full(kap.size, -np.inf)
    off, seg = _segments(kap)
    for it in range(1, max_iter + 1):
        T = sum(R[:, None, lo:lo + Zb.shape[0]] @ Zb
                for lo, Zb in blocks())[:, 0]
        low = T[:, 0] / n < 1e-8
        if low.any():
            keep = ~np.logical_or.reduceat(low, off)
            (act, kap, ll_prev), (R, T) = _drop(keep, kap, (act, kap, ll_prev),
                                                (R, T))
            if not act.size:
                break
            off, seg = _segments(kap)
        nk = T[:, 0]
        w = nk / n
        mu = T[:, 1:p + 1] / nk[:, None]
        if moments:
            covs = (T[:, p + 1:].reshape(-1, p, p) / nk[:, None, None]
                    - mu[:, :, None] * mu[:, None])
        else:
            covs = _centred_scatter(X, R, mu, kap, off) / nk[:, None, None]
        covs += floor
        covs = (covs + covs.transpose(0, 2, 1)) / 2.0
        ev, U = np.linalg.eigh(covs)
        bad = (ev[:, 0] <= 0) | (ev[:, -1] > 1e12 * ev[:, 0])
        if bad.any():
            keep = ~np.logical_or.reduceat(bad, off)
            (act, kap, ll_prev), (R, w, mu, covs, ev, U) = _drop(
                keep, kap, (act, kap, ll_prev), (R, w, mu, covs, ev, U))
            if not act.size:
                break
            off, seg = _segments(kap)
        if moments:
            # log w + log N(x; mu, P^-1) as b . [1, x, vec(x x^T)]
            P = (U / ev[:, None]) @ U.transpose(0, 2, 1)
            Pmu = (P @ mu[:, :, None])[:, :, 0]
            const = np.log(w) - 0.5 * (np.log(ev).sum(axis=1)
                                       + p * np.log(2.0 * np.pi)
                                       + (mu * Pmu).sum(axis=1))
            b = np.concatenate([const[:, None], Pmu,
                                -0.5 * P.reshape(-1, p * p)], axis=1)
            A = np.empty(R.shape)
            for lo, Zb in blocks():
                A[:, lo:lo + Zb.shape[0]] = (Zb @ b[:, :, None])[:, :, 0]
        else:
            L = np.linalg.cholesky(covs)
            A = np.empty(R.shape)
            for c, k in zip(off.tolist(), kap.tolist()):
                A[c:c + k] = gaussian_log_density(X, mu[c:c + k],
                                                  L[c:c + k]).T
            A += np.log(w)[:, None]
        m = np.maximum.reduceat(A, off, axis=0)
        A -= m[seg]
        np.exp(A, out=A)
        total = np.add.reduceat(A, off, axis=0)
        ll = (m + np.log(total)).sum(axis=1)
        A /= total[seg]
        R = A
        for s, v in zip(act.tolist(), ll.tolist()):
            paths[s].append(v)
        done = ll - ll_prev < tol * np.abs(ll)
        stop = done | (it == max_iter)
        if stop.any():
            for i in np.flatnonzero(stop).tolist():
                c = slice(off[i], off[i] + kap[i])
                wi = w[c].copy()
                _unit_sum(wi)
                out[act[i]] = (float(ll[i]), wi, mu[c] + xbar, covs[c], it,
                               bool(done[i]), tuple(paths[act[i]]))
            if stop.all():
                break
            (act, kap, ll), (R,) = _drop(~stop, kap, (act, kap, ll), (R,))
            off, seg = _segments(kap)
        ll_prev = ll
    return out


def _em_starts(V: np.ndarray, kappas, n_init: int, seeds, tol: float,
               max_iter: int, reg: float) -> list[list]:
    """Every start of every kappa: _em_stack results, one list of n_init
    per kappa.

    Start i of kappa j is seeded on stream(seeds[j], "em-init", i),
    alternating soft and hard kmeans++ responsibilities.  The starts run
    in stacks of at most BLOCK_ELEMENTS responsibilities each (a start
    larger than that runs alone).
    """
    n = V.shape[0]
    plan = [(kappa, seed, i) for kappa, seed in zip(kappas, seeds)
            for i in range(n_init)]
    results = []
    lo = 0
    while lo < len(plan):
        hi, width = lo + 1, plan[lo][0]
        while hi < len(plan) and (width + plan[hi][0]) * n <= BLOCK_ELEMENTS:
            width += plan[hi][0]
            hi += 1
        resps = [_seed_responsibilities(V, kappa, stream(seed, "em-init", i),
                                        soft=(i % 2 == 0))
                 for kappa, seed, i in plan[lo:hi]]
        results += _em_stack(V, resps, reg, tol, max_iter)
        lo = hi
    return [results[j * n_init:(j + 1) * n_init] for j in range(len(kappas))]


def fit_gmm_em(X, kappa: int, tol: float = 1e-8, max_iter: int = 500,
               n_init: int = 5, seed: int | None = None,
               reg: float | None = None, *, _starts: list | None = None
               ) -> EmFit:
    """Full-covariance mixture fit, best of n_init runs by final loglik.

    Responsibilities are seeded from kmeans++ centers, alternating a soft
    (distance-kernel) and a hard assignment across initializations, and the
    starts run as one stack (_em_stack).  An initialization that collapses
    (component weight under 1e-8 or covariance condition number over 1e12)
    is discarded; if all collapse the fit is reported as degenerate.

    _starts is this kappa's list from _em_starts, when the caller already
    ran the starts.
    """
    V = as_matrix(X)
    n, p = V.shape
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if n <= kappa:
        raise ValueError(f"need n > kappa, got n={n}, kappa={kappa}")
    if n_init < 1:
        raise ValueError("n_init must be >= 1")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if _starts is None:
        if reg is None:
            reg = default_regularization(V)
        _starts = _em_starts(V, [kappa], n_init, [seed], tol, max_iter,
                             reg)[0]
    best = None
    for result in _starts:
        if result is not None and (best is None or result[0] > best[0]):
            best = result
    if best is None:
        raise DegenerateFitError("degenerate fit")
    ll, w, mu, covs, iterations, converged, path = best
    model = mixture(w, mu, covs)
    bic = 2.0 * ll - free_parameters(kappa, p) * np.log(n)
    return EmFit(model, ll, float(bic), iterations, converged, path)


def select_gmm_bic(X, kappa_range, tol: float = 1e-8, max_iter: int = 500,
                   n_init: int = 5, seed: int | None = None) -> EmFit:
    """Fit over a range of component counts and keep the BIC maximizer.

    Every start of every count runs in one EM stack (_em_starts), and each
    count's fit is fit_gmm_em's with seed derive_seed(seed, "bic-scan",
    kappa), to the bit.  Ties break toward the smaller count; counts whose
    fits all collapse are skipped with a warning.
    """
    kappas = sorted(set(int(k) for k in kappa_range))
    if not kappas:
        raise ValueError("kappa_range is empty")
    # checked here, since a per-kappa ValueError is a skip
    if n_init < 1:
        raise ValueError("n_init must be >= 1")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    V = as_matrix(X)
    seeds = {kappa: derive_seed(seed, "bic-scan", kappa) for kappa in kappas}
    valid = [kappa for kappa in kappas if 1 <= kappa < V.shape[0]]
    starts = dict(zip(valid, _em_starts(
        V, valid, n_init, [seeds[kappa] for kappa in valid], tol, max_iter,
        default_regularization(V))))
    best: EmFit | None = None
    for kappa in kappas:
        try:
            fit = fit_gmm_em(V, kappa, tol=tol, max_iter=max_iter,
                             n_init=n_init, seed=seeds[kappa],
                             _starts=starts.get(kappa))
        except (DegenerateFitError, ValueError) as exc:
            warnings.warn(f"skipping kappa={kappa}: {exc}", stacklevel=2)
            continue
        if best is None or fit.bic > best.bic:
            best = fit
    if best is None:
        raise DegenerateFitError("degenerate fit")
    return best
