"""Clustering estimators: k-means, Ward agglomeration, Gaussian mixture EM
with BIC model-size selection, and conversion of hard partitions to
Gaussian mixtures.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .models import (BLOCK_ELEMENTS, MixtureModel, Partition, as_matrix,
                     gaussian_log_density, mixture)
from .rng import derive_seed, stream


class DegenerateFitError(RuntimeError):
    """Raised when every EM initialization collapses numerically."""


def default_regularization(X):
    """Scale-aware covariance floor: 1e-6 times the mean feature variance.

    For a (D, n, p) stack of datasets, an array of D floors, one each.  A
    column of equal values has variance 0, even where its mean rounds away
    from the values.
    """
    V = as_matrix(X)
    if V.shape[-2] < 2:
        floor = np.full(V.shape[:-2], 1e-6)
    else:
        var = V.var(axis=-2, ddof=1)
        var[(V == V[..., :1, :]).all(axis=-2)] = 0.0
        floor = 1e-6 * var.mean(axis=-1)
    return float(floor) if V.ndim == 2 else floor


def _unit_sum(w: np.ndarray) -> None:
    """Nudge the largest weight, in place, until the weights sum to 1.0
    exactly in floating point (at most 10 passes); each row of a stack of
    weight vectors (..., K) separately.  This is the package's one weight
    fix-up: every fit passes its weights through it, and mixture() takes
    them as given."""
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


def _kmeanspp_centers(X: np.ndarray, K, rngs) -> np.ndarray:
    """(S, max K, p) kmeans++ centres for a stack of starts: start s draws
    K[s] centres (an int K: K each) from the rows of X[s] (n, p) with
    rngs[s]; its rows past K[s] are left unset.

    Each next centre is a row drawn with probability proportional to its
    squared distance to the nearest centre so far, or uniformly once every
    distance is 0.  The draw is rng.choice(n, p=d2 / total) written out: the
    first index whose normalised cumulative sum exceeds rng.random().  The
    whole stack is seeded in one pass of max K steps, its starts ordered by
    decreasing K, so that the starts still drawing are a leading slice;
    every step is row by row, and each generator draws what it would draw
    alone, in the same order.
    """
    S, n, _ = X.shape
    K = np.asarray(K)
    # live[j]: how many starts draw a j-th centre
    if K.ndim:
        order = np.argsort(-K, kind="stable")
        X, rngs = X[order], [rngs[i] for i in order]
        live = (K[order, None] > np.arange(K.max())).sum(axis=0).tolist()
    else:
        order, live = None, [S] * int(K)
    own = np.arange(S)
    centers = np.empty((S, len(live), X.shape[2]))
    centers[:, 0] = X[own, [rng.integers(n) for rng in rngs]]
    d2 = _stack_sq_dists(X, centers[:, :1])[:, 0]
    for j, a in enumerate(live[1:], 1):
        X, d2, own = X[:a], d2[:a], own[:a]
        total = d2.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cdf = (d2 / total[:, None]).cumsum(axis=1)
            cdf /= cdf[:, -1:]
        u = np.array([rng.random() if t > 0 else np.nan
                      for rng, t in zip(rngs, total)])
        pick = (cdf <= u[:, None]).sum(axis=1)
        for i in np.flatnonzero(total <= 0):
            pick[i] = rngs[i].integers(n)
        centers[:a, j] = X[own, pick]
        d2 = np.minimum(d2, _stack_sq_dists(X, centers[:a, j:j + 1])[:, 0])
    if order is not None:
        centers[order] = centers.copy()
    return centers


def _segment_means(XT: np.ndarray, labels: np.ndarray, K: int,
                   out: np.ndarray) -> np.ndarray:
    """Write each start's non-empty cluster means into out (S, K, p) and
    return the (S, K) cluster sizes; XT holds the rows coordinate-major
    (p, S, n), labels is (S, n).

    A weighted bincount adds each cluster's rows in row order, the order
    in which X[mask].mean(axis=0) adds them for p >= 2, so the means are
    the same to the bit.  When no cluster of any start is empty, each
    coordinate's means are one division into out.
    """
    p, S, n = XT.shape
    bins = (labels + K * np.arange(S)[:, None]).ravel()
    counts = np.bincount(bins, minlength=S * K).reshape(S, K)
    full = counts > 0
    every = full.all()
    for c in range(p):
        sums = np.bincount(bins, weights=XT[c].ravel(),
                           minlength=S * K).reshape(S, K)
        if every:
            np.divide(sums, counts, out=out[..., c])
        else:
            out[..., c][full] = sums[full] / counts[full]
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
        _segment_means(X.T[:, None], labels[None], K, centers[None])


def _nearest_centres(X: np.ndarray, XT: np.ndarray, C: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """(S, rows) index of each row's nearest centre, written into out if
    given: X (S, rows, p) holds the rows, XT the same rows coordinate-major
    (p, S, rows), a copy or a view, and C (S, K, p) the centres.

    The labels are _stack_sq_dists(X, C).argmin(axis=1) to the bit, for
    finite distances.  Below 8 coordinates each centre's (S, rows) squared
    distances add up coordinate by coordinate, left to right, from XT, and
    a running minimum takes a centre only where it is strictly nearer, so
    the first of tied centres wins, as in argmin; no (S, K, rows) array is
    built.  Every label is below k when centre k is compared, so taking k
    where it is nearer is a maximum with k times the mask, which ran 4-5
    times faster than a masked store.  From 8 on, _stack_sq_dists adds the
    coordinates pairwise.
    """
    S, K, p = C.shape
    if out is None:
        out = np.empty(XT.shape[1:], dtype=np.intp)
    if p >= 8:
        return np.argmin(_stack_sq_dists(X, C), axis=1, out=out)
    best, d = np.empty(out.shape), np.empty(out.shape)
    t = np.empty(out.shape)
    for k in range(K):
        np.subtract(XT[0], C[:, k, 0, None], out=d)
        np.square(d, out=d)
        for c in range(1, p):
            np.subtract(XT[c], C[:, k, c, None], out=t)
            np.square(t, out=t)
            d += t
        if k == 0:
            best, d = d, best
            out.fill(0)
        else:
            np.maximum(out, (d < best) * k, out=out)
            np.minimum(best, d, out=best)
    return out


def _lloyd(X: np.ndarray, centers: np.ndarray, max_iter: int):
    """Lloyd iterations for a stack of starts: start s runs on X[s] (n, p)
    from centers[s] (K, p), which is updated in place.

    The active starts are held twice: row-major (a, n, p) and
    coordinate-major (p, a, n), and both leave together.  Each iteration
    assigns every row to its nearest centre (_nearest_centres: the first
    of tied centres wins), in row blocks of at most BLOCK_ELEMENTS / K
    squared differences, and updates all centroids with one set of segment
    sums over the coordinate-major rows.  Only a start with an empty
    cluster is repaired, on its own.  The distortion gathers each row's
    centre in one flat take and sums the (a, rows, p) squared differences
    of each row block.  A start leaves the batch once its labels equal
    those of the iteration before or of the one before that: a repair can
    hand a point back and forth, and centres follow from the labels, so
    such a start would cycle with period 2 until max_iter.  It keeps its
    current labels and centres.  Returns the (S, n) labels and each start's
    distortion after every iteration it ran.
    """
    S, n, p = X.shape
    K = centers.shape[1]
    labels = np.empty((S, n), dtype=np.intp)
    paths = [[] for _ in range(S)]
    act = np.arange(S)
    Xa, Ca, La = X, centers, np.full((S, n), -1)
    XTa = np.ascontiguousarray(np.moveaxis(X, -1, 0))
    La2 = La
    for it in range(max_iter):
        a = act.size
        rows = max(1, BLOCK_ELEMENTS // (a * K * p))
        new = np.empty((a, n), dtype=np.intp)
        for lo in range(0, n, rows):
            _nearest_centres(Xa[:, lo:lo + rows], XTa[..., lo:lo + rows], Ca,
                             new[:, lo:lo + rows])
        C = Ca.copy()
        counts = _segment_means(XTa, new, K, C)
        for i in np.flatnonzero((counts == 0).any(axis=1)):
            _repair(Xa[i], new[i], C[i], Ca[i])
        dist = np.zeros(a)
        flat = new + K * np.arange(a)[:, None]
        for lo in range(0, n, rows):
            g = C.reshape(a * K, p).take(flat[:, lo:lo + rows], axis=0)
            np.subtract(Xa[:, lo:lo + rows], g, out=g)
            np.square(g, out=g)
            dist += g.sum(axis=(1, 2))
        for s, d in zip(act.tolist(), dist.tolist()):
            paths[s].append(d)
        stop = ((new == La).all(axis=1) | (new == La2).all(axis=1)
                | (it + 1 == max_iter))
        if stop.any():
            labels[act[stop]] = new[stop]
            centers[act[stop]] = C[stop]
            keep = ~stop
            if not keep.any():
                break
            act, Xa, XTa, C = act[keep], Xa[keep], XTa[:, keep], C[keep]
            new, La = new[keep], La[keep]
        Ca, La, La2 = C, new, La
    return labels, paths


def fit_kmeans_many(Xs, K: int, seeds, restarts: int = 10,
                    max_iter: int = 300) -> list[KmeansFit]:
    """fit_kmeans on each of the D datasets of a (D, n, p) stack, with
    seeds[d] for dataset d, in one stacked Lloyd loop.

    Restart r of dataset d starts from kmeans++ centres drawn on
    stream(seeds[d], "kmeans-restart", r).  The D x restarts starts run in
    chunks whose squared-difference array holds at most BLOCK_ELEMENTS
    elements, and each chunk opens its streams in one call; a start too
    large for that runs alone in row blocks.  Starts do not interact, so
    each fit equals fit_kmeans on its dataset.
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
            X, K, list(stream([seeds[d] for d in owner], "kmeans-restart",
                              np.arange(lo, lo + owner.size) % restarts)))
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
    """Ward-linkage agglomeration on squared Euclidean distances, its
    merges numbered as scipy's linkage numbers them.

    Univariate data are merged in rounds (_ward_tree_1d) in O(n) memory.
    scipy, imported here so that commands which fit no such tree never load
    it, takes data with p >= 2 and univariate data with a near tie.
    """
    V = as_matrix(X)
    n, p = V.shape
    if n < 2:
        raise ValueError("hierarchical clustering needs n >= 2")
    merges = _ward_tree_1d(V[:, 0]) if p == 1 else None
    if merges is None:
        from scipy.cluster.hierarchy import linkage
        Z = linkage(V, method="ward")
        merges = np.column_stack([Z[:, 0], Z[:, 1], Z[:, 2] ** 2])
    return HclustTree(n, merges)


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


def _tree_splits(Vs: np.ndarray) -> np.ndarray:
    """Two-way Ward labels (R, n) of each dataset of an (R, n, p) stack, one
    fit_hclust tree each."""
    return np.array([cut_tree(fit_hclust(V), 2).labels for V in Vs])


# an overflowing or NaN cost ends a row as a tie or a short stop
@np.errstate(over="ignore", invalid="ignore")
def _ward_rounds(xs: np.ndarray, tree: bool = False):
    """Ward merges, in rounds, of each row of xs (R, n), sorted ascending.

    On the line every Ward cluster is an interval of the sorted values, and
    the cheapest pair is always adjacent.  Take intervals A < B < C with
    sizes a, b, c and mean gaps x = m_B - m_A >= 0, y = m_C - m_B >= 0:

        min(ab/(a+b) x^2, bc/(b+c) y^2) <= min(a x^2, c y^2)
            <= ac/(a+c) (x^2 + y^2) <= ac/(a+c) (x + y)^2 = cost(A, C),

    the middle step because ac (x^2 + y^2) = c (a x^2) + a (c y^2) >=
    (a + c) min(a x^2, c y^2).  The inequality is strict unless all three
    means are equal, so by induction on the merges the clusters stay
    intervals and merging the cheapest adjacent pair is Ward's greedy step.

    Merging clusters left of C only grows C's left neighbour and moves its
    mean away from C's, so the cost of that pair only rises, and likewise
    on the right.  So an adjacent pair whose cost is strictly below both
    neighbouring pair costs merges with each other in the greedy sequence
    before either merges with anything else, and every such pair can merge
    at once (Ward is reducible: Murtagh 1983, Muellner 2011).  Each round
    merges all of them, in every row; without ties that gives the tree of
    scipy's nearest-neighbour chain.

    The clusters of all rows lie in two flat arrays, sizes and sums, row
    after row; a pair that straddles two rows costs +inf.  A merged
    cluster's sum is its left half's plus its right half's, as in the
    greedy sequence, so every cost is computed from the same operands.
    Values are taken relative to their row's median, so a common offset
    does not cost precision.  A row in which a round finds two neighbouring
    pair costs within 1e-9 of each other (or a NaN) has a tie that scipy may
    break otherwise.  Without one, a row's cheapest pair is strictly below
    its neighbours, so each round merges at least one of its pairs, and the
    rounds end within n - 1 (values 2^i take all of them).

    Without tree, a row stops at two clusters: its one pair then sits
    between two +inf costs and merges no further, and a round from k >= 3
    clusters merges at most ceil((k - 1)/2) disjoint pairs, so it leaves at
    least two.  Returns the size of each row's left cluster and which rows
    saw a tie; 200 normal rows of 150 values take 17 rounds.

    With tree, xs holds one row, which runs to one cluster.  Returns, for
    each boundary b = 1, ..., n - 1 between sorted values b - 1 and b, the
    cost of the merge that joins across it and the position of the first
    value of that merge's cluster; or None on a tie, or if an overflowing
    cost stopped the rounds short.
    """
    R, n = xs.shape
    total = (xs - xs[:, n // 2, None]).ravel()
    size = np.ones(R * n)
    start = np.arange(R) * n  # position of each row's first cluster
    tied = np.zeros(R, bool)
    cost = np.full(R * n + 1, np.inf)  # cost[j + 1]: clusters j and j + 1
    gap = np.empty(R * n)
    keep = np.ones(R * n, bool)  # keep[0] stays True
    if tree:
        first = np.arange(n)  # position of each cluster's first value
        height, begin = np.empty(n), np.empty(n, int)
    while True:
        m = total.size
        mean = total / size
        g = np.subtract(mean[1:], mean[:-1], out=gap[:m - 1])
        g[start[1:] - 1] = np.inf
        a, b = size[:-1], size[1:]
        c = cost[:m + 1]
        # ab / (a + b) g^2, evaluated left to right in place
        w = np.multiply(a, b, out=c[1:m])
        w /= a + b
        w *= g
        w *= g
        c[m] = np.inf
        lo, hi = c[1:m - 1], c[2:m]
        apart = np.maximum(lo, hi) > np.minimum(lo, hi) * (1 + 1e-9)
        if not apart.all():
            if tree:
                return None
            tied[np.searchsorted(start, np.flatnonzero(~apart) + 1, "right")
                 - 1] = True
        nb = np.minimum(c[:m - 1], c[2:])
        merge = w < nb
        if not tree:
            merge &= nb < np.inf
        np.logical_not(merge, out=keep[1:m])
        kept = np.flatnonzero(keep[:m])
        if kept.size == m:
            break
        if tree:
            # a boundary's last entry is written in the round that merges
            # across it
            height[first[1:]] = w
            begin[first[1:]] = first[:-1]
            first = first[kept]
            # one row holds few clusters, where two reduceat calls cost
            # less than the index arithmetic below; a stack holds
            # thousands, where reduceat's cost per segment loses
            total = np.add.reduceat(total, kept)
            size = np.add.reduceat(size, kept)
        else:
            j = np.flatnonzero(merge)
            size[j] += size[j + 1]
            total[j] += total[j + 1]
            total, size = total[kept], size[kept]
            start = np.searchsorted(kept, start)
    if tree:
        return (height[1:], begin[1:]) if m == 1 else None
    return size[start].astype(int), tied


def _ward_tree_1d(x: np.ndarray) -> np.ndarray | None:
    """Merges (n - 1, 3) of the Ward tree of the n >= 2 values x, as
    fit_hclust returns them, or None where a near tie may order the merges
    otherwise than scipy does.

    scipy sorts its merges stably by height and numbers them with a
    union-find: row i is [min(a, b), max(a, b), height] for the ids a, b of
    the two clusters it joins, a value keeps its index as id, and row i
    creates node n + i.  The rounds (_ward_rounds) give, for each boundary
    between neighbouring sorted values, the height of the merge across it
    and where that merge's cluster starts.  A merge's left child is the
    merge before it, in height order, whose cluster starts where its own
    does, or else the value there; its right child is the last merge whose
    cluster starts at its boundary, or else the value there.  Heights are
    2ab/(a+b) (m_b - m_a)^2, scipy's Ward distance squared.  Two sorted
    heights within 1e-9 of each other are a tie, which scipy's heights,
    rounded otherwise, may order the other way.
    """
    n = x.size
    order = np.argsort(x, kind="stable")
    found = _ward_rounds(x[order][None], tree=True)
    if found is None:
        return None
    height, begin = found
    rows = np.argsort(height, kind="stable")  # row i: boundary rows[i] + 1
    h = height[rows]
    if not (h[1:] > h[:-1] * (1 + 1e-9)).all():
        return None
    # rows grouped by where their cluster starts, in height order
    s = begin[rows]
    grp = np.argsort(s, kind="stable")
    sg = s[grp]
    same = sg[1:] == sg[:-1]
    left = order[s]
    left[grp[1:][same]] = n + grp[:-1][same]
    last = np.full(n, -1)
    ends = np.append(~same, True)
    last[sg[ends]] = grp[ends]
    b = rows + 1
    right = np.where(last[b] < 0, order[b], n + last[b])
    return np.column_stack([np.minimum(left, right), np.maximum(left, right),
                            h + h])


def _ward_splits_1d(Vs: np.ndarray) -> np.ndarray:
    """Two-way Ward labels (R, n) of each dataset of an (R, n, 1) stack,
    n >= 3, equal to cut_tree(fit_hclust(V), 2).labels for each.

    The rounds (_ward_rounds) stop every replicate at two clusters.  A
    replicate with a near tie is split by _tree_splits, whose tree finds
    the same tie and goes to scipy.  In a replicate without a tie, equal
    values merge in the first round, so its left cluster is the values up
    to a threshold.
    """
    R, n, _ = Vs.shape
    xs = np.sort(Vs[:, :, 0], axis=1)
    size, tied = _ward_rounds(xs)
    left = Vs[:, :, 0] <= xs[np.arange(R), size - 1, None]
    labels = (left != left[:, :1]).astype(int)
    if tied.any():
        labels[tied] = _tree_splits(Vs[tied])
    return labels


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
    counts = _segment_means(np.moveaxis(X, -1, 0), labels, K, means)
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


def _responsibilities(X: np.ndarray, centers: np.ndarray,
                      soft: bool) -> np.ndarray:
    """(n, kappa) responsibilities of the rows of X for the kappa centres:
    a distance kernel (soft) or the nearest centre (hard)."""
    n, p = X.shape
    kappa = centers.shape[0]
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


def _segments(kappas: np.ndarray, n: int):
    """For a stack of starts with the given component counts: the first
    component of each start, the start of each component, and a
    (starts, max kappa, n) array of -inf with each component's row in it,
    for each start's maximum over its components; the last two are None
    where every start has max kappa components."""
    off = np.concatenate([[0], np.cumsum(kappas)[:-1]])
    seg = np.repeat(np.arange(kappas.size), kappas)
    kmax = kappas.max()
    if (kappas == kmax).all():
        return off, seg, None, None
    slot = np.arange(kappas.sum()) + np.repeat(
        np.arange(kappas.size) * kmax - off, kappas)
    return off, seg, slot, np.full((kappas.size, kmax, n), -np.inf)


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
    instead.  Row blocks bound Z at BLOCK_ELEMENTS elements; when the rows
    fit one block, Z is built once and each product is taken whole.

    The covariances are symmetrised, (S + S^T) / 2, even in the moment
    form, where the scatter looks symmetric by construction: at p = 5, 6, 9
    and 10 its (i, j) and (j, i) entries came out of the batched product
    differing in their last bits.  Each start's log-sum-exp over its
    components takes the maximum, which is exact in any order, over a
    (starts, max kappa, n) view of the log-densities, or over their copy
    into the -inf array of _segments when the starts' kappas differ.  The
    sum stays np.add.reduceat's, whose order every fit keeps: a segment's
    first row plus the sum of the others, added left to right below 8
    terms and pairwise from 8 on, where a sum along axis 0 would add
    ((a0 + a1) + a2) + ....

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
        for lo in range(0, n, rows):
            yield lo, _features(X[lo:lo + rows])

    kap = np.array([r.shape[1] for r in resps])
    act = np.arange(kap.size)
    # C order: a row of R is one component, unit stride whatever the stack
    R = np.concatenate(resps, axis=1).T.copy()
    floor = reg * np.eye(p)
    log_2pi = p * np.log(2.0 * np.pi)
    out = [None] * kap.size
    paths = [[] for _ in resps]
    ll_prev = np.full(kap.size, -np.inf)
    off, seg, slot, pad = _segments(kap, n)
    for it in range(1, max_iter + 1):
        if whole is not None:
            T = (R[:, None] @ whole)[:, 0]
        else:
            T = sum(R[:, None, lo:lo + Zb.shape[0]] @ Zb
                    for lo, Zb in blocks())[:, 0]
        w = T[:, 0] / n
        # fmin passes over a NaN weight, which w < 1e-8 does not flag
        if np.fmin.reduce(w) < 1e-8:
            keep = ~np.logical_or.reduceat(w < 1e-8, off)
            (act, kap, ll_prev), (R, T, w) = _drop(
                keep, kap, (act, kap, ll_prev), (R, T, w))
            if not act.size:
                break
            off, seg, slot, pad = _segments(kap, n)
        nk = T[:, :1]
        # the means, and the moment form's second moments, in one division
        Tn = T[:, 1:] / nk
        mu = Tn[:, :p]
        if moments:
            covs = Tn[:, p:].reshape(-1, p, p) - mu[:, :, None] * mu[:, None]
        else:
            covs = _centred_scatter(X, R, mu, kap, off) / nk[:, :, None]
        covs += floor
        covs = (covs + covs.transpose(0, 2, 1)) / 2.0
        ev, U = np.linalg.eigh(covs)
        bad = (ev[:, 0] <= 0) | (1e-12 * ev[:, -1] > ev[:, 0])
        if bad.any():
            keep = ~np.logical_or.reduceat(bad, off)
            (act, kap, ll_prev), (R, w, mu, covs, ev, U) = _drop(
                keep, kap, (act, kap, ll_prev), (R, w, mu, covs, ev, U))
            if not act.size:
                break
            off, seg, slot, pad = _segments(kap, n)
        if moments:
            # log w + log N(x; mu, P^-1) as b . [1, x, vec(x x^T)]
            P = (U / ev[:, None]) @ U.transpose(0, 2, 1)
            b = np.empty((R.shape[0], 1 + p + p * p))
            Pmu = b[:, 1:p + 1]
            np.matmul(P, mu[:, :, None], out=Pmu[:, :, None])
            np.log(w, out=b[:, 0])
            b[:, 0] -= 0.5 * (np.add.reduce(np.log(ev), 1) + log_2pi
                              + np.add.reduce(mu * Pmu, 1))
            np.multiply(P.reshape(-1, p * p), -0.5, out=b[:, p + 1:])
            if whole is not None:
                A = (whole @ b[:, :, None])[:, :, 0]
            else:
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
        # each start's log-sum-exp over its components: where every start
        # has max kappa of them, from a (starts, kappa, n) view of A
        if pad is None:
            E = A.reshape(act.size, -1, n)
            m = E.max(axis=1)
            E -= m[:, None]
        else:
            pad.reshape(-1, n)[slot] = A
            m = pad.max(axis=1)
            A -= m[seg]
        np.exp(A, out=A)
        total = np.add.reduceat(A, off, axis=0)
        ll = np.add.reduce(m + np.log(total), 1)
        if pad is None:
            E /= total[:, None]
        else:
            A /= total[seg]
        R = A
        stop = []
        for i, (s, v, prev) in enumerate(zip(act.tolist(), ll.tolist(),
                                             ll_prev.tolist())):
            paths[s].append(v)
            done = v - prev < tol * abs(v)
            if done or it == max_iter:
                c = slice(off[i], off[i] + kap[i])
                wi = w[c].copy()
                _unit_sum(wi)
                out[s] = (v, wi, mu[c] + xbar, covs[c], it, done,
                          tuple(paths[s]))
                stop.append(i)
        if stop:
            if len(stop) == act.size:
                break
            keep = np.ones(act.size, dtype=bool)
            keep[stop] = False
            (act, kap, ll), (R,) = _drop(keep, kap, (act, kap, ll), (R,))
            off, seg, slot, pad = _segments(kap, n)
        ll_prev = ll
    return out


def _seed_stack(V: np.ndarray, starts) -> list[np.ndarray]:
    """Responsibilities of the starts (kappa, seed, i) of one stack: start
    i of a kappa is seeded on stream(seed, "em-init", i), alternating soft
    and hard kmeans++ responsibilities.  The kmeans++ centres are drawn in
    one pass per group of as many starts as BLOCK_ELEMENTS row
    differences hold: the whole stack unless n * p is large."""
    n, p = V.shape
    group = max(1, BLOCK_ELEMENTS // (n * p))
    resps = []
    for lo in range(0, len(starts), group):
        some = starts[lo:lo + group]
        centers = _kmeanspp_centers(
            np.broadcast_to(V, (len(some),) + V.shape),
            [kappa for kappa, _, _ in some],
            [stream(seed, "em-init", i) for _, seed, i in some])
        resps += [_responsibilities(V, c[:kappa], soft=(i % 2 == 0))
                  for c, (kappa, _, i) in zip(centers, some)]
    return resps


def _em_starts(V: np.ndarray, kappas, n_init: int, seeds, tol: float,
               max_iter: int, reg: float) -> list[list]:
    """Every start of every kappa: _em_stack results, one list of n_init
    per kappa.

    Start i of kappa j is seeded by _seed_stack on seeds[j].  The starts
    run in stacks of at most BLOCK_ELEMENTS responsibilities each (a start
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
        results += _em_stack(V, _seed_stack(V, plan[lo:hi]), reg, tol,
                             max_iter)
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
