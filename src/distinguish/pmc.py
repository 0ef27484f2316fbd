"""The cluster distinguishability criterion: the Bayes risk of classifying
a random draw from a mixture back to its generating cluster.

Two decision rules are supported.  The randomized rule draws the label from
the posterior cluster probabilities and its risk has per-point summand
sum_k pi_k(x)(1 - pi_k(x)); the optimal rule takes the posterior argmax with
summand 1 - max_k pi_k(x).  The randomized rule admits an exact pairwise
decomposition: merging clusters i and j removes 2 E[pi_i pi_j] from the
risk, which is what the merge machinery in phm.py consumes.

Estimates are Monte Carlo over samples drawn from the mixture, with
adaptive Gauss-Kronrod cubature as an oracle in one and two dimensions:
`_cubature` does in numpy what scipy's `integrate.cubature(rule="gk21")`
does, with the same bits, so the oracle loads no scipy.  Both routes and
the delta matrix take posteriors from one chain, `_posteriors_and_density`,
and per-point loss from `_summands`.  `delta_matrix` draws and scores the
seeded sample once and hands its per-point loss to `pmc_mc`: the delta
matrix carries the risk estimate of the sample it sums.

A sample is scored in row blocks, in `_score`, and no (M, K) posterior
matrix is kept.  The blocks are the largest subtrees of numpy's
pairwise-summation tree over the M rows that hold at most _CHAIN_ROWS
rows (`_tree_sum`).  Each block runs log weight, log-density and
normalisation, whose temporaries stay in cache, writes its rows of one
(M,) per-point loss and, for the delta matrix, sums its pair products
while its posteriors are still in cache.  Every step of the chain is
row-local, so the blocks change no bit; the block sums of each pair add
back along numpy's tree, so each equals numpy's sum of the pair's whole
column of products.  `cluster_posterior_matrix` runs the same chain over
blocks of _CHAIN_ROWS rows into one matrix.

Every (rows, components) array of the chain, from the log-density to the
posterior matrix, keeps its (n, K) shape but is stored component-major:
it is the transpose of a C-ordered (K, n) array.  Each step walks the
components one at a time (row maxima, column sums, squares, pair
products), so each column it reads is one contiguous row of memory.
Every step is elementwise or adds columns in a fixed order, so the
memory order changes no bit.

Summation order is fixed so that a relabeling of components that leaves
the sample unchanged reproduces every estimate bit-identically.  Sums
across components within a row (posterior totals, group sums, per-point
loss) add whole columns left to right from +0.0, in one canonical order
per (model, configuration) that `_summation_order` derives from the
component parameters alone.
Sums across rows (the risk mean, its standard error, each pair's delta)
add pairwise in row order, along numpy's tree, which a relabeling does not
change.  The delta matrix's upper-triangle total adds in ascending value
order.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .models import (BLOCK_ELEMENTS, ClusterConfiguration, McEstimate,
                     MixtureModel, as_matrix)
from .rng import stream

CHUNK = 16384

# Most rows the posterior chain scores per block.  A block's fixed cost (one
# kernel call, a pass per column) grows with kappa as its work does, so a
# row count suits every kappa where a term count does not: timed at kappa
# 2-20 against blocks of 2^13-2^18 terms and of 2048-16384 rows, 8192 rows
# was the fastest or within noise of it at every kappa (CHANGES.md).
_CHAIN_ROWS = 8192

RULES = ("randomized", "optimal")

# QUADPACK's 21-point Kronrod nodes (dqk21; Piessens, de Doncker-Kapenga,
# Ueberhuber & Kahaner 1983) from 1 down to 0 with their weights, and the
# positive 10-point Gauss-Legendre nodes, ascending, with theirs: the
# doubles of scipy's GaussKronrodQuadrature(21) and roots_legendre(10).
# The Gauss nodes near 0.149 and 0.865 are an ulp off the Kronrod nodes
# they stand for, so the two sets are kept apart.
_KRONROD = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
            0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
            0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
            0.14887433898163122, 0.0)
_KRONROD_WEIGHTS = (0.011694638867371874, 0.032558162307964725,
                    0.054755896574351995, 0.07503967481091996,
                    0.0931254545836976, 0.10938715880229764,
                    0.12349197626206584, 0.13470921731147334,
                    0.14277593857706009, 0.14773910490133849,
                    0.1494455540029169)
_GAUSS = (0.14887433898163116, 0.4333953941292472, 0.6794095682990244,
          0.8650633666889844, 0.9739065285171717)
_GAUSS_WEIGHTS = (0.2955242247147533, 0.26926671930999674,
                  0.21908636251598224, 0.14945134915058053,
                  0.06667134430868714)


@dataclass(frozen=True)
class PmcSettings:
    """Estimation controls: sample count, seed, decision rule."""

    m_samples: int = 100000
    seed: int | None = None
    rule: str = "randomized"

    def __post_init__(self):
        if self.m_samples < 1000:
            raise ValueError("m_samples must be >= 1000")
        if self.rule not in RULES:
            raise ValueError(f"rule must be one of {RULES}")


def _row_max(a: np.ndarray) -> np.ndarray:
    """Max over the last axis, one elementwise pass per column.

    A max is exact in any order.  Against numpy's reduction along a short
    last axis this is several times faster at 2-8 columns and about level
    from 16.
    """
    m = a[..., 0].copy()
    for k in range(1, a.shape[-1]):
        np.maximum(m, a[..., k], out=m)
    return m


def _column_sum(a: np.ndarray, cols) -> np.ndarray:
    """Sum of the columns a[..., j] for j in cols, added left to right
    from +0.0."""
    total = np.zeros(a.shape[:-1])
    for j in cols:
        total += a[..., j]
    return total


def _summation_order(model: MixtureModel, config: ClusterConfiguration
                     ) -> tuple[list[list[int]], list[int]]:
    """(groups, clusters): the order in which sums over components and
    clusters add, set by the component parameters alone.

    Components rank by the bytes of (weight, mean, covariance); groups[k]
    lists cluster k's members in that rank, and `clusters` lists the
    clusters by their members' keys, first member first.  Only
    bitwise-identical components, or clusters of them, tie, and their
    columns are then equal, so a tie cannot change a sum.
    """
    key = [w.tobytes() + m.tobytes() + c.tobytes() for w, m, c
           in zip(model.weights, model.means, model.covariances)]
    groups = [[] for _ in range(config.K)]
    for j in sorted(range(model.kappa), key=key.__getitem__):
        groups[config.assignment[j]].append(j)
    clusters = sorted(range(config.K),
                      key=lambda k: [key[j] for j in groups[k]])
    return groups, clusters


def _normalise(a: np.ndarray, groups, clusters
               ) -> tuple[np.ndarray, np.ndarray]:
    """Posteriors and density from log weighted densities a (..., kappa).

    groups[k] lists cluster k's components and `clusters` the clusters,
    each in summation order (_summation_order).  The posterior of cluster
    k is the sum of its members' shares of the per-row total, which adds
    every component, cluster by cluster; the density is that total.  One
    log-space normalisation serves both, over the last axis.  When group
    k is component k alone for every k, one division serves them all, and
    the posteriors keep the memory order of a; otherwise they are stored
    component-major, each cluster's column one contiguous row.
    """
    m = _row_max(a)
    e = np.subtract(a, m[..., None])
    np.exp(e, out=e)
    total = _column_sum(e, [j for k in clusters for j in groups[k]])
    density = np.exp(m) * total
    if groups == [[k] for k in range(a.shape[-1])]:
        e /= total[..., None]
        return e, density
    pi = np.moveaxis(np.empty((len(groups),) + a.shape[:-1]), 0, -1)
    for k, members in enumerate(groups):
        np.divide(_column_sum(e, members), total, out=pi[..., k])
    return pi, density


def _posteriors_and_density(model: MixtureModel,
                            config: ClusterConfiguration | None,
                            X, order=None) -> tuple[np.ndarray, np.ndarray]:
    """Posteriors and the (n,) mixture density, one normalization for both.

    log w + log-density + _normalise run over blocks of _CHAIN_ROWS rows,
    so that a block's temporaries stay in cache, into one (n, K) posterior
    matrix, stored component-major, and one (n,) density; one block's are
    returned as _normalise gives them.  Every step is row-local, so a
    row's values do not depend on its block.  order is
    _summation_order(model, config), when the caller already holds it.
    """
    X = np.atleast_2d(as_matrix(X))
    if order is None:
        if config is None:
            config = ClusterConfiguration.singletons(model.kappa)
        order = _summation_order(model, config)
    log_w = np.log(model.weights)

    def chain(rows):
        a = model.log_component_densities(rows)
        a += log_w
        return _normalise(a, *order)

    n = X.shape[0]
    if n <= _CHAIN_ROWS:
        return chain(X)
    pi = np.empty((len(order[0]), n)).T
    density = np.empty(n)
    for lo in range(0, n, _CHAIN_ROWS):
        block = slice(lo, lo + _CHAIN_ROWS)
        pi[block], density[block] = chain(X[block])
    return pi, density


def cluster_posterior_matrix(model: MixtureModel,
                             config: ClusterConfiguration | None,
                             X, *, _order=None) -> np.ndarray:
    """(n, K) posterior cluster probabilities, log-space normalized.

    A cluster's posterior is the sum of its member components' posteriors.
    Within each row, the total and each cluster's sum add their component
    terms in the canonical order, so they do not depend on the labels.
    _order is _summation_order(model, config), when the caller already
    holds it.
    """
    return _posteriors_and_density(model, config, X, _order)[0]


def _summands(pi: np.ndarray, rule: str, clusters) -> np.ndarray:
    """Per-point loss from posteriors pi (..., K), over the last axis;
    the randomized rule squares one column at a time into one reused
    buffer and adds the squares in the order of `clusters` from +0.0."""
    if rule == "randomized":
        total = np.zeros(pi.shape[:-1])
        square = np.empty(pi.shape[:-1])
        for k in clusters:
            total += np.multiply(pi[..., k], pi[..., k], out=square)
        return np.subtract(1.0, total, out=total)
    if rule == "optimal":
        # argmax ties break toward the lowest cluster index (measure-zero
        # event for Gaussians); only the max value enters the risk
        return 1.0 - _row_max(pi)
    raise ValueError(f"rule must be one of {RULES}")


def _mean_and_se(s: np.ndarray) -> tuple[float, float]:
    """Mean of per-point summands (M,) and its standard error.

    Both sums add pairwise in row order: a shared sample fixes that order,
    whatever the component labels.
    """
    value = float(s.sum() / s.size)
    d = s - value
    sd = np.sqrt((d * d).sum() / (s.size - 1)) if s.size > 1 else 0.0
    return value, float(sd / np.sqrt(s.size))


def sample_mixture(model: MixtureModel, m_samples: int,
                   seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Draw m_samples points from the mixture, stratified by component.

    Per-component counts are floor(M * alpha) with the remainder drawn
    multinomially; rows come out grouped by component, labels alongside.
    Standard normals are generated in fixed-size chunks whose RNG streams
    depend only on (seed, chunk index), all opened in one stream() call;
    each component then maps its contiguous block of rows through its
    mean and Cholesky factor.
    """
    alpha = model.weights
    base = np.floor(m_samples * alpha).astype(int)
    rest = m_samples - int(base.sum())
    if rest > 0:
        base = base + stream(seed, "mc-strata").multinomial(rest, alpha)
    labels = np.repeat(np.arange(model.kappa), base)
    X = np.empty((m_samples, model.p))
    chunks = range(0, m_samples, CHUNK)
    for lo, rng in zip(chunks, stream(seed, "mc-chunk", range(len(chunks)))):
        rng.standard_normal(out=X[lo:lo + CHUNK])
    ends = np.cumsum(base)
    for L, mean, lo, hi in zip(model.chol, model.means, ends - base, ends):
        np.add(X[lo:hi] @ L.T, mean, out=X[lo:hi])
    return X, labels


def _mc_sample(model: MixtureModel, settings: PmcSettings) -> np.ndarray:
    """The seeded Monte Carlo sample (M, p), drawn once per pmc_mc or
    delta_matrix call: delta_matrix scores it and hands it to pmc_mc with
    its per-point loss, as _sample."""
    return sample_mixture(model, settings.m_samples, settings.seed)[0]


def _tree_sum(leaf, lo: int, hi: int):
    """leaf(a, b) summed over the row blocks [a, b) that tile [lo, hi),
    added along numpy's pairwise-summation tree.

    numpy's add.reduce over n contiguous terms splits them at half = n // 2,
    less half % 8, until n is at most 128, and adds the halves' sums.
    Here the recursion stops at blocks of at most _CHAIN_ROWS rows, each a
    subtree of numpy's own, so when leaf(a, b) is numpy's sum of rows
    [a, b), the result is numpy's sum over all the rows, bit for bit.
    """
    n = hi - lo
    if n <= _CHAIN_ROWS:
        return leaf(lo, hi)
    half = n // 2
    half -= half % 8
    return _tree_sum(leaf, lo, lo + half) + _tree_sum(leaf, lo + half, hi)


def _pair_sums(pi: np.ndarray) -> np.ndarray:
    """The sums over the rows of pi (n, K) of pi_i pi_j for each pair
    i < j, in np.triu_indices order, each added pairwise in row order.

    The pairs (i, j > i) go in chunks of at most BLOCK_ELEMENTS products
    (one pair when n is larger): row i of a contiguous pi^T times the rows
    of j.  The chain's component-major pi is that pi^T in its own memory,
    so no copy is made.  A pair's sum does not depend on its chunk.
    """
    n, K = pi.shape
    cols = np.ascontiguousarray(pi.T)
    rows = max(1, BLOCK_ELEMENTS // n)
    sums = np.empty(K * (K - 1) // 2)
    at = 0
    for i in range(K - 1):
        for lo in range(i + 1, K, rows):
            hi = min(K, lo + rows)
            sums[at:at + hi - lo] = (cols[i] * cols[lo:hi]).sum(axis=-1)
            at += hi - lo
    return sums


def _score(model: MixtureModel, config: ClusterConfiguration, X, rule: str,
           pairs: bool = False) -> tuple[np.ndarray, np.ndarray | float]:
    """The per-point loss (M,) of the rows of X under rule and, when
    pairs, their _pair_sums; 0.0 otherwise.

    The rows go in the blocks of _tree_sum, each scored while it is in
    cache: its posteriors, its rows of the loss and its pair sums, which
    _tree_sum adds back so that each equals the whole column's numpy sum.
    No (M, K) posterior matrix is kept.
    """
    X = np.atleast_2d(as_matrix(X))
    order = _summation_order(model, config)
    loss = np.empty(X.shape[0])

    def leaf(lo, hi):
        pi = cluster_posterior_matrix(model, config, X[lo:hi], _order=order)
        loss[lo:hi] = _summands(pi, rule, order[1])
        return _pair_sums(pi) if pairs else 0.0

    return loss, _tree_sum(leaf, 0, X.shape[0])


def pmc_from_sample(model: MixtureModel, config: ClusterConfiguration | None,
                    X, rule: str = "randomized", *,
                    _loss: np.ndarray | None = None) -> tuple[float, float]:
    """Risk estimate and standard error evaluated on a given sample.

    The rows are scored block by block (_score); _loss is their per-point
    loss under rule, when the caller already scored them.
    """
    if config is None:
        config = ClusterConfiguration.singletons(model.kappa)
    if _loss is None:
        _loss, _ = _score(model, config, X, rule)
    return _mean_and_se(_loss)


def pmc_mc(model: MixtureModel, config: ClusterConfiguration | None = None,
           settings: PmcSettings | None = None, *,
           _sample: tuple[np.ndarray, np.ndarray] | None = None
           ) -> McEstimate:
    """Monte Carlo risk estimate under the configured decision rule.

    _sample is (_mc_sample(model, settings), its per-point loss), when
    delta_matrix already scored it.
    """
    if settings is None:
        settings = PmcSettings()
    if config is None:
        config = ClusterConfiguration.singletons(model.kappa)
    if config.K == 1:
        return McEstimate(0.0, 0.0, settings.m_samples, settings.seed)
    if _sample is None:
        _sample = _mc_sample(model, settings), None
    X, loss = _sample
    value, se = pmc_from_sample(model, config, X, settings.rule, _loss=loss)
    return McEstimate(value, se, settings.m_samples, settings.seed)


class _Box:
    """A box of the adaptive cubature, ordered as scipy orders its heap:
    the larger error first, with no tie-break."""

    __slots__ = ("estimate", "error", "a", "b")

    def __init__(self, estimate, error, a, b):
        self.estimate, self.error, self.a, self.b = estimate, error, a, b

    def __lt__(self, other):
        return self.error > other.error


def _gk21_product(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (21^d + 10^d, d) and weights of the d-fold product rules on
    [-1, 1]^d, in scipy's order: the Kronrod points, descending, then the
    Gauss points, ascending, with their weights negated.  A point's weight
    is the product of its coordinates' weights."""
    k, kw = np.array(_KRONROD), np.array(_KRONROD_WEIGHTS)
    g, gw = np.array(_GAUSS), np.array(_GAUSS_WEIGHTS)
    nodes, weights = [], []
    for x, w, sign in [(np.concatenate([k, -k[-2::-1]]),
                        np.concatenate([kw, kw[-2::-1]]), 1.0),
                       (np.concatenate([-g[::-1], g]),
                        np.concatenate([gw[::-1], gw]), -1.0)]:
        grid = np.meshgrid(*[x] * d, indexing="ij")
        nodes.append(np.stack(grid, axis=-1).reshape(-1, d))
        weights.append(sign * reduce(np.multiply.outer, [w] * d).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def _cubature(f, a: np.ndarray, b: np.ndarray, atol: float, rtol: float,
              max_subdivisions: int = 10000) -> float:
    """The integral of a row-local f over the box [a, b], a < b: the
    estimate of scipy's integrate.cubature(f, a, b, rule="gk21",
    atol=atol, rtol=rtol), bit for bit.

    A box's nodes are (x + 1) * (len * 0.5) + a and its weights are scaled
    by prod(len) / 2^d.  Its estimate is the pairwise sum of the 21^d
    Kronrod terms, and its error the absolute pairwise sum of all 21^d +
    10^d terms.  Until the error sum is within atol + rtol |estimate|, or
    max_subdivisions splits are made, the box of largest error leaves the
    heap and is split at its midpoint into 2^d boxes, in scipy's order,
    with the running sums updated as scipy updates them.  scipy calls f
    once per new box for its estimate and once more for its error; here
    the points of all 2^d new boxes go through one call and each point is
    scored once, which gives each point the same value when f is row-local.
    """
    d = a.size
    nodes, weights = _gk21_product(d)
    n_kronrod = 21 ** d
    upper = np.stack(np.meshgrid(*[[False, True]] * d, indexing="ij"),
                     axis=-1).reshape(-1, d)

    def boxes(lo, hi):
        """The boxes [lo[i], hi[i]], scored in one call of f."""
        length = hi - lo
        x = (nodes + 1) * (length[:, None] * 0.5) + lo[:, None]
        w = weights * (np.prod(length, axis=-1) / 2 ** d)[:, None]
        terms = w * f(x.reshape(-1, d)).reshape(len(lo), -1)
        return [_Box(*box) for box in zip(
            terms[:, :n_kronrod].sum(axis=-1).tolist(),
            np.abs(terms.sum(axis=-1)).tolist(), lo, hi)]

    heap = boxes(a[None], b[None])
    # scipy's sums start from +0.0, which turns an estimate of -0.0 to +0.0
    estimate, error = 0.0 + heap[0].estimate, 0.0 + heap[0].error
    for _ in range(max_subdivisions):
        if not error > atol + rtol * abs(estimate):
            break
        box = heapq.heappop(heap)
        estimate -= box.estimate
        error -= box.error
        mid = (box.a + box.b) / 2
        for new in boxes(np.where(upper, mid, box.a),
                         np.where(upper, box.b, mid)):
            estimate += new.estimate
            error += new.error
            heapq.heappush(heap, new)
    return estimate


def pmc_quadrature(model: MixtureModel,
                   config: ClusterConfiguration | None = None,
                   rule: str = "randomized") -> float:
    """Adaptive Gauss-Kronrod cubature for dimension 1 or 2.

    Integrates density times per-point loss over a box covering every
    component mean plus/minus 10 standard deviations, with a 21-point
    Gauss-Kronrod rule per axis (absolute tolerance 1e-8, relative 1.49e-8)
    whose points are scored a whole split per integrand call: `_cubature`,
    which gives the bits of scipy's cubature without loading scipy.  A
    non-finite integral (e.g. from overflow at extreme scales) raises
    RuntimeError.
    """
    if model.p > 2:
        raise ValueError("quadrature unsupported for p > 2")
    if config is None:
        config = ClusterConfiguration.singletons(model.kappa)
    if config.K == 1:
        return 0.0
    order = _summation_order(model, config)
    sds = np.sqrt(np.diagonal(model.covariances, axis1=1, axis2=2))
    lo = (model.means - 10.0 * sds).min(axis=0)
    hi = (model.means + 10.0 * sds).max(axis=0)

    def integrand(x: np.ndarray) -> np.ndarray:
        pi, dens = _posteriors_and_density(model, config, x, order)
        return dens * _summands(pi, rule, order[1])

    with np.errstate(over="ignore", invalid="ignore"):
        value = _cubature(integrand, lo, hi, atol=1e-8, rtol=1.49e-8)
    if not np.isfinite(value):
        raise RuntimeError(f"quadrature integral is not finite: {value}")
    return float(value)


@dataclass(frozen=True)
class DeltaMatrix:
    """Pairwise risk reductions from merging each cluster pair.

    `values` is the one symmetric K x K array: entry (i, j) is 2 E[pi_i pi_j]
    over the shared sample, a mean of products of posteriors, so it is >= 0
    and needs no clamp; the diagonal is zero.  `pmc` is the ascending
    upper-triangle sum and serves as the shared-sample risk estimate: the
    pairwise decomposition makes that sum the estimate by definition,
    keeping merge bookkeeping exact in floating point.  `estimate` is
    pmc_mc's estimate on the same sample: its value is the mean per-point
    loss, within rounding of `pmc`, and its standard error is `pmc`'s.
    """

    values: np.ndarray
    pmc: float
    estimate: McEstimate

    def to_dict(self) -> dict:
        return {"values": self.values.tolist(),
                "m_samples": self.estimate.m_samples,
                "seed": self.estimate.seed, "pmc": self.pmc,
                "pmc_std_error": self.estimate.std_error}


def delta_matrix(model: MixtureModel,
                 config: ClusterConfiguration | None = None,
                 settings: PmcSettings | None = None, *,
                 _sample: np.ndarray | None = None) -> DeltaMatrix:
    """All pairwise merge reductions estimated from ONE shared sample, with
    pmc_mc's estimate on that sample.

    Only the randomized rule decomposes pairwise, so that rule is required.
    One block-by-block pass (_score) gives the per-point loss, which goes
    to pmc_mc, and each pair's sum of pi_i pi_j over the M rows, equal to
    the sum of that column of products over an (M, K) posterior matrix.
    _sample is an (M, p) sample in place of the seeded one; one cluster
    needs no sample.
    """
    if settings is None:
        settings = PmcSettings()
    if settings.rule != "randomized":
        raise ValueError("delta matrix requires the randomized rule")
    if config is None:
        config = ClusterConfiguration.singletons(model.kappa)
    if config.K == 1:
        return DeltaMatrix(np.zeros((1, 1)), 0.0,
                           pmc_mc(model, config, settings))
    X = _mc_sample(model, settings) if _sample is None else _sample
    loss, sums = _score(model, config, X, settings.rule, pairs=True)
    upper = np.triu_indices(config.K, 1)
    delta = np.zeros((config.K, config.K))
    delta[upper] = delta[upper[::-1]] = 2.0 * (sums / loss.size)
    total = float(np.sort(delta[upper]).sum())
    return DeltaMatrix(delta, total,
                       pmc_mc(model, config, settings, _sample=(X, loss)))


def pmc_upper_bound(weights, rule: str = "randomized") -> float:
    """Risk ceiling attained when all clusters overlap completely."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if rule == "randomized":
        return float(np.sum(w * (1.0 - w)))
    if rule == "optimal":
        return float(1.0 - w.max())
    raise ValueError(f"rule must be one of {RULES}")
