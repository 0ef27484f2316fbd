"""The cluster distinguishability criterion: the Bayes risk of classifying
a random draw from a mixture back to its generating cluster.

Two decision rules are supported.  The randomized rule draws the label from
the posterior cluster probabilities and its risk has per-point summand
sum_k pi_k(x)(1 - pi_k(x)); the optimal rule takes the posterior argmax with
summand 1 - max_k pi_k(x).  The randomized rule admits an exact pairwise
decomposition: merging clusters i and j removes 2 E[pi_i pi_j] from the
risk, which is what the merge machinery in phm.py consumes.

Estimates are Monte Carlo over samples drawn from the mixture, with
adaptive Gauss-Kronrod cubature over vectorised point batches as an oracle
in one and two dimensions.  Both routes and the delta matrix take
posteriors from one path, `_posteriors_and_density`, and per-point loss
from `_summands`.  `pmc_mc` and `delta_matrix` score the seeded sample in
one pass, `_mc_sample`, which `pmc --delta` hands to both.

`_posteriors_and_density` runs log weight, log-density and normalisation
over blocks of _CHAIN_ROWS rows, whose temporaries stay in cache, and
writes each block into one preallocated posterior matrix and density.
Every step is row-local, so the blocks change no bit; the per-point loss,
the mean and the pair sums then run over the whole matrix.

Summation order is fixed so that a relabeling of components that leaves
the sample unchanged reproduces every estimate bit-identically.  Sums
across components within a row (posterior totals, group sums, per-point
loss) add in ascending value order.  Up to 7 terms, an optimal sorting
network of elementwise min/max passes over whole columns puts each row in
ascending order, and the columns are then added left to right, which is
the order numpy's own sum uses below 8 terms; from 8 terms numpy sums with
8 accumulators, in an order that follows the memory layout, so wider rows
are sorted in a C-contiguous copy and summed by numpy.
Sums across rows (the risk mean, its standard error, each pair's delta)
add pairwise in row order, which a relabeling does not change.  The delta
matrix's upper-triangle total adds in ascending value order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .models import (BLOCK_ELEMENTS, ClusterConfiguration, McEstimate,
                     MixtureModel, as_matrix)
from .rng import stream

CHUNK = 16384

# Rows the posterior chain scores per block.  A block's fixed cost (one
# kernel call, a pass per column) grows with kappa as its work does, so a
# row count suits every kappa where a term count does not: timed at kappa
# 2-20 against blocks of 2^13-2^18 terms and of 2048-16384 rows, 8192 rows
# was the fastest or within noise of it at every kappa (CHANGES.md).
_CHAIN_ROWS = 8192

RULES = ("randomized", "optimal")


@dataclass(frozen=True)
class PmcSettings:
    """Estimation controls: sample count, seed, decision rule, quadrature."""

    m_samples: int = 100000
    seed: int | None = None
    rule: str = "randomized"
    quadrature: bool = False

    def __post_init__(self):
        if self.m_samples < 1000:
            raise ValueError("m_samples must be >= 1000")
        if self.rule not in RULES:
            raise ValueError(f"rule must be one of {RULES}")


# Optimal sorting networks for 1-7 inputs (Knuth, TAOCP vol. 3, 5.3.4):
# 0, 1, 3, 5, 9, 12 and 16 comparators.  Comparator (i, j), i < j, leaves
# the smaller value at i.
_NETWORKS = {
    1: (),
    2: ((0, 1),),
    3: ((0, 2), (0, 1), (1, 2)),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
    5: ((0, 1), (3, 4), (2, 4), (2, 3), (0, 3), (0, 2), (1, 4), (1, 3),
        (1, 2)),
    6: ((1, 2), (4, 5), (0, 2), (3, 5), (0, 1), (3, 4), (2, 5), (0, 3),
        (1, 4), (2, 4), (1, 3), (2, 3)),
    7: ((1, 2), (3, 4), (5, 6), (0, 2), (3, 5), (4, 6), (0, 1), (4, 5),
        (2, 6), (0, 4), (1, 5), (0, 3), (2, 5), (1, 3), (2, 4), (2, 3)),
}


def _sorted_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis in ascending value order: canonical, hence
    order-independent.

    Rows of up to 7 terms (ndim >= 2) are sorted in place by the network
    for their length, run on one contiguous copy of the columns with one
    scratch column, and the sorted columns are added left to right from
    +0.0.  That is numpy's own order below 8 terms, so the result equals
    np.sort(a, axis=-1).sum(axis=-1) to the bit; a NaN reaches the sum
    either way.  From 8 terms numpy sums with 8 accumulators, so wider
    rows, and 1-D inputs, are sorted in a C-contiguous copy: numpy adds a
    column-major array's rows in another order, so the sum would otherwise
    follow the caller's memory layout.
    """
    network = _NETWORKS.get(a.shape[-1]) if a.ndim >= 2 else None
    if network is None:
        rows = np.array(a, order="C")
        rows.sort(axis=-1)
        return rows.sum(axis=-1)
    cols = list(np.moveaxis(a, -1, 0).copy())
    spare = np.empty_like(cols[0])
    for i, j in network:
        np.minimum(cols[i], cols[j], out=spare)
        np.maximum(cols[i], cols[j], out=cols[j])
        cols[i], spare = spare, cols[i]
    total = np.zeros_like(cols[0])
    for col in cols:
        total += col
    return total


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


def cluster_weights(model: MixtureModel, config: ClusterConfiguration
                    ) -> np.ndarray:
    """Per-cluster weights: sums of member component weights."""
    w = np.zeros(config.K)
    for k in range(config.K):
        members = config.members(k)
        w[k] = _sorted_sum(model.weights[list(members)])
    return w


def _normalise(a: np.ndarray, groups) -> tuple[np.ndarray, np.ndarray]:
    """Posteriors and density from log weighted densities a (..., kappa).

    The posterior of group k (a list of component indices) is the sum of
    its members' shares of the per-row total; the density is that total.
    One log-space normalisation serves both, over the last axis.  Singleton
    groups are divided directly: a one-term sorted sum is its term, and
    when group k is component k alone for every k, one division serves
    them all.
    """
    kappa = a.shape[-1]
    m = _row_max(a)
    e = np.subtract(a, m[..., None])
    np.exp(e, out=e)
    total = _sorted_sum(e)
    density = np.exp(m) * total
    if groups == [[k] for k in range(kappa)]:
        e /= total[..., None]
        return e, density
    pi = np.empty(a.shape[:-1] + (len(groups),))
    for k, members in enumerate(groups):
        if len(members) == 1:
            np.divide(e[..., members[0]], total, out=pi[..., k])
        else:
            pi[..., k] = _sorted_sum(e[..., members]) / total
    return pi, density


def _posteriors_and_density(model: MixtureModel,
                            config: ClusterConfiguration | None,
                            X) -> tuple[np.ndarray, np.ndarray]:
    """Posteriors and the (n,) mixture density, one normalization for both.

    log w + log-density + _normalise run over blocks of _CHAIN_ROWS rows,
    so that a block's temporaries stay in cache, into one (n, K) posterior
    matrix and one (n,) density.  Every step is row-local, so a row's
    values do not depend on its block.
    """
    X = np.atleast_2d(as_matrix(X))
    if config is None:
        config = ClusterConfiguration.singletons(model.kappa)
    groups = [list(g) for g in config.member_sets()]
    log_w = np.log(model.weights)
    n = X.shape[0]
    pi = np.empty((n, config.K))
    density = np.empty(n)
    for lo in range(0, n, _CHAIN_ROWS):
        block = slice(lo, lo + _CHAIN_ROWS)
        a = model.log_component_densities(X[block])
        a += log_w
        pi[block], density[block] = _normalise(a, groups)
    return pi, density


def cluster_posterior_matrix(model: MixtureModel,
                             config: ClusterConfiguration | None,
                             X) -> np.ndarray:
    """(n, K) posterior cluster probabilities, log-space normalized.

    A cluster's posterior is the sum of its member components' posteriors.
    Within each row, the total and each cluster's sum add their component
    terms in ascending value order, so they do not depend on the labels.
    """
    return _posteriors_and_density(model, config, X)[0]


def _summands(pi: np.ndarray, rule: str) -> np.ndarray:
    """Per-point loss from posteriors pi (..., K), over the last axis."""
    if rule == "randomized":
        return 1.0 - _sorted_sum(pi * pi)
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
    depend only on (seed, chunk index); each component then maps its
    contiguous block of rows through its mean and Cholesky factor.
    """
    alpha = model.weights
    base = np.floor(m_samples * alpha).astype(int)
    rest = m_samples - int(base.sum())
    if rest > 0:
        base = base + stream(seed, "mc-strata").multinomial(rest, alpha)
    labels = np.repeat(np.arange(model.kappa), base)
    X = np.empty((m_samples, model.p))
    for c, lo in enumerate(range(0, m_samples, CHUNK)):
        stream(seed, "mc-chunk", c).standard_normal(out=X[lo:lo + CHUNK])
    ends = np.cumsum(base)
    for comp, lo, hi in zip(model.components, ends - base, ends):
        X[lo:hi] = comp.mean + X[lo:hi] @ comp.chol.T
    return X, labels


def _mc_sample(model: MixtureModel, config: ClusterConfiguration | None,
               settings: PmcSettings) -> tuple[np.ndarray, np.ndarray]:
    """The seeded Monte Carlo sample and its (M, K) posterior matrix.

    This is the one sample pass behind pmc_mc and delta_matrix; a caller
    that needs both passes it to each as _sample.
    """
    X, _ = sample_mixture(model, settings.m_samples, settings.seed)
    return X, cluster_posterior_matrix(model, config, X)


def pmc_from_sample(model: MixtureModel, config: ClusterConfiguration | None,
                    X, rule: str = "randomized", *,
                    _pi: np.ndarray | None = None) -> tuple[float, float]:
    """Risk estimate and standard error evaluated on a given sample.

    _pi is cluster_posterior_matrix(model, config, X), when the caller
    already holds it.
    """
    if _pi is None:
        _pi = cluster_posterior_matrix(model, config, X)
    return _mean_and_se(_summands(_pi, rule))


def pmc_mc(model: MixtureModel, config: ClusterConfiguration | None = None,
           settings: PmcSettings | None = None, *,
           _sample: tuple[np.ndarray, np.ndarray] | None = None
           ) -> McEstimate:
    """Monte Carlo risk estimate under the configured decision rule.

    _sample is _mc_sample(model, config, settings), when the caller already
    holds it.
    """
    if settings is None:
        settings = PmcSettings()
    if config is None:
        config = ClusterConfiguration.singletons(model.kappa)
    if config.K == 1:
        return McEstimate(0.0, 0.0, settings.m_samples, settings.seed)
    X, pi = _mc_sample(model, config, settings) if _sample is None else _sample
    value, se = pmc_from_sample(model, config, X, settings.rule, _pi=pi)
    return McEstimate(value, se, settings.m_samples, settings.seed)


def pmc_quadrature(model: MixtureModel,
                   config: ClusterConfiguration | None = None,
                   rule: str = "randomized") -> float:
    """Adaptive Gauss-Kronrod cubature for dimension 1 or 2.

    Integrates density times per-point loss over a box covering every
    component mean plus/minus 10 standard deviations, with a 21-point
    Gauss-Kronrod rule per axis (absolute tolerance 1e-8, relative 1.49e-8)
    whose points are scored a whole batch per integrand call.  A non-finite
    integral (e.g. from overflow at extreme scales) raises RuntimeError.
    """
    if model.p > 2:
        raise ValueError("quadrature unsupported for p > 2")
    if config is None:
        config = ClusterConfiguration.singletons(model.kappa)
    if config.K == 1:
        return 0.0
    means = np.array([c.mean for c in model.components])
    sds = np.array([np.sqrt(np.diag(c.covariance)) for c in model.components])
    lo = (means - 10.0 * sds).min(axis=0)
    hi = (means + 10.0 * sds).max(axis=0)

    def integrand(x: np.ndarray) -> np.ndarray:
        pi, dens = _posteriors_and_density(model, config, x)
        return dens * _summands(pi, rule)

    with np.errstate(over="ignore", invalid="ignore"):
        value = integrate.cubature(integrand, lo, hi, rule="gk21", atol=1e-8,
                                   rtol=1.49e-8).estimate
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
    keeping merge bookkeeping exact in floating point.
    """

    values: np.ndarray
    m_samples: int
    seed: int | None
    pmc: float
    pmc_std_error: float

    def to_dict(self) -> dict:
        return {"values": self.values.tolist(), "m_samples": self.m_samples,
                "seed": self.seed, "pmc": self.pmc,
                "pmc_std_error": self.pmc_std_error}


def _pair_deltas(pi: np.ndarray) -> np.ndarray:
    """(K, K) symmetric 2 E[pi_i pi_j] over the rows of pi (M, K), with a
    zero diagonal.

    The pairs (i, j > i) go in blocks of at most BLOCK_ELEMENTS products
    (one pair when M is larger): row i of a contiguous pi^T times the rows
    of j, each product row summed pairwise in row order.  A pair's sum does
    not depend on its block, so a relabeling permutes the entries exactly.
    """
    M, K = pi.shape
    cols = np.ascontiguousarray(pi.T)
    rows = max(1, BLOCK_ELEMENTS // M)
    delta = np.zeros((K, K))
    for i in range(K - 1):
        for lo in range(i + 1, K, rows):
            hi = min(K, lo + rows)
            delta[i, lo:hi] = delta[lo:hi, i] = 2.0 * (
                (cols[i] * cols[lo:hi]).sum(axis=-1) / M)
    return delta


def delta_matrix(model: MixtureModel,
                 config: ClusterConfiguration | None = None,
                 settings: PmcSettings | None = None, *,
                 _sample: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> DeltaMatrix:
    """All pairwise merge reductions estimated from ONE shared sample.

    Only the randomized rule decomposes pairwise, so that rule is required.
    _sample is _mc_sample(model, config, settings), when the caller already
    holds it.
    """
    if settings is None:
        settings = PmcSettings()
    if settings.rule != "randomized":
        raise ValueError("delta matrix requires the randomized rule")
    if config is None:
        config = ClusterConfiguration.singletons(model.kappa)
    if config.K == 1:
        return DeltaMatrix(np.zeros((1, 1)), settings.m_samples,
                           settings.seed, 0.0, 0.0)
    _, pi = _mc_sample(model, config, settings) if _sample is None else _sample
    delta = _pair_deltas(pi)
    total = float(_sorted_sum(delta[np.triu_indices(config.K, 1)]))
    _, se = _mean_and_se(_summands(pi, "randomized"))
    return DeltaMatrix(delta, settings.m_samples, settings.seed, total, se)


def pmc_upper_bound(weights, rule: str = "randomized") -> float:
    """Risk ceiling attained when all clusters overlap completely."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if rule == "randomized":
        return float(np.sum(w * (1.0 - w)))
    if rule == "optimal":
        return float(1.0 - w.max())
    raise ValueError(f"rule must be one of {RULES}")


def pmc(model: MixtureModel, config: ClusterConfiguration | None = None,
        settings: PmcSettings | None = None) -> McEstimate:
    """Gauss-Kronrod cubature if settings.quadrature, else Monte Carlo."""
    if settings is None:
        settings = PmcSettings()
    if settings.quadrature:
        value = pmc_quadrature(model, config, settings.rule)
        return McEstimate(max(value, 0.0), 0.0, 0, None)
    return pmc_mc(model, config, settings)
