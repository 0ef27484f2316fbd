"""Test of a single-Gaussian null against clustered structure.

The statistic splits the data once with Ward clustering (K = 2), fits one
Gaussian per side, and evaluates the randomized-rule misclassification
risk of that two-cluster model averaged over the observed points.  Small
values mean well-separated halves, which is evidence AGAINST the null, so
the rejection region is the left tail.  Calibration is by Monte Carlo
draws from the null or by a parametric bootstrap around the fitted
Gaussian; p-values use the add-one estimator so they are never zero.

Replicate r of the null (bootstrap replicate b) is drawn from its own
stream(seed, "null-rep", r) (stream(seed, "boot-rep", b)); a chunk's
streams are opened in one stream() call, which seeds them in one
vectorised pass and builds each generator as the chunk's stack reaches
it.  Replicates are split and scored in stacked chunks: one moment fit,
one batched Cholesky and one log-density call per chunk.
Univariate chunks are split by rounds of Ward merges over all their
replicates at once (_ward_splits_1d): each round merges every adjacent
pair of clusters cheaper than both its neighbouring pairs, and a replicate
with a near-tied merge cost goes to scipy.  The observed data and
multivariate chunks get one fit_hclust tree and two-way cut each; on
univariate data that tree comes from the same rounds, run to one cluster,
and only a near tie loads scipy.  Either way every split equals
cut_tree(fit_hclust(V), 2).  A chunk holds at most
BLOCK_ELEMENTS replicates x n x 2 x p elements, so memory does not grow
with the replicate count, and a replicate's statistic does not depend on
the chunk it falls in: pmc_statistic is the one-replicate case.
"""
from __future__ import annotations

import numpy as np

from .estimators import (_gaussian_moments, _tree_splits, _ward_splits_1d,
                         default_regularization, partition_to_gaussians)
from .models import (BLOCK_ELEMENTS, Partition, as_matrix,
                     gaussian_log_density, mixture)
from .pmc import _normalise, _summands
from .rng import stream

QUANTILE_GRID = (0.01, 0.025, 0.05, 0.10, 0.25, 0.50,
                 0.75, 0.90, 0.95, 0.975, 0.99)


def _statistics(Vs: np.ndarray, split=_tree_splits) -> np.ndarray:
    """pmc_statistic of each dataset of a (R, n, p) stack, whose two-way
    Ward labels split(Vs) gives."""
    n = Vs.shape[1]
    if n < 4:
        raise ValueError("statistic needs n >= 4")
    if np.all(Vs == Vs[:, :1], axis=(1, 2)).any():
        raise ValueError("degenerate data: all points identical")
    labels = split(Vs)
    w, means, covs = _gaussian_moments(Vs, labels, 2,
                                       default_regularization(Vs))
    bad = np.flatnonzero(~(np.isfinite(means).all(axis=(1, 2))
                           & np.isfinite(covs).all(axis=(1, 2, 3))))
    if bad.size:
        # the first such replicate raises mixture()'s validation error
        mixture(w[bad[0]], means[bad[0]], covs[bad[0]])
    a = gaussian_log_density(Vs, means, np.linalg.cholesky(covs))
    a += np.log(w)[:, None]
    # two-term sums commute, so any order of the two sides gives these bits
    pi, _ = _normalise(a, [[0], [1]], [0, 1])
    # a replicate's points add in ascending order, whatever their row order
    return np.sort(_summands(pi, "randomized", [0, 1]), axis=-1).sum(-1) / n


def _replicate_statistics(seed: int | None, name: str, make, reps: int,
                          n: int, p: int) -> np.ndarray:
    """Statistics of the datasets make(stream(seed, name, r)), each (n, p),
    for r = 0, ..., reps - 1, drawn and scored one chunk of at most
    BLOCK_ELEMENTS // (n * 2 * p) replicates at a time; each chunk opens
    its streams in one call and draws each replicate into its stack before
    the next generator is built."""
    chunk = max(1, BLOCK_ELEMENTS // (n * 2 * p))
    split = _ward_splits_1d if p == 1 else _tree_splits
    values = np.empty(reps)
    for lo in range(0, reps, chunk):
        hi = min(reps, lo + chunk)
        Vs = np.empty((hi - lo, n, p))
        for V, g in zip(Vs, stream(seed, name, range(lo, hi))):
            V[...] = make(g)
        values[lo:hi] = _statistics(Vs, split)
    return values


def _check_replicates(count: int, name: str) -> None:
    if count < 100:
        raise ValueError(f"{name} must be >= 100")


def pmc_statistic(X) -> float:
    """Two-cluster separability of the first Ward split, lower = cleaner.

    Deterministic: the risk is the posterior loss of the fitted two-part
    Gaussian model averaged over the observed points themselves.
    """
    return float(_statistics(as_matrix(X)[None])[0])


def null_distribution(n: int, p: int, reps: int,
                      seed: int | None = None) -> np.ndarray:
    """Sorted sample of the statistic under a standard Gaussian null.

    The statistic is location-scale invariant, so the standard normal
    stands in for any single Gaussian.
    """
    _check_replicates(reps, "reps")
    return np.sort(_replicate_statistics(
        seed, "null-rep", lambda g: g.standard_normal((n, p)), reps, n, p))


def pvalue_mc(stat: float, null_sample: np.ndarray) -> float:
    """Left-tail add-one p-value of stat against a null sample."""
    null_sample = np.asarray(null_sample, dtype=float)
    if null_sample.size == 0:
        raise ValueError("empty null sample")
    count = int(np.count_nonzero(null_sample <= stat))
    return (1.0 + count) / (1.0 + null_sample.size)


def pvalue_bootstrap(X, B: int = 500, seed: int | None = None, *,
                     _stat: float | None = None) -> float:
    """Parametric bootstrap p-value: the null is the Gaussian fitted to X.

    test_report passes _stat, the pmc_statistic(X) it has already
    computed, so that the data are scored once.
    """
    _check_replicates(B, "B")
    V = as_matrix(X)
    stat = pmc_statistic(V) if _stat is None else _stat
    n, p = V.shape
    fit = partition_to_gaussians(V, Partition(np.zeros(n, int), 1))
    mean, L = fit.means[0], fit.chol[0]
    boots = _replicate_statistics(
        seed, "boot-rep", lambda g: mean + g.standard_normal((n, p)) @ L.T,
        B, n, p)
    return pvalue_mc(stat, boots)


def test_report(X, reps: int = 5000, bootstrap: int | None = None,
                seed: int | None = None) -> dict:
    """Full test result: statistic, p-value, and the null quantile table."""
    count, name = (reps, "reps") if bootstrap is None else (bootstrap, "B")
    _check_replicates(count, name)
    V = as_matrix(X)
    stat = pmc_statistic(V)
    if bootstrap is not None:
        p_value = pvalue_bootstrap(V, bootstrap, seed, _stat=stat)
        method = "bootstrap"
        null_q = None
        reps_used = bootstrap
    else:
        null = null_distribution(V.shape[0], V.shape[1], reps, seed)
        p_value = pvalue_mc(stat, null)
        method = "mc"
        null_q = {str(q): float(np.quantile(null, q)) for q in QUANTILE_GRID}
        reps_used = reps
    return {
        "statistic": stat,
        "p_value": p_value,
        "method": method,
        "reps": reps_used,
        "seed": seed,
        "null_quantiles": null_q,
    }
