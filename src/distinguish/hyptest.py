"""Test of a single-Gaussian null against clustered structure.

The statistic splits the data once with Ward clustering (K = 2), fits one
Gaussian per side, and evaluates the randomized-rule misclassification
risk of that two-cluster model averaged over the observed points.  Small
values mean well-separated halves, which is evidence AGAINST the null, so
the rejection region is the left tail.  Calibration is by Monte Carlo
draws from the null or by a parametric bootstrap around the fitted
Gaussian; p-values use the add-one estimator so they are never zero.
"""
from __future__ import annotations

import numpy as np

from .estimators import cut_tree, fit_hclust, partition_to_gaussians
from .models import Partition, as_matrix
from .pmc import pmc_from_sample
from .rng import stream

QUANTILE_GRID = (0.01, 0.025, 0.05, 0.10, 0.25, 0.50,
                 0.75, 0.90, 0.95, 0.975, 0.99)


def pmc_statistic(X) -> float:
    """Two-cluster separability of the first Ward split, lower = cleaner.

    Deterministic: the risk is the posterior loss of the fitted two-part
    Gaussian model averaged over the observed points themselves.
    """
    V = as_matrix(X)
    if V.shape[0] < 4:
        raise ValueError("statistic needs n >= 4")
    if np.all(V == V[0]):
        raise ValueError("degenerate data: all points identical")
    part = cut_tree(fit_hclust(V), 2)
    model = partition_to_gaussians(V, part)
    value, _ = pmc_from_sample(model, None, V, "randomized")
    return float(value)


def null_distribution(n: int, p: int, reps: int,
                      seed: int | None = None) -> np.ndarray:
    """Sorted sample of the statistic under a standard Gaussian null.

    The statistic is location-scale invariant, so the standard normal
    stands in for any single Gaussian.
    """
    if reps < 100:
        raise ValueError("reps must be >= 100")
    values = np.fromiter(
        (pmc_statistic(stream(seed, "null-rep", r).standard_normal((n, p)))
         for r in range(reps)), float, reps)
    return np.sort(values)


def pvalue_mc(stat: float, null_sample: np.ndarray) -> float:
    """Left-tail add-one p-value of stat against a null sample."""
    null_sample = np.asarray(null_sample, dtype=float)
    if null_sample.size == 0:
        raise ValueError("empty null sample")
    count = int(np.count_nonzero(null_sample <= stat))
    return (1.0 + count) / (1.0 + null_sample.size)


def pvalue_bootstrap(X, B: int = 500, seed: int | None = None) -> float:
    """Parametric bootstrap p-value: the null is the Gaussian fitted to X."""
    if B < 100:
        raise ValueError("B must be >= 100")
    V = as_matrix(X)
    stat = pmc_statistic(V)
    n, p = V.shape
    fit, = partition_to_gaussians(V, Partition(np.zeros(n, int), 1)).components
    boots = np.fromiter(
        (pmc_statistic(fit.mean + stream(seed, "boot-rep", b)
                       .standard_normal((n, p)) @ fit.chol.T)
         for b in range(B)), float, B)
    return pvalue_mc(stat, boots)


def test_report(X, reps: int = 5000, bootstrap: int | None = None,
                seed: int | None = None) -> dict:
    """Full test result: statistic, p-value, and the null quantile table."""
    V = as_matrix(X)
    stat = pmc_statistic(V)
    if bootstrap is not None:
        p_value = pvalue_bootstrap(V, bootstrap, seed)
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
