"""Property tests for the estimation chain: log-density, posteriors,
per-point loss, and the mean with its Monte Carlo standard error."""
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.stats import multivariate_normal

from distinguish import (MixtureModel, PmcSettings, cluster_posterior_matrix,
                         delta_matrix, mixture, pmc_from_sample, pmc_mc,
                         pmc_upper_bound)
from distinguish.models import BLOCK_ELEMENTS, gaussian_log_density
from distinguish.pmc import RULES

PROPERTY = settings(derandomize=True, deadline=None, max_examples=30)

shapes = st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 6),
                   st.integers(1, 3))


def build(seed, kappa, p):
    rng = np.random.default_rng(seed)
    w = np.maximum(rng.dirichlet(np.full(kappa, 2.0)), 1e-3)
    covs = []
    for _ in range(kappa):
        A = rng.normal(size=(p, p))
        covs.append(A @ A.T + 0.3 * np.eye(p))
    return mixture(w / w.sum(), rng.normal(0, 2.5, (kappa, p)), covs), rng


@PROPERTY
@given(shapes)
def test_delta_matrix_shares_the_mc_estimate(shape):
    model, _ = build(*shape)
    s = PmcSettings(m_samples=4000, seed=shape[0])
    D = delta_matrix(model, None, s)
    est = pmc_mc(model, None, s)
    assert D.pmc_std_error == est.std_error
    assert abs(D.pmc - est.value) <= 1e-12


@PROPERTY
@given(shapes, st.randoms(use_true_random=False))
def test_component_relabelling_is_bit_identical(shape, rnd):
    model, rng = build(*shape)
    perm = list(range(model.kappa))
    rnd.shuffle(perm)
    relabelled = MixtureModel(model.weights[perm],
                              tuple(model.components[j] for j in perm))
    X = rng.normal(0, 3, (300, model.p))
    for rule in RULES:
        assert (pmc_from_sample(relabelled, None, X, rule)
                == pmc_from_sample(model, None, X, rule))
    assert np.array_equal(cluster_posterior_matrix(relabelled, None, X),
                          cluster_posterior_matrix(model, None, X)[:, perm])


@PROPERTY
@given(shapes, st.sampled_from(RULES))
def test_risk_within_zero_and_upper_bound(shape, rule):
    model, _ = build(*shape)
    est = pmc_mc(model, None, PmcSettings(m_samples=4000, seed=shape[0],
                                          rule=rule))
    assert 0.0 <= est.value
    assert est.value <= pmc_upper_bound(model.weights, rule) + 4 * est.std_error


@PROPERTY
@given(shapes)
def test_log_density_matches_scipy(shape):
    model, rng = build(*shape)
    for comp in model.components:
        X = comp.mean + rng.normal(0, 2, (50, model.p))
        expect = multivariate_normal(comp.mean, comp.covariance).logpdf(X)
        got = comp.log_density(X)
        assert np.allclose(got, expect, rtol=0, atol=1e-10)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 10),
       st.integers(1, 500))
def test_stacked_kernel_matches_scipy_across_row_blocks(seed, kappa, p,
                                                        extra):
    model, rng = build(seed, kappa, p)
    n = BLOCK_ELEMENTS // (kappa * p) + extra
    X = rng.normal(0, 4, (n, p))
    got = gaussian_log_density(
        X, np.array([c.mean for c in model.components]),
        np.array([c.chol for c in model.components]))
    assert got.shape == (n, kappa)
    for j, comp in enumerate(model.components):
        expect = multivariate_normal(comp.mean, comp.covariance).logpdf(X)
        assert np.allclose(got[:, j], expect, rtol=0, atol=1e-10)


def test_far_mean_keeps_precision():
    mean, sd = np.array([1e6, -1e6]), 1e-3
    comp = mixture([1.0], [mean], [np.eye(2) * sd**2]).components[0]
    offsets = np.random.default_rng(0).normal(0, 3 * sd, (200, 2))
    X = mean + offsets
    r = (X - mean) / sd
    expect = (-0.5 * (r * r).sum(axis=1) - 2 * np.log(sd)
              - np.log(2 * np.pi))
    assert np.allclose(comp.log_density(X), expect, rtol=0, atol=1e-8)


def test_log_component_densities_memory_is_bounded():
    # unblocked (kappa, n, p) differences alone would take 72 MB
    model, rng = build(1, 9, 10)
    X = rng.normal(0, 3, (100_000, 10))
    model.log_component_densities(X[:10])
    tracemalloc.start()
    try:
        out = model.log_component_densities(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (100_000, 9)
    assert peak < 32 * 2**20
