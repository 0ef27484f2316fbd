"""Property tests for the estimation chain: log-density, posteriors,
per-point loss, and the mean with its Monte Carlo standard error."""
import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.stats import multivariate_normal

from distinguish import (MixtureModel, PmcSettings, cluster_posterior_matrix,
                         delta_matrix, mixture, pmc_from_sample, pmc_mc,
                         pmc_upper_bound)
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
