import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from distinguish import (ClusterConfiguration, PmcSettings, cluster_posterior_matrix,
                         delta_matrix, mixture, pmc_mc, pmc_quadrature,
                         pmc_upper_bound, sample_mixture, stream)
from distinguish.pmc import CHUNK, _cubature, _gk21_product, pmc_from_sample

# frozen trapezoid values for equal-weight N(0,1) vs N(3,1)
TWO_GAUSS_RANDOMIZED = 0.0986212510997209
TWO_GAUSS_OPTIMAL = 0.06680720126885809  # Phi(-1.5)


def two_gauss(d=3.0):
    return mixture([0.5, 0.5], [[0.0], [d]], [np.eye(1), np.eye(1)])


def identical_mixture(K, p=1):
    return mixture(np.full(K, 1.0 / K), np.zeros((K, p)), [np.eye(p)] * K)


def reference(p):
    """Criterion 1's equal-weight triple at 0 and +/- d, ||d|| = 3."""
    mu = np.ones(p) * 3.0 / np.sqrt(p)
    return mixture([1 / 3] * 3, [np.zeros(p), mu, -mu], [np.eye(p)] * 3)


def two_gauss_in(p):
    """two_gauss, with independent coordinates after the first."""
    return mixture([0.5, 0.5], [np.zeros(p), np.eye(p)[0] * 3.0],
                   [np.eye(p)] * 2)


def random_mixture(rng, kappa, p):
    means = rng.normal(0, 3, size=(kappa, p))
    covs = []
    for _ in range(kappa):
        A = rng.normal(size=(p, p))
        covs.append(A @ A.T + 0.3 * np.eye(p))
    w = rng.dirichlet(np.full(kappa, 2.0))
    w = np.maximum(w, 1e-3)
    w = w / w.sum()
    return mixture(w, means, covs)


class TestSettings:
    def test_m_floor(self):
        with pytest.raises(ValueError):
            PmcSettings(m_samples=999)

    def test_bad_rule(self):
        with pytest.raises(ValueError):
            PmcSettings(rule="greedy")


class TestPosteriors:
    def test_logistic_posterior(self):
        # at x=3 the log odds of the far component are 4.5
        pi = cluster_posterior_matrix(two_gauss(), None, [[3.0]])[0]
        assert np.isclose(pi[1], 0.9890130573694068, rtol=0, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        m = random_mixture(rng, 4, 2)
        X = rng.normal(size=(50, 2))
        pi = cluster_posterior_matrix(m, None, X)
        assert np.allclose(pi.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(pi >= 0)

    def test_grouping_sums_member_posteriors(self):
        rng = np.random.default_rng(1)
        m = random_mixture(rng, 3, 1)
        X = rng.normal(size=(20, 1))
        full = cluster_posterior_matrix(m, None, X)
        cfg = ClusterConfiguration((0, 1, 0), 2)
        grouped = cluster_posterior_matrix(m, cfg, X)
        assert np.allclose(grouped[:, 0], full[:, 0] + full[:, 2], atol=1e-12)

    def test_far_point_is_certain(self):
        pi = cluster_posterior_matrix(two_gauss(), None, [[-40.0]])[0]
        assert pi[0] > 1 - 1e-12


class TestSampling:
    def test_stratified_counts(self):
        m = mixture([0.25, 0.75], [[0.0], [5.0]], [np.eye(1)] * 2)
        X, labels = sample_mixture(m, 10000, seed=3)
        counts = np.bincount(labels, minlength=2)
        assert counts.sum() == 10000
        # floor allocation guarantees at least floor(M * alpha_k)
        assert counts[0] >= 2500 - 1 and counts[1] >= 7500 - 1
        assert X.shape == (10000, 1)

    def test_rows_follow_chunk_streams(self):
        # row r's normals come from the stream of chunk r // CHUNK; each
        # component maps its own contiguous block of rows
        rng = np.random.default_rng(2)
        m = random_mixture(rng, 3, 2)
        M = 3 * CHUNK + 123
        X, labels = sample_mixture(m, M, seed=11)
        Z = np.vstack([stream(11, "mc-chunk", c).standard_normal(
                           (min(CHUNK, M - lo), m.p))
                       for c, lo in enumerate(range(0, M, CHUNK))])
        assert np.all(np.diff(labels) >= 0)
        for j, (mean, L) in enumerate(zip(m.means, m.chol)):
            rows = labels == j
            assert np.array_equal(X[rows], mean + Z[rows] @ L.T)

    def test_seed_changes_sample(self):
        m = two_gauss()
        X1, _ = sample_mixture(m, 2000, seed=1)
        X2, _ = sample_mixture(m, 2000, seed=2)
        assert not np.array_equal(X1, X2)


class TestQuadrature:
    def test_two_gauss_randomized(self):
        v = pmc_quadrature(two_gauss(), None, "randomized")
        assert np.isclose(v, TWO_GAUSS_RANDOMIZED, rtol=0, atol=1e-6)

    def test_two_gauss_optimal(self):
        v = pmc_quadrature(two_gauss(), None, "optimal")
        assert np.isclose(v, TWO_GAUSS_OPTIMAL, rtol=0, atol=1e-6)

    def test_single_cluster_is_zero(self):
        assert pmc_quadrature(two_gauss(), ClusterConfiguration((0, 0), 1),
                              "randomized") == 0.0

    def test_p3_unsupported(self):
        m = mixture([1.0], [[0.0, 0.0, 0.0]], [np.eye(3)])
        with pytest.raises(ValueError, match="p > 2"):
            pmc_quadrature(m, None)

    # values of the former quad (p = 1) and dblquad (p = 2) integrators,
    # and the bits of scipy's cubature; "reference" is criterion 1's
    # equal-weight triple at 0 and +/- d, ||d|| = 3, and "two_gauss" in 2-D
    # adds an independent coordinate
    @pytest.mark.parametrize("name, p, rule, expect", [
        ("reference", 1, "randomized", 0.1314370399964841),
        ("reference", 1, "optimal", 0.08907626838520712),
        ("reference", 2, "randomized", 0.1314370399960845),
        ("reference", 2, "optimal", 0.08907626482531183),
        ("two_gauss", 1, "randomized", 0.09862125109972242),
        ("two_gauss", 1, "optimal", 0.06680720126885804),
        ("two_gauss", 2, "randomized", 0.09862125109972172),
        ("two_gauss", 2, "optimal", 0.06680720126885745),
    ])
    def test_matches_former_integrators(self, name, p, rule, expect):
        m = reference(p) if name == "reference" else two_gauss_in(p)
        value = pmc_quadrature(m, None, rule)
        assert abs(value - expect) <= 1e-8
        assert same_bits(value, scipy_quadrature(m, None, rule))

    def test_2d_matches_1d_product_structure(self):
        # independent second coordinate must not change the risk
        m1 = two_gauss()
        m2 = mixture([0.5, 0.5], [[0.0, 0.0], [3.0, 0.0]], [np.eye(2)] * 2)
        v1 = pmc_quadrature(m1, None, "randomized")
        v2 = pmc_quadrature(m2, None, "randomized")
        assert np.isclose(v1, v2, rtol=0, atol=1e-5)


def scipy_quadrature(model, config, rule):
    """pmc_quadrature with scipy's cubature, at the former call's
    tolerances, in place of _cubature."""
    from scipy import integrate

    def cubature(f, a, b, atol, rtol):
        return integrate.cubature(f, a, b, rule="gk21", atol=1e-8,
                                  rtol=1.49e-8).estimate

    with mock.patch("distinguish.pmc._cubature", side_effect=cubature) as spy:
        value = pmc_quadrature(model, config, rule)
    K = model.kappa if config is None else config.K
    assert spy.call_count == (K > 1)
    return value


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestCubatureOracle:
    """_cubature against scipy.integrate.cubature, bit for bit; scipy is
    imported inside each test only."""

    def test_rule_constants_are_scipys(self):
        from scipy.integrate._rules import (GaussKronrodQuadrature,
                                            ProductNestedFixed)
        from scipy.special import roots_legendre
        gk21 = GaussKronrodQuadrature(21)
        one = (gk21.nodes_and_weights, roots_legendre(10))
        two = (ProductNestedFixed([gk21] * 2).nodes_and_weights,
               ProductNestedFixed([gk21] * 2).lower_nodes_and_weights)
        for d, ((kx, kw), (gx, gw)) in [(1, one), (2, two)]:
            nodes, weights = _gk21_product(d)
            expect_nodes = np.concatenate([np.reshape(kx, (-1, d)),
                                           np.reshape(gx, (-1, d))])
            assert nodes.tobytes() == expect_nodes.tobytes()
            assert weights.tobytes() == np.concatenate([kw, -gw]).tobytes()

    @pytest.mark.parametrize("p, rule", [(1, "randomized"), (1, "optimal"),
                                         (2, "randomized")])
    @pytest.mark.parametrize("assignment", [(0, 1, 1), (1, 0, 1),
                                            (0, 0, 1, 2), (2, 1, 0, 1)])
    def test_merged_clusters_match_scipy(self, p, rule, assignment):
        rng = np.random.default_rng(len(assignment) + 10 * p)
        m = random_mixture(rng, len(assignment), p)
        config = ClusterConfiguration(assignment, max(assignment) + 1)
        assert same_bits(pmc_quadrature(m, config, rule),
                         scipy_quadrature(m, config, rule))

    # scipy takes about a second per 2-D model under the optimal rule, so
    # that pairing comes from an example; the draws favour small kappa, so
    # the examples are wide
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5),
           st.sampled_from([(1, "randomized"), (1, "optimal"),
                            (2, "randomized")]))
    @example(1, 4, (2, "optimal"))
    @example(2, 5, (2, "randomized"))
    @example(3, 5, (1, "optimal"))
    def test_random_mixtures_match_scipy(self, seed, kappa, shape):
        p, rule = shape
        m = random_mixture(np.random.default_rng(seed), kappa, p)
        assert same_bits(pmc_quadrature(m, None, rule),
                         scipy_quadrature(m, None, rule))

    @pytest.mark.parametrize("cap", [1, 40, 200])
    @pytest.mark.parametrize("d", [1, 2])
    def test_a_jump_and_the_split_cap_match_scipy(self, d, cap):
        # f jumps off every midpoint, so with no tolerance the boxes across
        # the jump keep their error and every run ends at the cap
        from scipy import integrate

        def f(x):
            return (x[:, 0] > 1 / 3) + np.exp(-x[:, 0] ** 2)

        a, b = -np.ones(d), np.ones(d)
        expect = integrate.cubature(f, a, b, rule="gk21", atol=0.0, rtol=0.0,
                                    max_subdivisions=cap)
        assert expect.status == "not_converged"
        assert same_bits(_cubature(f, a, b, 0.0, 0.0, cap),
                         expect.estimate)


class TestMonteCarlo:
    def test_matches_quadrature_within_3se(self):
        m = two_gauss()
        est = pmc_mc(m, None, PmcSettings(m_samples=100000, seed=5))
        assert abs(est.value - TWO_GAUSS_RANDOMIZED) < 3 * est.std_error

    def test_single_cluster_exact_zero(self):
        est = pmc_mc(two_gauss(), ClusterConfiguration((0, 0), 1),
                     PmcSettings(m_samples=1000, seed=0))
        assert est.value == 0.0 and est.std_error == 0.0

    def test_reproducible(self):
        rng = np.random.default_rng(3)
        m = random_mixture(rng, 4, 2)
        s = PmcSettings(m_samples=60000, seed=9)
        a = pmc_mc(m, None, s)
        b = pmc_mc(m, None, s)
        assert a.value == b.value and a.std_error == b.std_error

    def test_component_permutation_bit_identity_on_shared_sample(self):
        rng = np.random.default_rng(4)
        m = random_mixture(rng, 4, 2)
        perm = [2, 0, 3, 1]
        m2 = mixture(m.weights[perm], m.means[perm], m.covariances[perm])
        X, _ = sample_mixture(m, 20000, seed=6)
        v1, se1 = pmc_from_sample(m, None, X, "randomized")
        v2, se2 = pmc_from_sample(m2, None, X, "randomized")
        assert v1 == v2 and se1 == se2

    def test_randomized_at_least_optimal_per_sample(self):
        rng = np.random.default_rng(5)
        m = random_mixture(rng, 3, 2)
        X, _ = sample_mixture(m, 20000, seed=7)
        vr, _ = pmc_from_sample(m, None, X, "randomized")
        vo, _ = pmc_from_sample(m, None, X, "optimal")
        assert vr >= vo - 1e-12


class TestBounds:
    def test_complete_overlap_hits_bound_k2(self):
        # posteriors are constant here, so the std error is exactly zero
        m = identical_mixture(2)
        est = pmc_mc(m, None, PmcSettings(m_samples=50000, seed=1))
        assert abs(est.value - 0.5) <= 3 * est.std_error + 1e-15

    def test_closed_form_bounds(self):
        assert pmc_upper_bound([0.5, 0.5]) == 0.5
        assert pmc_upper_bound([0.25] * 4) == 0.75
        assert abs(pmc_upper_bound([1 / 3] * 3) - 2 / 3) < 1e-15
        assert pmc_upper_bound([0.5, 0.5], rule="optimal") == 0.5
        assert pmc_upper_bound([0.2, 0.8], rule="optimal") == pytest.approx(0.2)

    def test_randomized_bound_dominates_estimate(self):
        rng = np.random.default_rng(6)
        m = random_mixture(rng, 5, 2)
        est = pmc_mc(m, None, PmcSettings(m_samples=20000, seed=2))
        assert est.value <= pmc_upper_bound(m.weights) + 3 * est.std_error


class TestDeltaMatrix:
    def test_upper_triangle_sum_is_pmc_bit_exact(self):
        rng = np.random.default_rng(7)
        m = random_mixture(rng, 5, 2)
        D = delta_matrix(m, None, PmcSettings(m_samples=30000, seed=3))
        upper = D.values[np.triu_indices(5, 1)]
        assert float(np.sort(upper).sum()) == D.pmc

    def test_symmetric_nonnegative_zero_diagonal(self):
        rng = np.random.default_rng(8)
        m = random_mixture(rng, 4, 1)
        D = delta_matrix(m, None, PmcSettings(m_samples=20000, seed=4))
        assert np.array_equal(D.values, D.values.T)
        assert np.all(D.values >= 0)
        assert np.all(np.diag(D.values) == 0)

    def test_close_to_summand_estimate(self):
        rng = np.random.default_rng(9)
        m = random_mixture(rng, 4, 2)
        D = delta_matrix(m, None, PmcSettings(m_samples=20000, seed=5))
        X, _ = sample_mixture(m, 20000, seed=5)
        v, _ = pmc_from_sample(m, None, X, "randomized")
        assert np.isclose(D.pmc, v, rtol=0, atol=1e-12)

    def test_requires_randomized_rule(self):
        with pytest.raises(ValueError, match="randomized"):
            delta_matrix(two_gauss(), None,
                         PmcSettings(m_samples=1000, rule="optimal"))

    def test_round_trip_values(self):
        rng = np.random.default_rng(11)
        m = random_mixture(rng, 3, 2)
        D = delta_matrix(m, None, PmcSettings(m_samples=5000, seed=7))
        back = json.loads(json.dumps(D.to_dict()))
        assert np.array_equal(np.array(back["values"]), D.values)
        assert back["pmc"] == D.pmc
        assert back["pmc_std_error"] == D.estimate.std_error
        assert (back["m_samples"], back["seed"]) == (5000, 7)


def test_mc_error_halves_when_m_quadruples():
    m = two_gauss()
    se1 = pmc_mc(m, None, PmcSettings(m_samples=40000, seed=8)).std_error
    se2 = pmc_mc(m, None, PmcSettings(m_samples=160000, seed=8)).std_error
    assert 0.4 < se2 / se1 < 0.6
