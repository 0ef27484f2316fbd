import numpy as np
import pytest

from distinguish import (ClusterConfiguration, PmcSettings, cluster_posterior_matrix,
                         cluster_posteriors, cluster_weights, delta_matrix,
                         mixture, pmc, pmc_mc, pmc_quadrature, pmc_upper_bound,
                         sample_mixture, stream)
from distinguish.pmc import CHUNK, pmc_from_sample

# frozen trapezoid values for equal-weight N(0,1) vs N(3,1)
TWO_GAUSS_RANDOMIZED = 0.0986212510997209
TWO_GAUSS_OPTIMAL = 0.06680720126885809  # Phi(-1.5)


def two_gauss(d=3.0):
    return mixture([0.5, 0.5], [[0.0], [d]], [np.eye(1), np.eye(1)])


def identical_mixture(K, p=1):
    return mixture(np.full(K, 1.0 / K), np.zeros((K, p)), [np.eye(p)] * K)


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

    def test_round_trip(self):
        s = PmcSettings(m_samples=5000, seed=7, rule="optimal")
        assert PmcSettings.from_dict(s.to_dict()) == s


class TestPosteriors:
    def test_logistic_posterior(self):
        # at x=3 the log odds of the far component are 4.5
        pi = cluster_posteriors(two_gauss(), None, [3.0])
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
        pi = cluster_posteriors(two_gauss(), None, [-40.0])
        assert pi[0] > 1 - 1e-12

    def test_cluster_weights(self):
        m = mixture([0.2, 0.3, 0.5], np.zeros((3, 1)), [np.eye(1)] * 3)
        cfg = ClusterConfiguration((0, 1, 0), 2)
        w = cluster_weights(m, cfg)
        assert np.isclose(w[0], 0.7) and np.isclose(w[1], 0.3)


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
        for j, comp in enumerate(m.components):
            rows = labels == j
            assert np.array_equal(X[rows], comp.mean + Z[rows] @ comp.chol.T)

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

    # values of the former quad (p = 1) and dblquad (p = 2) integrators;
    # "reference" is criterion 1's equal-weight triple at 0 and +/- d,
    # ||d|| = 3, and "two_gauss" in 2-D adds an independent coordinate
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
        if name == "reference":
            mu = np.ones(p) * 3.0 / np.sqrt(p)
            m = mixture([1 / 3] * 3, [np.zeros(p), mu, -mu], [np.eye(p)] * 3)
        else:
            m = mixture([0.5, 0.5], [np.zeros(p), np.eye(p)[0] * 3.0],
                        [np.eye(p)] * 2)
        assert abs(pmc_quadrature(m, None, rule) - expect) <= 1e-8

    def test_2d_matches_1d_product_structure(self):
        # independent second coordinate must not change the risk
        m1 = two_gauss()
        m2 = mixture([0.5, 0.5], [[0.0, 0.0], [3.0, 0.0]], [np.eye(2)] * 2)
        v1 = pmc_quadrature(m1, None, "randomized")
        v2 = pmc_quadrature(m2, None, "randomized")
        assert np.isclose(v1, v2, rtol=0, atol=1e-5)


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
        m2 = mixture(m.weights[perm],
                     [m.components[i].mean for i in perm],
                     [m.components[i].covariance for i in perm])
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

    def test_dispatch_honors_quadrature_flag(self):
        est = pmc(two_gauss(), None, PmcSettings(quadrature=True))
        assert est.std_error == 0.0
        assert np.isclose(est.value, TWO_GAUSS_RANDOMIZED, atol=1e-6)


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
        upper = D.raw[np.triu_indices(5, 1)]
        assert float(np.sort(upper).sum()) == D.pmc

    def test_symmetric_nonnegative_zero_diagonal(self):
        rng = np.random.default_rng(8)
        m = random_mixture(rng, 4, 1)
        D = delta_matrix(m, None, PmcSettings(m_samples=20000, seed=4))
        assert np.array_equal(D.values, D.values.T)
        assert np.all(D.values >= 0)
        assert np.all(np.diag(D.values) == 0)

    def test_raw_is_values(self):
        rng = np.random.default_rng(12)
        m = random_mixture(rng, 4, 2)
        D = delta_matrix(m, None, PmcSettings(m_samples=5000, seed=8))
        assert D.raw is D.values

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

    def test_pairs_csv_shape(self):
        rng = np.random.default_rng(10)
        m = random_mixture(rng, 3, 1)
        D = delta_matrix(m, None, PmcSettings(m_samples=5000, seed=6))
        lines = D.to_pairs_csv().strip().splitlines()
        assert lines[0] == "cluster_i,cluster_j,delta"
        assert len(lines) == 1 + 3

    def test_round_trip_values(self):
        rng = np.random.default_rng(11)
        m = random_mixture(rng, 3, 2)
        D = delta_matrix(m, None, PmcSettings(m_samples=5000, seed=7))
        from distinguish import DeltaMatrix
        back = DeltaMatrix.from_dict(D.to_dict())
        assert np.array_equal(back.values, D.values)
        assert np.array_equal(back.raw, D.raw)
        assert back.pmc == D.pmc


def test_mc_error_halves_when_m_quadruples():
    m = two_gauss()
    se1 = pmc_mc(m, None, PmcSettings(m_samples=40000, seed=8)).std_error
    se2 = pmc_mc(m, None, PmcSettings(m_samples=160000, seed=8)).std_error
    assert 0.4 < se2 / se1 < 0.6
