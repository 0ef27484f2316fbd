import tracemalloc

import numpy as np
import pytest

from distinguish import (DegenerateFitError, Partition, cut_tree,
                         default_regularization, estimators, fit_gmm_em,
                         fit_hclust, fit_kmeans, free_parameters, models,
                         partition_to_gaussians, select_gmm_bic)
from distinguish.estimators import _em_single, _seed_responsibilities


@pytest.fixture(scope="module")
def blobs():
    rng = np.random.default_rng(42)
    X = np.vstack([rng.normal(0, 0.5, (50, 2)),
                   rng.normal((6, 0), 0.5, (50, 2)),
                   rng.normal((3, 5), 0.5, (50, 2))])
    truth = np.repeat([0, 1, 2], 50)
    return X, truth


def agree(a, b):
    # label-permutation-proof agreement for tiny K
    from distinguish import adjusted_rand_index
    return adjusted_rand_index(a, b)


def union_find_cut(tree, K):
    """Reference cut: union-find over the first n - K merges, clusters
    numbered by first appearance among the leaves."""
    n = tree.n
    parent = list(range(n + len(tree.merges)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n - K):
        a, b, _ = tree.merges[i]
        parent[find(int(a))] = n + i
        parent[find(int(b))] = n + i
    labels = np.empty(n, dtype=int)
    seen = {}
    for i in range(n):
        labels[i] = seen.setdefault(find(i), len(seen))
    return labels


class TestKmeans:
    def test_recovers_separated_blobs(self, blobs):
        X, truth = blobs
        fit = fit_kmeans(X, 3, seed=1)
        assert agree(fit.partition.labels, truth) == 1.0

    def test_labels_canonical_by_first_appearance(self, blobs):
        X, _ = blobs
        fit = fit_kmeans(X, 3, seed=1)
        seen = []
        for lab in fit.partition.labels:
            if lab not in seen:
                seen.append(lab)
        assert seen == [0, 1, 2]

    def test_centroids_match_labels(self, blobs):
        X, _ = blobs
        fit = fit_kmeans(X, 3, seed=1)
        for j in range(3):
            np.testing.assert_allclose(
                fit.centroids[j], X[fit.partition.labels == j].mean(axis=0))

    def test_distortion_is_consistent(self, blobs):
        X, _ = blobs
        fit = fit_kmeans(X, 3, seed=1)
        d = ((X - fit.centroids[fit.partition.labels]) ** 2).sum()
        assert np.isclose(fit.distortion, d, rtol=0, atol=1e-9)

    def test_deterministic_given_seed(self, blobs):
        X, _ = blobs
        a = fit_kmeans(X, 4, seed=9)
        b = fit_kmeans(X, 4, seed=9)
        assert np.array_equal(a.partition.labels, b.partition.labels)
        assert a.distortion == b.distortion

    def test_lloyd_path_monotone(self, blobs):
        X, _ = blobs
        fit = fit_kmeans(X, 4, seed=2)
        path = fit.distortion_path
        assert len(path) >= 1
        assert all(b <= a + 1e-9 for a, b in zip(path, path[1:]))

    def test_k_equals_n_allowed(self):
        X = np.arange(6.0).reshape(3, 2)
        fit = fit_kmeans(X, 3, seed=0)
        assert fit.distortion == 0.0

    def test_bad_k_rejected(self, blobs):
        X, _ = blobs
        with pytest.raises(ValueError):
            fit_kmeans(X, 0)
        with pytest.raises(ValueError):
            fit_kmeans(X, X.shape[0] + 1)


class TestHclust:
    def test_heights_monotone_nondecreasing(self, blobs):
        X, _ = blobs
        tree = fit_hclust(X)
        heights = tree.merges[:, 2]
        assert np.all(np.diff(heights) >= -1e-12)

    def test_cut_recovers_blobs(self, blobs):
        X, truth = blobs
        part = cut_tree(fit_hclust(X), 3)
        assert agree(part.labels, truth) == 1.0

    def test_cut_labels_by_first_appearance(self, blobs):
        X, _ = blobs
        part = cut_tree(fit_hclust(X), 4)
        seen = []
        for lab in part.labels:
            if lab not in seen:
                seen.append(lab)
        assert seen == list(range(4))

    def test_cut_extremes(self, blobs):
        X, _ = blobs
        tree = fit_hclust(X)
        assert cut_tree(tree, 1).K == 1
        n = X.shape[0]
        assert cut_tree(tree, n).K == n

    @pytest.mark.parametrize("n, duplicates", [(2, False), (9, False),
                                               (40, False), (30, True)])
    def test_cut_matches_union_find(self, n, duplicates):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(n, 2))
            if duplicates:
                # repeated points tie the merge heights at zero
                X = X[rng.integers(0, n // 3, n)]
            tree = fit_hclust(X)
            for K in range(1, n + 1):
                expect = union_find_cut(tree, K)
                got = cut_tree(tree, K).labels
                assert got.dtype == expect.dtype
                assert np.array_equal(got, expect)

    def test_newick_well_formed(self):
        X = np.array([[0.0], [0.1], [5.0], [5.2]])
        text = fit_hclust(X).to_newick()
        assert text.endswith(";")
        assert text.count("(") == text.count(")") == 3
        for leaf in "0123":
            assert leaf in text

    def test_ward_pair_height_is_squared_distance(self):
        # two singletons at distance d merge at height d^2
        X = np.array([[0.0], [3.0], [100.0], [200.0]])
        tree = fit_hclust(X)
        assert np.isclose(tree.merges[0, 2], 9.0, rtol=0, atol=1e-12)


class TestPartitionToGaussians:
    def test_weights_sum_exactly_one(self, blobs):
        X, truth = blobs
        model = partition_to_gaussians(X, Partition(truth, 3))
        assert np.sum(model.weights) == 1.0

    def test_means_are_cluster_means(self, blobs):
        X, truth = blobs
        model = partition_to_gaussians(X, Partition(truth, 3))
        for k in range(3):
            np.testing.assert_allclose(model.components[k].mean,
                                       X[truth == k].mean(axis=0))

    def test_covariance_is_mle_plus_reg(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        part = Partition(np.array([0, 0, 0, 1, 1, 1]), 2)
        reg = 1e-3
        model = partition_to_gaussians(X, part, reg=reg)
        mle = np.var(X[:3], ddof=0)
        assert np.isclose(model.components[0].covariance[0, 0], mle + reg,
                          rtol=0, atol=1e-15)

    def test_default_regularization_scale(self):
        X = np.array([[0.0], [2.0]])
        assert default_regularization(X) == pytest.approx(1e-6 * 2.0)


class TestEm:
    def test_free_parameters(self):
        assert free_parameters(6, 2) == 35
        assert free_parameters(1, 1) == 2
        assert free_parameters(2, 3) == 2 - 1 + 6 + 12

    def test_fits_two_separated_gaussians(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(0, 1, (150, 1)),
                       rng.normal(8, 1, (150, 1))])
        fit = fit_gmm_em(X, 2, seed=0)
        assert fit.converged
        mus = sorted(c.mean[0] for c in fit.model.components)
        assert abs(mus[0] - 0.0) < 0.4 and abs(mus[1] - 8.0) < 0.4
        assert np.sum(fit.model.weights) == 1.0

    def test_loglik_path_monotone(self):
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(0, 1, (80, 2)),
                       rng.normal(4, 1, (80, 2))])
        fit = fit_gmm_em(X, 3, seed=1)
        path = fit.loglik_path
        assert len(path) == fit.iterations
        assert all(b >= a - 1e-9 for a, b in zip(path, path[1:]))

    def test_bic_formula(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, 2))
        fit = fit_gmm_em(X, 2, seed=2)
        d = free_parameters(2, 2)
        assert np.isclose(fit.bic, 2 * fit.loglik - d * np.log(100),
                          rtol=0, atol=1e-9)

    def test_degenerate_data_raises(self):
        X = np.zeros((12, 2))
        with pytest.raises(DegenerateFitError, match="degenerate"):
            fit_gmm_em(X, 2, seed=0)

    @pytest.mark.parametrize("scale, degenerate", [(1e-7, True),
                                                   (1e-5, False)])
    def test_condition_number_over_1e12_collapses(self, scale, degenerate):
        # covariance eigenvalues 1 and scale**2: Cholesky succeeds in both
        # cases, so only the condition-number rule can discard the starts
        rng = np.random.default_rng(8)
        X = rng.normal(size=(200, 2)) * [1.0, scale]
        if degenerate:
            with pytest.raises(DegenerateFitError, match="degenerate"):
                fit_gmm_em(X, 1, n_init=2, seed=0, reg=0.0)
        else:
            assert fit_gmm_em(X, 1, n_init=2, seed=0, reg=0.0).converged

    def test_row_blocks_do_not_change_the_fit(self, monkeypatch):
        rng = np.random.default_rng(9)
        X = np.vstack([rng.normal(0, 1, (150, 2)),
                       rng.normal(4, 1, (150, 2))])
        whole = fit_gmm_em(X, 3, n_init=2, seed=1)
        # 5 rows per block of the scatter sums and the log-density kernel
        monkeypatch.setattr(estimators, "BLOCK_ELEMENTS", 30)
        monkeypatch.setattr(models, "BLOCK_ELEMENTS", 30)
        blocked = fit_gmm_em(X, 3, n_init=2, seed=1)
        assert blocked.iterations == whole.iterations
        assert abs(blocked.loglik - whole.loglik) <= 1e-10 * abs(whole.loglik)

    def test_iteration_memory_is_bounded(self):
        # (kappa, n, p) scatter temporaries at n = 50000 would take 36 MB each
        rng = np.random.default_rng(10)
        X = rng.normal(size=(50_000, 10))
        resp = _seed_responsibilities(X, 9, rng, soft=True)
        tracemalloc.start()
        try:
            _em_single(X, resp, 1e-6, 1e-8, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_kappa_one_is_gaussian_mle(self):
        rng = np.random.default_rng(6)
        X = rng.normal(2.0, 1.5, size=(200, 1))
        fit = fit_gmm_em(X, 1, seed=0)
        comp = fit.model.components[0]
        assert np.isclose(comp.mean[0], X.mean(), atol=1e-8)
        reg = default_regularization(X)
        assert np.isclose(comp.covariance[0, 0], X.var(ddof=0) + reg,
                          atol=1e-6)


class TestBicSelection:
    def test_picks_true_component_count(self):
        rng = np.random.default_rng(7)
        X = np.vstack([rng.normal(0, 1, (120, 1)),
                       rng.normal(7, 1, (120, 1))])
        fit = select_gmm_bic(X, range(1, 4), seed=0)
        assert fit.model.kappa == 2

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            select_gmm_bic(np.zeros((10, 1)), [])

    def test_single_gaussian_prefers_kappa_one(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(200, 1))
        fit = select_gmm_bic(X, range(1, 4), seed=0)
        assert fit.model.kappa == 1
