import contextlib
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.cluster.hierarchy import linkage

from distinguish import (DegenerateFitError, KmeansFit, Partition, cut_tree,
                         default_regularization, estimators, fit_gmm_em,
                         fit_hclust, fit_kmeans, free_parameters, models,
                         partition_to_gaussians, select_gmm_bic, stream)
from distinguish.estimators import (_em_stack, _kmeanspp_centers, _lloyd,
                                    _responsibilities)
from distinguish.rng import derive_seed


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


def per_restart_kmeanspp(X, K, rng):
    """Reference kmeans++: one restart, drawing with rng.choice."""
    n = X.shape[0]
    centers = np.empty((K, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=-1)
    for j in range(1, K):
        total = d2.sum()
        if total <= 0:
            centers[j] = X[rng.integers(n)]
        else:
            centers[j] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=-1))
    return centers


def per_restart_lloyd(X, centers, max_iter):
    """Reference Lloyd loop: one restart, a per-cluster centroid update,
    and a repair that takes the farthest point of a cluster with at least
    two rows and recomputes every centroid after each hand-over.  It stops
    once the labels equal those of one or two iterations back."""
    n, K = X.shape[0], centers.shape[0]
    labels = before = None
    path = []
    for _ in range(max_iter):
        d2 = ((X[:, None, :] - centers[None]) ** 2).sum(axis=-1)
        new_labels = d2.argmin(axis=1)
        for j in range(K):
            mask = new_labels == j
            if mask.any():
                centers[j] = X[mask].mean(axis=0)
            else:
                own = d2[np.arange(n), new_labels]
                own[np.bincount(new_labels, minlength=K)[new_labels] < 2] = (
                    -np.inf)
                far = own.argmax()
                new_labels[far] = j
                centers[j] = X[far]
                for jj in range(K):
                    m2 = new_labels == jj
                    if m2.any():
                        centers[jj] = X[m2].mean(axis=0)
        path.append(float(((X - centers[new_labels]) ** 2).sum()))
        if any(old is not None and np.array_equal(new_labels, old)
               for old in (labels, before)):
            labels = new_labels
            break
        labels, before = new_labels, labels
    for j in range(K):
        centers[j] = X[labels == j].mean(axis=0)
    distortion = float(((X - centers[labels]) ** 2).sum())
    return labels, centers, distortion, tuple(path)


def per_restart_kmeans(X, K, restarts, seed):
    """Reference fit_kmeans: restarts one after another."""
    best = None
    for r in range(restarts):
        centers = per_restart_kmeanspp(X, K, stream(seed, "kmeans-restart", r))
        labels, centers, distortion, path = per_restart_lloyd(X, centers, 300)
        if best is None or distortion < best[0]:
            best = (distortion, labels, centers, path)
    distortion, labels, centers, path = best
    order = {}
    for lab in labels:
        order.setdefault(lab, len(order))
    relabeled = np.array([order[lab] for lab in labels])
    centroids = np.vstack([centers[old]
                           for old in sorted(order, key=order.get)])
    return KmeansFit(Partition(relabeled, K), centroids, distortion, restarts,
                     path)


def spy_on_repairs(monkeypatch):
    """Cluster sizes after each call of the empty-cluster repair."""
    sizes = []
    repair = estimators._repair

    def spy(X, labels, centers, previous):
        repair(X, labels, centers, previous)
        sizes.append(np.bincount(labels, minlength=centers.shape[0]))

    monkeypatch.setattr(estimators, "_repair", spy)
    return sizes


def assert_same_fit(got, expect):
    assert np.array_equal(got.partition.labels, expect.partition.labels)
    assert np.array_equal(got.centroids, expect.centroids)
    assert got.distortion == expect.distortion
    assert got.distortion_path == expect.distortion_path


# Five points on a line and three hand-picked starts.  The far point 20 is
# alone in its cluster and farthest from its centre.  Taking it would empty
# the cluster it came from, so the repair of the empty cluster takes the
# farthest point of a cluster with two rows instead.
FIVE = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [6.0, 0.0], [20.0, 0.0]])
REPAIR_STARTS = {
    # taking the far point would empty cluster 0, visited before the repair
    "empties_visited_cluster": [[12.0, 0.0], [100.0, 0.0], [3.0, 0.0]],
    # taking the far point would empty cluster 1, repaired after cluster 0
    "empties_later_cluster": [[100.0, 0.0], [12.0, 0.0], [3.0, 0.0]],
}


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

    @pytest.mark.parametrize("case", [*REPAIR_STARTS, "fewer_points_than_k_1d",
                                      "fewer_points_than_k_2d", "float_3d"])
    def test_repair_matches_per_restart_lloyd(self, case, monkeypatch):
        sizes = spy_on_repairs(monkeypatch)
        if case in REPAIR_STARTS:
            start = np.array(REPAIR_STARTS[case])
            labels, centers, distortion, path = per_restart_lloyd(
                FIVE, start.copy(), 300)
            stack = start[None].copy()
            got_labels, got_paths = _lloyd(FIVE[None], stack, 300)
            assert np.array_equal(got_labels[0], labels)
            assert np.array_equal(stack[0], centers)
            assert got_paths[0][-1] == distortion
            assert tuple(got_paths[0]) == path
            # no repair left a cluster empty
            assert sizes and all(s.min() > 0 for s in sizes)
            return
        # integer coordinates: every centroid sum is exact, so p = 1 (whose
        # former mean summed pairwise) compares bit for bit as well
        p = {"fewer_points_than_k_1d": 1, "fewer_points_than_k_2d": 2,
             "float_3d": 3}[case]
        fitted = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 14))
            if case == "float_3d":
                X = rng.normal(size=(n, p))
                X[rng.integers(0, n, n // 2)] = X[0]
                K = int(rng.integers(2, n + 1))
            else:
                base = rng.integers(-3, 4, size=(int(rng.integers(1, n)), p))
                X = base[rng.integers(0, len(base), n)].astype(float)
                K = int(rng.integers(len(np.unique(X, axis=0)) + 1, n + 1))
            assert_same_fit(fit_kmeans(X, K, restarts=3, seed=seed),
                            per_restart_kmeans(X, K, 3, seed))
            fitted += 1
        assert sizes and all(s.min() > 0 for s in sizes) and fitted == 100

    @pytest.mark.parametrize("p", [2, 3, 7, 8, 10])
    def test_matches_per_restart_kmeans_bit_for_bit(self, p):
        # clusters of tens of rows: their sums round differently unless
        # they are added in row order, as the former per-cluster mean did;
        # from p = 8 on numpy sums the coordinates pairwise
        for seed in range(4):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(int(rng.integers(60, 240)), p))
            X[: len(X) // 2] += 4.0
            K = int(rng.integers(2, 6))
            assert_same_fit(fit_kmeans(X, K, restarts=3, seed=seed),
                            per_restart_kmeans(X, K, 3, seed))

    def test_row_blocks_do_not_change_the_partition(self, blobs,
                                                   monkeypatch):
        X, _ = blobs
        whole = fit_kmeans(X, 4, seed=3)
        # one start per chunk and 5 rows per assignment block
        monkeypatch.setattr(estimators, "BLOCK_ELEMENTS", 40)
        blocked = fit_kmeans(X, 4, seed=3)
        assert np.array_equal(blocked.partition.labels,
                              whole.partition.labels)
        assert np.array_equal(blocked.centroids, whole.centroids)
        assert len(blocked.distortion_path) == len(whole.distortion_path)
        assert np.isclose(blocked.distortion, whole.distortion, rtol=1e-12,
                          atol=0)

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

    @pytest.mark.parametrize("kind", ["normal", "cubed", "two-blobs"])
    def test_1d_merges_join_adjacent_intervals(self, kind):
        # on tie-free 1-D data every scipy Ward merge joins two clusters
        # that are neighbouring intervals of the sorted values, which the
        # 1-D Ward rounds (_ward_rounds) rely on
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 200))
            x = {"normal": rng.normal(size=n),
                 "cubed": rng.normal(size=n) ** 3,
                 "two-blobs": rng.normal(size=n) + 6 * (rng.random(n) < .5),
                 }[kind]
            rank = np.argsort(np.argsort(x))
            span = {i: (int(r), int(r)) for i, r in enumerate(rank)}
            for i, (a, b, _, _) in enumerate(linkage(x[:, None], "ward")):
                (lo_a, hi_a), (lo_b, hi_b) = span.pop(a), span.pop(b)
                assert hi_a + 1 == lo_b or hi_b + 1 == lo_a
                span[n + i] = (min(lo_a, lo_b), max(hi_a, hi_b))

    def test_1d_tree_of_20k_values_needs_no_distance_matrix(self):
        # scipy's condensed distance matrix alone would take 1.6 GB; the
        # rounds keep a few arrays of n values
        x = np.random.default_rng(11).normal(size=20_000)
        # a near tie would send the data to scipy: rule it out first
        assert estimators._ward_tree_1d(x) is not None
        tracemalloc.start()
        try:
            tree = fit_hclust(x[:, None])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tree.merges.shape == (19_999, 3)
        assert peak < 16 * 2**20

    def test_1d_overflowing_merge_cost_goes_to_scipy(self):
        # the last merge cost overflows, so the rounds stop at two clusters
        # and scipy, whose distances overflow too, refuses the data
        with mock.patch("scipy.cluster.hierarchy.linkage",
                        wraps=linkage) as spy, \
                pytest.raises(ValueError, match="finite values"):
            fit_hclust(np.array([[0.0], [1.0], [1e160]]))
        assert spy.call_count == 1

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
            np.testing.assert_allclose(model.means[k],
                                       X[truth == k].mean(axis=0))

    def test_covariance_is_mle_plus_reg(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        part = Partition(np.array([0, 0, 0, 1, 1, 1]), 2)
        reg = 1e-3
        model = partition_to_gaussians(X, part, reg=reg)
        mle = np.var(X[:3], ddof=0)
        assert np.isclose(model.covariances[0, 0, 0], mle + reg,
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
        mus = sorted(fit.model.means[:, 0])
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
        resp = _responsibilities(X, _kmeanspp_centers(X[None], 9, [rng])[0],
                                 soft=True)
        tracemalloc.start()
        try:
            _em_stack(X, [resp], 1e-6, 1e-8, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    @pytest.mark.parametrize("reg", [0.0, 1e-3])
    def test_collapsed_starts_leave_the_stack(self, reg):
        # reg 0 runs the centred form, 1e-3 the moment form; a start whose
        # component has no weight collapses in both, one whose component
        # holds a single row (zero covariance) only without a floor
        rng = np.random.default_rng(11)
        X = np.vstack([rng.normal(0, 1, (60, 2)), rng.normal(5, 1, (60, 2))])
        good = [_responsibilities(X, _kmeanspp_centers(
                    X[None], k, [stream(0, "test", k)])[0], k == 3)
                for k in (2, 3)]
        no_weight = np.zeros((120, 2))
        no_weight[:, 0] = 1.0
        one_row = no_weight.copy()
        one_row[0] = [0.0, 1.0]
        out = _em_stack(X, [no_weight, good[0], one_row, good[1]], reg,
                        1e-8, 500)
        assert out[0] is None
        assert (out[2] is None) == (reg == 0.0)
        for got, resp in zip((out[1], out[3]), good):
            solo = _em_stack(X, [resp], reg, 1e-8, 500)[0]
            ll, w, mu, covs, it, converged, path = got
            assert ll.hex() == solo[0].hex()
            for a, b in zip((w, mu, covs), solo[1:4]):
                assert np.array_equal(a, b)
            assert (it, converged) == solo[4:6]
            assert [v.hex() for v in path] == [v.hex() for v in solo[6]]

    def test_collapsed_kappas_are_skipped_with_a_warning(self, monkeypatch):
        # without a covariance floor, components on single points collapse
        monkeypatch.setattr(estimators, "default_regularization",
                            lambda V: 0.0)
        X = np.repeat([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]], 8, axis=0)
        with pytest.warns(UserWarning) as caught:
            fit = select_gmm_bic(X, [1, 2, 3], n_init=2, seed=0)
        assert [str(w.message) for w in caught] == [
            "skipping kappa=2: degenerate fit",
            "skipping kappa=3: degenerate fit"]
        solo = fit_gmm_em(X, 1, n_init=2, reg=0.0,
                          seed=derive_seed(0, "bic-scan", 1))
        assert fit.loglik == solo.loglik and fit.model.kappa == 1

    def test_scan_with_every_kappa_collapsing_raises(self):
        with pytest.warns(UserWarning) as caught:
            with pytest.raises(DegenerateFitError, match="degenerate"):
                select_gmm_bic(np.zeros((12, 2)), [1, 2, 30], n_init=2,
                               seed=0)
        assert [str(w.message) for w in caught] == [
            "skipping kappa=1: degenerate fit",
            "skipping kappa=2: degenerate fit",
            "skipping kappa=30: need n > kappa, got n=12, kappa=30"]

    def test_scan_memory_is_bounded(self):
        # stacked whole, the 45 starts' responsibilities alone would take
        # 36 MB; the stacks are chunked at BLOCK_ELEMENTS of them
        rng = np.random.default_rng(12)
        X = rng.normal(size=(20_000, 10))
        tracemalloc.start()
        try:
            select_gmm_bic(X, range(1, 10), max_iter=1, n_init=5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_kappa_one_is_gaussian_mle(self):
        rng = np.random.default_rng(6)
        X = rng.normal(2.0, 1.5, size=(200, 1))
        fit = fit_gmm_em(X, 1, seed=0)
        assert np.isclose(fit.model.means[0, 0], X.mean(), atol=1e-8)
        reg = default_regularization(X)
        assert np.isclose(fit.model.covariances[0, 0, 0],
                          X.var(ddof=0) + reg,
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


@pytest.mark.parametrize("max_iter", [0, -1])
@pytest.mark.parametrize("fit", [
    lambda X, m: fit_kmeans(X, 2, max_iter=m),
    lambda X, m: fit_gmm_em(X, 2, max_iter=m),
    lambda X, m: select_gmm_bic(X, range(1, 4), max_iter=m),
], ids=["fit_kmeans", "fit_gmm_em", "select_gmm_bic"])
def test_max_iter_below_one_rejected(fit, max_iter):
    X = np.random.default_rng(9).normal(size=(30, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a skipped kappa would warn
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            fit(X, max_iter)


SEEDING_DATA = {
    "distinct": np.random.default_rng(3).normal(size=(40, 3)),
    # every distance 0: each centre after the first is a uniform draw
    "equal rows": np.ones((40, 3)),
}


@pytest.mark.parametrize("name", SEEDING_DATA)
@pytest.mark.parametrize("Ks", [[1, 2, 5, 9], [9, 1, 5, 2]])
def test_stacked_kmeanspp_draws_as_each_start_alone(name, Ks):
    # one pass of max K steps seeds a stack of mixed K on one dataset, as
    # an EM stack does; each start's centres and generator state equal a
    # lone draw's and the rng.choice reference's
    X = SEEDING_DATA[name]
    rngs = [stream(7, "seeding", s) for s in range(len(Ks))]
    centers = _kmeanspp_centers(np.broadcast_to(X, (len(Ks),) + X.shape),
                                Ks, rngs)
    assert centers.shape == (len(Ks), max(Ks), 3)
    for s, K in enumerate(Ks):
        lone_rng, ref_rng = stream(7, "seeding", s), stream(7, "seeding", s)
        lone = _kmeanspp_centers(X[None], K, [lone_rng])[0]
        assert np.array_equal(centers[s, :K], lone)
        assert np.array_equal(lone, per_restart_kmeanspp(X, K, ref_rng))
        assert (rngs[s].bit_generator.state
                == lone_rng.bit_generator.state
                == ref_rng.bit_generator.state)


def test_stacked_kmeanspp_with_equal_k():
    # select's k-means stacks: one K, a dataset per start
    rng = np.random.default_rng(4)
    Xs = rng.normal(size=(5, 30, 2))
    Xs[3] = 2.0  # one dataset of equal rows
    rngs = [stream(8, "seeding", s) for s in range(5)]
    centers = _kmeanspp_centers(Xs, 4, rngs)
    for s, X in enumerate(Xs):
        lone_rng = stream(8, "seeding", s)
        assert np.array_equal(centers[s],
                              _kmeanspp_centers(X[None], 4, [lone_rng])[0])
        assert rngs[s].bit_generator.state == lone_rng.bit_generator.state


@pytest.mark.parametrize("centred", [False, True], ids=["moment", "centred"])
@pytest.mark.parametrize("p", range(1, 11))
def test_em_covariances_are_symmetric_to_the_bit(p, centred):
    # The moment form's scatter R^T vec(x x^T) / n_k - mu mu^T looks
    # symmetric by construction, yet at p = 5, 6, 9 and 10 its (i, j) and
    # (j, i) entries came out of the batched product differing in their
    # last bits (20 of 20 random stacks each, OpenBLAS build of numpy
    # 2.4).  So _em_stack keeps its (S + S^T) / 2, which this pins.
    rng = np.random.default_rng(p)
    X = rng.normal(size=(150, p)) * rng.uniform(0.5, 3.0, p)
    X[:75] += 3.0
    form = (mock.patch.object(estimators, "_moment_form_ok",
                              return_value=False)
            if centred else contextlib.nullcontext())
    with form:
        resps = [_responsibilities(X, _kmeanspp_centers(
                     X[None], k, [stream(p, "sym", k)])[0], k == 2)
                 for k in (1, 2, 3)]
        out = _em_stack(X, resps, default_regularization(X), 1e-8, 500)
        fit = fit_gmm_em(X, 3, n_init=2, seed=p)
    covs = [c for r in out for c in r[3]]
    covs += list(fit.model.covariances)
    assert len(covs) == 9
    for c in covs:
        assert np.array_equal(c, c.T)


def per_start_em(V, resp, reg, tol, max_iter):
    """Reference moment-form EM: one start, its arithmetic as the stack's
    former iteration wrote it, with each segmented reduction of the
    log-sum-exp an np.maximum/np.add.reduceat over the one start's
    components.  Returns _em_stack's tuple, or None on a collapse."""
    n, p = V.shape
    xbar = V.mean(axis=0)
    X = V - xbar
    Z = np.hstack([np.ones((n, 1)), X,
                   (X[:, :, None] * X[:, None]).reshape(n, p * p)])
    R = resp.T.copy()
    path, ll_prev = [], -np.inf
    for it in range(1, max_iter + 1):
        T = (R[:, None] @ Z)[:, 0]
        w = T[:, 0] / n
        if (w < 1e-8).any():
            return None
        mu = T[:, 1:p + 1] / T[:, :1]
        covs = (T[:, p + 1:].reshape(-1, p, p) / T[:, 0, None, None]
                - mu[:, :, None] * mu[:, None]) + reg * np.eye(p)
        covs = (covs + covs.transpose(0, 2, 1)) / 2.0
        ev, U = np.linalg.eigh(covs)
        if ((ev[:, 0] <= 0) | (1e-12 * ev[:, -1] > ev[:, 0])).any():
            return None
        P = (U / ev[:, None]) @ U.transpose(0, 2, 1)
        Pmu = (P @ mu[:, :, None])[:, :, 0]
        const = np.log(w) - 0.5 * (np.log(ev).sum(axis=1)
                                   + p * np.log(2.0 * np.pi)
                                   + (mu * Pmu).sum(axis=1))
        b = np.concatenate([const[:, None], Pmu, -0.5 * P.reshape(-1, p * p)],
                           axis=1)
        A = (Z @ b[:, :, None])[:, :, 0]
        m = np.maximum.reduceat(A, [0], axis=0)
        A = np.exp(A - m)
        total = np.add.reduceat(A, [0], axis=0)
        ll = float((m + np.log(total)).sum())
        R = A / total
        path.append(ll)
        done = ll - ll_prev < tol * abs(ll)
        if done or it == max_iter:
            estimators._unit_sum(w)
            return ll, w, mu + xbar, covs, it, done, tuple(path)
        ll_prev = ll


@pytest.mark.parametrize("p", [1, 2, 5, 9])
def test_stack_equals_the_reference_em_bit_for_bit(p):
    # mixed kappas, 1 to 11, run as one stack: each start's log-sum-exp
    # takes its maximum from the stack's padded layout, and its sum keeps
    # np.add.reduceat's order, pairwise from 9 components on
    rng = np.random.default_rng(p)
    X = np.vstack([rng.normal(3.0 * c, 1.0, (30, p)) for c in range(5)])
    reg = default_regularization(X)
    kappas = (1, 4, 11, 2, 9, 4)
    resps = [_responsibilities(X, _kmeanspp_centers(
                 X[None], k, [stream(p, "ref", i)])[0], i % 2 == 0)
             for i, k in enumerate(kappas)]
    out = _em_stack(X, resps, reg, 1e-8, 60)
    checked = 0
    for got, resp in zip(out, resps):
        ref = per_start_em(X, resp, reg, 1e-8, 60)
        assert (got is None) == (ref is None)
        if ref is None:
            continue
        ll, w, mu, covs, it, converged, path = got
        assert ll.hex() == ref[0].hex()
        for a, r in zip((w, mu, covs), ref[1:4]):
            assert np.array_equal(a, r)
        assert (it, converged) == ref[4:6]
        assert [v.hex() for v in path] == [v.hex() for v in ref[6]]
        checked += 1
    assert checked >= 4
