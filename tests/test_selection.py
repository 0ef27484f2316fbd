import functools
import tracemalloc

import numpy as np
import pytest

from distinguish import (Partition, adjusted_rand_index, argmax_gap,
                         estimators, gap_statistic, lange_stability,
                         prediction_strength, select_k_constrained,
                         selection, selection_table, silhouette)
from distinguish.selection import _kept_together

def loop_silhouette(X, part):
    """Reference: full distance matrix and a per-point loop."""
    D = np.sqrt(((X[:, None, :] - X[None]) ** 2).sum(axis=-1))
    lab = part.labels
    sizes = np.bincount(lab, minlength=part.K)
    sums = np.stack([D[:, lab == k].sum(axis=1) for k in range(part.K)], 1)
    s = np.zeros(X.shape[0])
    for i, own in enumerate(lab):
        if sizes[own] == 1:
            continue
        a = sums[i, own] / (sizes[own] - 1)
        b = min(sums[i, k] / sizes[k] for k in range(part.K) if k != own)
        denom = max(a, b)
        s[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(s.mean())


# hand-worked: for the square below every point has a = 1 and
# b = (4 + sqrt(17)) / 2, so s = 1 - 2 / (4 + sqrt(17)) everywhere
FOUR_POINT_SILHOUETTE = 0.7537887487646789

SQUARE = np.array([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])


@pytest.fixture(scope="module")
def blobs3():
    rng = np.random.default_rng(14)
    X = np.vstack([rng.normal(0, 0.4, (40, 2)),
                   rng.normal((5, 0), 0.4, (40, 2)),
                   rng.normal((2.5, 4), 0.4, (40, 2))])
    return X


class TestSilhouette:
    def test_four_point_oracle(self):
        part = Partition(np.array([0, 0, 1, 1]), 2)
        s = silhouette(SQUARE, part)
        assert np.isclose(s, FOUR_POINT_SILHOUETTE, rtol=0, atol=1e-12)

    def test_singleton_scores_zero(self):
        X = np.array([[0.0], [1.0], [10.0]])
        part = Partition(np.array([0, 0, 1]), 2)
        # pair scores (10-1)/10 and (9-1)/9; the singleton contributes 0
        expect = (9 / 10 + 8 / 9 + 0.0) / 3
        assert np.isclose(silhouette(X, part), expect, rtol=0, atol=1e-12)

    def test_requires_two_clusters(self):
        with pytest.raises(ValueError):
            silhouette(SQUARE, Partition(np.zeros(4, dtype=int), 1))

    @pytest.mark.parametrize("n, p, K", [(7, 1, 3), (60, 3, 4), (1200, 2, 3)])
    def test_matches_loop_reference_bit_for_bit(self, n, p, K):
        # cluster 0 is a singleton; n = 1200, p = 2 spans two row blocks
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, p))
        lab = rng.integers(1, K, n)
        lab[0] = 0
        lab[1:K] = np.arange(1, K)
        part = Partition(lab, K)
        assert silhouette(X, part) == loop_silhouette(X, part)

    def test_coincident_points_score_zero(self):
        part = Partition(np.array([0, 0, 1, 1]), 2)
        assert silhouette(np.zeros((4, 1)), part) == 0.0

    def test_memory_stays_bounded(self):
        # the full n x n x p difference array peaks at about 206 MiB here
        rng = np.random.default_rng(0)
        X = rng.normal(size=(3000, 2))
        part = Partition(np.arange(3000) % 3, 3)
        tracemalloc.start()
        try:
            silhouette(X, part)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_poor_split_scores_lower(self):
        good = Partition(np.array([0, 0, 1, 1]), 2)
        bad = Partition(np.array([0, 1, 0, 1]), 2)
        assert silhouette(SQUARE, bad) < 0 < silhouette(SQUARE, good)


class TestAdjustedRandIndex:
    def test_identical_is_one(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_relabeling_is_one(self):
        assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_crossed_four_points(self):
        # contingency is all ones; hand calculation gives -1/2
        assert np.isclose(adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]),
                          -0.5, rtol=0, atol=1e-15)

    def test_all_singletons_against_itself(self):
        assert adjusted_rand_index([0, 1, 2, 3], [0, 1, 2, 3]) == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([0, 1], [0, 1, 1])


class TestGap:
    def test_argmax_on_three_blobs(self, blobs3):
        table = gap_statistic(blobs3, k_range=range(1, 6), B=12, seed=3)
        assert argmax_gap(table) == 3

    def test_deterministic_given_seed(self, blobs3):
        t1 = gap_statistic(blobs3, k_range=range(1, 4), B=10, seed=5)
        t2 = gap_statistic(blobs3, k_range=range(1, 4), B=10, seed=5)
        assert t1 == t2

    def test_b_floor_enforced(self, blobs3):
        with pytest.raises(ValueError):
            gap_statistic(blobs3, B=5)

    def test_sd_positive(self, blobs3):
        table = gap_statistic(blobs3, k_range=range(1, 3), B=10, seed=1)
        assert all(sd > 0 for _, sd in table.values())

    def test_reference_fits_memory_is_bounded(self, monkeypatch):
        # The 500 reference starts of one K, stacked unblocked, would hold a
        # (500, 20000, 3, 2) difference array of 458 MiB.  The B reference
        # datasets take 15.3 MiB and their 50 partitions 7.6 MiB of that.
        rng = np.random.default_rng(15)
        X = rng.normal(size=(20_000, 2))
        # one Lloyd iteration per reference start
        monkeypatch.setattr(selection, "fit_kmeans_many", functools.partial(
            estimators.fit_kmeans_many, max_iter=1))
        tracemalloc.start()
        try:
            gap_statistic(X, "kmeans", [3], B=50, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_argmax_tie_takes_smaller_k(self):
        assert argmax_gap({2: (1.0, 0.1), 3: (1.0, 0.1), 4: (0.5, 0.1)}) == 2

    def test_k_without_dispersion_has_no_gap(self):
        # three distinct rows, so at K = 3 every cluster is one repeated row
        X = np.repeat([[0.0], [2.0], [7.0]], 4, axis=0)
        table = gap_statistic(X, k_range=range(1, 4), B=10, seed=2)
        assert table[3] == (None, None)
        assert all(g is not None and np.isfinite(g)
                   for g, _ in (table[1], table[2]))
        assert argmax_gap(table) in (1, 2)
        with pytest.raises(ValueError, match="undefined for every K"):
            argmax_gap({3: (None, None)})


class TestConstrainedSelection:
    def test_feasible_takes_best_score(self):
        scores = {1: -0.3, 2: -1.2, 3: -1.0}
        pmc = {1: 0.0, 2: 0.004, 3: 0.08}
        r = select_k_constrained(scores, pmc, tau=0.01)
        assert r.K == 2 and not r.infeasible

    def test_constraint_filters_best_score(self):
        scores = {2: -1.5, 3: -1.0}
        pmc = {2: 0.2, 3: 0.004}
        r = select_k_constrained(scores, pmc, tau=0.01)
        assert r.K == 3 and not r.infeasible

    def test_infeasible_falls_back_to_min_risk(self):
        scores = {2: -1.5, 3: -1.0}
        pmc = {2: 0.2, 3: 0.1}
        r = select_k_constrained(scores, pmc, tau=0.01)
        assert r.K == 3 and r.infeasible

    def test_score_tie_takes_smaller_k(self):
        r = select_k_constrained({2: -1.0, 3: -1.0}, {2: 0.0, 3: 0.0}, 0.05)
        assert r.K == 2

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError):
            select_k_constrained({2: -1.0}, {3: 0.0}, 0.05)


class TestResamplingIndices:
    def test_stability_high_on_separated_data(self, blobs3):
        s = lange_stability(blobs3, "kmeans", 3, reps=6, seed=2)
        assert s > 0.95

    def test_prediction_strength_high_on_separated_data(self, blobs3):
        s = prediction_strength(blobs3, "kmeans", 3, reps=6, seed=2)
        assert s > 0.9

    def test_both_in_unit_interval(self, blobs3):
        s = lange_stability(blobs3, "hclust", 4, reps=4, seed=3)
        p = prediction_strength(blobs3, "hclust", 4, reps=4, seed=3)
        assert 0.0 <= s <= 1.0 and 0.0 <= p <= 1.0

    def test_deterministic_given_seed(self, blobs3):
        a = lange_stability(blobs3, "kmeans", 2, reps=4, seed=7)
        b = lange_stability(blobs3, "kmeans", 2, reps=4, seed=7)
        assert a == b

    @pytest.mark.parametrize("m, kinds", [(2, 1), (2, 2), (7, 3), (50, 4),
                                          (300, 6)])
    def test_kept_together_matches_pair_matrix(self, m, kinds):
        for seed in range(5):
            labels = np.random.default_rng(seed).integers(0, kinds, m)
            # the former m x m form of prediction strength's pair count
            same = labels[:, None] == labels[None, :]
            expect = (same.sum() - m) / (m * (m - 1))
            assert _kept_together(labels) == expect

    def test_k_floor(self, blobs3):
        with pytest.raises(ValueError):
            lange_stability(blobs3, "kmeans", 1)
        with pytest.raises(ValueError):
            prediction_strength(blobs3, "kmeans", 1)


class TestSelectionTable:
    def test_structure_and_selection(self, blobs3):
        out = selection_table(blobs3, k_range=range(1, 5), tau=0.05, B=10,
                              reps=4, m_samples=20000, seed=4)
        assert {"rows", "tau", "selected_K", "infeasible"} <= out.keys()
        assert [r["K"] for r in out["rows"]] == [1, 2, 3, 4]
        row1 = out["rows"][0]
        assert row1["pmc"] == 0.0
        assert row1["silhouette"] is None
        assert row1["stability"] is None
        assert out["selected_K"] == 3
        assert not out["infeasible"]

    def test_infeasible_flag(self, blobs3):
        # K=1 excluded and tau impossible for overlapping fits
        out = selection_table(blobs3, k_range=range(2, 4), tau=0.0, B=10,
                              reps=4, m_samples=20000, seed=5)
        assert out["infeasible"] is True
