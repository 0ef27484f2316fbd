import functools
import tracemalloc

import numpy as np
import pytest

from distinguish import (Partition, PmcSettings, adjusted_rand_index,
                         argmax_gap, estimators, gap_statistic,
                         lange_stability, partition_to_gaussians, pmc_mc,
                         prediction_strength, select_k_constrained,
                         selection, selection_table, silhouette)
from distinguish.rng import derive_seed, stream
from distinguish.selection import (_cluster, _kept_together,
                                  _within_dispersion)

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
        # one Lloyd iteration per start, of the data's fit and the references'
        monkeypatch.setattr(selection, "fit_kmeans", functools.partial(
            estimators.fit_kmeans, max_iter=1))
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

    def test_equal_rows_have_no_gap_when_their_mean_rounds(self):
        # the mean of seven copies of this value is not the value, so the
        # former dispersion read a rounding residual as a gap
        X = np.full((7, 1), 293.068144873969)
        assert X.mean() != X[0, 0]
        table = gap_statistic(X, k_range=range(1, 3), B=10, seed=0)
        assert table == {1: (None, None), 2: (None, None)}


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


def lone_cluster(R, method, K, s):
    """R in K clusters by a lone fit_kmeans seeded s, or a lone Ward tree."""
    if method == "kmeans":
        return estimators.fit_kmeans(R, K, seed=s).partition
    return estimators.cut_tree(estimators.fit_hclust(R), K)


def lone_gap(X, method, ks, B, seed):
    """Reference gap table: every clustering a lone fit, K = 1 included, as
    gap_statistic computed it with one fit_kmeans or Ward tree per dataset."""
    lo, hi = X.min(axis=0), X.max(axis=0)
    refs = [lo + stream(seed, "gap-ref", b).random(X.shape) * (hi - lo)
            for b in range(B)]
    out = {}
    for K in ks:
        within = _within_dispersion(
            X, lone_cluster(X, method, K, derive_seed(seed, "gap-obs", K)))
        if within == 0.0:
            out[K] = (None, None)
            continue
        ref_log = np.array([np.log(_within_dispersion(R, lone_cluster(
            R, method, K, derive_seed(seed, "gap-fit", (b << 12) | K))))
            for b, R in enumerate(refs)])
        out[K] = (float(ref_log.mean() - np.log(within)),
                  float(ref_log.std(ddof=0) * np.sqrt(1.0 + 1.0 / B)))
    return out


def two_blobs(n):
    rng = np.random.default_rng(n)
    return np.vstack([rng.normal(0, 0.5, (n // 2, 2)),
                      rng.normal((3, 1), 0.5, (n - n // 2, 2))])


SHARED_INPUTS = {
    # an odd n splits into halves of unequal size, an even n into equal ones
    "odd": (two_blobs(41), range(1, 5)),
    "even": (two_blobs(42), range(1, 5)),
    # three distinct rows: the K = 3 gap is None
    "repeated": (np.repeat([[0.0], [2.0], [7.0]], 4, axis=0), range(1, 4)),
}


@pytest.mark.parametrize("method", ["kmeans", "hclust"])
@pytest.mark.parametrize("name", SHARED_INPUTS)
def test_shared_stacks_equal_lone_fits(method, name):
    X, ks = SHARED_INPUTS[name]
    seed, B, reps = 11, 10, 3
    out = selection_table(X, method, ks, B=B, reps=reps, m_samples=2000,
                          seed=seed)
    gaps = gap_statistic(X, method, ks, B=B, seed=seed)
    assert gaps == lone_gap(X, method, ks, B, seed)
    if name == "repeated":
        assert gaps[3] == (None, None)
    for row in out["rows"]:
        K = row["K"]
        assert (row["gap"], row["gap_sd"]) == gaps[K]
        if K == 1:
            continue
        assert row["stability"] == lange_stability(
            X, method, K, reps=reps, seed=derive_seed(seed, "table-st", K))
        # both scores come from the one set of split fits
        assert row["prediction_strength"] == prediction_strength(
            X, method, K, reps=reps, seed=derive_seed(seed, "table-st", K))


def test_no_reference_is_clustered_without_dispersion(monkeypatch):
    # three distinct rows: at K = 3 the data's clusters have no dispersion,
    # so the data are clustered there and no reference is
    X = SHARED_INPUTS["repeated"][0]
    calls = []

    def spy(name):
        fit = getattr(estimators, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return fit(*args, **kwargs)
        return wrapped

    for name in ("fit_kmeans", "fit_kmeans_many", "fit_hclust"):
        monkeypatch.setattr(selection, name, spy(name))
    for method, fits in (("kmeans", ["fit_kmeans"]),
                         ("hclust", ["fit_hclust"])):
        calls.clear()
        assert gap_statistic(X, method, [1, 3], B=10, seed=11)[3] == (
            None, None)
        assert calls == fits


@pytest.mark.parametrize("method", ["kmeans", "hclust"])
def test_empty_k_range_is_refused_before_any_fit(monkeypatch, blobs3,
                                                 method):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran before the arguments were checked")

    for name in ("fit_kmeans", "fit_kmeans_many", "fit_hclust"):
        monkeypatch.setattr(selection, name, no_fit)
    with pytest.raises(ValueError, match="^k_range is empty$"):
        selection_table(blobs3, method, [], B=10, reps=2, m_samples=2000)


def test_k1_fits_nothing(monkeypatch, blobs3):
    def refuse_k1(fn):
        @functools.wraps(fn)
        def wrapped(X, K, *args, **kwargs):
            assert K != 1, f"{fn.__name__} called with K = 1"
            return fn(X, K, *args, **kwargs)
        return wrapped

    for module in (selection, estimators):
        monkeypatch.setattr(module, "fit_kmeans_many",
                            refuse_k1(estimators.fit_kmeans_many))
    monkeypatch.setattr(selection, "fit_kmeans",
                        refuse_k1(estimators.fit_kmeans))
    monkeypatch.setattr(selection, "cut_tree", refuse_k1(estimators.cut_tree))
    for method in ("kmeans", "hclust"):
        out = selection_table(blobs3, method, range(1, 4), B=10, reps=2,
                              m_samples=2000, seed=6)
        assert [row["K"] for row in out["rows"]] == [1, 2, 3]

    def no_tree(X):
        raise AssertionError("fit_hclust called at K = 1")

    monkeypatch.setattr(selection, "fit_hclust", no_tree)
    out = selection_table(blobs3, "hclust", [1], B=10, reps=2,
                          m_samples=2000, seed=6)
    assert out["selected_K"] == 1


def test_k1_dispersion_equals_the_fitted_one(blobs3):
    fitted = estimators.fit_kmeans(blobs3, 1, seed=8).partition
    for method in ("kmeans", "hclust"):
        part = _cluster(blobs3, 1, method, 8)
        assert np.array_equal(part.labels, fitted.labels)
        assert (_within_dispersion(blobs3, part)
                == _within_dispersion(blobs3, fitted))


def test_table_runs_four_lloyd_stacks_per_k(monkeypatch, blobs3):
    # per K >= 2: the data's fit, the gap references as one stack, and one
    # stack for each side of the half-splits; K = 1 runs none
    shapes = []
    lloyd = estimators._lloyd

    def counting(X, centers, max_iter):
        shapes.append(X.shape)
        return lloyd(X, centers, max_iter)

    monkeypatch.setattr(estimators, "_lloyd", counting)
    selection_table(blobs3, "kmeans", range(1, 5), B=10, reps=4,
                    m_samples=2000, seed=4)
    assert len(shapes) == 12


def test_hclust_table_fits_each_tree_once(monkeypatch):
    # a Ward tree does not depend on K: the data and the B = 10 gap
    # references take one tree each, and each K >= 2 clusters 3 repetitions
    # x 2 sides of split halves, 11 + 3 * 6 = 29 trees on 29 distinct
    # datasets
    fitted = []

    def spy(X):
        fitted.append(np.asarray(X).tobytes())
        return estimators.fit_hclust(X)

    monkeypatch.setattr(selection, "fit_hclust", spy)
    selection_table(two_blobs(120), "hclust", range(1, 5), B=10, reps=3,
                    m_samples=2000, seed=3)
    assert len(fitted) == 29
    assert len(set(fitted)) == 29


def check_rows_score_the_gap_partition(name, method):
    """Every row as lone fits give it: the gap, and the risk and silhouette
    of the partition the gap scores, a lone Ward tree or the k-means fit
    seeded derive_seed(seed, "gap-obs", K)."""
    X, ks = SHARED_INPUTS[name]
    seed, B, m = 11, 10, 2000
    out = selection_table(X, method, ks, B=B, reps=3, m_samples=m,
                          seed=seed)
    gaps = lone_gap(X, method, ks, B, seed)
    for row in out["rows"]:
        K = row["K"]
        part = (lone_cluster(X, method, K, derive_seed(seed, "gap-obs", K))
                if K > 1 else Partition(np.zeros(len(X), dtype=int), 1))
        est = pmc_mc(partition_to_gaussians(X, part), None,
                     PmcSettings(m_samples=m,
                                 seed=derive_seed(seed, "table-pmc", K)))
        assert (row["gap"], row["gap_sd"]) == gaps[K]
        assert (row["pmc"], row["pmc_std_error"]) == (est.value,
                                                      est.std_error)
        assert row["silhouette"] == (silhouette(X, part) if K > 1 else None)


@pytest.mark.parametrize("name", SHARED_INPUTS)
def test_hclust_table_equals_lone_fits(name):
    check_rows_score_the_gap_partition(name, "hclust")


@pytest.mark.parametrize("name", SHARED_INPUTS)
def test_kmeans_rows_score_the_gap_partition(name):
    # at the "odd" input's K = 4, a k-means fit seeded otherwise finds
    # another partition
    check_rows_score_the_gap_partition(name, "kmeans")
