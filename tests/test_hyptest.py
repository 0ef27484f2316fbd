import tracemalloc
from unittest import mock

import numpy as np
import pytest

from distinguish import (estimators, fit_hclust, hyptest, null_distribution,
                         pmc_statistic, pvalue_bootstrap, pvalue_mc)
from distinguish import test_report as run_test


@pytest.fixture(scope="module")
def bimodal():
    rng = np.random.default_rng(21)
    return np.concatenate([rng.normal(0, 1, 75), rng.normal(6, 1, 75)])


class TestStatistic:
    def test_separated_clusters_score_near_zero(self, bimodal):
        assert pmc_statistic(bimodal) < 0.01

    def test_range(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            x = np.random.default_rng(seed).normal(size=80)
            s = pmc_statistic(x)
            assert 0.0 <= s <= 0.5

    def test_deterministic(self):
        x = np.random.default_rng(3).normal(size=60)
        assert pmc_statistic(x) == pmc_statistic(x)

    def test_affine_invariance(self):
        x = np.random.default_rng(9).normal(size=100)
        s0 = pmc_statistic(x)
        s1 = pmc_statistic(-2.7 * x + 5.0)
        s2 = pmc_statistic(x * 1e-3)
        assert np.isclose(s0, s1, rtol=0, atol=1e-10)
        assert np.isclose(s0, s2, rtol=0, atol=1e-10)

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            pmc_statistic(np.array([1.0, 2.0, 3.0]))

    def test_identical_points_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            pmc_statistic(np.ones(10))


class TestNullDistribution:
    def test_sorted_and_in_range(self):
        null = null_distribution(40, 1, reps=100, seed=2)
        assert null.size == 100
        assert np.all(np.diff(null) >= 0)
        assert np.all((null >= 0) & (null <= 0.5))

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            null_distribution(40, 1, reps=99)

    def test_same_seed_repeats(self):
        a = null_distribution(30, 1, reps=100, seed=3)
        b = null_distribution(30, 1, reps=100, seed=3)
        assert np.array_equal(a, b)

    def test_memory_is_bounded(self):
        # 2000 replicates of 100 x 6: one unchunked stack would hold 2.4M
        # (replicate, row, side, coordinate) elements per temporary, and
        # peaked at 40 MiB; chunks of BLOCK_ELEMENTS peak at about 6 MiB
        null_distribution(100, 6, 100, seed=1)
        tracemalloc.start()
        try:
            null = null_distribution(100, 6, 2000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert null.size == 2000
        assert peak < 16 * 2**20

    def test_memory_is_bounded_for_small_replicates(self):
        # one full chunk of 4 x 1 replicates, 32,768 of them: the chunk
        # must hold one generator at a time, not one per replicate, whose
        # objects outweigh a replicate's 32 bytes of data (a list of them
        # peaked at 30 MiB)
        reps = hyptest.BLOCK_ELEMENTS // (4 * 2 * 1)
        null_distribution(4, 1, 100, seed=1)
        tracemalloc.start()
        try:
            null = null_distribution(4, 1, reps, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert null.size == reps
        assert peak < 16 * 2**20

    def test_disjoint_seeds_agree_in_distribution(self):
        # Kolmogorov-Smirnov distance between two independent null samples
        a = null_distribution(60, 1, reps=400, seed=10)
        b = null_distribution(60, 1, reps=400, seed=11)
        grid = np.concatenate([a, b])
        fa = np.searchsorted(a, grid, side="right") / a.size
        fb = np.searchsorted(b, grid, side="right") / b.size
        assert np.abs(fa - fb).max() < 0.11


class TestPvalues:
    def test_add_one_formula(self):
        null = np.array([0.1, 0.2, 0.3, 0.4])
        assert pvalue_mc(0.25, null) == (1 + 2) / 5
        assert pvalue_mc(0.05, null) == 1 / 5
        assert pvalue_mc(0.9, null) == 1.0

    def test_left_tail_direction(self):
        # smaller statistics give smaller p-values
        null = np.linspace(0.05, 0.45, 100)
        assert pvalue_mc(0.06, null) < pvalue_mc(0.3, null)

    def test_empty_null_rejected(self):
        with pytest.raises(ValueError):
            pvalue_mc(0.1, np.array([]))

    def test_bootstrap_rejects_bimodal(self, bimodal):
        p = pvalue_bootstrap(bimodal, B=150, seed=4)
        assert p <= 0.05

    def test_bootstrap_b_floor(self, bimodal):
        with pytest.raises(ValueError):
            pvalue_bootstrap(bimodal, B=50)

    def test_bootstrap_same_seed_repeats(self, bimodal):
        p1 = pvalue_bootstrap(bimodal, B=120, seed=5)
        p2 = pvalue_bootstrap(bimodal, B=120, seed=5)
        assert p1 == p2


class TestReport:
    def test_mc_report_fields(self, bimodal):
        r = run_test(bimodal, reps=150, seed=6)
        assert r["method"] == "mc"
        assert r["reps"] == 150
        assert 0 < r["p_value"] <= 1
        assert r["statistic"] == pmc_statistic(bimodal)
        q = r["null_quantiles"]
        assert "0.05" in q and "0.95" in q
        assert q["0.05"] <= q["0.95"]

    def test_bootstrap_report(self, bimodal):
        r = run_test(bimodal, bootstrap=120, seed=6)
        assert r["method"] == "bootstrap"
        assert r["reps"] == 120
        assert r["null_quantiles"] is None
        assert r["p_value"] == pvalue_bootstrap(bimodal, B=120, seed=6)

    def test_bootstrap_report_scores_the_data_once(self, bimodal):
        # one Ward tree for the observed data; the stacked 1-D pass splits
        # all 120 replicates, none of which needs a tree of its own
        with mock.patch.object(estimators, "fit_hclust",
                               wraps=fit_hclust) as spy, \
                mock.patch.object(hyptest, "_ward_splits_1d",
                                  wraps=estimators._ward_splits_1d) as stacked:
            run_test(bimodal, bootstrap=120, seed=6)
        assert spy.call_count == 1
        assert sum(c.args[0].shape[0] for c in stacked.call_args_list) == 120

    def test_rejects_structure_accepts_noise(self, bimodal):
        r_clustered = run_test(bimodal, reps=200, seed=7)
        noise = np.random.default_rng(8).normal(size=150)
        r_noise = run_test(noise, reps=200, seed=7)
        assert r_clustered["p_value"] < 0.05
        assert r_noise["p_value"] > 0.05
