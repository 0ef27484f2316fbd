import json

import numpy as np
import pytest

from distinguish import (ClusterConfiguration, DeltaMatrix, McEstimate,
                         PmcSettings, build_dendrogram, delta_matrix, mixture,
                         phm_run)


def identical_mixture(K, p=1):
    return mixture(np.full(K, 1.0 / K), np.zeros((K, p)), [np.eye(p)] * K)


def random_mixture(rng, kappa, p):
    means = rng.normal(0, 2.5, size=(kappa, p))
    covs = []
    for _ in range(kappa):
        A = rng.normal(size=(p, p))
        covs.append(A @ A.T + 0.4 * np.eye(p))
    w = rng.dirichlet(np.full(kappa, 3.0))
    return mixture(w / w.sum(), means, covs)


def hand_delta(raw, pmc_value):
    return DeltaMatrix(raw, pmc_value,
                       McEstimate(min(pmc_value, 1.0), 0.0, 1000, 0))


class TestPhmRun:
    def test_tau_range_enforced(self):
        with pytest.raises(ValueError):
            phm_run(identical_mixture(2), -0.1)
        with pytest.raises(ValueError):
            phm_run(identical_mixture(2), 1.5)

    def test_requires_randomized_rule(self):
        with pytest.raises(ValueError, match="randomized"):
            phm_run(identical_mixture(2), 0.0,
                    PmcSettings(m_samples=1000, rule="optimal"))

    def test_full_merge_reaches_zero(self):
        rng = np.random.default_rng(0)
        m = random_mixture(rng, 5, 2)
        trace, config = phm_run(m, 0.0, PmcSettings(m_samples=20000, seed=1))
        assert trace.final_K == 1 and config.K == 1
        assert len(trace.steps) == 4
        assert abs(trace.steps[-1].pmc_after) <= 1e-10

    def test_bookkeeping_is_exact_subtraction(self):
        rng = np.random.default_rng(1)
        m = random_mixture(rng, 6, 2)
        trace, _ = phm_run(m, 0.0, PmcSettings(m_samples=20000, seed=2))
        for step in trace.steps:
            assert step.pmc_after == step.pmc_before - step.delta_pmc
        for a, b in zip(trace.steps, trace.steps[1:]):
            assert b.pmc_before == a.pmc_after

    def test_greedy_merges_largest_delta_first(self):
        rng = np.random.default_rng(2)
        m = random_mixture(rng, 5, 1)
        D = delta_matrix(m, None, PmcSettings(m_samples=20000, seed=3))
        trace, _ = phm_run(m, 0.0, precomputed=D)
        first = trace.steps[0]
        assert first.delta_pmc == D.values[np.triu_indices(5, 1)].max()

    def test_threshold_stops_merging(self):
        # two near-identical components plus one far away: one merge suffices
        m = mixture([0.4, 0.4, 0.2], [[0.0], [0.1], [50.0]],
                    [np.eye(1)] * 3)
        trace, config = phm_run(m, 0.05, PmcSettings(m_samples=50000, seed=4))
        assert trace.final_K == 2
        assert config.assignment == (0, 0, 1)
        assert trace.steps[-1].pmc_after <= 0.05

    def test_tau_one_never_merges(self):
        m = identical_mixture(3)
        trace, config = phm_run(m, 1.0, PmcSettings(m_samples=5000, seed=5))
        assert trace.final_K == 3 and len(trace.steps) == 0
        assert config.assignment == (0, 1, 2)

    def test_tie_breaks_to_smallest_pair(self):
        # all pairwise reductions equal by symmetry
        m = identical_mixture(3)
        trace, _ = phm_run(m, 0.0, PmcSettings(m_samples=10000, seed=6))
        assert trace.steps[0].cluster_pair == (0, 1)

    def test_merged_pair_updates_by_addition(self):
        raw = np.array([[0.0, 0.5, 0.0625, 0.125],
                        [0.5, 0.0, 0.03125, 0.25],
                        [0.0625, 0.03125, 0.0, 0.015625],
                        [0.125, 0.25, 0.015625, 0.0]])
        total = float(np.sort(raw[np.triu_indices(4, 1)]).sum())
        trace, _ = phm_run(identical_mixture(4), 0.0,
                           precomputed=hand_delta(raw, total))
        # first merge is (0,1); the new cluster's reduction against 3 must be
        # 0.125 + 0.25, which beats the rest and merges next
        assert trace.steps[0].cluster_pair == (0, 1)
        assert trace.steps[1].cluster_pair == (0, 3)
        assert trace.steps[1].delta_pmc == 0.375
        assert trace.steps[2].delta_pmc == 0.0625 + 0.03125 + 0.015625

    def test_assignment_ranks_follow_component_order(self):
        raw = np.zeros((4, 4))
        raw[2, 3] = raw[3, 2] = 0.5
        trace, config = phm_run(identical_mixture(4), 0.25,
                                precomputed=hand_delta(raw, 0.5))
        assert trace.final_K == 3
        # clusters: {0}, {1}, {2,3} labeled by smallest member
        assert config.assignment == (0, 1, 2, 2)


class TestDendrogram:
    def test_heights_are_log_ratios(self):
        raw = np.array([[0.0, 0.6, 0.06], [0.6, 0.0, 0.04],
                        [0.06, 0.04, 0.0]])
        total = float(np.sort(raw[np.triu_indices(3, 1)]).sum())
        trace, _ = phm_run(identical_mixture(3), 0.0,
                           precomputed=hand_delta(raw, total))
        dendro = build_dendrogram(trace)
        heights = [node[2] for node in dendro.nodes]
        assert heights[0] == 0.0
        assert np.isclose(heights[1], np.log10(7.0), rtol=0, atol=1e-12)

    def test_requires_complete_merge(self):
        m = identical_mixture(3)
        trace, _ = phm_run(m, 1.0, PmcSettings(m_samples=5000, seed=7))
        with pytest.raises(ValueError):
            build_dendrogram(trace)

    def test_newick_covers_all_leaves(self):
        rng = np.random.default_rng(3)
        m = random_mixture(rng, 4, 1)
        trace, _ = phm_run(m, 0.0, PmcSettings(m_samples=10000, seed=8))
        text = build_dendrogram(trace).to_newick()
        assert text.endswith(";")
        assert text.count("(") == text.count(")") == 3
        for leaf in range(4):
            assert str(leaf) in text

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        m = random_mixture(rng, 3, 1)
        trace, _ = phm_run(m, 0.0, PmcSettings(m_samples=10000, seed=9))
        d = build_dendrogram(trace)
        back = json.loads(json.dumps(d.to_dict()))
        assert back == {"kappa": 3, "nodes": [list(nd) for nd in d.nodes]}


def test_precomputed_matrix_skips_sampling():
    raw = np.array([[0.0, 0.25], [0.25, 0.0]])
    trace, config = phm_run(identical_mixture(2), 0.0,
                            precomputed=hand_delta(raw, 0.25))
    assert trace.initial_pmc.value == 0.25
    assert trace.steps[0].pmc_after == 0.0
    assert config.K == 1


def test_initial_pmc_is_the_delta_sum_with_its_error():
    rng = np.random.default_rng(5)
    m = random_mixture(rng, 4, 2)
    s = PmcSettings(m_samples=10000, seed=3)
    trace, _ = phm_run(m, 0.0, s)
    D = delta_matrix(m, None, s)
    assert D.estimate.std_error > 0
    assert trace.initial_pmc == McEstimate(D.pmc, D.estimate.std_error,
                                           10000, 3)
