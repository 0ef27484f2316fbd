import json
import warnings

import numpy as np
import pytest

import distinguish
from distinguish import (ClusterConfiguration, DataMatrix, McEstimate,
                         MergeStep, MergeTrace, MixtureModel, Partition,
                         as_matrix, mixture)


def unit_mixture(means, weights=None):
    means = np.atleast_2d(np.asarray(means, dtype=float))
    k, p = means.shape
    if weights is None:
        weights = np.full(k, 1.0 / k)
    return mixture(weights, means, [np.eye(p)] * k)


class TestMixtureFactory:
    def test_well_formed(self):
        m = unit_mixture([[0.0], [3.0]], [0.5, 0.5])
        assert m.kappa == 2 and m.p == 1
        assert np.array_equal(m.weights, [0.5, 0.5])
        assert np.array_equal(m.means, [[0.0], [3.0]])
        assert np.array_equal(m.covariances, np.ones((2, 1, 1)))
        assert np.array_equal(m.chol, np.ones((2, 1, 1)))

    def test_weight_sum_violation_rejected(self):
        with pytest.raises(ValueError, match="weights sum 0.8999"):
            unit_mixture([[0.0], [3.0]], [0.7, 0.2])

    def test_weight_sum_off_by_3e8_rejected_without_warning(self):
        # no renormalization band: 3e-8 off is refused as pmc --model
        # refuses it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as exc:
                unit_mixture([[0.0], [3.0]], [0.5, 0.5 + 3e-8])
        assert caught == []
        assert str(exc.value) == ("weights sum 1.00000003, more than 1e-12 "
                                  "from 1")

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            unit_mixture([[0.0], [3.0]], [1.0, 0.0])

    def test_slightly_asymmetric_covariance_rejected_without_warning(self):
        # no symmetrization: an asymmetry of 1e-12 is refused as pmc --model
        # refuses it
        c = np.array([[1.0, 0.2], [0.2 + 1e-12, 1.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as exc:
                mixture([1.0], [[0.0, 0.0]], [c])
        assert caught == []
        assert str(exc.value) == "component 0 covariance not symmetric"

    def test_grossly_asymmetric_covariance_rejected(self):
        c = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(ValueError):
            mixture([1.0], [[0.0, 0.0]], [c])

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            unit_mixture([[0.0], [3.0]], [1.0, np.nan])

    @pytest.mark.parametrize("mean, cov, name", [
        ([np.nan], [[1.0]], "mean"),
        ([np.inf], [[1.0]], "mean"),
        ([0.0], [[np.nan]], "covariance"),
        ([0.0], [[np.inf]], "covariance"),
    ])
    def test_non_finite_component_named(self, mean, cov, name):
        with pytest.raises(ValueError,
                           match=f"^component 1 {name} not finite$"):
            mixture([0.5, 0.5], [[0.0], mean], [[[1.0]], cov])

    # each report is the text the former validate() gave for the same model
    @pytest.mark.parametrize("weights, means, covs, report", [
        ([0.7, 0.2], [[0.0], [3.0]], [[[1.0]]] * 2,
         "weights sum 0.89999999999999991, more than 1e-12 from 1"),
        ([1.0, 0.0], [[0.0], [3.0]], [[[1.0]]] * 2,
         "weight 1 not strictly positive: 0.0"),
        ([1.0, np.nan], [[0.0], [3.0]], [[[1.0]]] * 2,
         "weight 1 not strictly positive: nan"),
        ([0.5, 0.5], [[0.0], [np.inf]], [[[1.0]]] * 2,
         "component 1 mean not finite"),
        ([0.5, 0.5], [[0.0], [0.0]], [[[1.0]], [[np.nan]]],
         "component 1 covariance not finite"),
        ([1.0], [[0.0, 0.0]], [[[1.0, 0.5], [0.1, 1.0]]],
         "component 0 covariance not symmetric"),
        ([0.25, 0.25, 0.5], [[0.0], [3.0]], [[[1.0]]] * 2,
         "weights length 3 != component count 2"),
        ([1.0], [[0.0, 0.0]], [[[1.0, 2.0], [2.0, 1.0]]],  # eigenvalues 3, -1
         "component 0 covariance not positive definite"),
        ([0.5, 0.5], [[0.0], [0.0, 0.0]], [np.eye(1), np.eye(2)],
         "components disagree on dimension: [1, 2]"),
        ([[0.5], [0.5]], [[0.0], [3.0]], [[[1.0]]] * 2,
         "weights must be a flat list of numbers, got shape [2, 1]"),
        ([0.5, 0.0, 0.2], [[0.0, 0.0], [np.nan, 0.0], [1.0, 1.0]],
         [[[1.0, 2.0], [2.0, 1.0]], np.eye(2), [[1.0, 0.5], [0.1, 1.0]]],
         "weight 1 not strictly positive: 0.0; weights sum "
         "0.69999999999999996, more than 1e-12 from 1; component 0 "
         "covariance not positive definite; component 1 mean not finite; "
         "component 2 covariance not symmetric"),
    ], ids=["bad-sum", "zero-weight", "nan-weight", "inf-mean", "nan-cov",
            "asymmetric", "count-mismatch", "indefinite", "mixed-dims",
            "nested-weights", "several"])
    def test_raises_the_validate_report(self, weights, means, covs, report):
        """Construction, mixture() and from_dict raise the same report;
        means of two dimensions do not stack, so construction refuses
        them, and from_dict names the dimensions before stacking."""
        d = {"weights": weights, "components": [
            {"mean": m, "covariance": np.asarray(c).tolist()}
            for m, c in zip(means, covs)]}
        with pytest.raises(ValueError) as exc:
            MixtureModel.from_dict(d)
        assert str(exc.value) == report
        for build in (MixtureModel, mixture):
            with pytest.raises(ValueError) as exc:
                build(weights, means, covs)
            if not report.startswith("components disagree"):
                assert str(exc.value) == report

    @pytest.mark.parametrize("means, covs", [
        (np.zeros(2), np.ones((2, 1, 1))),
        (np.zeros((2, 1)), np.ones((2, 1))),
        (np.zeros((2, 2)), np.ones((2, 2, 1))),
        (np.zeros((1, 2)), np.ones((2, 2, 2))),
        (np.zeros((1, 0)), np.ones((1, 0, 0))),
    ], ids=["flat-means", "flat-covs", "non-square", "count", "p-zero"])
    def test_wrong_shapes_are_refused(self, means, covs):
        with pytest.raises(ValueError) as exc:
            mixture(np.full(len(means), 1.0 / len(means)), means, covs)
        assert str(exc.value) == (
            "means and covariances must have shapes (kappa, p) and "
            f"(kappa, p, p), p >= 1, got {list(means.shape)} and "
            f"{list(covs.shape)}")

    def test_arrays_are_copied(self):
        w, means, covs = np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None]
        m = mixture(w, means, covs)
        for a in (w, means, covs):
            assert a.flags.writeable
            a[...] = 7.0
        assert m.weights.tolist() == [1.0] and not m.means.any()
        assert np.array_equal(m.covariances[0], np.eye(2))


class TestValidate:
    def test_reports_bad_weight_sum(self):
        with pytest.raises(ValueError) as exc:
            MixtureModel(np.array([0.7, 0.2]), np.array([[0.0], [1.0]]),
                         np.ones((2, 1, 1)))
        assert str(exc.value) == ("weights sum 0.89999999999999991, more "
                                  "than 1e-12 from 1")

    def test_reports_indefinite_covariance(self):
        # eigenvalues 3 and -1
        with pytest.raises(ValueError) as exc:
            MixtureModel(np.array([1.0]), np.zeros((1, 2)),
                         np.array([[[1.0, 2.0], [2.0, 1.0]]]))
        assert str(exc.value) == ("component 0 covariance not positive "
                                  "definite")

    @pytest.mark.parametrize("mean, cov, name", [
        ([np.nan, 0.0], np.eye(2), "mean"),
        ([0.0, -np.inf], np.eye(2), "mean"),
        ([0.0, 0.0], [[1.0, np.nan], [0.0, 1.0]], "covariance"),
        ([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]], "covariance"),
    ])
    def test_reports_non_finite_component_by_name(self, mean, cov, name):
        with pytest.raises(ValueError) as exc:
            MixtureModel(np.array([0.5, 0.5]), np.array([np.zeros(2), mean]),
                         np.array([np.eye(2), cov]))
        assert str(exc.value) == f"component 1 {name} not finite"

    def test_reports_dimension_mismatch(self):
        with pytest.raises(ValueError) as exc:
            MixtureModel.from_dict({"weights": [0.5, 0.5], "components": [
                {"mean": [0.0], "covariance": [[1.0]]},
                {"mean": [0.0, 0.0], "covariance": np.eye(2).tolist()}]})
        assert str(exc.value) == "components disagree on dimension: [1, 2]"
        with pytest.raises(ValueError):
            MixtureModel(np.array([0.5, 0.5]), [np.zeros(1), np.zeros(2)],
                         [np.eye(1), np.eye(2)])

    def test_caches_each_cholesky_factor(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(3, 4, 4))
        covs = A @ A.swapaxes(-1, -2) + 0.5 * np.eye(4)
        m = MixtureModel(np.full(3, 1 / 3), rng.normal(size=(3, 4)),
                         (covs + covs.swapaxes(-1, -2)) / 2)
        assert m.chol.shape == (3, 4, 4)
        for L, cov in zip(m.chol, m.covariances):
            assert L.tobytes() == np.linalg.cholesky(cov).tobytes()
        for a in (m.weights, m.means, m.covariances, m.chol):
            assert not a.flags.writeable


class TestMixtureModel:
    def test_log_density_matches_closed_form(self):
        m = mixture([1.0], [[1.0]], [[[4.0]]])
        got = m.log_component_densities(np.array([[3.0]]))
        expect = -0.5 * np.log(2 * np.pi * 4.0) - 0.5 * (2.0 ** 2) / 4.0
        assert got.shape == (1, 1)
        assert np.isclose(got[0, 0], expect, rtol=0, atol=1e-12)


class TestDataMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DataMatrix(np.array([[1.0], [np.nan]]))

    def test_as_matrix_promotes_vector(self):
        V = as_matrix([1.0, 2.0, 3.0])
        assert V.shape == (3, 1)


class TestClusterConfiguration:
    def test_surjectivity_enforced(self):
        with pytest.raises(ValueError):
            ClusterConfiguration((0, 0, 2), 3)

    def test_singletons(self):
        assert ClusterConfiguration.singletons(3).K == 3

    def test_round_trip(self):
        cfg = ClusterConfiguration((0, 1, 1, 0), 2)
        assert ClusterConfiguration.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("assignment, K, message", [
        ((0.7, 1.2), 2, "assignment must be a list of integers"),
        ((True, False), 2, "assignment must be a list of integers"),
        ((np.True_, np.False_), 2, "assignment must be a list of integers"),
        ((0.0, 1.0), 2, "assignment must be a list of integers"),
        ("01", 2, "assignment must be a list of integers"),
        ((0, 1), 2.0, "K must be an integer"),
        ((0, 1), True, "K must be an integer"),
        ((0, 1), "2", "K must be an integer"),
        ((0, 1), np.float64(2), "K must be an integer"),
    ])
    def test_non_integers_are_refused(self, assignment, K, message):
        # the constructor refuses what from_dict refuses, in its words,
        # where int() truncated or range() raised a TypeError
        with pytest.raises(ValueError) as exc:
            ClusterConfiguration(assignment, K)
        assert str(exc.value) == message

    def test_numpy_integers_are_accepted(self):
        cfg = ClusterConfiguration(tuple(np.array([0, 1, 1], np.int32)),
                                   np.int64(2))
        assert cfg == ClusterConfiguration((0, 1, 1), 2)
        assert [type(v) for v in (*cfg.assignment, cfg.K)] == [int] * 4
        assert json.dumps(cfg.to_dict()) == '{"assignment": [0, 1, 1], "K": 2}'


class TestPartition:
    def test_missing_label_rejected(self):
        with pytest.raises(ValueError):
            Partition(np.array([0, 0, 2]), 3)


class TestMcEstimate:
    def test_range_enforced(self):
        with pytest.raises(ValueError):
            McEstimate(1.5, 0.0, 100, 0)
        with pytest.raises(ValueError):
            McEstimate(0.5, -1.0, 100, 0)


def test_json_round_trip_is_bit_identical():
    rng = np.random.default_rng(3)
    means = rng.normal(size=(3, 2))
    covs = []
    for _ in range(3):
        A = rng.normal(size=(2, 2))
        covs.append(A @ A.T + 0.5 * np.eye(2))
    m = mixture([0.2, 0.3, 0.5], means, covs)
    back = MixtureModel.from_dict(json.loads(json.dumps(m.to_dict())))
    assert np.array_equal(m.weights, back.weights)
    assert np.array_equal(m.means, back.means)
    assert np.array_equal(m.covariances, back.covariances)
    assert np.array_equal(m.chol, back.chol)


def test_merge_trace_round_trip():
    trace = MergeTrace(
        McEstimate(0.75, 0.001, 100000, 1),
        (MergeStep((0, 1), 0.5, 0.75, 0.25, (0, 1)),
         MergeStep((0, 2), 0.25, 0.25, 0.0, (0, 1, 2))),
        1)
    back = json.loads(json.dumps(trace.to_dict()))
    assert back["final_K"] == 1
    assert back["initial_pmc"] == {"value": 0.75, "std_error": 0.001,
                                   "m_samples": 100000, "seed": 1}
    assert back["steps"] == [
        {"cluster_pair": [0, 1], "delta_pmc": 0.5, "pmc_before": 0.75,
         "pmc_after": 0.25, "new_cluster_members": [0, 1]},
        {"cluster_pair": [0, 2], "delta_pmc": 0.25, "pmc_before": 0.25,
         "pmc_after": 0.0, "new_cluster_members": [0, 1, 2]}]
    for step in back["steps"]:
        assert step["pmc_after"] == step["pmc_before"] - step["delta_pmc"]


def test_public_surface():
    # adding or removing a public name is a deliberate edit of this list
    assert sorted(distinguish.__all__) == [
        "ClusterConfiguration", "DEFAULT_SEED", "DataMatrix",
        "DegenerateFitError", "DeltaMatrix", "EmFit",
        "HclustTree", "KmeansFit", "McEstimate", "MergeStep", "MergeTrace",
        "MixtureModel", "Partition", "PcaResult", "PhmDendrogram",
        "PmcSettings", "adjusted_rand_index", "argmax_gap", "as_matrix",
        "build_dendrogram", "cluster_posterior_matrix", "cut_tree",
        "default_regularization", "delta_matrix", "derive_seed",
        "fit_gmm_em", "fit_hclust", "fit_kmeans", "free_parameters",
        "gap_statistic", "lange_stability", "load_csv", "mixture",
        "null_distribution", "partition_to_gaussians", "pca", "phm_run",
        "pmc_from_sample", "pmc_mc", "pmc_quadrature",
        "pmc_statistic", "pmc_upper_bound", "prediction_strength",
        "pvalue_bootstrap", "pvalue_mc", "sample_mixture", "save_csv",
        "select_gmm_bic", "select_k_constrained", "selection_table",
        "silhouette", "standardize", "stream", "test_report"]
    for name in distinguish.__all__:
        assert hasattr(distinguish, name)
