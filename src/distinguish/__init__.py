"""Cluster separability toolkit.

Measures how well the components of a Gaussian mixture can be told apart
(the misclassification risk of the model's own posterior classifier), and
builds on that measure: hierarchical component merging, cluster-count
selection under a risk constraint, and a Monte Carlo test for whether a
dataset has any cluster structure at all.
"""
from .estimators import (DegenerateFitError, EmFit, HclustTree, KmeansFit,
                         cut_tree, default_regularization, fit_gmm_em,
                         fit_hclust, fit_kmeans, free_parameters,
                         partition_to_gaussians, select_gmm_bic)
from .hyptest import (null_distribution, pmc_statistic, pvalue_bootstrap,
                      pvalue_mc, test_report)
from .models import (ClusterConfiguration, DataMatrix, McEstimate,
                     MergeStep, MergeTrace, MixtureModel, Partition,
                     as_matrix, mixture)
from .phm import PhmDendrogram, build_dendrogram, phm_run
from .pmc import (DeltaMatrix, PmcSettings, cluster_posterior_matrix,
                  delta_matrix, pmc_from_sample, pmc_mc, pmc_quadrature,
                  pmc_upper_bound, sample_mixture)
from .preprocess import PcaResult, load_csv, pca, save_csv, standardize
from .rng import DEFAULT_SEED, derive_seed, stream
from .selection import (adjusted_rand_index, argmax_gap, gap_statistic,
                        lange_stability, prediction_strength,
                        select_k_constrained, selection_table, silhouette)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED", "ClusterConfiguration", "DataMatrix", "DegenerateFitError",
    "DeltaMatrix", "EmFit", "HclustTree", "KmeansFit",
    "McEstimate", "MergeStep", "MergeTrace", "MixtureModel", "Partition",
    "PcaResult", "PhmDendrogram", "PmcSettings", "adjusted_rand_index",
    "argmax_gap", "as_matrix", "build_dendrogram", "cluster_posterior_matrix",
    "cut_tree", "default_regularization", "delta_matrix",
    "derive_seed", "fit_gmm_em", "fit_hclust", "fit_kmeans", "free_parameters",
    "gap_statistic", "lange_stability", "load_csv", "mixture",
    "null_distribution", "partition_to_gaussians", "pca", "phm_run",
    "pmc_from_sample", "pmc_mc", "pmc_quadrature", "pmc_statistic",
    "pmc_upper_bound", "prediction_strength", "pvalue_bootstrap", "pvalue_mc",
    "sample_mixture", "save_csv", "select_gmm_bic", "select_k_constrained",
    "selection_table", "silhouette", "standardize", "stream", "test_report",
]
