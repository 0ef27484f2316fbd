"""Property tests for the estimation chain: log-density, posteriors,
per-point loss, the mean with its Monte Carlo standard error, the delta
matrix, the merge order and its bookkeeping; for the stacked k-means restarts;
for the stacked EM starts of a BIC scan; for the stacked existence-test
statistic and its 1-D Ward split in rounds; for named streams opened in
batches; and for the canonical component order that fixes every sum
across components, so that relabelling the components keeps every bit;
and for the k-means kernels: the running-minimum assignment against the
argmin, and the unmasked segment means against the masked ones."""
import contextlib
import heapq
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.cluster.hierarchy import linkage
from scipy.stats import multivariate_normal

from distinguish import (DeltaMatrix, McEstimate, MixtureModel, Partition,
                         PmcSettings, cluster_posterior_matrix, cut_tree,
                         default_regularization, delta_matrix, derive_seed,
                         estimators, fit_gmm_em, fit_hclust, fit_kmeans,
                         hyptest, mixture, partition_to_gaussians, phm_run,
                         pmc_from_sample, pmc_mc, pmc_statistic,
                         pmc_upper_bound, select_gmm_bic, stream)
from distinguish.estimators import (HclustTree, _gaussian_moments,
                                    _moment_form_ok, _nearest_centres,
                                    _segment_means, _stack_sq_dists,
                                    fit_kmeans_many, sq_dists)
from distinguish.models import (BLOCK_ELEMENTS, ClusterConfiguration,
                                gaussian_log_density)
from distinguish import pmc as pmc_module
from distinguish.pmc import (RULES, _CHAIN_ROWS, _normalise,
                             _posteriors_and_density, _row_max,
                             _summation_order, _summands)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=30)

shapes = st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 6),
                   st.integers(1, 3))


def build(seed, kappa, p):
    rng = np.random.default_rng(seed)
    w = np.maximum(rng.dirichlet(np.full(kappa, 2.0)), 1e-3)
    covs = []
    for _ in range(kappa):
        A = rng.normal(size=(p, p))
        covs.append(A @ A.T + 0.3 * np.eye(p))
    return mixture(w / w.sum(), rng.normal(0, 2.5, (kappa, p)), covs), rng


@PROPERTY
@given(shapes)
def test_delta_matrix_shares_the_mc_estimate(shape):
    model, _ = build(*shape)
    s = PmcSettings(m_samples=4000, seed=shape[0])
    D = delta_matrix(model, None, s)
    est = pmc_mc(model, None, s)
    assert D.estimate == est
    assert (float(D.estimate.value).hex(), float(D.estimate.std_error).hex()
            ) == (float(est.value).hex(), float(est.std_error).hex())
    assert abs(D.pmc - est.value) <= 1e-12


@PROPERTY
@given(shapes, st.randoms(use_true_random=False))
def test_component_relabelling_is_bit_identical(shape, rnd):
    model, rng = build(*shape)
    perm = list(range(model.kappa))
    rnd.shuffle(perm)
    relabelled = MixtureModel(model.weights[perm], model.means[perm],
                              model.covariances[perm])
    X = rng.normal(0, 3, (300, model.p))
    for rule in RULES:
        assert (pmc_from_sample(relabelled, None, X, rule)
                == pmc_from_sample(model, None, X, rule))
    assert np.array_equal(cluster_posterior_matrix(relabelled, None, X),
                          cluster_posterior_matrix(model, None, X)[:, perm])


@PROPERTY
@given(shapes, st.randoms(use_true_random=False), st.integers(1, 5))
def test_relabelling_permutes_pair_deltas_bit_for_bit(shape, rnd, per_block):
    model, rng = build(*shape)
    perm = list(range(model.kappa))
    rnd.shuffle(perm)
    relabelled = MixtureModel(model.weights[perm], model.means[perm],
                              model.covariances[perm])
    X = rng.normal(0, 3, (2000, model.p))
    s = PmcSettings(m_samples=X.shape[0])

    def deltas(m):
        return delta_matrix(m, None, s, _sample=X)

    D = deltas(model)
    # chunks of per_block pairs: a pair's sum does not depend on its chunk
    with mock.patch.object(pmc_module, "BLOCK_ELEMENTS", X.shape[0] * per_block):
        R = deltas(relabelled)
    assert np.array_equal(R.values, D.values[perm][:, perm])
    assert R.pmc == D.pmc and R.estimate == D.estimate


def grouped_config(kappa, rnd):
    """kappa components on 1 to kappa - 1 clusters, each cluster used, so
    that at least one group has 2 or more members."""
    K = rnd.randint(1, kappa - 1)
    assignment = list(range(K)) + [rnd.randrange(K) for _ in range(kappa - K)]
    rnd.shuffle(assignment)
    return ClusterConfiguration(tuple(assignment), K)


def assert_relabelling_is_bit_identical(model, config, X, rnd):
    """Permute the components, map the assignment through the same
    permutation and renumber the clusters: both risks keep their bits, and
    each posterior column moves with its cluster."""
    perm = list(range(model.kappa))
    rnd.shuffle(perm)
    renumber = list(range(config.K))
    rnd.shuffle(renumber)
    relabelled = MixtureModel(model.weights[perm], model.means[perm],
                              model.covariances[perm])
    moved = ClusterConfiguration(
        tuple(renumber[config.assignment[j]] for j in perm), config.K)
    for rule in RULES:
        assert (pmc_from_sample(relabelled, moved, X, rule)
                == pmc_from_sample(model, config, X, rule))
    pi = cluster_posterior_matrix(model, config, X)
    got = cluster_posterior_matrix(relabelled, moved, X)
    assert got[:, renumber].tobytes() == pi.tobytes()


@PROPERTY
@given(shapes, st.randoms(use_true_random=False))
def test_grouped_relabelling_is_bit_identical(shape, rnd):
    model, rng = build(*shape)
    X = rng.normal(0, 3, (300, model.p))
    assert_relabelling_is_bit_identical(
        model, grouped_config(model.kappa, rnd), X, rnd)


@pytest.mark.parametrize("kappa", [7, 8, 20])
def test_relabelling_is_bit_identical_at_wide_kappa(kappa):
    """shapes draws kappa 2-6; the three relabelling properties also hold
    for wider mixtures."""
    relabel = test_component_relabelling_is_bit_identical.hypothesis
    pair_deltas = test_relabelling_permutes_pair_deltas_bit_for_bit.hypothesis
    grouped = test_grouped_relabelling_is_bit_identical.hypothesis
    for seed in range(3):
        shape = (seed, kappa, 1 + seed % 3)
        relabel.inner_test(shape, random.Random(seed))
        pair_deltas.inner_test(shape, random.Random(seed), 1 + seed)
        grouped.inner_test(shape, random.Random(seed))


# Sample sizes for the row-block tree: either side of the block cut and of
# powers of two, odd sizes, and 1 to 16 blocks.
TREE_SIZES = (1000, _CHAIN_ROWS - 1, _CHAIN_ROWS, _CHAIN_ROWS + 1,
              2 ** 14 - 1, 2 ** 14 + 1, 2 ** 15 + 1, 2 ** 16 - 1,
              2 ** 16 + 1, 12_345, 40_001, 100_000)


@pytest.mark.parametrize("M", TREE_SIZES)
@settings(derandomize=True, deadline=None, max_examples=5)
@given(st.integers(0, 2**32 - 1))
def test_block_tree_sums_equal_numpy_sums(M, seed):
    """_tree_sum's blocks tile the rows in order, at most _CHAIN_ROWS
    each, and their numpy sums added along its tree give numpy's own sum
    of every row, bit for bit.  Terms of mixed sign and magnitude make the
    sum depend on the order of its additions."""
    rng = np.random.default_rng(seed)
    terms = rng.standard_normal((3, M)) * 10.0 ** rng.uniform(-8, 8, (3, M))
    blocks = []

    def leaf(lo, hi):
        blocks.append((lo, hi))
        return terms[:, lo:hi].sum(axis=-1)

    got = pmc_module._tree_sum(leaf, 0, M)
    assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
    assert blocks[-1][1] == M
    assert all(0 < hi - lo <= _CHAIN_ROWS for lo, hi in blocks)
    assert got.tobytes() == terms.sum(axis=-1).tobytes()
    assert got[0].tobytes() == terms[0].sum().tobytes()


def one_shot_pair_deltas(pi):
    """(K, K) 2 E[pi_i pi_j] of a whole (M, K) posterior matrix, each
    pair's M products summed by numpy in one call: the full-matrix
    computation that the row blocks replace."""
    M, K = pi.shape
    cols = np.ascontiguousarray(pi.T)
    delta = np.zeros((K, K))
    for i in range(K - 1):
        delta[i, i + 1:] = delta[i + 1:, i] = 2.0 * (
            (cols[i] * cols[i + 1:]).sum(axis=-1) / M)
    return delta


@pytest.mark.parametrize("M", TREE_SIZES)
@settings(derandomize=True, deadline=None, max_examples=4)
@given(shapes, st.randoms(use_true_random=False))
def test_block_scoring_equals_the_one_shot_reference(M, shape, rnd):
    """pmc_from_sample, pmc_mc and delta_matrix score the sample in row
    blocks and keep every bit of the one-shot computation on the whole
    (M, K) posterior matrix: the per-point loss, its mean and standard
    error, and each pair delta.  A relabelling of the components and
    clusters permutes the block-summed delta matrix exactly."""
    model, _ = build(*shape)
    s = PmcSettings(m_samples=M, seed=shape[0])
    X, _ = pmc_module.sample_mixture(model, M, s.seed)
    for config in (ClusterConfiguration.singletons(model.kappa),
                   grouped_config(model.kappa, rnd)):
        pi = cluster_posterior_matrix(model, config, X)
        _, clusters = _summation_order(model, config)
        for rule in RULES:
            value, se = pmc_module._mean_and_se(_summands(pi, rule, clusters))
            got = pmc_from_sample(model, config, X, rule)
            assert np.array(got).tobytes() == np.array([value, se]).tobytes()
            if config.K > 1:
                est = pmc_mc(model, config, PmcSettings(M, s.seed, rule))
                assert est == McEstimate(value, se, M, s.seed)
                assert np.array([est.value, est.std_error]).tobytes() \
                    == np.array([value, se]).tobytes()
        if config.K == 1:
            continue
        D = delta_matrix(model, config, s)
        expect = one_shot_pair_deltas(pi)
        assert D.values.tobytes() == expect.tobytes()
        upper = np.triu_indices(config.K, 1)
        assert D.pmc == float(np.sort(expect[upper]).sum())
        assert D.estimate == pmc_mc(model, config, s)
        perm = list(range(model.kappa))
        rnd.shuffle(perm)
        renumber = list(range(config.K))
        rnd.shuffle(renumber)
        relabelled = MixtureModel(model.weights[perm], model.means[perm],
                                  model.covariances[perm])
        moved = ClusterConfiguration(
            tuple(renumber[config.assignment[j]] for j in perm), config.K)
        R = delta_matrix(relabelled, moved, s, _sample=X)
        assert (R.values[np.ix_(renumber, renumber)].tobytes()
                == D.values.tobytes())
        assert R.pmc == D.pmc and R.estimate == D.estimate


def test_delta_matrix_memory_is_bounded():
    """delta_matrix keeps no (M, K) posterior matrix, which at M = 200k
    and kappa = 20 would take 32 MB alone: the peak is the (M, 2) sample,
    its labels, the (M,) loss with _mean_and_se's two (M,) temporaries and
    a few blocks.  Measured: 9.5 MiB; with the whole matrix, 42.8 MiB."""
    kappa, M = 20, 200_000
    model, _ = build(3, kappa, 2)
    delta_matrix(model, None, PmcSettings(m_samples=1000, seed=1))
    tracemalloc.start()
    try:
        delta_matrix(model, None, PmcSettings(m_samples=M, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    posteriors = M * kappa * 8
    assert peak < posteriors / 2


def tied_model(kind, seed):
    """Six components in 2-D whose parameters tie: all share one weight
    ("weight"), also one mean ("weight-mean"), or they are three pairs of
    identical components ("identical")."""
    model, _ = build(seed, 6, 2)
    means, covs = model.means, model.covariances
    if kind == "weight-mean":
        means = means[[0] * 6]
    elif kind == "identical":
        pairs = [j // 2 for j in range(6)]
        means, covs = means[pairs], covs[pairs]
    return MixtureModel(np.full(6, 1 / 6), means, covs)


@pytest.mark.parametrize("kind", ["weight", "weight-mean", "identical"])
def test_order_key_covers_every_parameter(kind):
    """The order ranks components by weight, mean and covariance, so
    components that tie on some of them still sum in one order whatever
    their labels; identical ones may tie, having equal columns."""
    for seed in range(4):
        model = tied_model(kind, seed)
        rnd = random.Random(seed)
        X = np.random.default_rng(seed).normal(0, 3, (300, 2))
        configs = [ClusterConfiguration.singletons(6)]
        configs += [grouped_config(6, rnd) for _ in range(6)]
        for config in configs:
            assert_relabelling_is_bit_identical(model, config, X, rnd)


def test_wide_group_posterior_ignores_memory_layout():
    """An 8-member group adds its columns left to right in the order given,
    for a C-ordered, an F-ordered and a fancy-indexed (column by column)
    input alike."""
    rng = np.random.default_rng(5)
    a = rng.normal(0, 4, (500, 10))
    members = [int(j) for j in rng.permutation(10)[:8]]
    groups = [members] + [[j] for j in range(10) if j not in members]
    clusters = list(range(len(groups)))[::-1]
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    total, group = np.zeros(500), np.zeros(500)
    for j in [j for k in clusters for j in groups[k]]:
        total += e[:, j]
    for j in members:
        group += e[:, j]
    expect = (group / total).tobytes()
    perm = [int(j) for j in rng.permutation(10)]
    moved = [[perm.index(j) for j in g] for g in groups]
    for b, g in ((a, groups), (np.asfortranarray(a), groups),
                 (a[:, perm], moved)):
        pi, _ = _normalise(b, g, clusters)
        assert pi[:, 0].tobytes() == expect


# ties, signed zeros, subnormals and magnitudes near the float64 limit
sum_terms = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308]),
    st.floats(-1e308, 1e308))


@settings(PROPERTY, max_examples=12)
@pytest.mark.parametrize("lead", [(6,), (2, 3)])
@pytest.mark.parametrize("K", [1, 2, 7, 8, 20])
@given(data=st.data())
def test_row_max_is_the_numpy_max(K, lead, data):
    """Equal values (a max of +0 and -0 may be either), NaN rows NaN."""
    a = data.draw(arrays(np.float64, lead + (K,), elements=sum_terms))
    rows = a.reshape(-1, K)
    rows[0, data.draw(st.integers(0, K - 1))] = np.inf
    rows[1, data.draw(st.integers(0, K - 1))] = np.nan
    assert np.array_equal(_row_max(a), a.max(axis=-1), equal_nan=True)


@PROPERTY
@given(shapes)
def test_delta_total_is_the_ascending_triangle_sum(shape):
    model, _ = build(*shape)
    D = delta_matrix(model, None, PmcSettings(m_samples=2000, seed=shape[0]))
    upper = D.values[np.triu_indices(model.kappa, 1)]
    assert D.pmc == float(np.sort(upper).sum())


@PROPERTY
@given(shapes)
def test_merge_steps_subtract_exactly(shape):
    model, _ = build(*shape)
    trace, config = phm_run(model, 0.0,
                            PmcSettings(m_samples=2000, seed=shape[0]))
    assert config.K == 1 and len(trace.steps) == model.kappa - 1
    before = trace.initial_pmc.value
    for step in trace.steps:
        assert step.pmc_before == before
        assert step.pmc_before - step.delta_pmc == step.pmc_after
        before = step.pmc_after


def former_merge(values, pmc, tau):
    """The former merge loop, kept as the reference: each pair's reduction
    in a dict and a lazily invalidated heap, the smallest (i, j) first
    among equal reductions."""
    raw = values.copy()
    kappa = raw.shape[0]
    active = set(range(kappa))
    members = {i: (i,) for i in range(kappa)}
    current = {}
    heap = []
    for i in range(kappa):
        for j in range(i + 1, kappa):
            current[(i, j)] = raw[i, j]
            heap.append((-raw[i, j], i, j))
    heapq.heapify(heap)
    P = pmc
    steps = []
    while P > tau and len(active) > 1:
        while True:
            negd, i, j = heapq.heappop(heap)
            if i in active and j in active and current.get((i, j)) == -negd:
                break
        delta = -negd
        after = P - delta
        members[i] = tuple(sorted(members[i] + members[j]))
        del members[j]
        active.remove(j)
        steps.append(((i, j), delta, P, after, members[i]))
        P = after
        for k in active:
            if k == i:
                continue
            a, b = (i, k) if i < k else (k, i)
            ja, jb = (j, k) if j < k else (k, j)
            val = raw[a, b] + raw[ja, jb]
            raw[a, b] = raw[b, a] = val
            current[(a, b)] = val
            heapq.heappush(heap, (-val, a, b))
    assignment = [0] * kappa
    for rank, root in enumerate(sorted(active)):
        for comp in members[root]:
            assignment[comp] = rank
    return steps, len(active), tuple(assignment)


@st.composite
def tied_deltas(draw):
    """Symmetric delta matrices over {0, 1/8, 1/4, 3/8}: every sum is exact
    and equal reductions are common."""
    kappa = draw(st.integers(2, 12))
    upper = draw(st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.375]),
                          min_size=kappa * (kappa - 1) // 2,
                          max_size=kappa * (kappa - 1) // 2))
    values = np.zeros((kappa, kappa))
    values[np.triu_indices(kappa, 1)] = upper
    return values + values.T


@settings(derandomize=True, deadline=None, max_examples=200)
@given(tied_deltas(), st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
def test_merge_order_matches_the_former_heap_loop(values, tau):
    kappa = values.shape[0]
    total = float(np.sort(values[np.triu_indices(kappa, 1)]).sum())
    D = DeltaMatrix(values, total, McEstimate(min(total, 1.0), 0.0, 1000, 0))
    model = mixture(np.full(kappa, 1.0 / kappa), np.arange(kappa)[:, None],
                    [np.eye(1)] * kappa)
    trace, config = phm_run(model, tau, precomputed=D)
    steps, final_K, assignment = former_merge(values, total, tau)

    def bits(step):
        pair, delta, before, after, members = step
        return (tuple(pair), float(delta).hex(), float(before).hex(),
                float(after).hex(), tuple(members))

    assert ([bits((s.cluster_pair, s.delta_pmc, s.pmc_before, s.pmc_after,
                   s.new_cluster_members)) for s in trace.steps]
            == [bits(s) for s in steps])
    assert trace.final_K == config.K == final_K
    assert config.assignment == assignment


@PROPERTY
@given(shapes)
def test_randomized_summand_at_least_optimal_pointwise(shape):
    model, rng = build(*shape)
    pi = cluster_posterior_matrix(model, None,
                                  rng.normal(0, 4, (500, model.p)))
    clusters = list(range(model.kappa))
    assert np.all(_summands(pi, "randomized", clusters)
                  >= _summands(pi, "optimal", clusters))


@PROPERTY
@given(shapes, st.sampled_from(RULES))
def test_risk_within_zero_and_upper_bound(shape, rule):
    model, _ = build(*shape)
    est = pmc_mc(model, None, PmcSettings(m_samples=4000, seed=shape[0],
                                          rule=rule))
    assert 0.0 <= est.value
    assert est.value <= pmc_upper_bound(model.weights, rule) + 4 * est.std_error


@PROPERTY
@given(shapes)
def test_log_density_matches_scipy(shape):
    model, rng = build(*shape)
    for mean, cov, L in zip(model.means, model.covariances, model.chol):
        X = mean + rng.normal(0, 2, (50, model.p))
        expect = multivariate_normal(mean, cov).logpdf(X)
        got = gaussian_log_density(X, mean[None], L[None])[:, 0]
        assert np.allclose(got, expect, rtol=0, atol=1e-10)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 10),
       st.integers(1, 500))
def test_stacked_kernel_matches_scipy_across_row_blocks(seed, kappa, p,
                                                        extra):
    model, rng = build(seed, kappa, p)
    n = BLOCK_ELEMENTS // (kappa * p) + extra
    X = rng.normal(0, 4, (n, p))
    got = gaussian_log_density(X, model.means, model.chol)
    assert got.shape == (n, kappa)
    for j, (mean, cov) in enumerate(zip(model.means, model.covariances)):
        expect = multivariate_normal(mean, cov).logpdf(X)
        assert np.allclose(got[:, j], expect, rtol=0, atol=1e-10)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 10])
def test_kernel_rows_do_not_depend_on_their_block(p):
    """Blocks of 1-40 rows score each row as the whole call does.  numpy
    takes a one-row matrix product as a matrix-vector product, which adds
    in another order, so the batched path scores a lone row twice over."""
    rng = np.random.default_rng(p)
    kappa = 5
    X = rng.normal(0, 3, (300, p))
    means = rng.normal(0, 2, (kappa, p))
    A = rng.normal(size=(kappa, p, p))
    L = np.linalg.cholesky(A @ A.swapaxes(-1, -2) + 0.5 * np.eye(p))
    whole = gaussian_log_density(X, means, L)
    for rows in range(1, 41):
        for lo in (0, 7, 300 - rows):
            got = gaussian_log_density(X[lo:lo + rows], means, L)
            assert got.tobytes() == whole[lo:lo + rows].tobytes()


def row_major_log_density(X, means, L):
    """gaussian_log_density as it was computed row-major: (..., n, k)
    output memory, each block centred as (..., k, rows, p) and, for
    p >= 4, whitened by its @ W product and summed by an einsum over the
    trailing axes; up to p = 3, one coordinate at a time."""
    k, p = means.shape[-2:]
    inv_lt = np.linalg.inv(L).swapaxes(-1, -2)
    const = (-np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)
             - 0.5 * p * np.log(2.0 * np.pi))
    n = X.shape[-2]
    out = np.empty(X.shape[:-1] + (k,))
    rows = max(1, BLOCK_ELEMENTS // means.size)
    for lo in range(0, n, rows):
        if p > 3:
            x = X[..., None, lo:lo + rows, :]
            m = x.shape[-2]
            if m == 1:
                x = np.concatenate([x, x], axis=-2)
            z = (x - means[..., None, :]) @ inv_lt
            out[..., lo:lo + rows, :] = const[..., None, :] - 0.5 * np.einsum(
                "...kij,...kij->...ik", z, z)[..., :m, :]
            continue
        d = [X[..., None, lo:lo + rows, i] - means[..., i, None]
             for i in range(p)]
        q = None
        for c in range(p):
            z = d[0] * inv_lt[..., 0, c, None]
            for i in range(1, c + 1):
                z += d[i] * inv_lt[..., i, c, None]
            z *= z
            q = z if q is None else q + z
        out[..., lo:lo + rows, :] = (const[..., None]
                                     - 0.5 * q).swapaxes(-1, -2)
    return out


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 10),
       st.sampled_from([(), (2,), (3,)]),
       st.sampled_from(["1", "2", "edge-1", "edge", "edge+1"]))
@example(0, 20, 10, (), "edge+1")
@example(1, 1, 1, (3,), "edge+1")
@example(2, 8, 4, (2,), "1")
@example(3, 20, 3, (), "edge-1")
def test_kernel_keeps_the_row_major_bits(seed, kappa, p, lead, rows):
    """The component-major kernel gives the bits of the row-major one, for
    every p, on 1 and 2 rows and either side of a block edge."""
    rng = np.random.default_rng(seed)
    edge = BLOCK_ELEMENTS // (int(np.prod(lead, dtype=int)) * kappa * p)
    n = {"1": 1, "2": 2, "edge-1": edge - 1, "edge": edge,
         "edge+1": edge + 1}[rows]
    X = rng.normal(0, 3, lead + (n, p)) * rng.uniform(0.1, 10, p)
    means = rng.normal(0, 2, lead + (kappa, p))
    A = rng.normal(size=lead + (kappa, p, p))
    L = np.linalg.cholesky(A @ A.swapaxes(-1, -2) + 0.3 * np.eye(p))
    got = gaussian_log_density(X, means, L)
    expect = row_major_log_density(X, means, L)
    assert got.shape == expect.shape == lead + (n, kappa)
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("p", [2, 5])
def test_chain_arrays_are_component_major(p, monkeypatch):
    """Each component's column of the log-density and the posterior matrix
    is one contiguous row, and the pair sums read pi in place."""
    model, rng = build(p, 6, p)
    X = rng.normal(0, 3, (3000, p))
    means, L = model.means, model.chol
    a = gaussian_log_density(X, means, L)
    assert a.swapaxes(-1, -2).flags.c_contiguous
    batched = gaussian_log_density(np.stack([X, X]), np.stack([means, means]),
                                   np.stack([L, L]))
    assert batched.swapaxes(-1, -2).flags.c_contiguous
    a = a + np.log(model.weights)
    for config in (ClusterConfiguration.singletons(6),
                   ClusterConfiguration((0, 0, 1, 2, 1, 3), 4)):
        pi, _ = _normalise(a, *_summation_order(model, config))
        assert pi.T.flags.c_contiguous
        pi = cluster_posterior_matrix(model, config, X)
        assert pi.T.flags.c_contiguous
    reads = []

    def spy(a, *args, **kwargs):
        out = contiguous(a, *args, **kwargs)
        reads.append(np.shares_memory(out, pi))
        return out

    contiguous = np.ascontiguousarray
    monkeypatch.setattr(np, "ascontiguousarray", spy)
    pmc_module._pair_sums(pi)
    assert reads and all(reads)


def chain_configurations(kappa, rng):
    """Singletons, and the first min(8, kappa) components of a shuffled
    order as one group with the rest singletons."""
    order = [int(j) for j in rng.permutation(kappa)]
    assignment = [0] * kappa
    for c, j in enumerate(order[min(8, kappa):], 1):
        assignment[j] = c
    return [None, ClusterConfiguration(tuple(assignment),
                                       1 + max(0, kappa - 8))]


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("kappa", [2, 7, 8, 20])
def test_posterior_blocks_equal_the_one_shot_chain(kappa, p):
    """Row blocks of the posterior chain change no bit: 2 blocks and 1 row
    against one log w + log-density + _normalise over all rows."""
    model, rng = build(kappa, kappa, p)
    n = 2 * _CHAIN_ROWS + 1
    X = rng.normal(0, 3, (n, p))
    for config in chain_configurations(kappa, rng):
        order = _summation_order(
            model, config or ClusterConfiguration.singletons(kappa))
        expect = _normalise(np.log(model.weights)
                            + model.log_component_densities(X), *order)
        got = _posteriors_and_density(model, config, X)
        for g, e in zip(got, expect, strict=True):
            assert g.shape == e.shape and g.tobytes() == e.tobytes()


def test_posterior_matrix_memory_is_bounded():
    """The chain's temporaries are block-sized: the peak is the (M, K)
    posteriors and the (M,) density plus a few (_CHAIN_ROWS, K) blocks,
    not several (M, K) arrays.  Measured: 6.9 MiB over the 15.3 MiB of
    posteriors; unblocked, the chain peaked at 47 MiB."""
    kappa = 20
    model, rng = build(3, kappa, 2)
    X = rng.normal(0, 3, (100_000, 2))
    cluster_posterior_matrix(model, None, X[:10])
    tracemalloc.start()
    try:
        pi = cluster_posterior_matrix(model, None, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    density, block = X.shape[0] * 8, _CHAIN_ROWS * kappa * 8
    assert peak < pi.nbytes + density + 8 * block


def test_far_mean_keeps_precision():
    mean, sd = np.array([1e6, -1e6]), 1e-3
    model = mixture([1.0], [mean], [np.eye(2) * sd**2])
    offsets = np.random.default_rng(0).normal(0, 3 * sd, (200, 2))
    X = mean + offsets
    r = (X - mean) / sd
    expect = (-0.5 * (r * r).sum(axis=1) - 2 * np.log(sd)
              - np.log(2 * np.pi))
    got = gaussian_log_density(X, model.means, model.chol)[:, 0]
    assert np.allclose(got, expect, rtol=0, atol=1e-8)


def draw(model, rng, n):
    """n rows drawn from the mixture, in random component order."""
    labels = rng.choice(model.kappa, size=n, p=model.weights)
    z = rng.standard_normal((n, model.p))
    return np.array([model.means[j] + model.chol[j] @ v
                     for j, v in zip(labels, z)])


def same_fit(a, b):
    """Two EmFits equal to the bit."""
    assert a.loglik.hex() == b.loglik.hex() and a.bic.hex() == b.bic.hex()
    assert (a.iterations, a.converged) == (b.iterations, b.converged)
    assert [v.hex() for v in a.loglik_path] == [v.hex() for v in b.loglik_path]
    assert np.array_equal(a.model.weights, b.model.weights)
    assert np.array_equal(a.model.means, b.model.means)
    assert np.array_equal(a.model.covariances, b.model.covariances)


# 30 examples missed a start whose responsibilities had a stack-dependent
# stride; 100 catch it.  kappa reaches 12, past the 9 rows from which
# np.add.reduceat adds a segment pairwise, and p reaches 5, where the
# moment form's scatter is not symmetric to the bit before its (S + S^T) / 2
@settings(PROPERTY, max_examples=100)
@given(st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 6),
                 st.integers(1, 5)),
       st.integers(40, 150),
       st.sets(st.integers(1, 12), min_size=1, max_size=4),
       st.integers(1, 3), st.booleans(), st.booleans())
def test_scan_fits_equal_their_solo_fits(shape, n, kappas, n_init, small,
                                         centred):
    # small blocks split the rows of Z and the scan's starts into several
    # stacks; neither may change a start's fit, in either form
    model, rng = build(*shape)
    X = draw(model, rng, n)
    seed = shape[0]
    scanned = {}
    real = estimators.fit_gmm_em

    def spy(X, kappa, **kw):
        scanned[kappa] = real(X, kappa, **kw)
        return scanned[kappa]

    form = (mock.patch.object(estimators, "_moment_form_ok",
                              return_value=False)
            if centred else contextlib.nullcontext())
    with form, mock.patch.object(estimators, "BLOCK_ELEMENTS",
                                 600 if small else BLOCK_ELEMENTS):
        with mock.patch.object(estimators, "fit_gmm_em", spy):
            select_gmm_bic(X, kappas, n_init=n_init, seed=seed)
        assert scanned.keys() == kappas
        for kappa, fit in scanned.items():
            same_fit(fit, fit_gmm_em(X, kappa, n_init=n_init,
                                     seed=derive_seed(seed, "bic-scan",
                                                      kappa)))


@pytest.mark.parametrize("reg", [0.0, 1e-9])
def test_far_clusters_fit_in_centred_form(reg):
    # 1e6 apart with sd 1e-3: the moment form would cancel
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 1e-3, (100, 2)),
                   rng.normal(0, 1e-3, (100, 2)) + [1e6, 0.0]])
    fit = fit_gmm_em(X, 2, n_init=2, seed=0, reg=reg)
    with mock.patch.object(estimators, "_moment_form_ok", return_value=False):
        centred = fit_gmm_em(X, 2, n_init=2, seed=0, reg=reg)
    assert fit.iterations == centred.iterations
    assert abs(fit.loglik - centred.loglik) <= 1e-10 * abs(centred.loglik)
    assert not _moment_form_ok(X - X.mean(axis=0), reg)


@PROPERTY
@given(shapes, st.integers(1, 6), st.integers(1, 5))
def test_moment_and_centred_forms_agree(shape, kappa, p):
    model, rng = build(shape[0], shape[1], p)
    X = draw(model, rng, 150)
    assert _moment_form_ok(X - X.mean(axis=0), default_regularization(X))
    fit = fit_gmm_em(X, kappa, n_init=2, seed=shape[0])
    with mock.patch.object(estimators, "_moment_form_ok", return_value=False):
        centred = fit_gmm_em(X, kappa, n_init=2, seed=shape[0])
    assert abs(fit.loglik - centred.loglik) <= 1e-10 * abs(centred.loglik)


def test_log_component_densities_memory_is_bounded():
    # unblocked (kappa, n, p) differences alone would take 72 MB
    model, rng = build(1, 9, 10)
    X = rng.normal(0, 3, (100_000, 10))
    model.log_component_densities(X[:10])
    tracemalloc.start()
    try:
        out = model.log_component_densities(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (100_000, 9)
    assert peak < 32 * 2**20


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 10),
       st.integers(1, 6))
def test_sq_dists_adds_coordinates_as_numpy_sum(seed, n, p, K):
    rng = np.random.default_rng(seed)
    X, C = rng.normal(0, 3, (n, p)), rng.normal(0, 3, (K, p))
    # bit for bit: the former sq_dists, which every caller relied on
    assert np.array_equal(sq_dists(X, C),
                          ((X[:, None, :] - C[None]) ** 2).sum(axis=-1))


@pytest.mark.parametrize("p", [1, 2, 3, 7, 8, 10])
@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 30),
       st.integers(1, 6), st.booleans())
@example(0, 2, 5, 1, True)
@example(1, 2, 5, 2, True)
@example(2, 1, 9, 4, True)
def test_running_minimum_assignment_is_the_argmin(p, seed, S, rows, K,
                                                  ties):
    rng = np.random.default_rng(seed)
    if ties:
        # small integer coordinates: exact distances, many of them equal;
        # a duplicate centre, and a row halfway between two centres
        X = rng.integers(-2, 3, (S, rows, p)).astype(float)
        C = rng.integers(-2, 3, (S, K, p)).astype(float)
        if K >= 2:
            C[:, -1] = C[:, 0]
            X[:, 0] = (C[:, 0] + C[:, 1]) / 2
    else:
        X, C = rng.normal(0, 3, (S, rows, p)), rng.normal(0, 3, (S, K, p))
    expect = _stack_sq_dists(X, C).argmin(axis=1)
    # coordinate-major as a copy, as the Lloyd loop holds it, and as a view
    for XT in (np.ascontiguousarray(np.moveaxis(X, -1, 0)),
               np.moveaxis(X, -1, 0)):
        assert np.array_equal(_nearest_centres(X, XT, C), expect)
    out = np.full((S, rows + 3), -1)
    _nearest_centres(X, np.moveaxis(X, -1, 0), C, out[:, 2:-1])
    assert np.array_equal(out[:, 2:-1], expect)
    assert (out[:, :2] == -1).all() and (out[:, -1] == -1).all()


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 30),
       st.integers(1, 4), st.integers(2, 5))
def test_segment_means_without_empty_clusters_equal_the_masked_path(
        seed, S, n, p, K):
    rng = np.random.default_rng(seed)
    K = min(K, n)
    X = rng.normal(0, 3, (S, n, p))
    labels = np.array([rng.permutation(np.arange(n) % K) for _ in range(S)])
    full = np.empty((S, K, p))
    counts = _segment_means(np.moveaxis(X, -1, 0), labels, K, full)
    assert (counts > 0).all()
    # one more start, all of its rows in cluster 0, sends the whole stack
    # through the masked path; its empty clusters keep what out held
    Xm = np.concatenate([X, X[:1]])
    Lm = np.concatenate([labels, np.zeros((1, n), dtype=labels.dtype)])
    masked = np.full((S + 1, K, p), np.nan)
    _segment_means(np.ascontiguousarray(np.moveaxis(Xm, -1, 0)), Lm, K,
                   masked)
    assert np.array_equal(masked[:S], full)
    assert np.isnan(masked[S, 1:]).all()


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 40),
       st.integers(1, 9), st.integers(1, 5), st.integers(1, 4),
       st.booleans())
def test_stacked_fits_equal_one_by_one(seed, D, n, p, K, restarts,
                                       duplicates):
    rng = np.random.default_rng(seed)
    K = min(K, n)
    Xs = rng.normal(0, 3, (D, n, p))
    if duplicates:
        # repeated rows make empty clusters and their repair likely
        Xs = Xs[:, rng.integers(0, max(1, n // 3), n)]
    seeds = [int(s) for s in rng.integers(0, 2**32, D)]
    alone = [fit_kmeans(X, K, restarts=restarts, seed=s)
             for X, s in zip(Xs, seeds)]
    for got, expect in zip(fit_kmeans_many(Xs, K, seeds, restarts), alone):
        assert np.array_equal(got.partition.labels, expect.partition.labels)
        assert np.array_equal(got.centroids, expect.centroids)
        assert got.distortion == expect.distortion
        assert got.distortion_path == expect.distortion_path


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 40),
       st.integers(1, 5), st.integers(0, 300))
# the per-coordinate path (p <= 3), with (R, n, p) stacks of 3
@example(0, 3, 4, 1, 17)
@example(1, 3, 4, 2, 17)
@example(2, 3, 4, 3, 17)
def test_batched_kernel_equals_unbatched(seed, D, kappa, p, extra):
    rng = np.random.default_rng(seed)
    # past one block of the whole batch, so the batched call splits the
    # rows into other blocks than the unbatched calls do
    n = BLOCK_ELEMENTS // (D * kappa * p) + extra
    X = rng.normal(0, 3, (D, n, p))
    means = rng.normal(0, 2, (D, kappa, p))
    A = rng.normal(size=(D, kappa, p, p))
    L = np.linalg.cholesky(A @ A.swapaxes(-1, -2) + 0.5 * np.eye(p))
    got = gaussian_log_density(X, means, L)
    for d in range(D):
        assert np.array_equal(got[d],
                              gaussian_log_density(X[d], means[d], L[d]))


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(2, 40),
       st.integers(1, 6), st.integers(1, 5))
def test_stacked_moments_equal_one_by_one(seed, D, n, p, K):
    rng = np.random.default_rng(seed)
    K = min(K, n)
    Xs = rng.normal(0, 3, (D, n, p)) * rng.uniform(0.1, 10, p)
    labels = np.array([rng.permutation(np.arange(n) % K) for _ in range(D)])
    reg = default_regularization(Xs)
    w, means, covs = _gaussian_moments(Xs, labels, K, reg)
    for d in range(D):
        assert reg[d] == default_regularization(Xs[d])
        model = partition_to_gaussians(Xs[d], Partition(labels[d], K))
        assert np.array_equal(model.weights, w[d])
        assert np.sum(w[d]) == 1.0
        assert np.array_equal(model.means, means[d])
        assert np.array_equal(model.covariances, covs[d])


def scipy_tree(V):
    """The Ward tree of V as fit_hclust built it from scipy's linkage."""
    Z = linkage(V, method="ward")
    return HclustTree(len(V), np.column_stack([Z[:, 0], Z[:, 1],
                                               Z[:, 2] ** 2]))


def scipy_split(V):
    """scipy's two-way Ward split of V: the oracle of every 1-D split."""
    return cut_tree(scipy_tree(V), 2).labels


def former_statistic(V):
    """pmc_statistic as it was computed one replicate at a time: Ward
    split, per-cluster masked means and d.T @ d scatter, a MixtureModel,
    and the risk of its posteriors on V."""
    n, p = V.shape
    lab = scipy_split(V)
    reg = 1e-6 * float(V.var(axis=0, ddof=1).mean())
    w = np.array([(lab == k).sum() / n for k in range(2)])
    for _ in range(10):
        resid = 1.0 - np.sum(w)
        if resid == 0.0:
            break
        w[np.argmax(w)] += resid
    means, covs = [], []
    for k in range(2):
        S = V[lab == k]
        mu = S.mean(axis=0)
        d = S - mu
        C = d.T @ d / S.shape[0] + reg * np.eye(p)
        means.append(mu)
        covs.append((C + C.T) / 2.0)
    value, _ = pmc_from_sample(mixture(w, means, covs), None, V, "randomized")
    return value


def shifted_normals(n, p, shift):
    """Two groups shift apart, so both clean and overlapping splits occur."""
    def make(rng):
        X = rng.standard_normal((n, p))
        X[: n // 2, 0] += shift
        return X
    return make


def replicate_draw(seed, n, p, shift):
    return lambda r: shifted_normals(n, p, shift)(stream(seed, "null-rep", r))


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(4, 40), st.integers(1, 3),
       st.integers(1, 40), st.integers(1, 15), st.floats(0, 6))
def test_stacked_statistics_equal_one_by_one(seed, n, p, reps, per_chunk,
                                             shift):
    # reps up to 40 and chunks of 1 to 15 replicates, each chunk's streams
    # opened in one stream() call
    make = shifted_normals(n, p, shift)
    draw = replicate_draw(seed, n, p, shift)
    alone = np.array([pmc_statistic(draw(r)) for r in range(reps)])
    assert np.array_equal(
        hyptest._replicate_statistics(seed, "null-rep", make, reps, n, p),
        alone)
    # chunks of per_chunk replicates: a replicate's statistic does not
    # depend on the chunk it lands in
    with mock.patch.object(hyptest, "BLOCK_ELEMENTS", n * 2 * p * per_chunk):
        assert np.array_equal(
            hyptest._replicate_statistics(seed, "null-rep", make, reps, n,
                                          p), alone)


# 1-D data for the stacked Ward split: continuous draws, and CSV-like
# rounding and small integers, whose equal values tie the merge costs
WARD_KINDS = {
    "normal": lambda rng, shape: rng.normal(size=shape),
    "cubed": lambda rng, shape: rng.normal(size=shape) ** 3,
    "rounded-0.1": lambda rng, shape: np.round(rng.normal(size=shape), 1),
    "rounded-0.01": lambda rng, shape: np.round(rng.normal(size=shape), 2),
    "integers": lambda rng, shape: rng.integers(0, 20, shape) * 1.0,
    # the existence bench's alternative input: two groups 5 apart
    "two-blobs": lambda rng, shape: (rng.normal(size=shape)
                                     + 5.0 * (rng.random(shape) < 0.5)),
}


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.sampled_from(sorted(WARD_KINDS)), st.integers(4, 400),
       st.sampled_from([1, 200]), st.integers(0, 2**32 - 1))
@example("integers", 400, 200, 0)
@example("integers", 4, 200, 1)
@example("rounded-0.1", 150, 200, 2)
@example("rounded-0.01", 150, 200, 3)
@example("rounded-0.1", 5, 1, 4)
def test_stacked_ward_splits_equal_scipy(kind, n, reps, seed):
    Vs = WARD_KINDS[kind](np.random.default_rng(seed), (reps, n, 1))
    expect = np.array([scipy_split(V) for V in Vs])
    assert np.array_equal(estimators._ward_splits_1d(Vs), expect)


def scipy_split_count(Vs):
    """Labels of _ward_splits_1d(Vs), and how many of its replicates it
    handed to scipy."""
    with mock.patch("scipy.cluster.hierarchy.linkage", wraps=linkage) as spy:
        labels = estimators._ward_splits_1d(Vs)
    return labels, spy.call_count


@pytest.mark.parametrize("n", [4, 5, 6, 7, 150])
def test_ward_split_of_evenly_spaced_values_ends_at_scipy(n):
    # every adjacent merge cost is equal, so no pair is cheaper than both
    # its neighbours: the tie rule must hand the replicate to scipy
    Vs = np.stack([np.arange(n) * 0.5, np.arange(n)[::-1] - 3.0])[..., None]
    labels, tied = scipy_split_count(Vs)
    assert tied == 2
    assert np.array_equal(labels, [scipy_split(V) for V in Vs])


@pytest.mark.parametrize("n", [4, 5, 12, 40])
def test_ward_split_of_powers_of_two_merges_one_pair_per_round(n):
    # values 2^i: the cheapest pair is always the two smallest clusters,
    # so each round merges exactly one pair, n - 2 rounds in all
    rng = np.random.default_rng(n)
    Vs = np.stack([rng.permutation(2.0 ** np.arange(n))
                   for _ in range(6)])[..., None]
    labels, tied = scipy_split_count(Vs)
    assert tied == 0
    assert np.array_equal(labels, [scipy_split(V) for V in Vs])
    # the split is {largest} against the rest
    assert np.array_equal(labels != labels[:, :1],
                          (Vs[..., 0] == 2.0 ** (n - 1))
                          != (Vs[:, :1, 0] == 2.0 ** (n - 1)))


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("kind", sorted(WARD_KINDS))
def test_ward_split_of_four_and_five_values(kind, n):
    Vs = WARD_KINDS[kind](np.random.default_rng(n), (500, n, 1))
    expect = np.array([scipy_split(V) for V in Vs])
    assert np.array_equal(estimators._ward_splits_1d(Vs), expect)


def test_ward_split_hands_only_tied_replicates_to_scipy():
    # continuous draws have no near-tied costs; a replicate of evenly
    # spaced values among them is the one that goes to scipy
    Vs = np.random.default_rng(3).normal(size=(50, 30, 1))
    Vs[17, :, 0] = np.arange(30.0)
    labels, tied = scipy_split_count(Vs)
    assert tied == 1
    assert np.array_equal(labels, [scipy_split(V) for V in Vs])


def equal_pairs(rng, n):
    """Continuous draws in which two values recur once each: two merges at
    height 0 tie, though no two neighbouring merge costs do."""
    x = rng.normal(size=n)
    if n >= 4:
        x[n // 2:n // 2 + 2] = x[:2]
    return x


# 1-D data for the Ward tree: continuous draws, which have no near tie,
# and data that tie two merge costs or two heights for certain from the
# least n of TIED_KINDS on
TREE_KINDS = {
    "normal": lambda rng, n: rng.normal(size=n),
    "exponential": lambda rng, n: rng.exponential(size=n),
    "two-blobs": lambda rng, n: rng.normal(size=n) + 5.0 * (rng.random(n)
                                                            < 0.5),
    "evenly-spaced": lambda rng, n: rng.permutation(n) * 1.0,
    "integers": lambda rng, n: rng.integers(0, max(1, n // 2), n) * 1.0,
    "repeated": lambda rng, n: rng.normal(size=max(1, n // 2))[
        rng.integers(0, max(1, n // 2), n)],
    "equal-pairs": equal_pairs,
}
TIED_KINDS = {"evenly-spaced": 3, "integers": 3, "repeated": 3,
              "equal-pairs": 4}


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from(sorted(TREE_KINDS)), st.integers(2, 2000),
       st.sampled_from([-3, 0, 3]), st.sampled_from([0.0, 100.0, -100.0]),
       st.integers(0, 2**32 - 1))
@example("normal", 2000, 0, 100.0, 0)
@example("two-blobs", 2000, -3, -100.0, 1)
@example("exponential", 2, 3, 0.0, 2)
@example("evenly-spaced", 3, -3, 100.0, 3)
@example("repeated", 2000, 0, 0.0, 4)
@example("equal-pairs", 4, 0, 0.0, 5)
@example("equal-pairs", 300, 3, -100.0, 6)
def test_ward_tree_of_1d_data_is_scipys(kind, n, log_scale, offset, seed):
    x = TREE_KINDS[kind](np.random.default_rng(seed), n)
    x = x * 10.0 ** log_scale + offset
    tied = n >= TIED_KINDS.get(kind, n + 1)
    with mock.patch("scipy.cluster.hierarchy.linkage", wraps=linkage) as spy:
        tree = fit_hclust(x[:, None])
    # tie-free data never reach scipy; tied data are scipy's tree
    assert spy.call_count == tied
    expect = scipy_tree(x[:, None]).merges
    assert tree.n == n
    assert np.array_equal(tree.merges[:, :2], expect[:, :2])
    top = expect[:, 2].max()
    assert np.all(np.abs(tree.merges[:, 2] - expect[:, 2]) <= 1e-12 * top)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(4, 60), st.integers(1, 3),
       st.floats(0, 6), st.floats(-3, 3))
def test_statistic_matches_former_per_replicate_path(seed, n, p, shift,
                                                     log_scale):
    X = replicate_draw(seed, n, p, shift)(0) * 10.0 ** log_scale + 7.0
    expect = former_statistic(X)
    assert abs(pmc_statistic(X) - expect) <= 1e-12 * expect


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(4, 60), st.integers(1, 3),
       st.floats(0, 6), st.floats(-3, 3), st.floats(-100, 100))
def test_statistic_is_similarity_invariant(seed, n, p, shift, log_scale,
                                           offset):
    # Ward compares Euclidean distances, so only similarity maps a X Q + b
    # (a > 0, Q orthogonal) keep its split; the Gaussian risk would
    # survive any affine map
    rng = np.random.default_rng(seed)
    X = replicate_draw(seed, n, p, shift)(0)
    Q, R = np.linalg.qr(rng.normal(size=(p, p)))
    Q *= np.sign(np.diag(R))
    a = 10.0 ** log_scale
    b = a * offset * rng.uniform(-1, 1, p)
    assert abs(pmc_statistic(a * X @ Q + b) - pmc_statistic(X)) <= 1e-10


# seeds of every width numpy's SeedSequence splits into 1 to 4 words, and
# wider; indices up to the largest one-word index, and two wider ones
STREAM_SEEDS = [None, 0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**100,
                2**128 - 1, 2**128, 3**90]
stream_seeds = st.sampled_from(STREAM_SEEDS) | st.integers(0, 2**64 - 1)
stream_indices = (st.sampled_from([0, 1, 2**31, 2**32 - 1, 2**32, 2**40])
                  | st.integers(0, 2**32 - 1))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(st.tuples(stream_seeds, stream_indices), min_size=1,
                max_size=40),
       st.sampled_from(["null-rep", "boot-rep", "kmeans-restart", "", "é"]),
       st.booleans())
def test_batched_streams_equal_streams_opened_alone(pairs, name, one_seed):
    # one seed for the batch (the replicates) or a seed per stream (the
    # k-means restarts)
    seeds = [s for s, _ in pairs]
    indices = [i for _, i in pairs]
    if one_seed:
        seeds = [seeds[0]] * len(pairs)
    batch = list(stream(seeds[0] if one_seed else seeds, name, indices))
    assert len(batch) == len(pairs)
    for g, s, i in zip(batch, seeds, indices):
        alone = stream(s, name, i)
        assert g.bit_generator.state == alone.bit_generator.state
        assert np.array_equal(g.random(3), alone.random(3))
        assert np.array_equal(g.integers(0, 2**40, 3),
                              alone.integers(0, 2**40, 3))
        assert np.array_equal(g.standard_normal(3), alone.standard_normal(3))


@pytest.mark.parametrize("bad", ["seed", "index"])
def test_batched_streams_refuse_negative_seeds_as_numpy_does(bad):
    seeds = [5] * 40
    indices = list(range(40))
    (seeds if bad == "seed" else indices)[-1] = -1
    # the whole batch is hashed at the call, before any generator is taken
    with pytest.raises(ValueError, match="expected non-negative integer"):
        stream(seeds, "null-rep", indices)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        stream(-1, "null-rep", range(40))
