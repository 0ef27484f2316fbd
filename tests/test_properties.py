"""Property tests for the estimation chain: log-density, posteriors,
per-point loss, the mean with its Monte Carlo standard error, the delta
matrix, the merge order and its bookkeeping; for the stacked k-means restarts;
for the stacked EM starts of a BIC scan; and for the stacked existence-test
statistic; and for the ascending row sums behind all of them."""
import contextlib
import heapq
import importlib
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import multivariate_normal

from distinguish import (DeltaMatrix, MixtureModel, Partition, PmcSettings,
                         cluster_posterior_matrix, cut_tree,
                         default_regularization, delta_matrix, derive_seed,
                         estimators, fit_gmm_em, fit_hclust, fit_kmeans,
                         hyptest, mixture, partition_to_gaussians, phm_run,
                         pmc_from_sample, pmc_mc, pmc_statistic,
                         pmc_upper_bound, select_gmm_bic, stream)
from distinguish.estimators import (_gaussian_moments, _moment_form_ok,
                                    fit_kmeans_many, sq_dists)
from distinguish.models import (BLOCK_ELEMENTS, ClusterConfiguration,
                                gaussian_log_density)
from distinguish.pmc import (RULES, _CHAIN_ROWS, _NETWORKS, _normalise,
                             _posteriors_and_density, _row_max, _sorted_sum,
                             _summands)

# the package exports the function pmc under the module's name
pmc_module = importlib.import_module("distinguish.pmc")

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
    assert D.pmc_std_error == est.std_error
    assert abs(D.pmc - est.value) <= 1e-12


@PROPERTY
@given(shapes, st.randoms(use_true_random=False))
def test_component_relabelling_is_bit_identical(shape, rnd):
    model, rng = build(*shape)
    perm = list(range(model.kappa))
    rnd.shuffle(perm)
    relabelled = MixtureModel(model.weights[perm],
                              tuple(model.components[j] for j in perm))
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
    relabelled = MixtureModel(model.weights[perm],
                              tuple(model.components[j] for j in perm))
    X = rng.normal(0, 3, (2000, model.p))
    s = PmcSettings(m_samples=X.shape[0])

    def deltas(m):
        sample = (X, cluster_posterior_matrix(m, None, X))
        return delta_matrix(m, None, s, _sample=sample)

    D = deltas(model)
    # blocks of per_block pairs: a pair's sum does not depend on its block
    with mock.patch.object(pmc_module, "BLOCK_ELEMENTS", X.shape[0] * per_block):
        R = deltas(relabelled)
    assert np.array_equal(R.values, D.values[perm][:, perm])
    assert R.pmc == D.pmc and R.pmc_std_error == D.pmc_std_error


@pytest.mark.parametrize("kappa", [7, 8])
def test_relabelling_is_bit_identical_at_the_network_limit(kappa):
    """shapes draws kappa 2-6: 7 components take the widest sorting
    network in _sorted_sum, 8 the first width that goes through np.sort."""
    relabel = test_component_relabelling_is_bit_identical.hypothesis
    pair_deltas = test_relabelling_permutes_pair_deltas_bit_for_bit.hypothesis
    for seed in range(3):
        shape = (seed, kappa, 1 + seed % 3)
        relabel.inner_test(shape, random.Random(seed))
        pair_deltas.inner_test(shape, random.Random(seed), 1 + seed)


def assert_same_bits(x, y):
    """Equal to the bit, except that any NaN matches any NaN."""
    nan = np.isnan(x)
    assert np.array_equal(nan, np.isnan(y))
    assert x[~nan].tobytes() == y[~nan].tobytes()


# ties, signed zeros, subnormals and magnitudes near the float64 limit
sum_terms = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308]),
    st.floats(-1e308, 1e308))


@settings(PROPERTY, max_examples=12)
@pytest.mark.parametrize("lead", [(6,), (2, 3)])
@pytest.mark.parametrize("K", range(1, 11))
@given(data=st.data())
def test_sorted_sum_is_the_np_sort_sum_bit_for_bit(K, lead, data):
    a = data.draw(arrays(np.float64, lead + (K,), elements=sum_terms))
    rows = a.reshape(-1, K)
    rows[0, data.draw(st.integers(0, K - 1))] = np.inf
    rows[1, data.draw(st.integers(0, K - 1))] = np.nan
    # from 8 terms numpy's sum follows the memory layout; the sorted sum
    # of an F-ordered array, or of a[..., perm] (laid out column by
    # column), has the bits of the sum over C-contiguous rows
    perm = data.draw(st.permutations(range(K)))
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.sort(a, axis=-1).sum(axis=-1)
        for b in (a, np.asfortranarray(a), a[..., perm],
                  np.ascontiguousarray(a[..., perm])):
            assert_same_bits(_sorted_sum(b), expected)


def test_wide_group_posterior_ignores_memory_layout():
    """_normalise sums an 8-member group in e[..., members], a column-major
    copy; its posterior has the bits of the sum over a C-contiguous copy."""
    rng = np.random.default_rng(5)
    a = rng.normal(0, 4, (500, 10))
    members = [int(j) for j in rng.permutation(10)[:8]]
    rest = [[j] for j in range(10) if j not in members]
    pi, _ = _normalise(a, [members] + rest)
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    total = np.sort(e, axis=-1).sum(axis=-1)
    group = np.sort(np.ascontiguousarray(e[:, members]), axis=-1).sum(axis=-1)
    assert pi[:, 0].tobytes() == (group / total).tobytes()


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


@pytest.mark.parametrize("K, size", [(1, 0), (2, 1), (3, 3), (4, 5), (5, 9),
                                     (6, 12), (7, 16)])
def test_each_sorting_network_sorts_every_binary_input(K, size):
    """The 0-1 principle: a comparator network that sorts all 2^K binary
    inputs sorts every input.  Each network has the optimal size."""
    assert sorted(_NETWORKS) == list(range(1, 8))
    network = _NETWORKS[K]
    assert len(network) == size
    x = (np.arange(2 ** K)[:, None] >> np.arange(K)) & 1
    for i, j in network:
        assert 0 <= i < j < K
        x[:, i], x[:, j] = (np.minimum(x[:, i], x[:, j]),
                            np.maximum(x[:, i], x[:, j]))
    assert np.all(np.diff(x, axis=1) >= 0)


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
    D = DeltaMatrix(values, 1000, 0, total, 0.0)
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
    assert np.all(_summands(pi, "randomized") >= _summands(pi, "optimal"))


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
    for comp in model.components:
        X = comp.mean + rng.normal(0, 2, (50, model.p))
        expect = multivariate_normal(comp.mean, comp.covariance).logpdf(X)
        got = comp.log_density(X)
        assert np.allclose(got, expect, rtol=0, atol=1e-10)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 10),
       st.integers(1, 500))
def test_stacked_kernel_matches_scipy_across_row_blocks(seed, kappa, p,
                                                        extra):
    model, rng = build(seed, kappa, p)
    n = BLOCK_ELEMENTS // (kappa * p) + extra
    X = rng.normal(0, 4, (n, p))
    got = gaussian_log_density(
        X, np.array([c.mean for c in model.components]),
        np.array([c.chol for c in model.components]))
    assert got.shape == (n, kappa)
    for j, comp in enumerate(model.components):
        expect = multivariate_normal(comp.mean, comp.covariance).logpdf(X)
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
        groups = [list(g) for g in (config or ClusterConfiguration.singletons(
            kappa)).member_sets()]
        expect = _normalise(np.log(model.weights)
                            + model.log_component_densities(X), groups)
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
    comp = mixture([1.0], [mean], [np.eye(2) * sd**2]).components[0]
    offsets = np.random.default_rng(0).normal(0, 3 * sd, (200, 2))
    X = mean + offsets
    r = (X - mean) / sd
    expect = (-0.5 * (r * r).sum(axis=1) - 2 * np.log(sd)
              - np.log(2 * np.pi))
    assert np.allclose(comp.log_density(X), expect, rtol=0, atol=1e-8)


def draw(model, rng, n):
    """n rows drawn from the mixture, in random component order."""
    labels = rng.choice(model.kappa, size=n, p=model.weights)
    z = rng.standard_normal((n, model.p))
    return np.array([model.components[j].mean + model.components[j].chol @ v
                     for j, v in zip(labels, z)])


def same_fit(a, b):
    """Two EmFits equal to the bit."""
    assert a.loglik.hex() == b.loglik.hex() and a.bic.hex() == b.bic.hex()
    assert (a.iterations, a.converged) == (b.iterations, b.converged)
    assert [v.hex() for v in a.loglik_path] == [v.hex() for v in b.loglik_path]
    assert np.array_equal(a.model.weights, b.model.weights)
    for c, d in zip(a.model.components, b.model.components, strict=True):
        assert np.array_equal(c.mean, d.mean)
        assert np.array_equal(c.covariance, d.covariance)


# 30 examples missed a start whose responsibilities had a stack-dependent
# stride; 100 catch it
@settings(PROPERTY, max_examples=100)
@given(shapes, st.integers(40, 150),
       st.sets(st.integers(1, 6), min_size=1, max_size=4),
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
        for k, comp in enumerate(model.components):
            assert np.array_equal(comp.mean, means[d, k])
            assert np.array_equal(comp.covariance, covs[d, k])


def former_statistic(V):
    """pmc_statistic as it was computed one replicate at a time: Ward
    split, per-cluster masked means and d.T @ d scatter, a MixtureModel,
    and the risk of its posteriors on V."""
    n, p = V.shape
    lab = cut_tree(fit_hclust(V), 2).labels
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


def replicate_draw(seed, n, p, shift):
    """Two groups shift apart, so both clean and overlapping splits occur."""
    def draw(r):
        X = stream(seed, "null-rep", r).standard_normal((n, p))
        X[: n // 2, 0] += shift
        return X
    return draw


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(4, 40), st.integers(1, 3),
       st.integers(1, 12), st.integers(1, 5), st.floats(0, 6))
def test_stacked_statistics_equal_one_by_one(seed, n, p, reps, per_chunk,
                                             shift):
    draw = replicate_draw(seed, n, p, shift)
    alone = np.array([pmc_statistic(draw(r)) for r in range(reps)])
    assert np.array_equal(hyptest._replicate_statistics(draw, reps, n, p),
                          alone)
    # chunks of per_chunk replicates: a replicate's statistic does not
    # depend on the chunk it lands in
    with mock.patch.object(hyptest, "BLOCK_ELEMENTS", n * 2 * p * per_chunk):
        assert np.array_equal(
            hyptest._replicate_statistics(draw, reps, n, p), alone)


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
