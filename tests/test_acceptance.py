"""End-to-end acceptance checks, one summary line per criterion.

Each test prints "[criterion N] PASS/FAIL - detail" through the
criterion fixture (conftest.py), which records the same line so that it is
replayed after the run.  Tolerances live next to the checks they guard.
"""
import math
import time

import numpy as np

from distinguish import (
    ClusterConfiguration,
    PmcSettings,
    adjusted_rand_index,
    argmax_gap,
    delta_matrix,
    fit_gmm_em,
    fit_hclust,
    fit_kmeans,
    gap_statistic,
    mixture,
    null_distribution,
    partition_to_gaussians,
    phm_run,
    pmc_from_sample,
    pmc_mc,
    pmc_quadrature,
    pmc_statistic,
    pmc_upper_bound,
    pvalue_bootstrap,
    pvalue_mc,
    sample_mixture,
    select_gmm_bic,
    select_k_constrained,
    silhouette,
)
from distinguish.models import Partition


def random_mixture(rng, kappa, p):
    means = rng.normal(0, 3, size=(kappa, p))
    covs = []
    for _ in range(kappa):
        A = rng.normal(size=(p, p))
        covs.append(A @ A.T + 0.3 * np.eye(p))
    w = rng.dirichlet(np.full(kappa, 2.0))
    w = np.maximum(w, 1e-3)
    return mixture(w / w.sum(), means, covs)


def test_reference_three_component_risk(criterion):
    # Equal-weight unit-covariance triple at 0 and +/- d with ||d|| = 3;
    # the risk is the same in every dimension.
    REF = 0.13144
    with criterion(1) as rec:
        devs, ses, times = [], [], []
        for p in range(1, 6):
            mu = np.ones(p) * 3.0 / math.sqrt(p)
            m = mixture([1 / 3] * 3, [np.zeros(p), mu, -mu], [np.eye(p)] * 3)
            t0 = time.perf_counter()
            est = pmc_mc(m, None, PmcSettings(m_samples=100000, seed=p))
            times.append(time.perf_counter() - t0)
            devs.append(abs(est.value - REF))
            ses.append(est.std_error)
        qdevs = []
        for p in (1, 2):
            mu = np.ones(p) * 3.0 / math.sqrt(p)
            m = mixture([1 / 3] * 3, [np.zeros(p), mu, -mu], [np.eye(p)] * 3)
            qdevs.append(abs(pmc_quadrature(m) - REF))
        rec["ok"] = (max(devs) <= 0.002 and max(ses) <= 0.001
                     and max(times) <= 10.0 and max(qdevs) <= 1e-4)
        rec["detail"] = (f"max |mc-{REF}|={max(devs):.2e} (tol 2e-3), "
                         f"max se={max(ses):.2e} (tol 1e-3), "
                         f"max quad dev={max(qdevs):.2e} (tol 1e-4), "
                         f"slowest dim {max(times):.2f}s (limit 10s)")


def test_identical_components_hit_upper_bound(criterion):
    # K indistinguishable components: risk must equal (K-1)/K up to MC
    # noise, and the closed-form bounds must match to an ulp.
    with criterion(2) as rec:
        mc_dev, bound_dev = [], []
        for K in (2, 3, 5):
            m = mixture(np.full(K, 1.0 / K), np.zeros((K, 1)), [np.eye(1)] * K)
            est = pmc_mc(m, None, PmcSettings(m_samples=50000, seed=K))
            target = (K - 1) / K
            # identical posteriors make the se exactly zero, hence the floor
            mc_dev.append(abs(est.value - target)
                          - (3 * est.std_error + 5e-15))
            w = np.full(K, 1.0 / K)
            bound_dev.append(abs(pmc_upper_bound(w) - target))
            bound_dev.append(abs(pmc_upper_bound(w, "optimal") - target))
        rec["ok"] = max(mc_dev) <= 0.0 and max(bound_dev) <= 1e-15
        rec["detail"] = (f"worst mc slack={max(mc_dev):.2e} (<=0), "
                         f"worst bound dev={max(bound_dev):.2e} (tol 1e-15)")


def test_pairwise_reductions_sum_to_risk(criterion):
    # The pairwise merge reductions from one shared sample must add up to
    # that sample's risk estimate bit for bit, and merging everything at
    # tau=0 must drain the bookkeeping to zero.
    with criterion(3) as rec:
        rng = np.random.default_rng(303)
        exact, residuals, cross = 0, [], []
        for t in range(20):
            kappa = int(rng.integers(2, 9))
            p = int(rng.integers(1, 5))
            m = random_mixture(rng, kappa, p)
            st = PmcSettings(m_samples=20000, seed=1000 + t)
            D = delta_matrix(m, None, st)
            upper = D.values[np.triu_indices(kappa, 1)]
            exact += float(np.sort(upper).sum()) == D.pmc
            X, _ = sample_mixture(m, st.m_samples, st.seed)
            v, _ = pmc_from_sample(
                m, ClusterConfiguration.singletons(kappa), X)
            cross.append(abs(D.pmc - v))
            trace, cfg = phm_run(m, 0.0, st, precomputed=D)
            residuals.append(abs(trace.steps[-1].pmc_after))
            if trace.final_K != 1:
                residuals.append(float("inf"))
        rec["ok"] = (exact == 20 and max(residuals) <= 1e-10
                     and max(cross) <= 1e-12)
        rec["detail"] = (f"bit-exact sums {exact}/20, "
                         f"max full-merge residual={max(residuals):.2e} "
                         f"(tol 1e-10), max sum-vs-direct dev="
                         f"{max(cross):.2e} (tol 1e-12)")


def test_randomized_rule_dominates_optimal(criterion):
    # On any shared sample the randomized rule's risk is at least the
    # optimal rule's; allow 3 se of slack even though the inequality
    # holds pointwise.
    with criterion(4) as rec:
        rng = np.random.default_rng(404)
        worst = -float("inf")
        for t in range(20):
            kappa = int(rng.integers(2, 9))
            p = int(rng.integers(1, 5))
            m = random_mixture(rng, kappa, p)
            X, _ = sample_mixture(m, 20000, seed=2000 + t)
            cfg = ClusterConfiguration.singletons(kappa)
            vr, ser = pmc_from_sample(m, cfg, X, "randomized")
            vo, _ = pmc_from_sample(m, cfg, X, "optimal")
            worst = max(worst, (vo - 3 * ser) - vr)
        rec["ok"] = worst <= 0.0
        rec["detail"] = f"max (optimal - 3se) - randomized = {worst:.2e} (<=0)"


L_BOX = 6.0
COUNTS = (120, 120, 120, 120, 60, 60)
MERGE_TARGETS = (0.139, 0.049, 0.004)


def _rot(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def _crossed_pair(theta_deg, r):
    t = np.deg2rad(theta_deg) / 2
    c1 = _rot(t) @ np.diag([1.0, r * r]) @ _rot(t).T
    c2 = _rot(-t) @ np.diag([1.0, r * r]) @ _rot(-t).T
    return [c1, c2]


def _six_component_truth():
    # four corners of a square: two crossed elongated pairs plus two
    # isotropic blobs, six components but four visual clusters
    TL, BL, TR, BR = (0.0, L_BOX), (0.0, 0.0), (L_BOX, L_BOX), (L_BOX, 0.0)
    ptl = _crossed_pair(75.0, 0.30)
    pbr = _crossed_pair(50.0, 0.20)
    means = np.array([TL, TL, BL, TR, BR, BR])
    covs = [ptl[0], ptl[1], np.eye(2), np.eye(2), pbr[0], pbr[1]]
    w = np.array([0.2, 0.2, 0.2, 0.2, 0.1, 0.1])
    return means, covs, w


def _draw_six(seed):
    means, covs, _ = _six_component_truth()
    rng = np.random.default_rng(seed)
    parts = []
    for j, c in enumerate(COUNTS):
        Lc = np.linalg.cholesky(covs[j])
        parts.append(means[j] + rng.standard_normal((c, 2)) @ Lc.T)
    X = np.vstack(parts)
    return X[rng.permutation(len(X))]


def test_merging_recovers_visual_clusters(criterion):
    # BIC should pick six components, merging at tau=0.01 should stop at
    # four clusters, and the risk sequence should track the targets.
    with criterion(5) as rec:
        hits, kappas = 0, []
        for rep in range(10):
            X = _draw_six(rep)
            fit = select_gmm_bic(X, range(1, 10), tol=1e-10, max_iter=2000,
                                 n_init=20, seed=rep)
            kappas.append(fit.model.kappa)
            if fit.model.kappa != 6:
                continue
            trace, cfg = phm_run(fit.model, 0.01,
                                 PmcSettings(m_samples=100000, seed=1234))
            seq = [trace.initial_pmc.value] + [s.pmc_after for s in trace.steps]
            hits += (trace.final_K == 4 and len(seq) == 3
                     and all(abs(seq[i] - MERGE_TARGETS[i]) <= 0.02
                             for i in range(3)))
        rec["ok"] = hits >= 7
        rec["detail"] = (f"{hits}/10 replicates recovered kappa=6 -> K=4 "
                         f"with risk sequence within 0.02 of "
                         f"{MERGE_TARGETS} (need >=7), kappas={kappas}")


def test_combined_selection_study(criterion):
    # Three blobs, two of them close: the gap statistic alone prefers 3,
    # the risk constraint at 0.01 pulls the choice back to 2.
    with criterion(6) as rec:
        rng = np.random.default_rng(20250814)
        centers = np.array([[0.0, 0.0], [1.75, 1.75], [-4.0, 4.0]])
        X = np.vstack([rng.standard_normal((150, 2)) + c for c in centers])

        table = gap_statistic(X, "kmeans", range(1, 8), B=50, seed=0)
        kg = argmax_gap(table)

        pmcs, sils = {1: 0.0}, {}
        for K in range(2, 8):
            fit = fit_kmeans(X, K, restarts=10, seed=K)
            g = partition_to_gaussians(X, fit.partition)
            pmcs[K] = pmc_mc(g, None,
                             PmcSettings(m_samples=100000, seed=K)).value
            sils[K] = silhouette(X, fit.partition)
        res = select_k_constrained({k: -table[k][0] for k in table},
                                   pmcs, 0.01)

        checks = {
            "gap argmax 3": kg == 3,
            "pmc(2)<=0.01": pmcs[2] <= 0.01,
            "pmc(3) in [0.03,0.10]": 0.03 <= pmcs[3] <= 0.10,
            "constrained K=2": res.K == 2 and not res.infeasible,
            "sil(2)~0.632": abs(sils[2] - 0.632) <= 0.03,
            "sil(3)~0.522": abs(sils[3] - 0.522) <= 0.03,
        }
        rec["ok"] = all(checks.values())
        failed = [k for k, v in checks.items() if not v]
        rec["detail"] = (f"gap argmax={kg}, pmc(2)={pmcs[2]:.4f}, "
                         f"pmc(3)={pmcs[3]:.4f}, choice K={res.K}, "
                         f"sil(2)={sils[2]:.3f}, sil(3)={sils[3]:.3f}"
                         + (f", FAILED: {failed}" if failed else ""))


def test_existence_test_calibration(criterion):
    # Null calibration, type I error, bootstrap super-uniformity, and
    # power at a well-separated alternative, all inside a 10 minute cap.
    with criterion(7) as rec:
        t0 = time.perf_counter()
        null = null_distribution(150, 1, 2000, seed=0)
        crit = float(np.quantile(null, 0.05))

        rng = np.random.default_rng(777)
        rej = sum(pvalue_mc(pmc_statistic(rng.standard_normal((150, 1))),
                            null) <= 0.05
                  for _ in range(1000))
        type1 = rej / 1000

        rng = np.random.default_rng(555)
        brej = sum(pvalue_bootstrap(rng.standard_normal((150, 1)),
                                    B=200, seed=r) <= 0.05
                   for r in range(100))
        brate = brej / 100
        blimit = 0.05 + 2 * math.sqrt(0.05 * 0.95 / 100)

        rng = np.random.default_rng(888)
        prej = 0
        for _ in range(100):
            X = np.concatenate([rng.standard_normal((75, 1)),
                                rng.standard_normal((75, 1)) + 4.0])
            prej += pvalue_mc(pmc_statistic(X), null) <= 0.05
        power = prej / 100
        wall = time.perf_counter() - t0

        checks = {
            "5% quantile in 0.094+/-0.01": 0.084 <= crit <= 0.104,
            "type I in 0.05+/-0.015": 0.035 <= type1 <= 0.065,
            "bootstrap <= nominal+2se": brate <= blimit,
            "power > 0.8": power > 0.8,
            "wall <= 600s": wall <= 600.0,
        }
        rec["ok"] = all(checks.values())
        failed = [k for k, v in checks.items() if not v]
        rec["detail"] = (f"crit={crit:.4f}, type I={type1:.3f}, "
                         f"bootstrap rate={brate:.3f} (limit {blimit:.3f}), "
                         f"power={power:.2f}, wall={wall:.0f}s"
                         + (f", FAILED: {failed}" if failed else ""))


def test_estimator_sanity_properties(criterion):
    # A bundle of cheap invariants: MC error scaling, monotone fit paths,
    # small exact oracles, and scalar affine invariance of the statistic.
    with criterion(8) as rec:
        m = mixture([0.5, 0.5], [[0.0], [3.0]], [np.eye(1), np.eye(1)])
        se_small = pmc_mc(m, None, PmcSettings(m_samples=40000,
                                               seed=7)).std_error
        se_big = pmc_mc(m, None, PmcSettings(m_samples=160000,
                                             seed=7)).std_error
        ratio = se_big / se_small

        rng = np.random.default_rng(42)
        X = np.vstack([rng.standard_normal((150, 2)),
                       rng.standard_normal((150, 2)) + 3.0])
        em = fit_gmm_em(X, 3, seed=0)
        em_mono = bool(np.all(np.diff(em.loglik_path) >= -1e-9))
        km = fit_kmeans(X, 3, restarts=5, seed=0)
        km_mono = bool(np.all(np.diff(km.distortion_path) <= 1e-9))
        hc = fit_hclust(X[:80])
        hc_mono = bool(np.all(np.diff(hc.merges[:, 2]) >= -1e-12))

        ari_cross = adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1])
        ari_relab = adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0])
        square = np.array([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])
        sil = silhouette(square, Partition(np.array([0, 0, 1, 1]), 2))
        sil_dev = abs(sil - 0.7537887487646789)

        Y = rng.standard_normal((100, 1))
        s0 = pmc_statistic(Y)
        aff_dev = max(abs(pmc_statistic(a * Y + b) - s0)
                      for a, b in ((-2.7, 5.0), (1e-3, 0.0)))

        checks = {
            "se ratio in [0.4,0.6]": 0.4 <= ratio <= 0.6,
            "EM loglik monotone": em_mono,
            "kmeans distortion monotone": km_mono,
            "ward heights monotone": hc_mono,
            "ARI oracles": abs(ari_cross + 0.5) <= 1e-15 and ari_relab == 1.0,
            "silhouette oracle": sil_dev <= 1e-12,
            "affine invariance": aff_dev <= 1e-10,
        }
        rec["ok"] = all(checks.values())
        failed = [k for k, v in checks.items() if not v]
        rec["detail"] = (f"se ratio={ratio:.3f}, ARI=({ari_cross}, "
                         f"{ari_relab}), sil dev={sil_dev:.1e}, "
                         f"affine dev={aff_dev:.1e}"
                         + (f", FAILED: {failed}" if failed else ""))
