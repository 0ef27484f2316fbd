"""Greedy hierarchical merging of mixture components driven by pairwise
risk reductions, with its dendrogram representation.

The loop starts from singleton clusters, estimates the pairwise reduction
matrix once from one shared sample, then repeatedly merges the pair with
the largest reduction until the remaining risk drops to the threshold.
Risk values are carried by exact subtraction of matrix entries; nothing is
re-estimated inside the loop, so the run cost does not grow with the data
size behind the model.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .estimators import newick
from .models import (ClusterConfiguration, McEstimate, MergeStep, MergeTrace,
                     MixtureModel)
from .pmc import DeltaMatrix, PmcSettings, delta_matrix


def phm_run(model: MixtureModel, tau: float,
            settings: PmcSettings | None = None,
            precomputed: DeltaMatrix | None = None
            ) -> tuple[MergeTrace, ClusterConfiguration]:
    """Merge components greedily until the risk is at most tau.

    Returns the merge trace and the final component-to-cluster assignment.
    Ties in the largest reduction break toward the smallest (i, j) pair.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must be in [0, 1]")
    if settings is None:
        settings = PmcSettings()
    if settings.rule != "randomized":
        raise ValueError("merging requires the randomized rule")
    kappa = model.kappa
    D = precomputed if precomputed is not None else delta_matrix(
        model, None, settings)
    raw = D.values.copy()
    initial = McEstimate(min(max(D.pmc, 0.0), 1.0), D.pmc_std_error,
                         D.m_samples, D.seed)
    active = set(range(kappa))
    members = {i: (i,) for i in range(kappa)}
    current: dict[tuple[int, int], float] = {}
    heap: list[tuple[float, int, int]] = []
    for i in range(kappa):
        for j in range(i + 1, kappa):
            current[(i, j)] = raw[i, j]
            heap.append((-raw[i, j], i, j))
    heapq.heapify(heap)
    P = D.pmc
    steps: list[MergeStep] = []
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
        steps.append(MergeStep((i, j), delta, P, after, members[i]))
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
    if tau == 0.0 and len(active) == 1 and abs(P) > 1e-10:
        raise RuntimeError(f"merge bookkeeping drifted from zero: {P!r}")
    assignment = [0] * kappa
    for rank, root in enumerate(sorted(active)):
        for comp in members[root]:
            assignment[comp] = rank
    config = ClusterConfiguration(tuple(assignment), len(active))
    return MergeTrace(initial, tuple(steps), len(active)), config


@dataclass(frozen=True)
class PhmDendrogram:
    """Binary merge tree over mixture components.

    Leaves are component indices 0..kappa-1; the t-th merge creates node
    kappa+t.  A node's height is log10(initial risk / risk before its
    merge), so heights grow as merging proceeds; each node also carries the
    risk reduction of its merge as a label.
    """

    kappa: int
    nodes: tuple[tuple[int, int, float, float], ...]  # left, right, height, delta

    def to_dict(self) -> dict:
        return {"kappa": self.kappa,
                "nodes": [list(nd) for nd in self.nodes]}

    @classmethod
    def from_dict(cls, d: dict) -> "PhmDendrogram":
        return cls(int(d["kappa"]),
                   tuple((int(a), int(b), float(h), float(x))
                         for a, b, h, x in d["nodes"]))

    def to_newick(self) -> str:
        return newick(self.kappa, (nd[:3] for nd in self.nodes))


def build_dendrogram(trace: MergeTrace) -> PhmDendrogram:
    """Dendrogram of a complete (tau = 0) merge trace.

    Node height is measured against the risk before the merge rather than
    after, which keeps the final height finite.
    """
    if trace.final_K != 1:
        raise ValueError("dendrogram requires complete merge")
    kappa = len(trace.steps) + 1
    initial = trace.initial_pmc.value
    node_of = {i: i for i in range(kappa)}
    # cluster ids in the trace are component ids of each cluster's smallest
    # member, so map pairs through the current node of each cluster
    nodes = []
    for t, step in enumerate(trace.steps):
        i, j = step.cluster_pair
        with np.errstate(divide="ignore"):
            h = float(np.log10(initial / step.pmc_before)) if initial > 0 else 0.0
        nodes.append((node_of[i], node_of[j], h, step.delta_pmc))
        node_of[i] = kappa + t
        del node_of[j]
    return PhmDendrogram(kappa, tuple(nodes))
