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

from dataclasses import dataclass, replace

import numpy as np

from .models import ClusterConfiguration, MergeStep, MergeTrace, MixtureModel
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
    raw = D.values.tolist()
    initial = replace(D.estimate, value=min(max(D.pmc, 0.0), 1.0))
    # active clusters by smallest member, keys in ascending order, so max
    # over the pairs below keeps the smallest (i, j) among equal reductions
    members = {i: (i,) for i in range(kappa)}
    P = D.pmc
    steps: list[MergeStep] = []
    while P > tau and len(members) > 1:
        i, j = max(((a, b) for a in members for b in members if a < b),
                   key=lambda ab: raw[ab[0]][ab[1]])
        delta = raw[i][j]
        after = P - delta
        members[i] = tuple(sorted(members[i] + members.pop(j)))
        steps.append(MergeStep((i, j), delta, P, after, members[i]))
        P = after
        for k in members:
            if k != i:
                raw[i][k] = raw[k][i] = raw[i][k] + raw[j][k]
    if tau == 0.0 and len(members) == 1 and abs(P) > 1e-10:
        raise RuntimeError(f"merge bookkeeping drifted from zero: {P!r}")
    assignment = [0] * kappa
    for rank, comps in enumerate(members.values()):
        for comp in comps:
            assignment[comp] = rank
    config = ClusterConfiguration(tuple(assignment), len(members))
    return MergeTrace(initial, tuple(steps), len(members)), config


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

    def to_newick(self) -> str:
        """Newick text; a branch is as long as its parent node's height
        minus its child's (0 for a leaf)."""
        height = [0.0] * self.kappa
        text = [str(i) for i in range(self.kappa)]
        for a, b, h, _ in self.nodes:
            text.append(f"({text[a]}:{h - height[a]:.10g},"
                        f"{text[b]}:{h - height[b]:.10g})")
            height.append(h)
        return text[-1] + ";"


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
