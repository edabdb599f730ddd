"""Structure-aware property grouping (the related-work baseline).

The paper's Related Work (Sec. 12) discusses Cabodi-Nocco [8] and
Camurati et al. [10]: group *similar* properties (similar cones of
influence) and verify each group jointly.  The paper contrasts its
purely semantic approach with this structural one and notes the two are
orthogonal — local proofs and clause re-use "can be incorporated in any
structure-aware approach".

This module implements the structural baseline so the comparison can be
run: properties are clustered by Jaccard similarity of their latch
cones, and each cluster is verified jointly (restricted to its own cone
of influence, which is what makes grouping pay).  It also exposes the
hybrid the paper hints at: JA-verification *within* each cluster,
assuming only the cluster's own properties.
"""

from __future__ import annotations

import time
from dataclasses import replace

from ..circuit.coi import coi_signature, reduce_to_cone
from ..config import VerificationConfig
from ..progress import ClusterStarted, Emit
from ..ts.system import TransitionSystem
from .ja import ja_verify
from .joint import joint_verify
from .report import MultiPropReport


def jaccard(a: frozenset, b: frozenset) -> float:
    """Jaccard similarity of two cone signatures."""
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 1.0


def cluster_properties(
    ts: TransitionSystem, threshold: float = 0.5
) -> list[list[str]]:
    """Greedy single-link clustering of properties by cone similarity.

    Properties are scanned in design order; each joins the first cluster
    whose *representative* (first member) has Jaccard similarity above
    the threshold, else starts a new cluster.  Greedy single-pass
    matching keeps the procedure deterministic and linear-ish, which is
    what the structural-grouping papers use in practice.
    """
    signatures = {p.name: coi_signature(ts.aig, p) for p in ts.properties}
    clusters: list[list[str]] = []
    reps: list[frozenset] = []
    for prop in ts.properties:
        sig = signatures[prop.name]
        placed = False
        for i, rep in enumerate(reps):
            if jaccard(sig, rep) >= threshold:
                clusters[i].append(prop.name)
                placed = True
                break
        if not placed:
            clusters.append([prop.name])
            reps.append(sig)
    return clusters


def clustered_verify(
    ts: TransitionSystem,
    config: VerificationConfig | None = None,
    emit: Emit | None = None,
) -> MultiPropReport:
    """Structure-aware grouping, joint or JA inside each cluster (Sec. 12).

    Each cluster is verified on its own cone of influence (which is
    what makes grouping pay) by the inner driver, under the run's
    config with ``total_time`` and ``total_conflicts`` cut to what is left.
    """
    config = config or VerificationConfig()
    inner = {"joint": joint_verify, "ja": ja_verify}.get(config.cluster_inner)
    if inner is None:
        raise ValueError(f"unknown inner method {config.cluster_inner!r}")
    start = time.monotonic()
    clusters = cluster_properties(ts, config.similarity_threshold)
    report = MultiPropReport(method="clustered", design=config.design_name)
    spent = 0  # conflicts the earlier clusters charged

    for cluster in clusters:
        if emit is not None:
            emit(ClusterStarted(members=tuple(cluster)))
        left = {}
        if config.total_time is not None:
            left["total_time"] = config.total_time - (time.monotonic() - start)
        if config.total_conflicts is not None:
            left["total_conflicts"] = max(config.total_conflicts - spent, 0)
        sub_ts = TransitionSystem(reduce_to_cone(ts.aig, cluster).aig)
        # ``order`` and ``clause_db_path`` name the whole design's
        # properties and latches, not the reduced cluster's.
        sub_config = replace(config, order=None, clause_db_path=None, **left)
        sub_report = inner(sub_ts, sub_config, emit)
        report.outcomes.update(sub_report.outcomes)
        spent += sub_report.stats["conflicts"]

    report.total_time = time.monotonic() - start
    report.stats = {
        "cluster_inner": config.cluster_inner,
        "clusters": len(clusters),
        "largest_cluster": max((len(c) for c in clusters), default=0),
        "conflicts": spent,
    }
    return report
