"""Structure-aware property grouping (the related-work baseline).

The paper's Related Work (Sec. 12) discusses Cabodi-Nocco [8] and
Camurati et al. [10]: group *similar* properties (similar cones of
influence) and verify each group jointly.  The paper contrasts its
purely semantic approach with this structural one and notes the two are
orthogonal — local proofs and clause re-use "can be incorporated in any
structure-aware approach".

This module implements the structural baseline so the comparison can be
run: properties are clustered by Jaccard similarity of their latch
cones, and each cluster is verified jointly — joint's own loop
(:func:`~repro.multiprop.joint.verify_jointly`), restricted to the
cluster's cone of influence, which is what makes grouping pay.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..circuit.coi import coi_signature, reduce_to_cone
from ..config import VerificationConfig, resolve_order
from ..engines.result import ResourceBudget
from ..progress import ClusterStarted, Emit, emit_or_null
from ..ts.system import TransitionSystem
from .joint import verify_jointly
from .report import MultiPropReport

#: Cone similarity at which a property joins a cluster.
SIMILARITY_THRESHOLD = 0.5


def jaccard(a: frozenset, b: frozenset) -> float:
    """Jaccard similarity of two cone signatures."""
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 1.0


def cluster_properties(
    ts: TransitionSystem,
    threshold: float = SIMILARITY_THRESHOLD,
    names: Sequence[str] | None = None,
) -> list[list[str]]:
    """Greedy single-link clustering of properties by cone similarity.

    Properties are scanned in design order; each joins the first cluster
    whose *representative* (first member) has Jaccard similarity above
    the threshold, else starts a new cluster.  Greedy single-pass
    matching keeps the procedure deterministic and linear-ish, which is
    what the structural-grouping papers use in practice.  ``names``
    (default: all) are the properties to cluster.
    """
    wanted = None if names is None else set(names)
    clusters: list[list[str]] = []
    reps: list[frozenset] = []
    for prop in ts.properties:
        if wanted is not None and prop.name not in wanted:
            continue
        sig = coi_signature(ts.aig, prop)
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
    """Structure-aware grouping, each cluster verified jointly (Sec. 12).

    Each cluster runs joint's loop on its own cone of influence; all of
    them draw on the run's one budget (``total_time``,
    ``total_conflicts``), so once it is spent every later cluster's
    properties are UNKNOWN.
    """
    config = config or VerificationConfig()
    send = emit_or_null(emit)
    report = MultiPropReport(method="clustered", design=config.design_name)
    budget = ResourceBudget(
        time_limit=config.total_time, conflict_limit=config.total_conflicts
    )
    clusters = cluster_properties(ts, names=resolve_order(ts, config.order))
    for cluster in clusters:
        send(ClusterStarted(members=tuple(cluster)))
        cone = TransitionSystem(reduce_to_cone(ts.aig, cluster).aig)
        verify_jointly(cone, cluster, budget, report, config, send)
    report.total_time = budget.elapsed()
    report.stats = {
        "clusters": len(clusters),
        "largest_cluster": max((len(c) for c in clusters), default=0),
        "conflicts": budget.conflicts_used,
    }
    return report
