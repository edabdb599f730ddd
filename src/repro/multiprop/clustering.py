"""Structure-aware property grouping (the related-work baseline).

The paper's Related Work (Sec. 12) discusses Cabodi-Nocco [8] and
Camurati et al. [10]: group *similar* properties (similar cones of
influence) and verify each group jointly.  The paper contrasts its
purely semantic approach with this structural one and notes the two are
orthogonal — local proofs and clause re-use "can be incorporated in any
structure-aware approach".

This module implements the structural baseline so the comparison can be
run: properties are clustered by Jaccard similarity of their latch
cones, and each cluster is verified jointly (optionally with the cluster
restricted to its own cone of influence, which is what makes grouping
pay).  It also exposes the hybrid the paper hints at: JA-verification
*within* each cluster, assuming only the cluster's own properties.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..circuit.coi import coi_signature, reduce_to_cone
from ..progress import ClusterStarted, Emit
from ..ts.system import TransitionSystem
from .ja import JAOptions, ja_verify
from .joint import JointOptions, joint_verify
from .local import ProofOptions
from .report import MultiPropReport


@dataclass(frozen=True)
class ClusterOptions(ProofOptions):
    """Configuration for clustered verification.

    The inherited proof knobs reach the inner driver whole (``ja``) or
    as far as one aggregate proof has a use for them (``joint``:
    ``max_frames``, ``ctg``, ``solver_backend``, ``engine_overrides``).
    """

    similarity_threshold: float = 0.5  # Jaccard threshold for merging
    use_coi_reduction: bool = True
    inner: str = "joint"  # "joint" or "ja" within each cluster
    total_time: float | None = None


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
    options: ClusterOptions | None = None,
    design_name: str = "design",
    emit: Emit | None = None,
) -> MultiPropReport:
    """Verify property clusters independently (joint or JA per cluster).

    .. deprecated::
        Prefer ``repro.session.Session(ts, strategy="clustered").run()``;
        this wrapper remains for backward compatibility.
    """
    opts = options or ClusterOptions()
    if opts.inner not in ("joint", "ja"):
        raise ValueError(f"unknown inner method {opts.inner!r}")
    start = time.monotonic()
    clusters = cluster_properties(ts, opts.similarity_threshold)
    report = MultiPropReport(method=f"clustered-{opts.inner}", design=design_name)

    for cluster in clusters:
        if emit is not None:
            emit(ClusterStarted(members=tuple(cluster)))
        remaining = None
        if opts.total_time is not None:
            remaining = opts.total_time - (time.monotonic() - start)
        if opts.use_coi_reduction:
            reduction = reduce_to_cone(ts.aig, cluster)
            sub_ts = TransitionSystem(reduction.aig)
        else:
            sub_ts = TransitionSystem(
                ts.aig, properties=[ts.prop_by_name[n] for n in cluster]
            )
        if opts.inner == "joint":
            sub_report = joint_verify(
                sub_ts,
                JointOptions(
                    total_time=remaining,
                    max_frames=opts.max_frames,
                    solver_backend=opts.solver_backend,
                    engine_overrides={"ctg": opts.ctg, **opts.engine_overrides},
                ),
                design_name=design_name,
                emit=emit,
            )
        else:
            sub_report = ja_verify(
                sub_ts,
                JAOptions(**opts.proof_fields(), total_time=remaining),
                design_name=design_name,
                emit=emit,
            )
        report.outcomes.update(sub_report.outcomes)

    report.total_time = time.monotonic() - start
    report.stats = {
        "clusters": len(clusters),
        "largest_cluster": max((len(c) for c in clusters), default=0),
    }
    return report
