"""Cross-run proof cache: content-addressed invariant store.

The paper's clause-reuse story (Section 6) stops at the job boundary:
every submitted job re-proves every property from scratch, even when
the service proved the identical design minutes earlier.  This package
extends reuse across runs and across processes:

* :mod:`~repro.cache.hashing` — the repo's *single* home for stable
  content hashes (design digests, per-property COI-cone digests,
  pickle-payload digests, seed derivation);
* :mod:`~repro.cache.store` — :class:`ProofStore`, a content-addressed
  on-disk store of certified verdicts (inductive invariants for HOLDS,
  counterexample traces for FAILS) plus warm clause logs, with atomic
  writes, a versioned record format and LRU/GC size bounds;
* :mod:`~repro.cache.resolve` — :class:`CacheResolver`, the
  certification gate: a stored verdict is *never* trusted until it
  re-passes :meth:`~repro.engines.certify.Certifier.certify` /
  :func:`~repro.engines.certify.certify_cex` against the design
  actually being verified, on the cones of a
  :class:`~repro.multiprop.cones.ConeMemo`.

Because every hit is re-certified, the cache key does not need to
capture everything that determines a verdict — an imperfect key can
cause a spurious miss (costing a re-proof) but never a wrong verdict.
That is what makes *incremental re-verification* sound: an edited
design changes its design digest, but properties whose COI cones are
untouched keep their cone digest, resolve from cache, and only the
changed-cone properties enter the scheduler.
"""

from .hashing import cone_digest, design_digest, payload_digest
from .store import CacheRecord, ProofStore, atomic_write, open_store, serving
from .resolve import CacheResolver

__all__ = [
    "CacheRecord",
    "CacheResolver",
    "ProofStore",
    "atomic_write",
    "cone_digest",
    "design_digest",
    "open_store",
    "payload_digest",
    "serving",
]
