"""Content-addressed on-disk proof store.

Layout (under the store root)::

    entries/<cone-digest>.json      one certified verdict per property cone
    warm/<design-digest>.clausedb   warm-start clause log per design

Entries are keyed by the property's COI-cone digest
(:func:`~repro.cache.hashing.cone_digest`): the design digest is
recorded *inside* each record (so stats can distinguish exact-design
hits from cone-level hits on an edited design) but deliberately kept
out of the key — that is what lets an unchanged-cone property of an
edited design resolve from cache.

Three robustness rules, enforced here:

* **Atomic writes.**  Every file this package writes goes through
  :func:`atomic_write` (temp file + ``os.replace``), so a crashed or
  concurrent writer can never leave a half-written record where a
  reader will find it.
* **Versioned records.**  Every record carries a magic string and a
  format version; anything unreadable, unparseable, or from an unknown
  version is treated as a *miss* (counted under ``corrupt``), never an
  error — a corrupted store degrades to a normal proof.
* **Certification before trust** lives one layer up, in
  :class:`~repro.cache.resolve.CacheResolver`; the store itself only
  promises well-formed records, not true ones.

GC is LRU by file modification time (reads touch their entry), run on
request (``repro cache gc``) with the bounds it is given.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path

from ..multiprop.cones import SERVICE_MEMO, ConeMemo
from ..ts.system import Clause, TransitionSystem
from ..ts.trace import Trace

RECORD_MAGIC = "repro-proof-cache"
RECORD_VERSION = 2  # 2: witnesses in cone coordinates

__all__ = [
    "CacheRecord",
    "ProofStore",
    "RECORD_MAGIC",
    "RECORD_VERSION",
    "atomic_write",
    "open_store",
    "serving",
]


def atomic_write(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the destination directory so the final
    rename never crosses a filesystem boundary; readers observe either
    the old content or the new, never a prefix.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _encode_trace(trace: Trace) -> dict:
    return {
        "inputs": [{str(k): v for k, v in frame.items()} for frame in trace.inputs],
        "uninit": {str(k): v for k, v in trace.uninit.items()},
        "property_name": trace.property_name,
    }


def _decode_trace(obj: dict) -> Trace:
    return Trace(
        inputs=[{int(k): bool(v) for k, v in frame.items()} for frame in obj["inputs"]],
        uninit={int(k): bool(v) for k, v in obj.get("uninit", {}).items()},
        property_name=str(obj.get("property_name", "")),
    )


@dataclass
class CacheRecord:
    """One certified verdict: what was proven, for which cone, with what witness."""

    prop: str
    status: str  # "holds" | "fails"
    design: str  # design digest the verdict was produced on
    cone: str  # cone digest (the store key)
    design_name: str = "design"
    local: bool = True
    frames: int = 0
    time_seconds: float = 0.0
    cex_depth: int | None = None
    assumed: list[str] = field(default_factory=list)
    engine: str | None = None
    invariant: list[Clause] | None = None  # HOLDS witness
    trace: Trace | None = None  # FAILS witness
    created: float = 0.0

    def to_json(self) -> str:
        payload = {
            "magic": RECORD_MAGIC,
            "version": RECORD_VERSION,
            "prop": self.prop,
            "status": self.status,
            "design": self.design,
            "cone": self.cone,
            "design_name": self.design_name,
            "local": self.local,
            "frames": self.frames,
            "time_seconds": self.time_seconds,
            "cex_depth": self.cex_depth,
            "assumed": list(self.assumed),
            "engine": self.engine,
            "invariant": (
                None if self.invariant is None else [list(c) for c in self.invariant]
            ),
            "trace": None if self.trace is None else _encode_trace(self.trace),
            "created": self.created,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CacheRecord":
        obj = json.loads(text)
        if not isinstance(obj, dict) or obj.get("magic") != RECORD_MAGIC:
            raise ValueError("not a proof-cache record")
        if obj.get("version") != RECORD_VERSION:
            raise ValueError(f"unsupported record version {obj.get('version')!r}")
        if obj.get("status") not in ("holds", "fails"):
            raise ValueError(f"bad cached status {obj.get('status')!r}")
        invariant = obj.get("invariant")
        if invariant is not None:
            invariant = [tuple(int(l) for l in clause) for clause in invariant]
        trace = obj.get("trace")
        if trace is not None:
            trace = _decode_trace(trace)
        return cls(
            prop=str(obj["prop"]),
            status=str(obj["status"]),
            design=str(obj["design"]),
            cone=str(obj["cone"]),
            design_name=str(obj.get("design_name", "design")),
            local=bool(obj.get("local", True)),
            frames=int(obj.get("frames", 0)),
            time_seconds=float(obj.get("time_seconds", 0.0)),
            cex_depth=None if obj.get("cex_depth") is None else int(obj["cex_depth"]),
            assumed=[str(n) for n in obj.get("assumed", [])],
            engine=None if obj.get("engine") is None else str(obj["engine"]),
            invariant=invariant,
            trace=trace,
            created=float(obj.get("created", 0.0)),
        )


class ProofStore:
    """Content-addressed store of certified verdicts + warm clause logs."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.counters: dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "certify_rejects": 0,
            "writes": 0,
            "corrupt": 0,
            "warm_loads": 0,
            "warm_clauses": 0,
            "evicted": 0,
        }

    # ------------------------------------------------------------------
    # Entry records
    # ------------------------------------------------------------------
    @property
    def entries_dir(self) -> Path:
        return self.root / "entries"

    @property
    def warm_dir(self) -> Path:
        return self.root / "warm"

    def entry_path(self, cone: str) -> Path:
        return self.entries_dir / f"{cone}.json"

    def get(self, cone: str) -> CacheRecord | None:
        """Load the record for ``cone``; anything unreadable is a miss."""
        path = self.entry_path(cone)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            record = CacheRecord.from_json(text)
        except (ValueError, KeyError, TypeError):
            self.counters["corrupt"] += 1
            return None
        if record.cone != cone:
            self.counters["corrupt"] += 1
            return None
        try:
            os.utime(path)  # LRU touch: reads refresh eviction age
        except OSError:
            pass
        return record

    def put(self, record: CacheRecord) -> None:
        """Persist ``record`` (atomic)."""
        if not record.created:
            record.created = time.time()
        atomic_write(self.entry_path(record.cone), record.to_json())
        self.counters["writes"] += 1

    # ------------------------------------------------------------------
    # Warm clause logs
    # ------------------------------------------------------------------
    def warm_path(self, design: str) -> Path:
        return self.warm_dir / f"{design}.clausedb"

    def load_warm(self, design: str, ts: TransitionSystem) -> list[Clause]:
        """Strengthening clauses previously exported for this exact design.

        Clauses are re-validated structurally on load (latch-name match,
        init-state check inside :meth:`ClauseDB.load`); an unreadable or
        mismatched log is simply no warm start.  Soundness does not rest
        on this: seeded clauses are certificate-checked by the engine,
        which retries seedless on :class:`SeedCertificateError`.
        """
        from ..multiprop.clausedb import ClauseDB, ClauseDBFormatError

        path = self.warm_path(design)
        if not path.exists():
            return []
        try:
            db = ClauseDB.load(path, ts)
        except (ClauseDBFormatError, ValueError, OSError):
            self.counters["corrupt"] += 1
            return []
        clauses = db.clauses()
        if clauses:
            self.counters["warm_loads"] += 1
            self.counters["warm_clauses"] += len(clauses)
        return clauses

    def save_warm(self, design: str, ts: TransitionSystem, clauses: list[Clause]) -> int:
        """Merge ``clauses`` into the design's warm log (atomic rewrite)."""
        from ..multiprop.clausedb import ClauseDB, ClauseDBFormatError

        db = ClauseDB(ts)
        path = self.warm_path(design)
        if path.exists():
            try:
                db = ClauseDB.load(path, ts)
            except (ClauseDBFormatError, ValueError, OSError):
                self.counters["corrupt"] += 1
                db = ClauseDB(ts)
        added = db.add_all(clauses)
        if added or not path.exists():
            atomic_write(path, db.dumps())
        return added

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def _entry_files(self) -> list[Path]:
        if not self.entries_dir.is_dir():
            return []
        return [p for p in self.entries_dir.iterdir() if p.suffix == ".json"]

    def _warm_files(self) -> list[Path]:
        if not self.warm_dir.is_dir():
            return []
        return [p for p in self.warm_dir.iterdir() if p.suffix == ".clausedb"]

    def stats(self) -> dict:
        """Disk facts plus this process's runtime counters."""
        entry_files = self._entry_files()
        warm_files = self._warm_files()

        def total(paths: list[Path]) -> int:
            out = 0
            for p in paths:
                try:
                    out += p.stat().st_size
                except OSError:
                    pass
            return out

        return {
            "root": str(self.root),
            "entries": len(entry_files),
            "entry_bytes": total(entry_files),
            "warm_logs": len(warm_files),
            "warm_bytes": total(warm_files),
            **self.counters,
        }

    def gc(
        self,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> int:
        """Evict least-recently-used entries beyond the given size bounds.

        Returns the number of entries removed (none without a bound).
        """
        if max_entries is None and max_bytes is None:
            return 0
        aged = []
        total_bytes = 0
        for path in self._entry_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            aged.append((stat.st_mtime, stat.st_size, path))
            total_bytes += stat.st_size
        aged.sort()  # oldest first
        removed = 0
        count = len(aged)
        for mtime, size, path in aged:
            over_entries = max_entries is not None and count > max_entries
            over_bytes = max_bytes is not None and total_bytes > max_bytes
            if not (over_entries or over_bytes):
                break
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            count -= 1
            total_bytes -= size
        self.counters["evicted"] += removed
        return removed

    def clear(self) -> int:
        """Remove every entry and warm log.  Returns files removed."""
        removed = 0
        for path in self._entry_files() + self._warm_files():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


#: The store of the service job running on this thread (see :func:`serving`).
_SERVING: ContextVar[ProofStore | None] = ContextVar("repro_cache_serving", default=None)


@contextmanager
def serving(store: ProofStore | None, cones: ConeMemo):
    """Within the block, on this thread, :func:`open_store` of
    ``store``'s root returns ``store`` itself, and a run's cone memo is
    ``cones`` (:data:`~repro.multiprop.cones.SERVICE_MEMO`).

    A service runs a threaded job's strategy inside one: what it reads
    from the cache on its own (the warm log) is counted on the service's
    store, and its COI proofs land on the cones the cache reads.
    """
    token, shared = _SERVING.set(store), SERVICE_MEMO.set(cones)
    try:
        yield
    finally:
        SERVICE_MEMO.reset(shared)
        _SERVING.reset(token)


def open_store(root: str | os.PathLike) -> ProofStore:
    """The store to read ``root`` through: the serving job's when it has
    that root (see :func:`serving`), else a new one."""
    store = _SERVING.get()
    if store is not None and store.root == Path(root):
        return store
    return ProofStore(root)
