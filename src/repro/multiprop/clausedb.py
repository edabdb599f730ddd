"""The strengthening-clause database (the paper's ``clauseDB``).

Section 7-B: Ja-ver maintains an external file that accumulates the
strengthening clauses produced while proving each property; when Ic3-db
is invoked for the next property, all clauses collected so far initialize
its frames.  Within a run that file is this in-memory database; across
runs it is the proof cache's warm log
(:meth:`~repro.cache.store.ProofStore.load_warm` /
:meth:`~repro.cache.store.ProofStore.save_warm`), which seeds the
database of every later run on the same design.

Clauses are stored over *state literals* (signed latch positions, see
:mod:`repro.ts.system`), so a database is meaningful only relative to a
fixed latch order; :meth:`ClauseDB.dumps`/:meth:`load` give the warm log
a small text format with the latch names recorded as a header, which is
validated on load.

Soundness note (expanded from the paper).  A clause set exported by a
*global* proof over-approximates the reachable states of ``(I, T)`` and
can seed any later run.  A clause set exported by a *local* proof
over-approximates reachability of the *constrained* system only; seeding
it into a run with a different assumption set is justified by a
minimal-counterexample argument (any locally failing property has a CEX
whose states all survive every such clause set), but the final invariant
of a seeded run is no longer self-evidently inductive.  The IC3 engine
therefore re-validates its final certificate and raises
:class:`~repro.engines.ic3.SeedCertificateError` when seeds poisoned it;
drivers respond by re-running without seeds.  In the (empirically rare)
poisoned-seed case the paper's Ja-ver would silently keep an unchecked
proof; we keep the optimization and add the check.

The check is cheap because of this database: every later invariant of a
run contains the earlier ones (it is seeded with them and exports them
back), and the run's :class:`~repro.engines.certify.Certifier` skips the
consecution query for clauses already proved inductive relative to an
accepted invariant the new one contains, so each certificate is queried
for its new clauses only.  That reuse needs the earlier invariant as a
hypothesis, not just its clauses: a clause proved relative to H is
queried again when the new invariant does not contain H.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..ts.system import Clause, TransitionSystem, normalize_cube

#: On-disk format: ``<magic> <version>`` header line, then the latch-name
#: line, then one clause per line.  A reader rejects any other version
#: with a typed error instead of mis-parsing it as clause data.
CLAUSEDB_MAGIC = "clausedb"
CLAUSEDB_VERSION = 2


class ClauseDBFormatError(ValueError):
    """A clauseDB file has the wrong magic, version, or latch signature."""


class ClauseDB:
    """An in-memory pool of strengthening clauses."""

    def __init__(self, ts: TransitionSystem) -> None:
        self.ts = ts
        self._clauses: list[Clause] = []
        self._seen = set()
        self.stats = {"added": 0, "duplicates": 0, "rejected": 0}

    def __len__(self) -> int:
        return len(self._clauses)

    def add(self, clause: Iterable[int]) -> bool:
        """Add one clause; returns False if rejected or duplicate.

        Rejects clauses that do not hold in the initial states (they can
        never be part of a reachability over-approximation) and clauses
        mentioning out-of-range state variables.
        """
        try:
            normalized = normalize_cube(clause)
        except ValueError:
            self.stats["rejected"] += 1
            return False
        if not normalized:
            self.stats["rejected"] += 1
            return False
        if any(abs(l) > self.ts.num_state_vars for l in normalized):
            self.stats["rejected"] += 1
            return False
        if not self.ts.clause_holds_at_init(normalized):
            self.stats["rejected"] += 1
            return False
        if normalized in self._seen:
            self.stats["duplicates"] += 1
            return False
        self._seen.add(normalized)
        self._clauses.append(normalized)
        self.stats["added"] += 1
        return True

    def add_all(self, clauses: Iterable[Iterable[int]]) -> int:
        """Add many clauses; returns how many were new."""
        return sum(1 for c in clauses if self.add(c))

    def clauses(self) -> list[Clause]:
        """Snapshot of all collected clauses (ordered by insertion)."""
        return list(self._clauses)

    # ------------------------------------------------------------------
    # Text format (the warm log's, see the module docstring)
    # ------------------------------------------------------------------
    def dumps(self) -> str:
        """Serialize to the versioned text format (see module constants)."""
        lines = [
            f"{CLAUSEDB_MAGIC} {CLAUSEDB_VERSION}",
            " ".join(latch.name for latch in self.ts.latches),
        ]
        lines.extend(" ".join(str(l) for l in clause) for clause in self._clauses)
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str, ts: TransitionSystem, source: str = "<string>") -> "ClauseDB":
        """Parse and validate the text format against ``ts``.

        Raises :class:`ClauseDBFormatError` on a bad magic string, an
        unsupported format version, or a latch-signature mismatch (the
        clauses would be meaningless) — stale or foreign databases must
        not silently corrupt proofs.
        """
        db = cls(ts)
        lines = iter(text.splitlines())
        header = next(lines, "").split()
        if header[:1] != [CLAUSEDB_MAGIC]:
            raise ClauseDBFormatError(f"{source}: not a clauseDB file")
        try:
            version = int(header[1])
        except (IndexError, ValueError):
            raise ClauseDBFormatError(f"{source}: missing clauseDB version") from None
        if version != CLAUSEDB_VERSION:
            raise ClauseDBFormatError(
                f"{source}: unsupported clauseDB version {version} "
                f"(this reader supports {CLAUSEDB_VERSION})"
            )
        names = next(lines, "").split()
        expected = [latch.name for latch in ts.latches]
        if names != expected:
            raise ClauseDBFormatError(
                f"{source}: latch signature mismatch "
                f"(file has {len(names)} latches, design has {len(expected)})"
            )
        for line in lines:
            lits = [int(tok) for tok in line.split()]
            if lits:
                db.add(lits)
        return db

    @classmethod
    def load(cls, path: str, ts: TransitionSystem) -> "ClauseDB":
        """Load a clause database file (see :meth:`loads` for validation)."""
        with open(path, encoding="ascii") as f:
            return cls.loads(f.read(), ts, source=str(path))
