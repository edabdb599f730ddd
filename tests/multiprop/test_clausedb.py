"""Tests for the strengthening-clause database."""

from __future__ import annotations

import pytest

from repro.circuit.aig import AIG, aig_not
from repro.multiprop.clausedb import (
    CLAUSEDB_MAGIC,
    CLAUSEDB_VERSION,
    ClauseDB,
    ClauseDBFormatError,
)
from repro.ts.system import TransitionSystem


def _system(n_latches=3):
    aig = AIG()
    latches = []
    for i in range(n_latches):
        q = aig.add_latch(f"q{i}", init=0)
        aig.set_next(q, q)
        latches.append(q)
    aig.add_property("p", aig_not(latches[0]))
    return TransitionSystem(aig)


class TestAdd:
    def test_add_and_snapshot(self):
        db = ClauseDB(_system())
        assert db.add([-1, 2])
        assert db.clauses() == [(-1, 2)]

    def test_duplicates_rejected(self):
        db = ClauseDB(_system())
        assert db.add([-1, 2])
        assert not db.add([2, -1])  # same clause, different order
        assert db.stats["duplicates"] == 1
        assert len(db) == 1

    def test_init_violating_clause_rejected(self):
        db = ClauseDB(_system())
        # Clause (1,) says latch q0 is TRUE, but q0 initializes to 0.
        assert not db.add([1])
        assert db.stats["rejected"] == 1

    def test_out_of_range_variable_rejected(self):
        db = ClauseDB(_system(2))
        assert not db.add([-5])

    def test_contradictory_clause_rejected(self):
        db = ClauseDB(_system())
        assert not db.add([1, -1])

    def test_empty_clause_rejected(self):
        db = ClauseDB(_system())
        assert not db.add([])

    def test_add_all_counts_new(self):
        db = ClauseDB(_system())
        added = db.add_all([[-1], [-2], [-1], [3, -1]])
        assert added == 3


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        ts = _system()
        db = ClauseDB(ts)
        db.add([-1, 2])
        db.add([-2, -3])
        path = tmp_path / "clauses.db"
        path.write_text(db.dumps())
        loaded = ClauseDB.load(str(path), ts)
        assert loaded.clauses() == db.clauses()

    def test_load_rejects_wrong_design(self, tmp_path):
        db = ClauseDB(_system(3))
        db.add([-1])
        path = tmp_path / "clauses.db"
        path.write_text(db.dumps())
        with pytest.raises(ValueError):
            ClauseDB.load(str(path), _system(4))

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_text("not a clausedb\n")
        with pytest.raises(ValueError):
            ClauseDB.load(str(path), _system())

    def test_load_validates_clauses(self, tmp_path):
        # Hand-craft a file with one valid and one init-violating clause.
        ts = _system()
        path = tmp_path / "clauses.db"
        names = " ".join(latch.name for latch in ts.latches)
        path.write_text(f"clausedb {CLAUSEDB_VERSION}\n{names}\n-1 2\n1\n")
        loaded = ClauseDB.load(str(path), ts)
        assert loaded.clauses() == [(-1, 2)]
        assert loaded.stats["rejected"] == 1


class TestFormatVersioning:
    def test_dumps_stamps_current_version(self):
        db = ClauseDB(_system())
        db.add([-1, 2])
        text = db.dumps()
        assert text.splitlines()[0] == f"{CLAUSEDB_MAGIC} {CLAUSEDB_VERSION}"

    def test_dumps_loads_round_trip(self):
        ts = _system()
        db = ClauseDB(ts)
        db.add([-1, 2])
        db.add([-3])
        assert ClauseDB.loads(db.dumps(), ts).clauses() == db.clauses()

    def test_unknown_version_rejected(self):
        ts = _system()
        names = " ".join(latch.name for latch in ts.latches)
        for version in (1, 99):  # 1: the pre-gate layout, read no more
            with pytest.raises(ClauseDBFormatError):
                ClauseDB.loads(f"clausedb {version}\n{names}\n-1\n", ts)

    def test_bad_magic_rejected(self):
        with pytest.raises(ClauseDBFormatError):
            ClauseDB.loads("clauselog 2\nq0 q1 q2\n-1\n", _system())

    def test_missing_version_rejected(self):
        with pytest.raises(ClauseDBFormatError):
            ClauseDB.loads("clausedb\nq0 q1 q2\n-1\n", _system())

    def test_format_error_is_a_value_error(self, tmp_path):
        # Callers that predate the typed error still catch ValueError.
        assert issubclass(ClauseDBFormatError, ValueError)
        path = tmp_path / "junk.db"
        path.write_text("clausedb nine\nq0 q1 q2\n")
        with pytest.raises(ClauseDBFormatError):
            ClauseDB.load(str(path), _system())
