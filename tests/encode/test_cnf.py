"""Tests for the CNF container."""

from __future__ import annotations

import pytest

from repro.encode.cnf import CnfBuilder


class TestCnfBuilder:
    def test_new_vars_sequential(self):
        cnf = CnfBuilder()
        assert [cnf.new_var() for _ in range(3)] == [1, 2, 3]
        assert cnf.num_vars == 3

    def test_add_clause_tracks_vars(self):
        cnf = CnfBuilder()
        cnf.add_clause([4, -7])
        assert cnf.num_vars == 7
        assert cnf.clauses == [[4, -7]]

    def test_rejects_zero_literal(self):
        with pytest.raises(ValueError):
            CnfBuilder().add_clause([1, 0])

    def test_add_all(self):
        cnf = CnfBuilder()
        cnf.add_all([[1], [2, -1]])
        assert len(cnf) == 2

    def test_copy_is_deep(self):
        cnf = CnfBuilder()
        cnf.add_clause([1, 2])
        clone = cnf.copy()
        clone.clauses[0][0] = 9
        clone.add_clause([3])
        assert cnf.clauses == [[1, 2]]
        assert clone.num_vars == 3

    def test_extend_vars(self):
        cnf = CnfBuilder()
        cnf.new_var()
        assert cnf.extend_vars(3) == [2, 3, 4]


class TestFreezeAndLoad:
    def test_freeze_normalises_once(self):
        cnf = CnfBuilder()
        cnf.add_all([[3, -1], [2, 2, -3], [1, -1, 2], [-2]])
        block = cnf.freeze()
        assert block.num_vars == 3
        # Internal literals (2*(v-1), +1 when negative), sorted, without
        # duplicates; the tautology [1, -1, 2] constrains nothing and goes.
        assert block.clauses == ((1, 4), (2, 5), (3,))

    def test_load_replays_into_a_plain_sink_at_its_base(self):
        cnf = CnfBuilder()
        cnf.add_all([[1, -2], [2]])
        block = cnf.freeze()
        sink = CnfBuilder()
        sink.extend_vars(5)
        assert block.load(sink) == 5
        assert sink.num_vars == 7
        assert sink.clauses == [[6, -7], [7]]

    def test_load_of_an_empty_block(self):
        sink = CnfBuilder()
        assert CnfBuilder().freeze().load(sink) == 0
        assert (sink.num_vars, sink.clauses) == (0, [])

    def test_load_rejects_a_sink_with_gaps_between_fresh_variables(self):
        class Skipping(CnfBuilder):
            def new_var(self) -> int:
                self.num_vars += 1
                return super().new_var()

        cnf = CnfBuilder()
        cnf.add_clause([1, 2])
        with pytest.raises(ValueError, match="consecutive"):
            cnf.freeze().load(Skipping())
