"""The wire form of relayed clauses: one packed int64 blob per message.

Section 11 of the paper notes that workers proving different properties
*may* (but need not) exchange strengthening clauses.  The scheduler
relays them itself (see :mod:`repro.parallel.engine`): each job message
carries the part of its job's clause log the seat has not received yet,
packed here into a single bytes blob so a message costs one pickle op
however many clauses it holds.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence

Clause = tuple[int, ...]


def pack_clauses(clauses: Sequence[Clause]) -> bytes:
    """Flatten a clause list into one length-prefixed int64 buffer.

    Pickling a list of many small tuples costs one pickle op *per
    clause per literal*.  The packed form — ``[len, lit, lit, ..., len,
    lit, ...]`` as a flat ``array('q')`` — serializes as a single bytes
    blob regardless of clause count.
    """
    flat = array("q")
    for clause in clauses:
        flat.append(len(clause))
        flat.extend(clause)
    return flat.tobytes()


def unpack_clauses(blob: bytes) -> list[Clause]:
    """Inverse of :func:`pack_clauses` (the seat's side of a job message)."""
    flat = array("q")
    flat.frombytes(blob)
    clauses: list[Clause] = []
    i = 0
    end = len(flat)
    while i < end:
        width = flat[i]
        i += 1
        clauses.append(tuple(flat[i : i + width]))
        i += width
    return clauses
