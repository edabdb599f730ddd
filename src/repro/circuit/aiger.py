"""AIGER 1.9 reader and writer, ASCII (.aag) and binary (.aig).

The HWMCC multi-property benchmarks used by the paper are AIGER files
whose "bad" section lists one literal per property (a property *fails*
when its bad literal becomes 1).  This module round-trips our
:class:`~repro.circuit.aig.AIG` through both flavours of that format,
so generated benchmark families can be persisted and exchanged with
external tools (ABC, aigtoaig, nuXmv).

The flavours share the header ``aag|aig M I L O A [B [C]]``, the latch,
output, bad and constraint rows, and the symbol table; they differ in
two places only:

* binary files leave the input rows out and the latch rows' current-
  state literal implicit (variable ``i + 1`` is the ``i``-th input,
  then the latches follow);
* binary AND gates are LEB128 varint pairs: for the ``i``-th gate
  ``lhs = 2*(I+L+i+1)`` is implicit and the file stores ``lhs - rhs0``
  and ``rhs0 - rhs1`` (``rhs0 >= rhs1``).

The symbol table names inputs (``i<k>``), latches (``l<k>``) and
properties (``b<k>``, an ``etf`` suffix marking expected-to-fail), so a
design reads back with the names it was written with and
``write_aag(parse_aag(write_aag(a))) == write_aag(a)``.  That matters
beyond cosmetics: design and cone digests are hashes of ``write_aag``,
so a design is the same design by every route it arrives on.  Both the
modern ``B`` (bad) section and the legacy convention of using outputs
as bad literals are supported on input.

A malformed file raises :class:`ValueError` naming the section and row,
never the file's bytes: a server that reads a path its client named
must not echo what it found there.
"""

from __future__ import annotations

import os

from .aig import AIG, aig_not

_COMMENT = "generated by repro (multi-property JA-verification library)"


def _encode_varint(value: int) -> bytes:
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _decode_varint(data: bytes, pos: int) -> tuple[int, int]:
    value, shift = 0, 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated binary AIGER gate section")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
def _write(aig: AIG, binary: bool) -> tuple[list[str], list[tuple[int, int, int]], list[str]]:
    """``(rows before the gates, gates as (lhs, rhs0, rhs1), symbol table)``.

    Properties are emitted as bad-state literals (negation of the
    property literal) and invariant constraints in the ``C`` section.
    Node indices are compacted to the AIGER ordering (inputs, latches,
    ands).
    """
    remap = {0: 0}  # node index -> aiger variable index
    next_var = 1
    for lit in aig.inputs:
        remap[lit >> 1] = next_var
        next_var += 1
    for latch in aig.latches:
        remap[latch.lit >> 1] = next_var
        next_var += 1
    and_indices = sorted(idx for idx in range(aig.num_nodes) if aig.kind(idx) == "and")
    for idx in and_indices:
        remap[idx] = next_var
        next_var += 1

    def lit_of(lit: int) -> int:
        return remap[lit >> 1] * 2 + (lit & 1)

    header = (
        f"{'aig' if binary else 'aag'} {next_var - 1} {len(aig.inputs)} "
        f"{len(aig.latches)} 0 {len(and_indices)} {len(aig.properties)}"
    )
    if aig.constraints:
        header += f" {len(aig.constraints)}"
    rows = [header]
    if not binary:
        rows.extend(str(lit_of(lit)) for lit in aig.inputs)
    for latch in aig.latches:
        row = str(lit_of(latch.next))
        if not binary:
            row = f"{lit_of(latch.lit)} {row}"
        if latch.init is None:
            row += f" {lit_of(latch.lit)}"  # AIGER: reset == lit means uninit
        elif latch.init == 1:
            row += " 1"
        rows.append(row)
    rows.extend(str(lit_of(aig_not(prop.lit))) for prop in aig.properties)
    rows.extend(str(lit_of(c)) for c in aig.constraints)
    gates = []
    for idx in and_indices:
        left, right = aig.and_fanins(idx)
        rhs0, rhs1 = lit_of(left), lit_of(right)
        if rhs0 < rhs1:
            rhs0, rhs1 = rhs1, rhs0
        gates.append((remap[idx] * 2, rhs0, rhs1))
    symbols = [f"i{i} {name}" for i, name in enumerate(aig.input_names)]
    symbols.extend(f"l{i} {latch.name}" for i, latch in enumerate(aig.latches))
    symbols.extend(
        f"b{i} {prop.name}{' etf' if prop.expected_to_fail else ''}"
        for i, prop in enumerate(aig.properties)
    )
    symbols += ["c", _COMMENT]
    return rows, gates, symbols


def write_aag(aig: AIG) -> str:
    """Serialize an AIG to AIGER 1.9 ASCII."""
    rows, gates, symbols = _write(aig, binary=False)
    rows.extend(f"{lhs} {rhs0} {rhs1}" for lhs, rhs0, rhs1 in gates)
    return "\n".join(rows + symbols) + "\n"


def write_aig(aig: AIG) -> bytes:
    """Serialize an AIG to binary AIGER 1.9."""
    rows, gates, symbols = _write(aig, binary=True)
    packed = bytearray()
    for lhs, rhs0, rhs1 in gates:
        packed += _encode_varint(lhs - rhs0)
        packed += _encode_varint(rhs0 - rhs1)
    return (
        ("\n".join(rows) + "\n").encode("ascii")
        + bytes(packed)
        + ("\n".join(symbols) + "\n").encode("ascii")
    )


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
def parse_aag(text: str) -> AIG:
    """Parse AIGER 1.9 ASCII into an AIG (:class:`ValueError` if malformed).

    Bad literals become properties named ``b<i>`` (or the symbol-table
    name when present, with an ``etf`` suffix marking expected-to-fail).
    If the file has no ``B`` section but has outputs, the outputs are
    interpreted as bad literals (pre-1.9 convention used by older HWMCC
    sets).
    """
    return _read(text, binary=False)


def parse_aig(data: bytes) -> AIG:
    """Parse binary AIGER 1.9 into an AIG (:class:`ValueError` if malformed)."""
    return _read(data, binary=True)


def _read(data: str | bytes, binary: bool) -> AIG:
    flavour = "binary" if binary else "ASCII"
    where, k = "header", 0  # the part being read, for the error message
    try:
        if binary:
            header = data[: data.index(b"\n")].decode("ascii").split()
        else:
            if isinstance(data, bytes):
                data = data.decode("ascii")
            lines = data.splitlines()
            header = lines[0].split()
        if header[0] != ("aig" if binary else "aag"):
            raise ValueError
        nums = [int(x) for x in header[1:]] + [0] * 7
        n_in, n_latch, n_out, n_and, n_bad, n_constr = nums[1:7]
        # Binary files have no input rows, and their gates are not rows.
        n_input_rows, n_gate_rows = (0, 0) if binary else (n_in, n_and)
        n_rows = n_input_rows + n_latch + n_out + n_bad + n_constr + n_gate_rows
        where = "file (fewer rows than its header declares)"
        if binary:
            rows = data.split(b"\n", n_rows + 1)[1:]
            rest = rows.pop() if len(rows) > n_rows else b""
        else:
            rows = lines[1 : 1 + n_rows]
            symbols = lines[1 + n_rows :]
        if len(rows) < n_rows:
            raise ValueError

        where = "input row {}"
        input_vars = []
        for k in range(n_in):
            input_vars.append(k + 1 if binary else int(rows[k].split()[0]) >> 1)
        at = n_input_rows
        where = "latch row {}"
        latch_rows = []  # (variable, next literal, init)
        for k in range(n_latch):
            fields = rows[at + k].split()
            lit = 2 * (n_in + k + 1) if binary else int(fields.pop(0))
            init = 0
            if len(fields) > 1:
                reset = int(fields[1])
                init = None if reset == lit else reset
            latch_rows.append((lit >> 1, int(fields[0]), init))
        at += n_latch
        where = "output, bad or constraint row {}"
        lits = []
        for k in range(n_out + n_bad + n_constr):
            lits.append(int(rows[at + k].split()[0]))
        at += n_out + n_bad + n_constr
        outs, bads, constrs = lits[:n_out], lits[n_out : n_out + n_bad], lits[n_out + n_bad :]
        where = "AND gate {}"
        gates = []  # (lhs, rhs0, rhs1)
        if binary:
            pos = 0
            for k in range(n_and):
                lhs = 2 * (n_in + n_latch + k + 1)
                delta0, pos = _decode_varint(rest, pos)
                delta1, pos = _decode_varint(rest, pos)
                gates.append((lhs, lhs - delta0, lhs - delta0 - delta1))
            symbols = rest[pos:].decode("ascii", errors="replace").splitlines()
        else:
            for k in range(n_and):
                lhs, rhs0, rhs1 = rows[at + k].split()[:3]
                gates.append((int(lhs), int(rhs0), int(rhs1)))

        where = "symbol table"
        names: dict[str, dict[int, str]] = {"i": {}, "l": {}, "b": {}}
        for line in symbols:
            if line == "c":
                break
            key, sep, name = line.partition(" ")
            table = names.get(key[:1])
            if table is not None and sep and key[1:].isdigit():
                table[int(key[1:])] = name

        aig = AIG()
        lit_map = {0: 0}  # aiger variable -> our literal

        def resolve(lit: int) -> int:
            return lit_map[lit >> 1] ^ (lit & 1)

        for k, var in enumerate(input_vars):
            lit_map[var] = aig.add_input(names["i"].get(k, ""))
        where = "latch row {}"
        for k, (var, _, init) in enumerate(latch_rows):
            lit_map[var] = aig.add_latch(names["l"].get(k, ""), init=init)
        where = "AND gate {}"
        # AND definitions are topologically ordered in valid AIGER files.
        for k, (lhs, rhs0, rhs1) in enumerate(gates):
            if rhs0 < 0 or rhs1 < 0:
                raise ValueError
            lit_map[lhs >> 1] = aig.and_(resolve(rhs0), resolve(rhs1))
        where = "latch row {}"
        for k, (var, nxt, _) in enumerate(latch_rows):
            aig.set_next(lit_map[var], resolve(nxt))
        where = "bad row {}"
        for k, bad in enumerate(bads if bads else outs):
            name = names["b"].get(k, f"b{k}")
            etf = name.endswith(" etf")
            aig.add_property(
                name[:-4] if etf else name, aig_not(resolve(bad)), expected_to_fail=etf
            )
        where = "constraint row {}"
        for k, constraint in enumerate(constrs):
            aig.add_constraint(resolve(constraint))
        return aig
    except (ValueError, IndexError, KeyError):  # incl. UnicodeDecodeError
        raise ValueError(
            f"malformed {flavour} AIGER file: {where.format(k + 1)}"
        ) from None


# ----------------------------------------------------------------------
# Files: the suffix picks the flavour
# ----------------------------------------------------------------------
def load_design(path: str | os.PathLike[str]) -> AIG:
    """Load an AIGER file: binary for an ``.aig`` suffix, ASCII otherwise."""
    path = os.fspath(path)
    with open(path, "rb") as f:
        return _read(f.read(), binary=path.endswith(".aig"))


def save_design(aig: AIG, path: str | os.PathLike[str]) -> None:
    """Save an AIG: binary for an ``.aig`` suffix, ASCII otherwise."""
    path = os.fspath(path)
    if path.endswith(".aig"):
        with open(path, "wb") as f:
            f.write(write_aig(aig))
    else:
        with open(path, "w", encoding="ascii") as f:
            f.write(write_aag(aig))


# The flavour-named entry points the examples use.
load_aag = load_aig = load_design
save_aag = save_aig = save_design
