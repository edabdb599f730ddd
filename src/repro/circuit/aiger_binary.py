"""AIGER 1.9 binary format (.aig) reader and writer.

The HWMCC benchmark distributions ship binary AIGER: inputs and latch
current-state literals are implicit, and AND gates are delta-compressed
LEB128 pairs.  This module round-trips our AIGs through that format so
generated families can be exchanged with external tools (ABC, aigtoaig,
nuXmv) at realistic sizes.

Layout (AIGER 1.9):

* header ``aig M I L O A [B [C]]``;
* ``L`` latch lines: ``<next> [<reset>]`` in ASCII;
* ``O``/``B``/``C`` lines: one literal per line in ASCII;
* ``A`` gates in binary: for the i-th gate, ``lhs = 2*(I+L+i+1)`` is
  implicit and the file stores ``lhs - rhs0`` and ``rhs0 - rhs1``
  (with ``rhs0 >= rhs1``) as LEB128 varints;
* optional symbol table and comment section, as in the ASCII format.
"""

from __future__ import annotations


from .aig import AIG, aig_not


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


def write_aig_binary(aig: AIG) -> bytes:
    """Serialize to binary AIGER; properties become bad-state literals."""
    # Compact variable order: inputs, latches, then ANDs topologically.
    remap = {0: 0}
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

    max_var = next_var - 1
    n_in, n_latch, n_and = len(aig.inputs), len(aig.latches), len(and_indices)
    header = f"aig {max_var} {n_in} {n_latch} 0 {n_and} {len(aig.properties)}"
    if aig.constraints:
        header += f" {len(aig.constraints)}"
    chunks: list[bytes] = [header.encode("ascii"), b"\n"]
    for latch in aig.latches:
        line = str(lit_of(latch.next))
        if latch.init is None:
            line += f" {lit_of(latch.lit)}"
        elif latch.init == 1:
            line += " 1"
        chunks.append(line.encode("ascii") + b"\n")
    for prop in aig.properties:
        chunks.append(str(lit_of(aig_not(prop.lit))).encode("ascii") + b"\n")
    for constraint in aig.constraints:
        chunks.append(str(lit_of(constraint)).encode("ascii") + b"\n")
    for idx in and_indices:
        left, right = aig.and_fanins(idx)
        lhs = remap[idx] * 2
        rhs0, rhs1 = lit_of(left), lit_of(right)
        if rhs0 < rhs1:
            rhs0, rhs1 = rhs1, rhs0
        if not lhs > rhs0 >= rhs1:
            raise ValueError("AIG is not topologically ordered")
        chunks.append(_encode_varint(lhs - rhs0))
        chunks.append(_encode_varint(rhs0 - rhs1))
    # Symbol table (latches, inputs, bad names) and comment.
    for i, name in enumerate(aig.input_names):
        chunks.append(f"i{i} {name}\n".encode("ascii"))
    for i, latch in enumerate(aig.latches):
        chunks.append(f"l{i} {latch.name}\n".encode("ascii"))
    for i, prop in enumerate(aig.properties):
        flag = " etf" if prop.expected_to_fail else ""
        chunks.append(f"b{i} {prop.name}{flag}\n".encode("ascii"))
    chunks.append(b"c\nrepro binary AIGER writer\n")
    return b"".join(chunks)


def parse_aig_binary(data: bytes) -> AIG:
    """Parse binary AIGER into an AIG (:class:`ValueError` if malformed)."""
    try:
        return _parse_aig_binary(data)
    except IndexError:  # fewer rows, or fewer fields in a row, than promised
        raise ValueError("truncated binary AIGER file") from None


def _parse_aig_binary(data: bytes) -> AIG:
    newline = data.find(b"\n")
    if newline < 0:
        raise ValueError("missing AIGER header")
    header = data[:newline].split()
    if not header or header[0] != b"aig":
        raise ValueError("not a binary AIGER file")
    nums = [int(x) for x in header[1:]]
    while len(nums) < 5:
        nums.append(0)
    _max_var, n_in, n_latch, n_out, n_and = nums[:5]
    n_bad = nums[5] if len(nums) > 5 else 0
    n_constr = nums[6] if len(nums) > 6 else 0

    aig = AIG()
    lit_map = {0: 0}
    for i in range(n_in):
        lit_map[i + 1] = aig.add_input()

    pos = newline + 1
    latch_rows: list[tuple[int, int, int | None]] = []
    for i in range(n_latch):
        end = data.find(b"\n", pos)
        parts = data[pos:end].split()
        pos = end + 1
        var = n_in + i + 1
        nxt = int(parts[0])
        init: int | None = 0
        if len(parts) > 1:
            reset = int(parts[1])
            if reset == var * 2:
                init = None
            elif reset in (0, 1):
                init = reset
            else:
                raise ValueError(f"unsupported latch reset literal {reset}")
        lit_map[var] = aig.add_latch(init=init)
        latch_rows.append((var, nxt, init))

    def read_ascii_lits(count: int) -> list[int]:
        nonlocal pos
        out = []
        for _ in range(count):
            end = data.find(b"\n", pos)
            out.append(int(data[pos:end].split()[0]))
            pos = end + 1
        return out

    out_rows = read_ascii_lits(n_out)
    bad_rows = read_ascii_lits(n_bad)
    constr_rows = read_ascii_lits(n_constr)

    def resolve(lit: int) -> int:
        var = lit >> 1
        if var not in lit_map:
            raise ValueError(f"use of undefined AIGER variable {var}")
        return lit_map[var] ^ (lit & 1)

    for i in range(n_and):
        lhs = 2 * (n_in + n_latch + i + 1)
        delta0, pos = _decode_varint(data, pos)
        delta1, pos = _decode_varint(data, pos)
        rhs0 = lhs - delta0
        rhs1 = rhs0 - delta1
        if rhs0 < 0 or rhs1 < 0:
            raise ValueError("malformed delta encoding")
        lit_map[lhs >> 1] = aig.and_(resolve(rhs0), resolve(rhs1))

    for var, nxt, _ in latch_rows:
        aig.set_next(lit_map[var], resolve(nxt))

    # Symbol table.
    names, etf_flags = {}, {}
    rest = data[pos:].decode("ascii", errors="replace").splitlines()
    for line in rest:
        if line == "c":
            break
        if line[:1] == "b" and " " in line:
            idx_str, _, name = line.partition(" ")
            try:
                idx = int(idx_str[1:])
            except ValueError:
                continue
            etf = name.endswith(" etf")
            names[idx] = name[:-4] if etf else name
            etf_flags[idx] = etf
        elif line[:1] == "i" and " " in line:
            idx_str, _, name = line.partition(" ")
            try:
                idx = int(idx_str[1:])
            except ValueError:
                continue
            if idx < len(aig.input_names):
                aig.input_names[idx] = name

    bads = bad_rows if bad_rows else out_rows
    for i, bad in enumerate(bads):
        aig.add_property(
            names.get(i, f"b{i}"),
            aig_not(resolve(bad)),
            expected_to_fail=etf_flags.get(i, False),
        )
    for constraint in constr_rows:
        aig.add_constraint(resolve(constraint))
    return aig


def load_aig(path: str) -> AIG:
    """Load a binary AIGER file."""
    with open(path, "rb") as f:
        return parse_aig_binary(f.read())


def save_aig(aig: AIG, path: str) -> None:
    """Save to a binary AIGER file."""
    with open(path, "wb") as f:
        f.write(write_aig_binary(aig))
