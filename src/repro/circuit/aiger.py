"""AIGER 1.9 ASCII (.aag) reader and writer with multi-property support.

The HWMCC multi-property benchmarks used by the paper are AIGER files
whose "bad" section lists one literal per property (a property *fails*
when its bad literal becomes 1).  This module round-trips our
:class:`~repro.circuit.aig.AIG` through that format so that generated
benchmark families can be persisted and inspected with external tools.

Only the ASCII variant is implemented; it is sufficient for interop and
keeps the parser trivially auditable.  Both the modern ``B`` (bad) section
and the legacy convention of using outputs as bad literals are supported
on input.
"""

from __future__ import annotations


from .aig import AIG, aig_not


def write_aag(aig: AIG) -> str:
    """Serialize an AIG to AIGER 1.9 ASCII.

    Properties are emitted as bad-state literals (negation of the property
    literal).  Invariant constraints are emitted in the ``C`` section.
    Node indices are compacted to the AIGER ordering (inputs, latches,
    ands).
    """
    # AIGER requires variables numbered: inputs first, then latches, then ands.
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

    max_var = next_var - 1
    lines = []
    header = (
        f"aag {max_var} {len(aig.inputs)} {len(aig.latches)} 0 "
        f"{len(and_indices)} {len(aig.properties)}"
    )
    if aig.constraints:
        header += f" {len(aig.constraints)}"
    lines.append(header)
    for lit in aig.inputs:
        lines.append(str(lit_of(lit)))
    for latch in aig.latches:
        entry = f"{lit_of(latch.lit)} {lit_of(latch.next)}"
        if latch.init is None:
            entry += f" {lit_of(latch.lit)}"  # AIGER: next == lit means uninit
        elif latch.init == 1:
            entry += " 1"
        lines.append(entry)
    for prop in aig.properties:
        lines.append(str(lit_of(aig_not(prop.lit))))  # bad = NOT property
    for c in aig.constraints:
        lines.append(str(lit_of(c)))
    for idx in and_indices:
        left, right = aig.and_fanins(idx)
        lhs = remap[idx] * 2
        l0, l1 = lit_of(left), lit_of(right)
        if l0 < l1:
            l0, l1 = l1, l0
        lines.append(f"{lhs} {l0} {l1}")
    # Symbol table: inputs, latches, bad (property names).
    for i, name in enumerate(aig.input_names):
        lines.append(f"i{i} {name}")
    for i, latch in enumerate(aig.latches):
        lines.append(f"l{i} {latch.name}")
    for i, prop in enumerate(aig.properties):
        flag = " etf" if prop.expected_to_fail else ""
        lines.append(f"b{i} {prop.name}{flag}")
    lines.append("c")
    lines.append("generated by repro (multi-property JA-verification library)")
    return "\n".join(lines) + "\n"


def parse_aag(text: str) -> AIG:
    """Parse AIGER 1.9 ASCII into an AIG.

    Bad literals become properties named ``b<i>`` (or the symbol-table
    name when present, with an ``etf`` suffix marking expected-to-fail).
    If the file has no ``B`` section but has outputs, the outputs are
    interpreted as bad literals (pre-1.9 convention used by older HWMCC
    sets).  Malformed text raises :class:`ValueError`.
    """
    try:
        return _parse_aag(text)
    except IndexError:  # fewer rows, or fewer fields in a row, than promised
        raise ValueError("truncated ASCII AIGER file") from None


def _parse_aag(text: str) -> AIG:
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    if not lines:
        raise ValueError("empty AIGER file")
    header = lines[0].split()
    if not header or header[0] != "aag":
        raise ValueError(f"not an ASCII AIGER file: {lines[0]!r}")
    nums = [int(x) for x in header[1:]]
    while len(nums) < 5:
        nums.append(0)
    _max_var, n_in, n_latch, n_out, n_and = nums[:5]
    n_bad = nums[5] if len(nums) > 5 else 0
    n_constr = nums[6] if len(nums) > 6 else 0

    aig = AIG()
    pos = 1
    # aiger var index -> our literal
    lit_map: dict = {0: 0}

    input_lits = []
    for _ in range(n_in):
        aiger_lit = int(lines[pos].split()[0])
        pos += 1
        our = aig.add_input()
        lit_map[aiger_lit >> 1] = our
        input_lits.append(aiger_lit)

    latch_rows = []
    for _ in range(n_latch):
        parts = lines[pos].split()
        pos += 1
        aiger_lit = int(parts[0])
        nxt = int(parts[1])
        init: int | None = 0
        if len(parts) > 2:
            reset = int(parts[2])
            if reset == aiger_lit:
                init = None
            elif reset in (0, 1):
                init = reset
            else:
                raise ValueError(f"unsupported latch reset literal {reset}")
        our = aig.add_latch(init=init)
        lit_map[aiger_lit >> 1] = our
        latch_rows.append((our, nxt))

    out_rows = [int(lines[pos + i].split()[0]) for i in range(n_out)]
    pos += n_out
    bad_rows = [int(lines[pos + i].split()[0]) for i in range(n_bad)]
    pos += n_bad
    constr_rows = [int(lines[pos + i].split()[0]) for i in range(n_constr)]
    pos += n_constr

    and_rows = []
    for _ in range(n_and):
        parts = lines[pos].split()
        pos += 1
        and_rows.append((int(parts[0]), int(parts[1]), int(parts[2])))

    def resolve(aiger_lit: int) -> int:
        var = aiger_lit >> 1
        if var not in lit_map:
            raise ValueError(f"use of undefined AIGER variable {var}")
        our = lit_map[var]
        return our ^ (aiger_lit & 1)

    # AND definitions are topologically ordered in valid AIGER files.
    for lhs, rhs0, rhs1 in and_rows:
        lit_map[lhs >> 1] = aig.and_(resolve(rhs0), resolve(rhs1))

    for our, nxt in latch_rows:
        aig.set_next(our, resolve(nxt))

    bads = bad_rows if bad_rows else out_rows
    names = {}
    etf_flags = {}
    for line in lines[pos:]:
        if line == "c":
            break
        if line and line[0] == "b" and " " in line:
            idx_str, _, name = line.partition(" ")
            try:
                idx = int(idx_str[1:])
            except ValueError:
                continue
            etf = name.endswith(" etf")
            names[idx] = name[:-4] if etf else name
            etf_flags[idx] = etf
        if line and line[0] == "i" and " " in line:
            idx_str, _, name = line.partition(" ")
            try:
                idx = int(idx_str[1:])
            except ValueError:
                continue
            if idx < len(aig.input_names):
                aig.input_names[idx] = name
    for i, bad in enumerate(bads):
        aig.add_property(
            names.get(i, f"b{i}"),
            aig_not(resolve(bad)),
            expected_to_fail=etf_flags.get(i, False),
        )
    for c in constr_rows:
        aig.add_constraint(resolve(c))
    return aig


def load_aag(path: str) -> AIG:
    """Load an AIGER ASCII file from disk."""
    with open(path, encoding="ascii") as f:
        return parse_aag(f.read())


def save_aag(aig: AIG, path: str) -> None:
    """Save an AIG to an AIGER ASCII file."""
    with open(path, "w", encoding="ascii") as f:
        f.write(write_aag(aig))
