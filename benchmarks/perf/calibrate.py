"""A fixed kernel that tells how fast this host is running right now.

The reference host is a 2-vCPU virtual machine whose physical cores are
shared with other tenants.  Identical, deterministic work (``joint`` on
f260: the same 791 conflicts and 269,469 propagations every time) took
anywhere from 1.07 s to 2.0 s there, in phases lasting from a second to
several minutes, with CPU time rising in step with wall time — the
interpreter simply runs slower while a neighbour is busy.  Over ten
12-second runs the quartiles of a plain timing lay 13-29 % of the
median apart; the fastest-of-N only helped while the slow phases were
short.

The slowdown is the same factor for any interpreter-bound work, so the
benchmark measures it: :func:`sample` times this small pure-Python
kernel (list, tuple and dict traffic with a data-dependent branch, the
mix of the solver's watch lists) before and after every job, and each
job's times are scaled by ``REFERENCE_KERNEL_S / kernel time around
it``.  A timing metric therefore reads in *seconds at the reference
host's undisturbed speed*; on the same ten runs the quartile distance
of such a value was 3-4 % of the median.  The kernel belongs to the
benchmark and calls nothing of the program, so no change to the program
can move it.
"""

from __future__ import annotations

import time

#: What :func:`sample` returns on the reference host (Xeon @ 2.1 GHz,
#: CPython 3.11) while nothing else contends for the core.
REFERENCE_KERNEL_S = 0.0130

_ROUNDS = 150
_SIZE = 257


def _kernel() -> int:
    watches = [[(i * 7 + j * 13) % _SIZE for j in range(8)] for i in range(_SIZE)]
    assign = [0] * _SIZE
    seen = {}
    total = 0
    for rnd in range(_ROUNDS):
        bit = rnd & 1
        for i, row in enumerate(watches):
            for lit in row:
                if assign[lit] == bit:
                    total += lit
                    assign[lit] ^= 1
                else:
                    total -= 1
            seen[(i, bit)] = total
    return total


def sample() -> float:
    """Seconds the kernel takes right now (about 13-25 ms)."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scale(kernel_s: float) -> float:
    """Factor that turns a time measured around ``kernel_s`` into
    seconds at the reference host's undisturbed speed."""
    return REFERENCE_KERNEL_S / kernel_s
