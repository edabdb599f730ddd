"""The built-in strategies: the paper's methods, one table row each.

Every driver takes ``(ts, config, emit)`` — exactly
:meth:`~repro.session.registry.Strategy.run` — and reads the
:class:`~repro.config.VerificationConfig` fields it acts on by name, so
the driver function *is* the strategy: nothing here translates a config.
``--list-strategies`` shows the first line of each driver's docstring.
"""

from __future__ import annotations

from ..multiprop.clustering import clustered_verify
from ..multiprop.ja import ja_verify, separate_verify
from ..multiprop.joint import joint_verify
from ..parallel.engine import parallel_ja_verify
from ..parallel.portfolio import portfolio_verify
from .registry import add_strategy


class _Driver:
    """A strategy whose ``run`` is a driver function (see :class:`Strategy`
    for what ``local`` and ``pooled`` tell the service)."""

    def __init__(self, run, local: bool, pooled: bool) -> None:
        self.run = run
        self.local = local
        self.pooled = pooled
        self.__doc__ = run.__doc__


for _name, _run, _local, _pooled in (
    # name           driver              local  pooled
    ("ja",           ja_verify,          True,  False),
    ("joint",        joint_verify,       False, False),
    ("separate",     separate_verify,    False, False),
    ("clustered",    clustered_verify,   False, False),
    ("parallel-ja",  parallel_ja_verify, True,  True),
    ("portfolio",    portfolio_verify,   True,  True),
):
    add_strategy(_name, _Driver(_run, _local, _pooled))
