"""The checkers ``repro lint`` runs, in report order.

A checker is an object with an ``id``, a ``check(project)`` method
yielding :class:`~repro.analysis.context.Finding` objects, and a
docstring whose first line is the rule ``repro lint --list-checkers``
prints.  Each one stays only while reverting a real past fix makes it
fire (see the README's "Static analysis" section); add one by writing a
module here and listing an instance below.
"""

from __future__ import annotations

from .config_hygiene import ConfigHygieneChecker
from .queue_discipline import QueueDisciplineChecker
from .wire_protocol import WireProtocolChecker

CHECKERS = (
    ConfigHygieneChecker(),
    QueueDisciplineChecker(),
    WireProtocolChecker(),
)

__all__ = ["CHECKERS"]
