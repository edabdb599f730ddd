"""Job-oriented verification service (the server regime).

The paper's case for JA-verification is amortizing work across many
properties of one design; this package extends that amortization to
many *clients*: a :class:`VerificationService` owns (or attaches to)
one persistent :class:`~repro.parallel.WorkerPool` and serves any
number of concurrently submitted verification jobs against it::

    from repro.service import VerificationService

    with VerificationService(workers=4, max_concurrent_jobs=8) as service:
        fast = service.submit("ctrl.aag", strategy="parallel-ja", priority=2)
        slow = service.submit("dma.aag", strategy="parallel-ja")
        for event in fast.events():      # replayed log, then live; ends after JobFinished
            print(event.kind)
        print(fast.result().debugging_set())
        slow.cancel()                    # never perturbs fast's verdicts

``submit → handle → stream → result``: :meth:`VerificationService.submit`
returns a :class:`JobHandle` with ``status``, ``cancel()``,
``events()``, ``result(timeout=...)`` and a ``done`` future; the
handle keeps the job's one event log, which ``events()``,
``Session.stream()`` and the HTTP stream all read.
Property-level work of all pooled jobs is interleaved onto the shared
worker seats by a weighted fair-share scheduler (see
:class:`~repro.parallel.engine.SeatScheduler`), admission is bounded
(:class:`QueueFull`, :class:`~repro.progress.ServiceSaturated`), and
a one-shot :class:`~repro.session.Session` run is one job on such a
service — the one-shot API and the server API are the same machinery.
"""

from .core import VerificationService
from .jobs import JobHandle, JobStatus, QueueFull
from .stats import JobStats, ServiceStats

__all__ = [
    "VerificationService",
    "JobHandle",
    "JobStatus",
    "QueueFull",
    "ServiceStats",
    "JobStats",
]
