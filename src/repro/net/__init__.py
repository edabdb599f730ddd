"""Remote verification: the HTTP front end over :mod:`repro.service`.

This package turns the in-process :class:`~repro.service.VerificationService`
into a network service three layers deep:

* :mod:`repro.net.codec` — the versioned JSON wire format: one codec
  entry per :class:`~repro.progress.ProgressEvent` subclass plus
  encode/decode for whole :class:`~repro.multiprop.report.MultiPropReport`
  results;
* :mod:`repro.net.server` — the stdlib threaded HTTP server fronting
  one service: manifest-format job submission, resumable SSE
  event streams, cancellation, results, the live stats surface, and
  back-pressure mapped onto 429/503;
* :mod:`repro.net.client` — a thin blocking client
  (:class:`ServiceClient` / :class:`RemoteJob`) mirroring the
  ``submit → handle → stream → result`` shape of the in-process API,
  with automatic event-stream resume from the last seen cursor.

The CLI drives both ends: ``repro serve --listen HOST:PORT`` runs the
server (graceful drain on SIGINT/SIGTERM), ``repro submit --host``,
``repro watch`` and ``repro stats --host`` speak to it.
"""

from .client import (
    RemoteError,
    RemoteJob,
    ServiceBusy,
    ServiceClient,
    ServiceUnavailable,
    submit_manifest,
)
from .codec import (
    WIRE_VERSION,
    CodecError,
    decode_event,
    decode_report,
    encode_event,
    encode_report,
)
from .server import VerificationServer

__all__ = [
    "WIRE_VERSION",
    "CodecError",
    "encode_event",
    "decode_event",
    "encode_report",
    "decode_report",
    "VerificationServer",
    "ServiceClient",
    "RemoteJob",
    "RemoteError",
    "ServiceBusy",
    "ServiceUnavailable",
    "submit_manifest",
]
