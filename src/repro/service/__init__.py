"""Extraction service: a long-lived daemon serving concurrent clients.

The session API (:class:`~repro.core.session.Extractor`) runs one
regime over a batch in-process; this package puts it behind a *server
process* that multiplexes any number of clients over a unix-socket (or
TCP) connection, with a result cache in front of the dispatchers.

Modules
-------
:mod:`repro.service.protocol`
    The wire format: length-prefixed JSON frames with an optional raw
    binary tail for arrays, graph payloads (inline edge list or CSR
    arrays in the tail), typed error codes, content hashing.
:mod:`repro.service.server`
    :class:`ReproServer` — admission queue with explicit backpressure
    (bounded depth → ``BUSY``, per-request deadline → ``TIMEOUT``), a
    content-hash × resolved-config result cache, and dispatcher threads
    that run each request in-process.
:mod:`repro.service.client`
    :class:`ServiceClient` — the blocking client the CLI's ``--server``
    flag uses; one socket, sequential framed requests.  An extract asks
    by the graph's content hash first and ships the graph only when the
    server answers ``NOT_CACHED``.

Dynamic graphs: ``client.mutate(graph=g)`` opens a per-connection
mutate session (:class:`~repro.core.incremental.IncrementalExtractor`
server-side); ``client.mutate(ops=[("insert", u, v), ...])`` applies
edge mutations and returns the maximalizing extraction of the new
graph — the edges ``extract`` with ``maximalize`` on would return —
while the server evicts exactly the pre-mutation graph's cache keys.

Quickstart::

    repro serve --socket /tmp/repro.sock --dispatchers 2 &
    repro extract graph.mtx --server /tmp/repro.sock

or in Python::

    with ServiceClient(socket_path="/tmp/repro.sock") as client:
        result = client.extract(graph)          # ServiceResult
        again = client.extract(graph)
        assert again.cached and (again.edges == result.edges).all()
"""

from repro.service.client import MutateResult, ServiceClient, ServiceResult
from repro.service.protocol import ERROR_CODES, ProtocolError, ServiceError
from repro.service.server import ReproServer, ServiceConfig

__all__ = [
    "ReproServer",
    "ServiceConfig",
    "ServiceClient",
    "ServiceResult",
    "MutateResult",
    "ServiceError",
    "ProtocolError",
    "ERROR_CODES",
]
