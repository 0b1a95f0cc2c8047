"""Blocking client for the extraction service.

One :class:`ServiceClient` owns one socket and issues framed requests
sequentially (the protocol is strict request/response, so concurrency
comes from many clients, not many in-flight requests per socket).  Every
typed error response is raised as
:class:`~repro.service.protocol.ServiceError` with its ``code``
preserved, so callers branch on ``exc.code in ("BUSY", "TIMEOUT")``
rather than parsing messages.

::

    with ServiceClient(socket_path="/tmp/repro.sock") as client:
        result = client.extract(graph, config={"schedule": "synchronous"})
        print(result.num_edges, result.cached, result.served_by)
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ReproError
from repro.graph.csr import CSRGraph
from repro.graph.ops import edge_subgraph
from repro.service import protocol
from repro.service.protocol import ProtocolError, ServiceError

__all__ = ["ServiceClient", "ServiceResult", "MutateResult"]

# How a protocol-1 daemon answers a hash probe.
_REFUSED_PROBE = "unknown request field(s) ['hash']"


@dataclass
class ServiceResult:
    """One successful ``extract`` response, decoded.

    ``edges`` is the chordal edge set exactly as the server computed it
    (canonicalised ``u < v`` rows in lexicographic order);
    :attr:`subgraph` rebuilds ``G' = (V, EC)`` lazily against the graph
    the request was made with.
    """

    edges: np.ndarray
    graph: CSRGraph
    cached: bool
    served_by: str
    engine: str
    schedule: str
    num_iterations: int
    maximality_gap: int
    stitched_bridges: int
    verified: bool = False
    #: Which round bodies ran server-side: "native" (compiled) or "numpy".
    kernel_path: str = "numpy"
    _subgraph: CSRGraph | None = field(default=None, repr=False)

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def subgraph(self) -> CSRGraph:
        """The chordal subgraph ``G' = (V, EC)`` (built lazily, cached)."""
        if self._subgraph is None:
            self._subgraph = edge_subgraph(self.graph, self.edges)
        return self._subgraph


@dataclass
class MutateResult:
    """One successful ``mutate`` response, decoded.

    ``edges`` is the session's current maximal chordal edge set;
    ``session`` is ``"opened"`` (this request shipped a graph) or
    ``"continued"``.  ``applied`` carries the batch counts
    (``{"applied", "inserted", "retained", "deleted"}``) when ops were
    sent, else ``None``.  ``invalidated`` counts the cache entries the
    server evicted for the pre-mutation graph content.
    """

    edges: np.ndarray
    session: str
    num_vertices: int
    num_graph_edges: int
    applied: dict[str, int] | None
    invalidated: int
    content_hash: str | None
    verified: bool = False

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])


class ServiceClient:
    """Framed request/response client over a unix or TCP socket.

    Parameters
    ----------
    socket_path:
        Unix-socket path of a running ``repro serve``.
    host / port:
        TCP alternative (exactly one of ``socket_path`` / ``host``).
    timeout:
        Socket-level ceiling per response (seconds); covers server-side
        execution, so it should exceed any request's ``timeout`` field.
    """

    def __init__(
        self,
        socket_path: str | None = None,
        *,
        host: str | None = None,
        port: int | None = None,
        timeout: float = 120.0,
        max_frame: int = protocol.DEFAULT_MAX_FRAME,
        connect_retries: int = 0,
        retry_delay: float = 0.1,
    ) -> None:
        if (socket_path is None) == (host is None):
            raise ReproError(
                "ServiceClient needs exactly one of socket_path= or host="
            )
        self._max_frame = max_frame
        # False once the daemon refuses a hash probe (protocol 1).
        self._probes = True
        self._sock: socket.socket | None = None
        last_error: Exception | None = None
        for _ in range(max(1, connect_retries + 1)):
            try:
                if socket_path is not None:
                    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    sock.settimeout(timeout)
                    sock.connect(socket_path)
                else:
                    sock = socket.create_connection(
                        (host, port or 0), timeout=timeout
                    )
                self._sock = sock
                return
            except OSError as exc:
                last_error = exc
                time.sleep(retry_delay)
        raise ReproError(
            f"cannot connect to the extraction service "
            f"({socket_path or f'{host}:{port}'}): {last_error}"
        )

    # -- plumbing -------------------------------------------------------

    def _request(self, message: dict[str, Any]) -> dict[str, Any]:
        if self._sock is None:
            raise ReproError("ServiceClient is closed")
        try:
            protocol.send_message(self._sock, message, max_frame=self._max_frame)
            response = protocol.recv_message(self._sock, max_frame=self._max_frame)
        except TimeoutError:
            raise ServiceError(
                "no response within the client timeout", code=protocol.TIMEOUT
            ) from None
        except OSError as exc:
            raise ReproError(f"service connection lost: {exc}") from exc
        if response is None:
            raise ReproError(
                "service closed the connection without a response"
            )
        return protocol.raise_for_error(response)

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- operations -----------------------------------------------------

    def ping(self) -> dict[str, Any]:
        """Liveness probe; returns the server's version banner."""
        return self._request({"op": "ping"})

    def stats(self) -> dict[str, Any]:
        """The server's counter snapshot (queue depth, cache, dispatches…)."""
        return self._request({"op": "stats"})["stats"]

    def shutdown(self) -> dict[str, Any]:
        """Ask the server to drain and stop (when it allows remote stop)."""
        return self._request({"op": "shutdown"})

    def extract(
        self,
        graph: CSRGraph,
        *,
        config: dict[str, Any] | None = None,
        timeout: float | None = None,
        verify: bool = False,
        no_cache: bool = False,
        binary: bool = True,
    ) -> ServiceResult:
        """Extract ``graph``'s maximal chordal subgraph on the server.

        ``config`` uses the wire vocabulary
        (:data:`~repro.service.protocol.ALLOWED_CONFIG_FIELDS` — e.g.
        ``{"engine": "superstep", "schedule": "synchronous"}``).  Raises
        :class:`ServiceError` carrying the server's typed code on any
        rejection (``BUSY``, ``TIMEOUT``, ``INVALID_CONFIG``, …).

        Unless ``no_cache`` is set, the graph's content hash goes first,
        without the graph; only when the server answers ``NOT_CACHED``
        is the request sent again with the graph.  So a repeated graph
        costs one small frame, and any extract at most two.  A daemon
        that predates probes (protocol 1) refuses the ``hash`` field;
        the graph then goes out at once, and this connection sends no
        more probes.
        """
        request: dict[str, Any] = {"op": "extract"}
        if config:
            request["config"] = dict(config)
        if timeout is not None:
            request["timeout"] = timeout
        if verify:
            request["verify"] = True
        response = None
        if no_cache:
            request["no_cache"] = True
        elif self._probes:
            probe = {**request, "hash": protocol.graph_content_hash(graph)}
            try:
                response = self._request(probe)
            except ServiceError as exc:
                if exc.code == protocol.BAD_REQUEST and _REFUSED_PROBE in str(exc):
                    self._probes = False
                elif exc.code != protocol.NOT_CACHED:
                    raise
        if response is None:
            request["graph"] = protocol.encode_graph(graph, binary=binary)
            response = self._request(request)
        try:
            edges = protocol.decode_edges(response)
        except ProtocolError as exc:  # pragma: no cover - server bug guard
            raise ReproError(f"undecodable extract response: {exc}") from exc
        return ServiceResult(
            edges=edges,
            graph=graph,
            cached=bool(response.get("cached", False)),
            served_by=str(response.get("served_by", "")),
            engine=str(response.get("engine", "")),
            schedule=str(response.get("schedule", "")),
            num_iterations=int(response.get("num_iterations", 0)),
            maximality_gap=int(response.get("maximality_gap", 0)),
            stitched_bridges=int(response.get("stitched_bridges", 0)),
            verified=bool(response.get("verified", False)),
            kernel_path=str(response.get("kernel_path", "numpy")),
        )

    def mutate(
        self,
        *,
        graph: CSRGraph | None = None,
        ops: list[tuple[str, int, int]] | None = None,
        config: dict[str, Any] | None = None,
        verify: bool = False,
        binary: bool = True,
    ) -> MutateResult:
        """Open or advance this connection's mutate session.

        Pass ``graph`` to open (or replace) the session — ``config`` is
        only legal alongside it; pass ``ops`` (``(op, u, v)`` triples,
        ``op`` in ``("insert", "+", "delete", "-")``) to mutate the
        session's graph.  Both may be combined.  The returned edges are
        the maximalizing extraction of the current graph under the
        session's config (``extract`` with ``maximalize`` on gives the
        same).  Sessions are per-connection: they end when the client
        closes.
        """
        request: dict[str, Any] = {"op": "mutate"}
        if graph is not None:
            request["graph"] = protocol.encode_graph(graph, binary=binary)
        if config:
            request["config"] = dict(config)
        if ops is not None:
            request["ops"] = [[op, int(u), int(v)] for op, u, v in ops]
        if verify:
            request["verify"] = True
        response = self._request(request)
        try:
            edges = protocol.decode_edges(response)
        except ProtocolError as exc:  # pragma: no cover - server bug guard
            raise ReproError(f"undecodable mutate response: {exc}") from exc
        return MutateResult(
            edges=edges,
            session=str(response.get("session", "")),
            num_vertices=int(response.get("num_vertices", 0)),
            num_graph_edges=int(response.get("num_graph_edges", 0)),
            applied=response.get("applied"),
            invalidated=int(response.get("invalidated", 0)),
            content_hash=response.get("content_hash"),
            verified=bool(response.get("verified", False)),
        )
