"""Wire protocol for the extraction service.

Framing
-------
Every message is one *frame*: an 8-byte header — the 4-byte magic
``RPX1`` plus a big-endian ``uint32`` payload length — followed by the
payload, a UTF-8 JSON object optionally followed by one ``\\0`` byte and
a *binary tail*.  The magic makes garbage input fail on the first 4
bytes instead of being misread as an absurd length; the length prefix
covers JSON and tail together and is bounded by ``max_frame``, so a
hostile prefix can never make the server allocate unbounded memory.

Arrays travel in the tail as raw little-endian bytes.
:func:`send_message` moves every ``np.ndarray`` of a message into the
tail, in the order the JSON names them, and leaves a reference
``{"$bin": [dtype, count]}`` in its place (``dtype`` one of
:data:`WIRE_DTYPES`, ``count`` the number of items; a multi-dimensional
array travels flattened).  :func:`recv_message` turns each reference
back into a zero-copy, read-only view of the received buffer.  A
message without arrays is plain JSON with no tail.

Any framing violation raises :class:`ProtocolError` with code
``BAD_FRAME``: bad magic, an oversized length, a connection closed
mid-frame, a payload that is not a JSON object, and in the tail a
reference whose dtype is not a wire dtype, whose count is not a
non-negative integer, that runs past the end of the tail or that
appears in a frame without a tail, or references that leave tail bytes
unused.  The server answers with exactly one typed error frame and
closes the connection — never a hang, never a traceback over the wire.

Requests (client -> server), one JSON object each::

    {"op": "ping"}
    {"op": "stats"}
    {"op": "shutdown"}
    {"op": "extract", "graph": <graph>, "config": {...}, "timeout": 5.0,
     "verify": false, "no_cache": false}
    {"op": "extract", "hash": <sha256 hex>, "config": {...}, "timeout": 5.0,
     "verify": false}
    {"op": "mutate", "graph": <graph>?, "config": {...}?,
     "ops": [["insert", 0, 1], ["delete", 2, 3], ...]?, "verify": false}

An ``extract`` request names its graph in one of two ways.  With
``graph`` it ships the graph, which is validated, hashed, looked up in
the result cache and extracted on a miss.  With ``hash`` — the 64
lowercase hex digits of :func:`graph_content_hash` — it is a *probe*:
the server answers from its result cache or with ``NOT_CACHED``, and
the graph never crosses the wire.  A probe carrying ``verify`` is
answered only from an entry that already passed verification (there is
no graph to verify against).  After ``NOT_CACHED`` the client resends
the request with ``graph``; :meth:`~repro.service.client.ServiceClient.extract`
does both steps.  ``hash`` excludes ``graph`` and ``no_cache``.  A
protocol-1 server answers a probe ``BAD_REQUEST`` (``hash`` is an
unknown field there); the client then ships the graph instead.

``mutate`` is PATCH-style: a request carrying ``graph`` opens (or
replaces) the connection's mutate session (``config`` is only legal
there); later requests on the same connection carry only ``ops`` (see
:func:`decode_mutations`).  Each answer is the maximalizing extraction
of the session's current graph.  Every applied batch invalidates
exactly the pre-mutation graph's cache keys on the server.

Graph payloads come in two interchangeable shapes (see
:func:`encode_graph` / :func:`decode_graph`):

* inline edge list — ``{"n": 4, "edges": [[0, 1], ...],
  "weights": [1.5, ...]?}`` (weights parallel to ``edges``), plain
  JSON;
* CSR arrays — ``{"csr": {"n": ..., "indptr": <bin <i8>, "indices":
  <bin <i4 or <i8>, "sorted": true, "weights": <bin <f8>?}}``, each
  array a tail reference (``indices`` in the graph's own width: ``<i4``
  for every graph the builder makes).

Responses are ``{"ok": true, ...}`` or a *typed* error
``{"ok": false, "error": {"code": <ERROR_CODES>, "message": ...}}``.
The codes: ``BAD_FRAME`` (framing, after which the server closes the
connection), ``BAD_REQUEST`` (a malformed request object, ``hash``
included), ``BAD_GRAPH``, ``INVALID_CONFIG``, ``NOT_CACHED`` (a probe
found no usable entry; resend with the graph), ``BUSY``, ``TIMEOUT``,
``SHUTTING_DOWN``, ``VERIFY_FAILED`` and ``INTERNAL``.
Extraction and mutate responses carry the edge set as ``"edges": <bin
<i4 or <i8>`` (the ``(k, 2)`` rows flattened) and ``"num_edges": k``
(:func:`encode_edges`), plus ``cached`` / ``served_by`` /
``num_iterations`` metadata.

Content hashing
---------------
:func:`graph_content_hash` is the cache identity of a graph: SHA-256
over the sorted-adjacency CSR arrays (dtype-normalised, so the same
graph hashes identically however it was shipped) plus a
weighted/unweighted marker and the weight values — a relabeled
isomorphic graph, or the same topology with different (or no) weights,
hashes distinctly.  :func:`~repro.core.config.config_cache_key`
(re-exported here) is the companion identity of a *resolved*
:class:`~repro.core.config.ExtractionConfig`.
"""

from __future__ import annotations

import hashlib
import json
import re
import socket
import struct
from typing import Any, Callable

import numpy as np

from repro.core.config import ExtractionConfig, config_cache_key
from repro.errors import ConfigError, GraphFormatError, ReproError
from repro.graph.builder import build_graph
from repro.graph.csr import CSRGraph
from repro.graph.weights import attach_edge_weights

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME",
    "WIRE_DTYPES",
    "ERROR_CODES",
    "ALLOWED_CONFIG_FIELDS",
    "ProtocolError",
    "ServiceError",
    "read_frame",
    "write_frame",
    "recv_message",
    "send_message",
    "error_response",
    "raise_for_error",
    "encode_graph",
    "decode_graph",
    "encode_edges",
    "decode_edges",
    "decode_config",
    "decode_mutations",
    "MUTATION_OPS",
    "decode_timeout",
    "decode_content_hash",
    "graph_content_hash",
    "config_cache_key",
]

#: Frame magic; bump the digit when the wire format changes incompatibly.
MAGIC = b"RPX1"

#: Version 2 added the hash-only ``extract`` probe and ``NOT_CACHED``.
PROTOCOL_VERSION = 2

#: 8-byte frame header: magic + big-endian uint32 payload length.
HEADER = struct.Struct("!4sI")

#: Default per-frame payload ceiling (64 MiB ~ a scale-22 CSR payload).
DEFAULT_MAX_FRAME = 64 * 1024 * 1024

#: The dtypes an array may travel in (raw little-endian bytes).
WIRE_DTYPES = ("<i4", "<i8", "<f8")

#: Key of a tail reference, ``{"$bin": [dtype, count]}``.
BIN_KEY = "$bin"

#: A probe's ``hash``: what :func:`graph_content_hash` returns.
_CONTENT_HASH = re.compile("[0-9a-f]{64}")

#: Ceiling on a request's ``timeout`` field (seconds).
MAX_TIMEOUT = 3600.0

#: Ceiling on a request's ``num_threads``: a request may not size an
#: arbitrarily large thread team inside the daemon.
MAX_THREADS = 64

# Typed error codes — the complete vocabulary a client must handle.
BAD_FRAME = "BAD_FRAME"  # framing/JSON violation; connection closes after
BAD_REQUEST = "BAD_REQUEST"  # well-framed but malformed request object
BAD_GRAPH = "BAD_GRAPH"  # graph payload rejected
INVALID_CONFIG = "INVALID_CONFIG"  # config rejected (unknown field/value)
NOT_CACHED = "NOT_CACHED"  # hash-only probe missed; resend with the graph
BUSY = "BUSY"  # admission queue full (backpressure)
TIMEOUT = "TIMEOUT"  # per-request deadline expired
SHUTTING_DOWN = "SHUTTING_DOWN"  # server draining; no new admissions
VERIFY_FAILED = "VERIFY_FAILED"  # requested verification rejected output
INTERNAL = "INTERNAL"  # anything else (message only, no traceback)

ERROR_CODES = (
    BAD_FRAME,
    BAD_REQUEST,
    BAD_GRAPH,
    INVALID_CONFIG,
    NOT_CACHED,
    BUSY,
    TIMEOUT,
    SHUTTING_DOWN,
    VERIFY_FAILED,
    INTERNAL,
)

#: Config fields a request may set.  ``collect_trace``, ``cost_params``
#: and ``variant`` only shape work traces, which the daemon does not
#: serve, so all three are rejected explicitly rather than silently
#: ignored.
ALLOWED_CONFIG_FIELDS = (
    "engine",
    "schedule",
    "num_threads",
    "renumber",
    "stitch",
    "maximalize",
    "max_iterations",
)


class ProtocolError(ReproError):
    """A request violated the wire protocol or was rejected typed.

    ``code`` is one of :data:`ERROR_CODES`; the server turns the error
    into exactly one ``{"ok": false, "error": {...}}`` response frame.
    """

    def __init__(self, message: str, code: str = BAD_FRAME) -> None:
        super().__init__(message)
        self.code = code


class ServiceError(ReproError):
    """Client-side: the server answered with a typed error response."""

    def __init__(self, message: str, code: str = INTERNAL) -> None:
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Framing


def _recv_exact(
    sock: socket.socket,
    n: int,
    *,
    stop: Callable[[], bool] | None = None,
    what: str = "frame",
) -> bytearray | None:
    """Read exactly ``n`` bytes.

    Returns ``None`` on a clean end before the first byte (peer closed
    at a frame boundary, or ``stop()`` turned true while idle); raises
    :class:`ProtocolError` (``BAD_FRAME``) when the connection ends —
    or ``stop()`` fires — with a partial read, which is a truncated
    frame.  Socket timeouts are used purely as a polling interval for
    ``stop``; without ``stop`` they propagate to the caller.  The buffer
    grows as bytes arrive, so a length prefix alone commits no memory.
    """
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except TimeoutError:
            if stop is None:
                raise
            if stop():
                if not buf:
                    return None
                raise ProtocolError(
                    f"truncated {what}: server stopping with "
                    f"{len(buf)}/{n} bytes read"
                ) from None
            continue
        if not chunk:
            if not buf:
                return None
            raise ProtocolError(
                f"truncated {what}: connection closed after "
                f"{len(buf)}/{n} bytes"
            )
        buf += chunk
    return buf


def read_frame(
    sock: socket.socket,
    *,
    max_frame: int = DEFAULT_MAX_FRAME,
    stop: Callable[[], bool] | None = None,
) -> bytearray | None:
    """Read one frame's payload; ``None`` on clean end-of-stream.

    Raises :class:`ProtocolError` (code ``BAD_FRAME``) on bad magic, an
    oversized length prefix, or truncation.
    """
    header = _recv_exact(sock, HEADER.size, stop=stop, what="frame header")
    if header is None:
        return None
    magic, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r}); "
            "not a repro-service client?"
        )
    if length > max_frame:
        raise ProtocolError(
            f"oversized frame: length prefix {length} exceeds the "
            f"{max_frame}-byte ceiling"
        )
    payload = _recv_exact(sock, length, stop=stop, what="frame payload")
    if payload is None:
        raise ProtocolError(
            f"truncated frame: connection closed before the "
            f"{length}-byte payload"
        )
    return payload


def write_frame(
    sock: socket.socket, *parts: Any, max_frame: int = DEFAULT_MAX_FRAME
) -> None:
    """Write one frame whose payload is ``parts`` (bytes-like objects,
    C-contiguous arrays included) joined, in a single ``sendall``."""
    length = sum(memoryview(part).nbytes for part in parts)
    if length > max_frame:
        raise ProtocolError(
            f"refusing to send a {length}-byte frame "
            f"(> {max_frame}-byte ceiling)"
        )
    sock.sendall(b"".join((HEADER.pack(MAGIC, length), *parts)))


class _TailReader:
    """JSON ``object_hook`` that turns each ``$bin`` reference into the
    next view of ``tail`` and counts the bytes used.

    References are consumed in the order they close in the JSON text,
    which is the order :func:`send_message` wrote their arrays.
    """

    def __init__(self, tail: memoryview | None) -> None:
        self.tail = tail
        self.used = 0

    def __call__(self, obj: dict[str, Any]) -> Any:
        if BIN_KEY not in obj:
            return obj
        ref = obj[BIN_KEY]
        if len(obj) != 1 or not isinstance(ref, list) or len(ref) != 2:
            raise ProtocolError(
                f"a {BIN_KEY!r} reference must be {{{BIN_KEY!r}: [dtype, count]}}, "
                f"got {obj!r}"
            )
        dtype, count = ref
        if dtype not in WIRE_DTYPES:
            raise ProtocolError(
                f"{BIN_KEY} dtype {dtype!r} is not one of {WIRE_DTYPES}"
            )
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ProtocolError(
                f"{BIN_KEY} count must be a non-negative integer, got {count!r}"
            )
        if self.tail is None:
            raise ProtocolError(
                f"{BIN_KEY} reference in a frame without a binary tail"
            )
        end = self.used + count * np.dtype(dtype).itemsize
        if end > self.tail.nbytes:
            raise ProtocolError(
                f"{BIN_KEY} reference of {count} {dtype} runs past the end "
                f"of the {self.tail.nbytes}-byte tail (at byte {self.used})"
            )
        array = np.frombuffer(self.tail, dtype=dtype, count=count, offset=self.used)
        self.used = end
        return array


def recv_message(
    sock: socket.socket,
    *,
    max_frame: int = DEFAULT_MAX_FRAME,
    stop: Callable[[], bool] | None = None,
) -> dict[str, Any] | None:
    """Read one frame and decode its JSON-object payload, each tail
    reference replaced by a read-only array viewing the frame.

    ``None`` on clean end-of-stream; :class:`ProtocolError`
    (``BAD_FRAME``) on framing violations, a payload that is not a JSON
    object, or a malformed tail (see the module docs).
    """
    payload = read_frame(sock, max_frame=max_frame, stop=stop)
    if payload is None:
        return None
    view = memoryview(payload).toreadonly()
    split = payload.find(0)
    head, tail = (view, None) if split < 0 else (view[:split], view[split + 1:])
    reader = _TailReader(tail)
    try:
        message = json.loads(str(head, "utf-8"), object_hook=reader)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    if tail is not None and reader.used != tail.nbytes:
        raise ProtocolError(
            f"binary tail holds {tail.nbytes} bytes but its references "
            f"use {reader.used}"
        )
    return message


def send_message(
    sock: socket.socket,
    message: dict[str, Any],
    *,
    max_frame: int = DEFAULT_MAX_FRAME,
) -> None:
    """JSON-encode ``message`` and send it as one frame, every
    ``np.ndarray`` in it moved into the binary tail."""
    tail: list[np.ndarray] = []

    def attach(obj: Any) -> dict[str, list]:
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"{type(obj).__name__} is not JSON serializable")
        array = np.ascontiguousarray(obj, dtype=obj.dtype.newbyteorder("<"))
        if array.dtype.str not in WIRE_DTYPES:
            raise ProtocolError(
                f"cannot send a {obj.dtype} array; the wire carries {WIRE_DTYPES}"
            )
        tail.append(array)
        return {BIN_KEY: [array.dtype.str, array.size]}

    head = json.dumps(message, separators=(",", ":"), default=attach).encode("utf-8")
    if not tail:
        write_frame(sock, head, max_frame=max_frame)
        return
    # Trailing JSON whitespace starts the tail 8-byte aligned, so the
    # receiver's views of 8-byte arrays are aligned too.
    pad = b" " * (-(len(head) + 1) % 8)
    write_frame(sock, head, pad, b"\0", *tail, max_frame=max_frame)


def error_response(code: str, message: str) -> dict[str, Any]:
    """The one shape every failure takes on the wire."""
    return {"ok": False, "error": {"code": code, "message": str(message)}}


def raise_for_error(message: dict[str, Any]) -> dict[str, Any]:
    """Return ``message`` if ``ok``; raise :class:`ServiceError` otherwise."""
    if message.get("ok"):
        return message
    err = message.get("error") or {}
    raise ServiceError(
        err.get("message", "server returned an untyped failure"),
        code=err.get("code", INTERNAL),
    )


# ---------------------------------------------------------------------------
# Graph / edge-set payloads


def _wire_array(value: Any, what: str, dtypes: tuple[str, ...], code: str) -> np.ndarray:
    """``value`` if it is a 1-D array in one of ``dtypes``, else a
    :class:`ProtocolError` naming ``what``."""
    if (
        isinstance(value, np.ndarray)
        and value.ndim == 1
        and value.dtype.str in dtypes
    ):
        return value
    got = (
        f"a {value.dtype.str} array of shape {value.shape}"
        if isinstance(value, np.ndarray)
        else type(value).__name__
    )
    raise ProtocolError(
        f"{what} must be a 1-D {' or '.join(dtypes)} array, got {got}", code=code
    )


def _is_count(value: Any) -> bool:
    """A non-negative JSON integer (``true`` is a ``bool``, not a count)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _index_dtype(array: np.ndarray) -> str:
    return "<i4" if array.dtype == np.int32 else "<i8"


def encode_graph(graph: CSRGraph, *, binary: bool = True) -> dict[str, Any]:
    """Encode a graph for the wire.

    ``binary=True`` (default) ships the CSR arrays themselves, which
    :func:`send_message` moves into the frame's binary tail (``indices``
    keep the graph's own int32 or int64 width); ``binary=False`` ships a
    plain JSON edge list, handy for hand-written requests and debugging.
    """
    if binary:
        csr: dict[str, Any] = {
            "n": graph.num_vertices,
            "indptr": graph.indptr.astype("<i8", copy=False),
            "indices": graph.indices.astype(_index_dtype(graph.indices), copy=False),
            "sorted": bool(graph.sorted_adjacency),
        }
        if graph.has_weights:
            csr["weights"] = graph.arc_weights.astype("<f8", copy=False)
        return {"csr": csr}
    payload: dict[str, Any] = {
        "n": graph.num_vertices,
        "edges": graph.edge_array().tolist(),
    }
    if graph.has_weights:
        payload["weights"] = graph.edge_weight_rows().tolist()
    return payload


def _decode_csr_graph(csr: Any) -> CSRGraph:
    if not isinstance(csr, dict):
        raise ProtocolError("'csr' must be an object", code=BAD_GRAPH)
    unknown = set(csr) - {"n", "indptr", "indices", "sorted", "weights"}
    if unknown:
        raise ProtocolError(
            f"unknown csr field(s) {sorted(unknown)}", code=BAD_GRAPH
        )
    indptr = _wire_array(csr.get("indptr"), "csr.indptr", ("<i8",), BAD_GRAPH)
    indices = _wire_array(
        csr.get("indices"), "csr.indices", ("<i4", "<i8"), BAD_GRAPH
    )
    n = csr.get("n", indptr.size - 1)
    if not _is_count(n) or n != indptr.size - 1:
        raise ProtocolError(
            f"csr.n ({n!r}) must equal len(indptr) - 1 ({indptr.size - 1})",
            code=BAD_GRAPH,
        )
    weights = None
    if "weights" in csr:
        weights = _wire_array(csr["weights"], "csr.weights", ("<f8",), BAD_GRAPH)
    try:
        graph = CSRGraph.from_untrusted(
            indptr,
            indices,
            sorted_adjacency=bool(csr.get("sorted", False)),
            arc_weights=weights,
        )
    except GraphFormatError as exc:
        raise ProtocolError(f"malformed CSR payload: {exc}", code=BAD_GRAPH)
    return graph


def _decode_edge_list_graph(payload: dict[str, Any]) -> CSRGraph:
    edges = payload.get("edges")
    if not isinstance(edges, list):
        raise ProtocolError(
            "graph payload needs 'edges' (list of [u, v] pairs) or 'csr'",
            code=BAD_GRAPH,
        )
    try:
        rows = [(int(u), int(v)) for u, v in edges]
    except (TypeError, ValueError):
        raise ProtocolError(
            "'edges' must be a list of [u, v] integer pairs", code=BAD_GRAPH
        )
    n = payload.get("n", max((max(u, v) for u, v in rows), default=-1) + 1)
    if not _is_count(n):
        raise ProtocolError(
            f"'n' must be a non-negative integer, got {n!r}", code=BAD_GRAPH
        )
    weights = payload.get("weights")
    try:
        graph = build_graph(n, rows)
        if weights is not None:
            if not isinstance(weights, list) or len(weights) != len(rows):
                raise ProtocolError(
                    "'weights' must be a list parallel to 'edges'",
                    code=BAD_GRAPH,
                )
            graph = attach_edge_weights(
                graph,
                {
                    (min(u, v), max(u, v)): float(w)
                    for (u, v), w in zip(rows, weights)
                },
            )
    except (GraphFormatError, ValueError, TypeError) as exc:
        raise ProtocolError(f"malformed graph payload: {exc}", code=BAD_GRAPH)
    return graph


def decode_graph(payload: Any) -> CSRGraph:
    """Decode either graph payload shape; :class:`ProtocolError`
    (code ``BAD_GRAPH``) on anything malformed."""
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"graph payload must be an object, got {type(payload).__name__}",
            code=BAD_GRAPH,
        )
    if "csr" in payload:
        extra = set(payload) - {"csr"}
        if extra:
            raise ProtocolError(
                f"graph payload mixes 'csr' with {sorted(extra)}",
                code=BAD_GRAPH,
            )
        return _decode_csr_graph(payload["csr"])
    unknown = set(payload) - {"n", "edges", "weights"}
    if unknown:
        raise ProtocolError(
            f"unknown graph field(s) {sorted(unknown)}", code=BAD_GRAPH
        )
    return _decode_edge_list_graph(payload)


def encode_edges(edges: np.ndarray) -> dict[str, Any]:
    """Encode an extracted ``(k, 2)`` edge set for a response; the rows
    travel flattened, in their own int32 or int64 width."""
    e = np.asarray(edges).reshape(-1, 2)
    flat = e.reshape(-1).astype(_index_dtype(e), copy=False)
    return {"edges": flat, "num_edges": int(e.shape[0])}


def decode_edges(payload: dict[str, Any]) -> np.ndarray:
    """Decode :func:`encode_edges` output back into a ``(k, 2)`` array."""
    flat = _wire_array(payload.get("edges"), "edges", ("<i4", "<i8"), BAD_FRAME)
    if flat.size % 2:
        raise ProtocolError(
            f"edges holds {flat.size} ints (odd — not (k, 2) rows)"
        )
    edges = flat.reshape(-1, 2)
    declared = payload.get("num_edges")
    if declared is not None and declared != edges.shape[0]:
        raise ProtocolError(
            f"num_edges {declared} != decoded row count {edges.shape[0]}"
        )
    return edges


# ---------------------------------------------------------------------------
# Config payloads


def decode_config(payload: Any) -> ExtractionConfig:
    """Decode a request's ``config`` object into an
    :class:`ExtractionConfig`; :class:`ProtocolError`
    (``INVALID_CONFIG``) on unknown or unservable fields, a
    ``num_threads`` above :data:`MAX_THREADS`, or any value the config
    itself rejects."""
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"config must be an object, got {type(payload).__name__}",
            code=INVALID_CONFIG,
        )
    unservable = {
        "collect_trace": "is not servable (work traces are not serialisable)",
        "cost_params": "is not servable (cost params are not serialisable)",
        "variant": "only changes work traces, which the daemon does not serve",
    }
    for field, why in unservable.items():
        if payload.get(field):
            raise ProtocolError(f"config field {field!r} {why}", code=INVALID_CONFIG)
    cleaned = {k: v for k, v in payload.items() if k in ALLOWED_CONFIG_FIELDS}
    unknown = set(payload) - set(ALLOWED_CONFIG_FIELDS) - set(unservable)
    if unknown:
        raise ProtocolError(
            f"unknown config field(s) {sorted(unknown)}; the service "
            f"accepts {list(ALLOWED_CONFIG_FIELDS)}",
            code=INVALID_CONFIG,
        )
    try:
        config = ExtractionConfig(**cleaned)
    except (ConfigError, TypeError) as exc:
        raise ProtocolError(str(exc), code=INVALID_CONFIG)
    if config.num_threads > MAX_THREADS:
        raise ProtocolError(
            f"num_threads must be <= {MAX_THREADS}, got {config.num_threads}",
            code=INVALID_CONFIG,
        )
    return config


def decode_timeout(value: Any, default: float) -> float:
    """Validate a request's ``timeout`` field (seconds)."""
    if value is None:
        return default
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ProtocolError(
            f"timeout must be a number of seconds, got {value!r}",
            code=BAD_REQUEST,
        )
    timeout = float(value)
    if not (0 < timeout <= MAX_TIMEOUT):
        raise ProtocolError(
            f"timeout must be in (0, {MAX_TIMEOUT:g}] seconds, got {timeout!r}",
            code=BAD_REQUEST,
        )
    return timeout


def decode_content_hash(value: Any) -> str:
    """Validate a probe's ``hash`` field: the 64 lowercase hex digits
    :func:`graph_content_hash` returns; :class:`ProtocolError`
    (``BAD_REQUEST``) otherwise."""
    if not isinstance(value, str) or not _CONTENT_HASH.fullmatch(value):
        raise ProtocolError(
            f"hash must be 64 lowercase hex digits (a graph content hash), "
            f"got {value!r:.80}",
            code=BAD_REQUEST,
        )
    return value


# ---------------------------------------------------------------------------
# Mutation payloads (op=mutate)

#: Edge-mutation op spellings accepted on the wire (PATCH-style).
MUTATION_OPS = ("insert", "+", "delete", "-")


def decode_mutations(payload: Any) -> list[tuple[str, int, int]]:
    """Decode a mutate request's ``ops`` field: a list of
    ``[op, u, v]`` triples with ``op`` one of :data:`MUTATION_OPS`.

    ``None`` decodes to the empty list (a mutate request may open a
    session without mutating it).  :class:`ProtocolError`
    (``BAD_REQUEST``) on any malformed entry.
    """
    if payload is None:
        return []
    if not isinstance(payload, (list, tuple)):
        raise ProtocolError(
            f"ops must be a list of [op, u, v] triples, "
            f"got {type(payload).__name__}",
            code=BAD_REQUEST,
        )
    mutations: list[tuple[str, int, int]] = []
    for index, row in enumerate(payload):
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise ProtocolError(
                f"ops[{index}] must be an [op, u, v] triple, got {row!r}",
                code=BAD_REQUEST,
            )
        op, u, v = row
        if op not in MUTATION_OPS:
            raise ProtocolError(
                f"ops[{index}]: unknown op {op!r}; expected one of "
                f"{MUTATION_OPS}",
                code=BAD_REQUEST,
            )
        if (
            not isinstance(u, int) or isinstance(u, bool)
            or not isinstance(v, int) or isinstance(v, bool)
        ):
            raise ProtocolError(
                f"ops[{index}]: endpoints must be integers, got {row!r}",
                code=BAD_REQUEST,
            )
        mutations.append(("insert" if op in ("insert", "+") else "delete", u, v))
    return mutations


# ---------------------------------------------------------------------------
# Cache identity


def graph_content_hash(graph: CSRGraph) -> str:
    """SHA-256 content identity of a graph.

    Hashed over the *sorted-adjacency* CSR arrays with dtypes
    normalised, so the same graph hashes identically whether it arrived
    as an edge list or CSR, int32 or int64 — while a relabeled
    isomorphic graph hashes distinctly (content, not isomorphism
    class).  Weighted and unweighted graphs of the same topology hash
    distinctly (an explicit marker plus the weight values).
    """
    g = graph if graph.sorted_adjacency else graph.with_sorted_adjacency()
    h = hashlib.sha256(b"repro-graph-v1")
    h.update(struct.pack("<q", g.num_vertices))
    # Arrays go to the hash through the buffer protocol, without a
    # ``tobytes()`` copy; only a dtype that differs is converted.
    h.update(np.ascontiguousarray(g.indptr, dtype="<i8"))
    h.update(np.ascontiguousarray(g.indices, dtype="<i8"))
    if g.has_weights:
        h.update(b"weighted")
        h.update(np.ascontiguousarray(g.arc_weights, dtype="<f8"))
    else:
        h.update(b"unweighted")
    return h.hexdigest()
