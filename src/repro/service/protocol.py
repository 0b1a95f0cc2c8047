"""Wire protocol for the extraction service.

Framing
-------
Every message is one *frame*: an 8-byte header — the 4-byte magic
``RPX1`` plus a big-endian ``uint32`` payload length — followed by the
payload, a UTF-8 JSON object.  The magic makes garbage input fail on the
first 4 bytes instead of being misread as an absurd length; the length
prefix is bounded by ``max_frame`` so a hostile prefix can never make the
server allocate unbounded memory.  Any framing violation (bad magic,
oversized length, connection closed mid-frame, payload that is not a
JSON object) raises :class:`ProtocolError` with code ``BAD_FRAME``; the
server answers with exactly one typed error frame and closes the
connection — never a hang, never a traceback over the wire.

Requests (client -> server), one JSON object each::

    {"op": "ping"}
    {"op": "stats"}
    {"op": "shutdown"}
    {"op": "extract", "graph": <graph>, "config": {...}, "timeout": 5.0,
     "verify": false, "no_cache": false}
    {"op": "mutate", "graph": <graph>?, "config": {...}?,
     "ops": [["insert", 0, 1], ["delete", 2, 3], ...]?, "verify": false}

``mutate`` is PATCH-style: a request carrying ``graph`` opens (or
replaces) the connection's mutate session (``config`` is only legal
there); later requests on the same connection carry only ``ops`` (see
:func:`decode_mutations`).  Each answer is the maximalizing extraction
of the session's current graph.  Every applied batch invalidates
exactly the pre-mutation graph's cache keys on the server.

Graph payloads come in two interchangeable shapes (see
:func:`encode_graph` / :func:`decode_graph`):

* inline edge list — ``{"n": 4, "edges": [[0, 1], ...],
  "weights": [1.5, ...]?}`` (weights parallel to ``edges``);
* CSR arrays — ``{"csr": {"n": ..., "indptr": <b64>, "indices": <b64>,
  "sorted": true, "weights": <b64>?}}`` with arrays base64-encoded
  little-endian ``int64`` (weights ``float64``), zero-copy on decode.

Responses are ``{"ok": true, ...}`` or a *typed* error
``{"ok": false, "error": {"code": <ERROR_CODES>, "message": ...}}``.
Extraction responses return the edge set base64-encoded
(:func:`encode_edges`), plus ``cached`` / ``served_by`` /
``num_iterations`` metadata.

Content hashing
---------------
:func:`graph_content_hash` is the cache identity of a graph: SHA-256
over the sorted-adjacency CSR arrays (dtype-normalised, so the same
graph hashes identically however it was shipped) plus a
weighted/unweighted marker and the weight values — a relabeled
isomorphic graph, or the same topology with different (or no) weights,
hashes distinctly.  :func:`config_cache_key` is the companion identity
of a *resolved* :class:`~repro.core.config.ExtractionConfig`.
"""

from __future__ import annotations

import base64
import hashlib
import json
import socket
import struct
from typing import Any, Callable

import numpy as np

from repro.core.config import ExtractionConfig
from repro.errors import ConfigError, GraphFormatError, ReproError
from repro.graph.builder import build_graph
from repro.graph.csr import CSRGraph
from repro.graph.weights import attach_edge_weights

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME",
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
    "graph_content_hash",
    "config_cache_key",
]

#: Frame magic; bump the digit when the wire format changes incompatibly.
MAGIC = b"RPX1"

PROTOCOL_VERSION = 1

#: 8-byte frame header: magic + big-endian uint32 payload length.
HEADER = struct.Struct("!4sI")

#: Default per-frame payload ceiling (64 MiB ~ a scale-22 CSR payload).
DEFAULT_MAX_FRAME = 64 * 1024 * 1024

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
) -> bytes | None:
    """Read exactly ``n`` bytes.

    Returns ``None`` on a clean end before the first byte (peer closed
    at a frame boundary, or ``stop()`` turned true while idle); raises
    :class:`ProtocolError` (``BAD_FRAME``) when the connection ends —
    or ``stop()`` fires — with a partial read, which is a truncated
    frame.  Socket timeouts are used purely as a polling interval for
    ``stop``; without ``stop`` they propagate to the caller.
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
        buf.extend(chunk)
    return bytes(buf)


def read_frame(
    sock: socket.socket,
    *,
    max_frame: int = DEFAULT_MAX_FRAME,
    stop: Callable[[], bool] | None = None,
) -> bytes | None:
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
    sock: socket.socket, payload: bytes, *, max_frame: int = DEFAULT_MAX_FRAME
) -> None:
    """Write one frame (header + payload) in a single ``sendall``."""
    if len(payload) > max_frame:
        raise ProtocolError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(> {max_frame}-byte ceiling)"
        )
    sock.sendall(HEADER.pack(MAGIC, len(payload)) + payload)


def recv_message(
    sock: socket.socket,
    *,
    max_frame: int = DEFAULT_MAX_FRAME,
    stop: Callable[[], bool] | None = None,
) -> dict[str, Any] | None:
    """Read one frame and decode its JSON-object payload.

    ``None`` on clean end-of-stream; :class:`ProtocolError`
    (``BAD_FRAME``) on framing violations or a payload that is not a
    JSON object.
    """
    payload = read_frame(sock, max_frame=max_frame, stop=stop)
    if payload is None:
        return None
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


def send_message(
    sock: socket.socket,
    message: dict[str, Any],
    *,
    max_frame: int = DEFAULT_MAX_FRAME,
) -> None:
    """JSON-encode ``message`` and send it as one frame."""
    write_frame(
        sock,
        json.dumps(message, separators=(",", ":")).encode("utf-8"),
        max_frame=max_frame,
    )


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


def _b64(array: np.ndarray, dtype: str) -> str:
    return base64.b64encode(
        np.ascontiguousarray(array, dtype=dtype).tobytes()
    ).decode("ascii")


def _from_b64(text: Any, dtype: str, what: str) -> np.ndarray:
    if not isinstance(text, str):
        raise ProtocolError(f"{what} must be a base64 string", code=BAD_GRAPH)
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise ProtocolError(f"{what} is not valid base64: {exc}", code=BAD_GRAPH)
    item = np.dtype(dtype).itemsize
    if len(raw) % item:
        raise ProtocolError(
            f"{what}: byte length {len(raw)} is not a multiple of {item}",
            code=BAD_GRAPH,
        )
    return np.frombuffer(raw, dtype=dtype)


def encode_graph(graph: CSRGraph, *, binary: bool = True) -> dict[str, Any]:
    """Encode a graph for the wire.

    ``binary=True`` (default) ships the CSR arrays base64-encoded —
    compact and decoded zero-copy; ``binary=False`` ships a plain JSON
    edge list, handy for hand-written requests and debugging.
    """
    if binary:
        csr: dict[str, Any] = {
            "n": graph.num_vertices,
            "indptr": _b64(graph.indptr, "<i8"),
            "indices": _b64(graph.indices, "<i8"),
            "sorted": bool(graph.sorted_adjacency),
        }
        if graph.has_weights:
            csr["weights"] = _b64(graph.arc_weights, "<f8")
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
    indptr = _from_b64(csr.get("indptr"), "<i8", "csr.indptr")
    indices = _from_b64(csr.get("indices"), "<i8", "csr.indices")
    n = csr.get("n", indptr.size - 1)
    if not isinstance(n, int) or n != indptr.size - 1:
        raise ProtocolError(
            f"csr.n ({n!r}) must equal len(indptr) - 1 ({indptr.size - 1})",
            code=BAD_GRAPH,
        )
    weights = None
    if "weights" in csr:
        weights = _from_b64(csr["weights"], "<f8", "csr.weights")
    try:
        graph = CSRGraph(
            indptr,
            indices,
            sorted_adjacency=bool(csr.get("sorted", False)),
            validate=True,
            arc_weights=weights,
        )
        graph.validate_symmetry()
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
    if not isinstance(n, int) or n < 0:
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
    """Encode an extracted ``(k, 2)`` edge set for a response."""
    e = np.ascontiguousarray(np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    return {"edges_b64": _b64(e, "<i8"), "num_edges": int(e.shape[0])}


def decode_edges(payload: dict[str, Any]) -> np.ndarray:
    """Decode :func:`encode_edges` output back into a ``(k, 2)`` array."""
    flat = _from_b64(payload.get("edges_b64"), "<i8", "edges_b64")
    if flat.size % 2:
        raise ProtocolError(
            f"edges_b64 holds {flat.size} int64s (odd — not (k, 2) rows)"
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
    h.update(np.ascontiguousarray(g.indptr, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(g.indices, dtype="<i8").tobytes())
    if g.has_weights:
        h.update(b"weighted")
        h.update(np.ascontiguousarray(g.arc_weights, dtype="<f8").tobytes())
    else:
        h.update(b"unweighted")
    return h.hexdigest()


def config_cache_key(config: ExtractionConfig) -> tuple:
    """Cache identity of a *resolved* config — every field that can
    change the answer (or its provenance).  Two requests spelling the
    same regime differently (``schedule=None`` vs the engine's explicit
    default) share a key; any differing resolved field is a miss.
    ``variant`` is not part of it: it changes only trace costs, never
    the edge set, so keying on it would split identical answers."""
    return (
        config.engine,
        config.schedule,
        config.num_threads,
        config.renumber,
        config.stitch,
        config.maximalize,
        config.max_iterations,
    )
