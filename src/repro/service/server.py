"""The ``repro serve`` daemon: backpressure, deadlines, result cache.

Architecture (all threads daemonic, one process)::

    accept thread(s)  --- one per listener (unix socket and/or TCP)
        |
    connection threads --- one per client; framing + request decoding,
        |                  cache lookups, response writing.  A request
        |                  that needs compute is enqueued and awaited
        |                  with its remaining deadline; the connection
        |                  thread is the *only* writer of its socket.
        v
    admission queue   --- bounded (``queue_depth``); a full queue answers
        |                  ``BUSY`` immediately (explicit backpressure,
        |                  never unbounded buffering).
        v
    dispatcher threads -- ``num_dispatchers`` of them; each runs its
                           request inline through an
                           :class:`~repro.core.session.Extractor`.  The
                           compiled kernels release the GIL, so
                           dispatchers run extractions in parallel.

Fault containment
-----------------
* **Client death** — a client that disconnects mid-request costs nothing
  but the discarded result: dispatchers never touch sockets, so the
  admission queue cannot wedge; the connection thread notices on write
  and exits.
* **Deadlines** — every request carries a deadline (its ``timeout``
  field, default ``request_timeout``).  Expiring while *queued* skips
  execution entirely; expiring mid-execution answers ``TIMEOUT`` while
  the computed result still lands in the cache (the work is not wasted).
* **Failures** — any exception inside one extraction becomes a typed
  ``INTERNAL`` error for that request alone; the server and every other
  connection carry on.
* **Shutdown** — :meth:`ReproServer.shutdown` stops admissions
  (``SHUTTING_DOWN``), drains in-flight requests through the queue's
  FIFO order and joins every thread.

Result cache
------------
Keyed by :func:`~repro.service.protocol.graph_content_hash` ×
:func:`~repro.core.config.config_cache_key` (the *resolved*
config).  A hit returns the bit-identical stored edge set without
dispatching.  A hash-only ``extract`` probe looks its key up without
the graph: a hit is answered exactly as a graph-bearing hit, a miss
with ``NOT_CACHED`` (counted as ``probe_misses``, not as a cache miss).
Entries are LRU-evicted beyond ``cache_entries`` or ``cache_bytes`` —
both ceilings hold at all times.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.config import ExtractionConfig, config_cache_key
from repro.core.session import Extractor
from repro.errors import ConfigError, ReproError
from repro.graph.csr import CSRGraph
from repro.service import protocol
from repro.service.protocol import (
    BAD_REQUEST,
    BUSY,
    INTERNAL,
    INVALID_CONFIG,
    NOT_CACHED,
    SHUTTING_DOWN,
    TIMEOUT,
    VERIFY_FAILED,
    ProtocolError,
    error_response,
)

__all__ = ["ServiceConfig", "ReproServer", "ResultCache"]

#: Socket-timeout granularity at which blocked reads/accepts poll the
#: server's stopping flag.
_POLL_SECONDS = 0.25

_QUEUE_SENTINEL = object()


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one :class:`ReproServer`, validated at construction.

    At least one listener (``socket_path`` and/or ``host``) is required.
    ``num_dispatchers`` threads execute admitted requests.
    ``dispatch_delay_s`` is a fault-injection seam: an artificial pause
    a dispatcher takes before executing each request, letting the test
    suite fill the admission queue and expire deadlines
    deterministically; it is 0 in production.
    """

    socket_path: str | None = None
    host: str | None = None
    port: int = 0
    num_dispatchers: int = 1
    queue_depth: int = 32
    request_timeout: float = 30.0
    drain_timeout: float = 10.0
    cache_entries: int = 128
    cache_bytes: int = 256 * 1024 * 1024
    max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME
    allow_remote_shutdown: bool = True
    dispatch_delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.socket_path is None and self.host is None:
            raise ConfigError(
                "ServiceConfig needs a listener: socket_path (unix) "
                "and/or host (TCP)"
            )
        for name, minimum in (
            ("num_dispatchers", 1),
            ("queue_depth", 1),
            ("cache_entries", 0),
            ("cache_bytes", 0),
        ):
            if getattr(self, name) < minimum:
                raise ConfigError(f"{name} must be >= {minimum}, got {getattr(self, name)}")
        for name in ("request_timeout", "drain_timeout"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.dispatch_delay_s < 0:
            raise ConfigError(
                f"dispatch_delay_s must be >= 0, got {self.dispatch_delay_s}"
            )


class ResultCache:
    """Thread-safe LRU cache of extracted edge sets.

    Values are stored as immutable bytes; :meth:`get` rebuilds the
    ``(k, 2)`` int64 array, so every hit is bit-identical to the stored
    answer.  Both ceilings (entry count and total byte size) hold after
    every insert; an entry larger than ``max_bytes`` is simply not
    cached.

    Each entry also carries a *verified* bit (:meth:`is_verified` /
    :meth:`mark_verified`): once an answer has passed
    ``verify_extraction`` for its (graph, config) identity, no later
    ``verify=True`` request re-runs the check — verification happens at
    most once per cached entry.  :meth:`invalidate_graph` drops every
    entry whose key belongs to one graph content hash (the targeted
    eviction behind service mutation sessions).
    """

    def __init__(self, max_entries: int, max_bytes: int) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[bytes, dict, bool]] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(
        self, key: tuple, *, count_miss: bool = True
    ) -> tuple[np.ndarray, dict] | None:
        """The stored ``(edges, meta)`` for ``key``, promoted to most
        recent, or ``None``.  ``count_miss=False`` leaves a miss out of
        ``misses`` (the server counts probe misses apart)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if count_miss:
                    self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            raw, meta, _verified = entry
        edges = np.frombuffer(raw, dtype="<i8").reshape(-1, 2)
        return edges, dict(meta)

    def put(
        self, key: tuple, edges: np.ndarray, meta: dict, *, verified: bool = False
    ) -> None:
        raw = np.ascontiguousarray(edges, dtype="<i8").tobytes()
        if len(raw) > self.max_bytes or self.max_entries == 0:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old[0])
            self._entries[key] = (raw, dict(meta), verified)
            self._bytes += len(raw)
            while (
                len(self._entries) > self.max_entries
                or self._bytes > self.max_bytes
            ):
                _, (dropped, _meta, _verified) = self._entries.popitem(last=False)
                self._bytes -= len(dropped)
                self.evictions += 1

    def is_verified(self, key: tuple) -> bool:
        """True when the entry exists and has already passed verification
        (no LRU promotion, no hit/miss accounting)."""
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry[2]

    def mark_verified(self, key: tuple) -> None:
        """Set the verified bit on an existing entry (no-op when the
        entry was evicted in the meantime)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and not entry[2]:
                self._entries[key] = (entry[0], entry[1], True)

    def invalidate_graph(self, content_hash: str) -> int:
        """Drop every entry cached for ``content_hash`` (the first key
        component); returns the number of entries evicted."""
        with self._lock:
            doomed = [k for k in self._entries if k and k[0] == content_hash]
            for k in doomed:
                raw, _meta, _verified = self._entries.pop(k)
                self._bytes -= len(raw)
                self.evictions += 1
        return len(doomed)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class _PendingRequest:
    """One admitted extraction: handoff cell between a connection thread
    (which owns the socket and the deadline) and a dispatcher (which
    owns the compute).  ``state`` transitions under ``lock``:
    ``queued -> running -> done`` or ``* -> abandoned`` (deadline
    expired / client gone); first writer wins, the other side discards.
    """

    __slots__ = ("graph", "config", "cache_key",
                 "deadline", "lock", "event", "state", "response")

    def __init__(self, graph, config, cache_key, deadline):
        self.graph: CSRGraph = graph
        self.config: ExtractionConfig = config
        self.cache_key = cache_key  # None: a no_cache request, never stored
        self.deadline: float = deadline
        self.lock = threading.Lock()
        self.event = threading.Event()
        self.state = "queued"
        self.response: dict[str, Any] | None = None


class _MutateSession:
    """Per-connection mutate session: the current graph and its answer.

    A ``mutate`` request with a ``graph`` payload opens (or replaces)
    the connection's session; later ``mutate`` requests on the same
    connection carry only edge ops, and each applied batch is answered
    by one maximalizing extraction of the new graph, run inline on the
    connection thread.  ``content_hash`` tracks the hash of
    the *current* graph so each applied batch can invalidate exactly the
    mutated graph's cache keys (targeted eviction, not a cold flush).
    Owned by a single connection thread — no locking.
    """

    __slots__ = ("extractor", "content_hash")

    def __init__(self) -> None:
        self.extractor = None  # IncrementalExtractor | None
        self.content_hash: str | None = None


class ReproServer:
    """The extraction daemon.  See the module docstring for the design.

    Use as a context manager (or call :meth:`start` / :meth:`shutdown`)::

        with ReproServer(ServiceConfig(socket_path=path)) as server:
            ...  # clients connect; shutdown drains on exit
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.cache = ResultCache(config.cache_entries, config.cache_bytes)
        self._queue: queue.Queue = queue.Queue(maxsize=config.queue_depth)
        self._listeners: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        self._conn_threads: set[threading.Thread] = set()
        self._conn_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._counters = {
            "requests": 0,
            "extractions": 0,
            "cache_hits": 0,
            # Hash-only probes answered NOT_CACHED; the resend that
            # follows each is the request counted as a cache miss.
            "probe_misses": 0,
            "dispatches": 0,
            "busy_rejections": 0,
            "timeouts": 0,
            # No request is ever retried (there is no worker team to lose
            # mid-request); the counter stays in the stats schema so
            # existing consumers keep their keys.
            "retries": 0,
            "protocol_errors": 0,
            "connections": 0,
            "verifications": 0,
            "mutations": 0,
            "cache_invalidations": 0,
            "kernel_native": 0,
            "kernel_numpy": 0,
        }
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._started = False
        self._tcp_address: tuple[str, int] | None = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ReproServer":
        """Bind listeners, start dispatchers and acceptors."""
        if self._stopping.is_set():
            raise ReproError("ReproServer cannot be restarted after shutdown")
        if self._started:
            return self
        self._started = True
        cfg = self.config
        if cfg.socket_path is not None:
            path = cfg.socket_path
            if os.path.exists(path):
                os.unlink(path)  # stale socket from a dead server
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(path)
            self._listeners.append(listener)
        if cfg.host is not None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((cfg.host, cfg.port))
            self._tcp_address = listener.getsockname()
            self._listeners.append(listener)
        for listener in self._listeners:
            listener.listen(64)
            listener.settimeout(_POLL_SECONDS)
            thread = threading.Thread(
                target=self._accept_loop,
                args=(listener,),
                daemon=True,
                name="repro-serve-accept",
            )
            thread.start()
            self._threads.append(thread)
        for idx in range(cfg.num_dispatchers):
            thread = threading.Thread(
                target=self._dispatch_loop,
                daemon=True,
                name=f"repro-serve-dispatch-{idx}",
            )
            thread.start()
            self._threads.append(thread)
        return self

    @property
    def tcp_address(self) -> tuple[str, int] | None:
        """The bound ``(host, port)`` when a TCP listener is up."""
        return self._tcp_address

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`shutdown` completes."""
        self.start()
        self._stopping.wait()
        self.shutdown()
        self._stopped.wait()

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to drain and stop.  Safe to call
        from a signal handler (just sets an event)."""
        self._stopping.set()

    def shutdown(self) -> None:
        """Graceful stop: refuse new work, drain in-flight, join threads.

        Idempotent and callable from any thread (including a connection
        thread serving a ``shutdown`` op — joins skip the caller).
        """
        self._stopping.set()
        with self._shutdown_lock:
            if self._stopped.is_set():
                return
            for listener in self._listeners:
                try:
                    listener.close()
                except OSError:
                    pass
            # FIFO sentinels: every request admitted before shutdown is
            # executed (drained) before its dispatcher sees the sentinel.
            deadline = time.monotonic() + self.config.drain_timeout
            for _ in range(self.config.num_dispatchers):
                try:
                    self._queue.put(
                        _QUEUE_SENTINEL,
                        timeout=max(0.1, deadline - time.monotonic()),
                    )
                except queue.Full:  # pragma: no cover - drain overrun
                    break
            me = threading.current_thread()
            for thread in self._threads:
                if thread is not me:
                    thread.join(timeout=max(0.5, deadline - time.monotonic()))
            with self._conn_lock:
                conns = list(self._conn_threads)
            for thread in conns:
                if thread is not me:
                    thread.join(timeout=2 * _POLL_SECONDS + 1.0)
            if self.config.socket_path and os.path.exists(self.config.socket_path):
                try:
                    os.unlink(self.config.socket_path)
                except OSError:  # pragma: no cover - already gone
                    pass
            self._stopped.set()

    def close(self) -> None:
        """Alias for :meth:`shutdown` (context-manager symmetry)."""
        self.shutdown()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            if self._started and not self._stopped.is_set():
                self.shutdown()
        except Exception:
            pass

    # -- stats ----------------------------------------------------------

    def _bump(self, name: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._counters[name] += amount

    def stats(self) -> dict[str, Any]:
        """A point-in-time counter snapshot (also served as op=stats)."""
        with self._stats_lock:
            counters = dict(self._counters)
        counters["dispatchers"] = self.config.num_dispatchers
        counters["queue_depth"] = self._queue.qsize()
        counters["queue_capacity"] = self.config.queue_depth
        counters["cache"] = self.cache.stats()
        counters["stopping"] = self._stopping.is_set()
        return counters

    # -- accept / connection handling -----------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = listener.accept()
            except TimeoutError:
                continue
            except OSError:  # listener closed by shutdown
                return
            self._bump("connections")
            thread = threading.Thread(
                target=self._connection_loop,
                args=(conn,),
                daemon=True,
                name="repro-serve-conn",
            )
            with self._conn_lock:
                self._conn_threads.add(thread)
            thread.start()

    def _connection_loop(self, conn: socket.socket) -> None:
        conn.settimeout(_POLL_SECONDS)
        session = _MutateSession()
        try:
            while not self._stopping.is_set():
                try:
                    request = protocol.recv_message(
                        conn,
                        max_frame=self.config.max_frame_bytes,
                        stop=self._stopping.is_set,
                    )
                except ProtocolError as exc:
                    # One typed error frame, then hang up: the stream is
                    # unsynchronised, so no further frame is trustworthy.
                    self._bump("protocol_errors")
                    self._send(conn, error_response(exc.code, str(exc)))
                    return
                except OSError:  # client reset the connection
                    return
                if request is None:  # clean EOF
                    return
                self._bump("requests")
                response = self._handle_request(request, session)
                if response is None:  # shutdown op: reply sent inside
                    return
                if not self._send(conn, response):
                    return
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            with self._conn_lock:
                self._conn_threads.discard(threading.current_thread())

    def _send(self, conn: socket.socket, message: dict[str, Any]) -> bool:
        """Write one response; False when the client is gone (the only
        consequence of a dead client is its own lost response).

        Writes run under a generous timeout (reads keep the short poll
        interval): a client legitimately draining a large frame must not
        be mistaken for a dead one, while a wedged client cannot pin the
        connection thread forever.
        """
        try:
            conn.settimeout(30.0)
            protocol.send_message(
                conn, message, max_frame=self.config.max_frame_bytes
            )
            return True
        except (OSError, ProtocolError):
            return False
        finally:
            try:
                conn.settimeout(_POLL_SECONDS)
            except OSError:  # pragma: no cover - socket died post-send
                pass

    # -- request handling ------------------------------------------------

    def _handle_request(
        self,
        request: dict[str, Any],
        session: _MutateSession | None = None,
    ) -> dict[str, Any] | None:
        try:
            op = request.get("op")
            if op == "ping":
                from repro import __version__

                return {
                    "ok": True,
                    "pong": True,
                    "version": __version__,
                    "protocol": protocol.PROTOCOL_VERSION,
                }
            if op == "stats":
                return {"ok": True, "stats": self.stats()}
            if op == "shutdown":
                return self._handle_shutdown()
            if op == "extract":
                return self._handle_extract(request)
            if op == "mutate":
                return self._handle_mutate(
                    request, session if session is not None else _MutateSession()
                )
            return error_response(
                BAD_REQUEST,
                f"unknown op {op!r}; expected one of "
                "('ping', 'stats', 'extract', 'mutate', 'shutdown')",
            )
        except ProtocolError as exc:
            return error_response(exc.code, str(exc))
        except Exception as exc:  # noqa: BLE001 - no tracebacks on the wire
            return error_response(
                INTERNAL, f"{type(exc).__name__}: {exc}"
            )

    def _handle_shutdown(self) -> dict[str, Any] | None:
        if not self.config.allow_remote_shutdown:
            return error_response(
                BAD_REQUEST, "remote shutdown is disabled on this server"
            )
        # Tear down on a helper thread: shutdown() joins connection
        # threads, and this *is* one.  The response goes out first.
        threading.Thread(
            target=self.shutdown, daemon=True, name="repro-serve-shutdown"
        ).start()
        return {"ok": True, "stopping": True}

    def _handle_extract(self, request: dict[str, Any]) -> dict[str, Any]:
        if self._stopping.is_set():
            return error_response(
                SHUTTING_DOWN, "server is draining; no new requests admitted"
            )
        unknown = set(request) - {
            "op", "graph", "hash", "config", "timeout", "verify", "no_cache"
        }
        if unknown:
            return error_response(
                BAD_REQUEST, f"unknown request field(s) {sorted(unknown)}"
            )
        if "hash" in request:
            return self._handle_probe(request)
        if "graph" not in request:
            return error_response(
                BAD_REQUEST, "extract needs a 'graph' payload or a 'hash'"
            )
        graph = protocol.decode_graph(request["graph"])
        config = protocol.decode_config(request.get("config"))
        timeout = protocol.decode_timeout(
            request.get("timeout"), self.config.request_timeout
        )
        verify = bool(request.get("verify", False))

        # The resolved regime is part of the cache identity; the graph's
        # content hash is computed only when the cache is consulted.
        resolved = config.resolved()
        cache_key = None
        if not request.get("no_cache", False):
            cache_key = (
                protocol.graph_content_hash(graph), config_cache_key(resolved)
            )
            hit = self.cache.get(cache_key)
            if hit is not None:
                edges, meta = hit
                self._bump("cache_hits")
                # Verify-once: the verified bit lives with the entry, so
                # repeat hits never re-run verify_extraction.
                if verify and not self.cache.is_verified(cache_key):
                    failure = self._verify_failure(graph, edges, resolved)
                    if failure is not None:
                        return failure
                    self.cache.mark_verified(cache_key)
                response = self._success(resolved, edges, meta, served_by="cache")
                if verify:
                    response["verified"] = True
                return response

        pending = _PendingRequest(
            graph, resolved, cache_key, time.monotonic() + timeout
        )
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            self._bump("busy_rejections")
            return error_response(
                BUSY,
                f"admission queue full ({self.config.queue_depth} deep); "
                "retry later or raise --queue-depth",
            )
        remaining = pending.deadline - time.monotonic()
        pending.event.wait(timeout=max(0.0, remaining))
        with pending.lock:
            if pending.state == "done":
                response = pending.response
            else:
                pending.state = "abandoned"
                response = None
        if response is None:
            self._bump("timeouts")
            return error_response(
                TIMEOUT, f"request exceeded its {timeout:g}s deadline"
            )
        if response.get("ok") and verify:
            # A concurrent request for the same (graph, config) may have
            # verified the freshly cached entry already; only verify when
            # the entry (if any) does not carry the bit yet.
            if not (
                pending.cache_key is not None
                and self.cache.is_verified(pending.cache_key)
            ):
                failure = self._verify_failure(
                    graph, protocol.decode_edges(response), resolved
                )
                if failure is not None:
                    return failure
                if pending.cache_key is not None:
                    self.cache.mark_verified(pending.cache_key)
            response = dict(response)
            response["verified"] = True
        return response

    def _handle_probe(self, request: dict[str, Any]) -> dict[str, Any]:
        """A hash-only extract: the cached answer for ``(hash, config)``
        or ``NOT_CACHED``; never a dispatch, and no graph to check."""
        clashing = sorted({"graph", "no_cache"} & set(request))
        if clashing:
            return error_response(
                BAD_REQUEST,
                f"a 'hash' probe is a cache lookup; it cannot carry {clashing}",
            )
        content_hash = protocol.decode_content_hash(request["hash"])
        resolved = protocol.decode_config(request.get("config")).resolved()
        protocol.decode_timeout(request.get("timeout"), self.config.request_timeout)
        verify = bool(request.get("verify", False))
        cache_key = (content_hash, config_cache_key(resolved))
        # No graph to verify with: a verified probe is answered only from
        # an entry that already carries the bit (checked first, so an
        # unverified entry counts one hit, on the resend that verifies it).
        hit = None
        if not verify or self.cache.is_verified(cache_key):
            hit = self.cache.get(cache_key, count_miss=False)
        if hit is None:
            self._bump("probe_misses")
            return error_response(
                NOT_CACHED,
                "no " + ("verified " if verify else "")
                + "cached answer for this graph and config; resend with the graph",
            )
        edges, meta = hit
        self._bump("cache_hits")
        response = self._success(resolved, edges, meta, served_by="cache")
        if verify:
            response["verified"] = True
        return response

    def _handle_mutate(
        self, request: dict[str, Any], session: _MutateSession
    ) -> dict[str, Any]:
        """PATCH-style mutation, answered by re-extraction.

        ``{"op": "mutate", "graph": ...}`` opens (or replaces) the
        connection's session; ``{"op": "mutate", "ops": [[op, u, v],
        ...]}`` mutates it.  Both may be combined in one request.  The
        answer is the maximalizing extraction of the current graph under
        the session's config, bit-identical to an ``extract`` request
        with ``maximalize`` on.  Each applied batch evicts exactly the
        *pre-mutation* graph's cache keys (its content is no longer this
        session's graph), leaving unrelated entries warm; a rejected op
        leaves the ops before it applied.
        """
        if self._stopping.is_set():
            return error_response(
                SHUTTING_DOWN, "server is draining; no new requests admitted"
            )
        unknown = set(request) - {"op", "graph", "config", "ops", "verify"}
        if unknown:
            return error_response(
                BAD_REQUEST, f"unknown request field(s) {sorted(unknown)}"
            )
        ops = protocol.decode_mutations(request.get("ops"))
        verify = bool(request.get("verify", False))
        if "graph" in request:
            graph = protocol.decode_graph(request["graph"])
            config = protocol.decode_config(request.get("config"))
            from repro.core.incremental import IncrementalExtractor

            try:
                session.extractor = IncrementalExtractor(graph, config=config)
            except ConfigError as exc:
                session.extractor = None
                session.content_hash = None
                return error_response(INVALID_CONFIG, str(exc))
            session.content_hash = protocol.graph_content_hash(graph)
            opened = True
        else:
            if "config" in request:
                return error_response(
                    BAD_REQUEST,
                    "'config' is only accepted when opening a mutate "
                    "session with a 'graph' payload",
                )
            if session.extractor is None:
                return error_response(
                    BAD_REQUEST,
                    "no open mutate session on this connection; send a "
                    "'graph' payload first",
                )
            opened = False
        applied = None
        invalidated = 0
        if ops:
            stats = session.extractor.stats
            before = stats["inserts"] + stats["deletes"]
            try:
                applied = session.extractor.apply_batch(ops)
            except ValueError as exc:
                # Ops before the offending one were applied: count them
                # and keep the cache coherent with the session graph
                # before bailing.
                self._bump("mutations", stats["inserts"] + stats["deletes"] - before)
                invalidated = self._invalidate_session(session)
                response = error_response(BAD_REQUEST, f"mutation rejected: {exc}")
                response["invalidated"] = invalidated
                return response
            self._bump("mutations", applied["applied"])
            invalidated = self._invalidate_session(session)
        edges = session.extractor.edges
        response = {
            "ok": True,
            "session": "opened" if opened else "continued",
            "num_vertices": session.extractor.num_vertices,
            "num_graph_edges": session.extractor.num_edges,
            "applied": applied,
            "invalidated": invalidated,
            "content_hash": session.content_hash,
            **protocol.encode_edges(edges),
        }
        if verify:
            from repro.chordality.verify import verify_extraction

            self._bump("verifications")
            report = verify_extraction(
                session.extractor.graph, edges, check_maximal=True
            )
            if not report.ok:
                return error_response(VERIFY_FAILED, str(report))
            response["verified"] = True
        return response

    def _invalidate_session(self, session: _MutateSession) -> int:
        """Evict the session's pre-mutation cache keys and rehash."""
        evicted = 0
        if session.content_hash is not None:
            evicted = self.cache.invalidate_graph(session.content_hash)
            if evicted:
                self._bump("cache_invalidations", evicted)
        session.content_hash = protocol.graph_content_hash(
            session.extractor.graph
        )
        return evicted

    def _success(
        self,
        resolved: ExtractionConfig,
        edges: np.ndarray,
        meta: dict[str, Any],
        *,
        served_by: str,
    ) -> dict[str, Any]:
        return {
            "ok": True,
            "cached": served_by == "cache",
            "served_by": served_by,
            "engine": resolved.engine,
            "schedule": resolved.schedule,
            **meta,
            **protocol.encode_edges(edges),
        }

    def _verify_failure(
        self, graph: CSRGraph, edges: np.ndarray, resolved: ExtractionConfig
    ) -> dict[str, Any] | None:
        from repro.chordality.verify import verify_extraction

        self._bump("verifications")
        report = verify_extraction(
            graph, edges, check_maximal=resolved.maximalize
        )
        if report.ok:
            return None
        return error_response(VERIFY_FAILED, str(report))

    # -- dispatchers -----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            pending = self._queue.get()
            if pending is _QUEUE_SENTINEL:
                return
            with pending.lock:
                if pending.state == "abandoned":  # expired while queued
                    continue
                pending.state = "running"
            if self.config.dispatch_delay_s:
                time.sleep(self.config.dispatch_delay_s)
            response = self._execute(pending)
            with pending.lock:
                if pending.state == "running":
                    pending.response = response
                    pending.state = "done"
                    pending.event.set()
                # else: abandoned mid-run — result discarded (but cached).

    def _execute(self, pending: _PendingRequest) -> dict[str, Any]:
        self._bump("dispatches")
        try:
            with Extractor(pending.config) as extractor:
                result = extractor.extract(pending.graph)
        except ProtocolError as exc:
            return error_response(exc.code, str(exc))
        except Exception as exc:  # noqa: BLE001 - no tracebacks on the wire
            return error_response(INTERNAL, f"{type(exc).__name__}: {exc}")
        self._bump("extractions")
        self._bump(f"kernel_{result.kernel_path}")
        meta = {
            "num_iterations": result.num_iterations,
            "maximality_gap": result.maximality_gap,
            "stitched_bridges": result.stitched_bridges,
            "kernel_path": result.kernel_path,
        }
        if pending.cache_key is not None:
            self.cache.put(pending.cache_key, result.edges, meta)
        return self._success(pending.config, result.edges, meta, served_by="inline")
