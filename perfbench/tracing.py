"""The traced run: per-layer self time and counts for one workload.

The run is in-process and separate from the end-to-end run (which has
tracing off).  It calls each layer's public functions from here, in the
order the CLI and the session call them, and records a span around each
call: name, start, end, parent span and operation id.  Spans stay in
memory and are written to ``.perfbench-work/traces/`` when the run ends.
A layer's self time is its span minus its child spans, so for every
operation the layers' self times plus ``trace.unattributed_s`` (the root
span's own self time) add up to the operation's wall time exactly.

Layers a workload does not run are measured on a small probe built from
the same seed, so every per-layer metric is present on every workload;
the report marks which figures came from a probe.

The body/driver split re-drives each graph through
:func:`repro.core.runtime.driver.drive` with a delegating executor that
times ``run_round`` / ``map``.  It needs the default engine to be a
``backend_run_fn`` pairing of a state and an executor this module knows;
anything else raises :class:`TraceSplitError` instead of attributing
time to the wrong layer.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from harness import (
    WORK,
    Op,
    OutputChecker,
    canonical_edges,
    edge_digest,
    fresh_dir,
    median,
    percentile,
    run_child,
)

#: Pairings whose body and driver the split knows how to separate.
KNOWN_STATES = ("LocalState",)
KNOWN_EXECUTORS = ("SerialExecutor",)

class TraceSplitError(RuntimeError):
    """The default engine is not a pairing the traced run can split."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class Tracer:
    """In-memory span recorder; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self._op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one operation; spans inside share its id."""
        self._op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    def op_ids(self) -> list[int]:
        return sorted({s.op for s in self.spans if s.op is not None})

    def self_times(self, op_id: int) -> tuple[float, dict[str, float]]:
        """``(wall, {layer: self time})`` of one operation; the root's
        own self time is reported as ``unattributed``."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.op == op_id]
        child_time: dict[int, float] = {}
        for _, s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start
        selfs: dict[str, float] = {}
        wall = 0.0
        for i, s in spans:
            own = s.end - s.start - child_time.get(i, 0.0)
            name = "unattributed" if s.name == "op" else s.name
            selfs[name] = selfs.get(name, 0.0) + own
            if s.name == "op":
                wall = s.end - s.start
        return wall, selfs

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


# ---------------------------------------------------------------------------
# Body / driver split of the default engine


class TimedExecutor:
    """Delegates to an executor, timing ``run_round`` and ``map``."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.exec_s = 0.0

    def run_round(self, state, schedule: str) -> None:
        start = time.perf_counter()
        try:
            self._inner.run_round(state, schedule)
        finally:
            self.exec_s += time.perf_counter() - start

    def map(self, body) -> None:
        start = time.perf_counter()
        try:
            self._inner.map(body)
        finally:
            self.exec_s += time.perf_counter() - start

    def close(self) -> None:
        self._inner.close()

    def __getattr__(self, name):
        return getattr(self._inner, name)


def split_pairing(spec):
    """``(state_factory, executor_factory)`` of a ``backend_run_fn`` engine."""
    fn = getattr(spec, "run_fn", None)
    if (
        fn is None
        or getattr(fn, "__module__", "") != "repro.core.runtime.driver"
        or getattr(fn, "__qualname__", "") != "backend_run_fn.<locals>.run_fn"
    ):
        raise TraceSplitError(
            f"default engine {spec.name!r} is not a backend_run_fn pairing; the "
            "traced run cannot split its round bodies from its driver"
        )
    cells = dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))
    return cells["state_factory"], cells["executor_factory"]


def redrive(graph, cfg) -> dict:
    """Re-run the default engine's pairing with the executor timed."""
    from repro.core.runtime.driver import drive

    state_factory, executor_factory = split_pairing(cfg.engine_spec)
    executor = executor_factory(cfg)
    try:
        if type(executor).__name__ not in KNOWN_EXECUTORS:
            raise TraceSplitError(
                f"default engine {cfg.engine!r} runs on {type(executor).__name__}, "
                f"not one of {KNOWN_EXECUTORS}; teach the traced run to split it"
            )
        start = time.perf_counter()
        state = state_factory(graph, executor.num_slices, cfg)
        built = time.perf_counter()
        if type(state).__name__ not in KNOWN_STATES:
            raise TraceSplitError(
                f"default engine {cfg.engine!r} builds {type(state).__name__}, "
                f"not one of {KNOWN_STATES}; teach the traced run to split it"
            )
        timed = TimedExecutor(executor)
        edges, queue_sizes, _ = drive(
            state, timed, schedule=cfg.schedule, variant=cfg.variant,
            collect_trace=cfg.collect_trace, cost_params=cfg.cost_params,
            max_iterations=cfg.max_iterations,
        )
        done = time.perf_counter()
    finally:
        executor.close()
    return {
        "core.runtime.init_s": built - start,
        "core.runtime.drive_s": done - built,
        "core.runtime.exec_s": timed.exec_s,
        "core.runtime.driver_self_s": done - built - timed.exec_s,
        "core.runtime.iterations": len(queue_sizes),
        "core.runtime.queue_total": int(sum(queue_sizes)),
        "core.runtime.accepted": int(edges.shape[0]),
    }


def replica_extract(graph, cfg, tracer: Tracer) -> tuple[np.ndarray, dict]:
    """``Extractor(cfg).extract(graph).edges``, one layer call at a time."""
    from repro.core.maximalize import maximalize_chordal_edges

    if cfg.renumber or cfg.stitch or graph.has_weights or cfg.engine_spec.supports_pool:
        raise TraceSplitError(
            f"the session replica covers the default path only, not {cfg!r}"
        )
    counts: dict = {}
    with tracer.span("core.session"):
        with tracer.span("core.runtime"):
            edges, _queue_sizes, _trace = cfg.engine_spec.run(graph, cfg, None)
        if cfg.maximalize:
            counts["core.maximalize.candidates"] = graph.num_edges - int(edges.shape[0])
            with tracer.span("core.maximalize"):
                edges, gap = maximalize_chordal_edges(graph, edges)
            counts["core.maximalize.added"] = gap
        edges = canonical_edges(edges)
    return edges, counts


# ---------------------------------------------------------------------------
# Operation replicas


def cli_op(path: Path, out: Path, cfg, tracer: Tracer, *, verify: bool,
           maximal: bool) -> tuple[object, np.ndarray, dict]:
    """``repro extract PATH -o OUT [--maximalize --verify]`` in process."""
    from repro.chordality.maximality import addable_edges
    from repro.chordality.verify import verify_extraction
    from repro.graph.builder import from_edge_array
    from repro.graph.io import load_graph, save_graph
    from repro.graph.ops import edge_subgraph

    with tracer.span("graph.io.load"):
        graph = load_graph(path)
    edges, counts = replica_extract(graph, cfg, tracer)
    if verify:
        with tracer.span("chordality.verify.chordal"):
            ok = verify_extraction(graph, edges, check_maximal=False).ok
        if maximal:
            with tracer.span("chordality.verify.maximal"):
                ok = ok and not addable_edges(
                    graph, from_edge_array(graph.num_vertices, edges), limit=3
                )
        counts["verified"] = ok
    with tracer.span("graph.io.save"):
        save_graph(edge_subgraph(graph, edges), out)
    return graph, edges, counts


def sharded_op(path: Path, spill: Path, out: Path, tracer: Tracer) -> tuple[np.ndarray, dict]:
    """``repro extract PATH --sharded --shards 4 --spill-dir D --verify``."""
    from repro.graph.io import save_graph
    from repro.shard import build_plan, certify_stitched, run_shards, stitch_shards

    with tracer.span("shard.plan"):
        plan, _reused = build_plan(path, 4, spill)
    with tracer.span("shard.run"):
        stats = run_shards(plan, verify=True)
    with tracer.span("shard.stitch"):
        result = stitch_shards(plan)
    with tracer.span("shard.certify"):
        problems = certify_stitched(result)
    with tracer.span("graph.io.save"):
        save_graph(result.subgraph(), out)
    counts = {
        "shard.plan.boundary_pairs": plan.boundary_count,
        "shard.run.slowest_shard_s": max(s.seconds for s in stats),
        "shard.stitch.rounds": result.rounds,
        "shard.stitch.admit_ratio": (
            result.admitted_boundary / result.boundary_edges if result.boundary_edges else 0.0
        ),
        "problems": problems,
    }
    return result.edges, counts


# ---------------------------------------------------------------------------
# Collection helpers


class LayerMetrics:
    """Per-layer figures plus where each came from (workload or probe)."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.source: dict[str, str] = {}
        self._samples: dict[str, list[float]] = {}

    def add(self, name: str, value: float) -> None:
        self._samples.setdefault(name, []).append(float(value))

    def settle(self, source: str) -> None:
        """Median the pending samples into values not yet measured."""
        for name, samples in self._samples.items():
            if name not in self.values:
                self.values[name] = median(samples)
                self.source[name] = source
        self._samples = {}


#: Span name -> per-layer metric of its self time.
SPAN_METRICS = {
    "graph.io.load": "graph.io.load_s",
    "graph.io.save": "graph.io.save_s",
    "core.session": "core.session.self_s",
    "core.maximalize": "core.maximalize.time_s",
    "chordality.verify.chordal": "chordality.verify.chordal_s",
    "chordality.verify.maximal": "chordality.verify.maximal_s",
    "shard.plan": "shard.plan_s",
    "shard.run": "shard.run_s",
    "shard.stitch": "shard.stitch_s",
    "shard.certify": "shard.certify_s",
}


def collect_op(tracer: Tracer, op_id: int, lm: LayerMetrics) -> float:
    """Fold one traced operation into ``lm``; returns its wall time."""
    wall, selfs = tracer.self_times(op_id)
    residual = wall - sum(selfs.values())
    if abs(residual) > 1e-6:
        raise AssertionError(f"op {op_id}: self times miss its wall by {residual:.3g} s")
    lm.add("trace.unattributed_s", selfs.get("unattributed", 0.0))
    for span_name, metric in SPAN_METRICS.items():
        if span_name in selfs:
            lm.add(metric, selfs[span_name])
    if "core.session" in selfs:
        session = [s for s in tracer.spans if s.op == op_id and s.name == "core.session"]
        lm.add("core.session.extract_s", sum(s.end - s.start for s in session))
    return wall


def cli_startup(ws: Path, lm: LayerMetrics, repeats: int = 3) -> None:
    for i in range(repeats):
        child = run_child([sys.executable, "-c", "import repro.cli"],
                          stderr_path=ws / f"startup-{i}.err")
        if child.returncode != 0:
            raise RuntimeError(f"importing repro.cli failed: {child.stderr.strip()}")
        lm.add("cli.startup_s", child.wall_s)


# ---------------------------------------------------------------------------
# Per-workload traced paths


def trace_cli_path(paths: dict, keys: list[str], ws: Path, lm: LayerMetrics, *,
                   maximalize: bool, verify: bool, checker: OutputChecker,
                   ops: list[Op], tracer: Tracer, source: str,
                   reference: dict | None = None) -> list[float]:
    """Traced (and untraced, for the overhead) replicas of the CLI op on
    each input; returns the traced walls minus the untraced walls."""
    from repro.core.config import ExtractionConfig

    cfg = ExtractionConfig(maximalize=maximalize).resolved()
    overhead = []
    for key in keys:
        out = ws / f"{key}.replica.txt"
        gc.collect()
        start = time.perf_counter()
        cli_op(paths[key], out, cfg, Tracer(enabled=False), verify=verify,
               maximal=maximalize)
        untraced = time.perf_counter() - start
        op_id = len(tracer.op_ids())
        gc.collect()
        with tracer.op(op_id):
            graph, edges, counts = cli_op(paths[key], out, cfg, tracer, verify=verify,
                                          maximal=maximalize)
        wall = collect_op(tracer, op_id, lm)
        overhead.append(wall - untraced)
        lm.add("graph.io.load_edges_per_s", graph.num_edges / tracer.self_times(op_id)[1]["graph.io.load"])
        for name, value in counts.items():
            if name.startswith("core."):
                lm.add(name, value)
        if maximalize and counts["core.maximalize.candidates"]:
            lm.add("core.maximalize.accept_ratio",
                   counts["core.maximalize.added"] / counts["core.maximalize.candidates"])
        for name, value in redrive(graph, cfg).items():
            lm.add(name, value)
        op = Op(kind="traced", key=key, wall_s=wall)
        op.extra["selfs"] = tracer.self_times(op_id)[1]
        if verify and not counts["verified"]:
            op.fail(f"replica output of {key} failed its in-line certificate")
        checker.check(op, graph, edges, maximal=maximalize)
        if reference is not None and reference.get(key, op.digest) != op.digest:
            op.fail(f"replica output of {key} differs from the CLI's")
        ops.append(op)
    lm.settle(source)
    return overhead


def trace_sharded_path(paths: dict, keys: list[str], ws: Path, lm: LayerMetrics, *,
                       checker: OutputChecker, ops: list[Op], tracer: Tracer,
                       source: str, reference: dict | None = None) -> list[float]:
    from repro.graph.io import load_graph

    overhead = []
    for key in keys:
        out = ws / f"{key}.replica.txt"
        gc.collect()
        start = time.perf_counter()
        sharded_op(paths[key], fresh_dir(ws, f"spill-{key}-u"), out, Tracer(enabled=False))
        untraced = time.perf_counter() - start
        op_id = len(tracer.op_ids())
        gc.collect()
        with tracer.op(op_id):
            edges, counts = sharded_op(paths[key], fresh_dir(ws, f"spill-{key}-t"), out, tracer)
        wall = collect_op(tracer, op_id, lm)
        overhead.append(wall - untraced)
        for name, value in counts.items():
            if name.startswith("shard."):
                lm.add(name, value)
        op = Op(kind="traced", key=key, wall_s=wall)
        op.extra["selfs"] = tracer.self_times(op_id)[1]
        if counts["problems"]:
            op.fail(f"stitched certificate failed for {key}: {counts['problems']}")
        checker.check(op, load_graph(paths[key]), edges, maximal=False)
        if reference is not None and reference.get(key, op.digest) != op.digest:
            op.fail(f"replica output of {key} differs from the CLI's")
        ops.append(op)
    lm.settle(source)
    return overhead


def _raw_request(sock, message: dict, tracer: Tracer) -> np.ndarray:
    from repro.service import protocol

    with tracer.span("service.server"):
        protocol.send_message(sock, message)
        response = protocol.raise_for_error(protocol.recv_message(sock))
    with tracer.span("service.protocol.decode"):
        return protocol.decode_edges(response)


def trace_serve_path(ctx: dict, ws: Path, lm: LayerMetrics, *, burst_s: float,
                     checker: OutputChecker, ops: list[Op], tracer: Tracer,
                     source: str) -> list[float]:
    """Closed-loop burst, daemon stats, traced requests, protocol and
    incremental layers, on the serve inputs in ``ctx``."""
    import socket as socketlib
    import threading

    from repro.core.config import ExtractionConfig
    from repro.core.incremental import IncrementalExtractor
    from repro.service import protocol
    from workloads import SERVE_CONNECTIONS, check_serve, drive_connection

    # Client-observed latency per kind under the workload's own mix.
    per_conn: list[list[Op]] = [[] for _ in range(SERVE_CONNECTIONS)]
    start = time.perf_counter()
    threads = [threading.Thread(target=drive_connection,
                                args=(ctx, c, burst_s, start, per_conn[c]))
               for c in range(SERVE_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    burst = [op for conn in per_conn for op in conn]
    check_serve(ctx, burst)
    ops.extend(op for op in burst if not op.ok)
    walls = {kind: [op.wall_s for op in burst if op.ok and op.kind == kind]
             for kind in ("hit", "miss", "mutate")}
    for kind, samples in walls.items():
        lm.add(f"service.{kind}_s.p50", median(samples))
    p90 = percentile([op.wall_s for op in burst if op.ok], 0.9)
    if p90 is None:
        raise RuntimeError(f"service burst too short for a p90 ({len(burst)} samples)")
    lm.add("service.wall_s.p90", p90)
    stats = ctx["clients"][0].stats()
    cache = stats["cache"]
    lm.add("service.cache_hit_ratio", cache["hits"] / max(1, cache["hits"] + cache["misses"]))
    lm.add("service.busy", stats["busy_rejections"])
    lm.add("service.timeouts", stats["timeouts"])
    lm.add("service.retries", stats["retries"])
    lm.add("service.cache_invalidations", stats["cache_invalidations"])

    # Protocol pieces on the workload's own payloads, and the in-process
    # extraction a miss runs, to split a miss into work and waiting.
    cfg = ExtractionConfig().resolved()
    miss_work = []
    for graph in ctx["cold"].values():
        for _ in range(3):
            t0 = time.perf_counter()
            payload = protocol.encode_graph(graph)
            t1 = time.perf_counter()
            decoded = protocol.decode_graph(payload)
            t2 = time.perf_counter()
            protocol.graph_content_hash(decoded)
            t3 = time.perf_counter()
            edges, _ = replica_extract(decoded, cfg, Tracer(enabled=False))
            t4 = time.perf_counter()
            reply = protocol.encode_edges(edges)
            t5 = time.perf_counter()
            protocol.decode_edges(reply)
            t6 = time.perf_counter()
            lm.add("service.protocol.encode_s", (t1 - t0) + (t5 - t4))
            lm.add("service.protocol.decode_s", (t2 - t1) + (t6 - t5))
            lm.add("service.protocol.hash_s", t3 - t2)
            miss_work.append(t6 - t0)
        for name, value in redrive(graph, cfg).items():
            lm.add(name, value)
    lm.add("service.wait_s", median(walls["miss"]) - median(miss_work))

    # Session layer on the miss path, and the completion pass a mutate
    # session runs when it opens.
    for graph in ctx["cold"].values():
        sess = Tracer()
        with sess.op(0):
            replica_extract(graph, cfg, sess)
        _, selfs = sess.self_times(0)
        lm.add("core.session.extract_s", selfs["core.session"] + selfs["core.runtime"])
        lm.add("core.session.self_s", selfs["core.session"])
    mcfg = ExtractionConfig(maximalize=True).resolved()
    for conn in ctx["connections"]:
        sess = Tracer()
        with sess.op(0):
            edges, counts = replica_extract(conn["session"], mcfg, sess)
        lm.add("core.maximalize.time_s", sess.self_times(0)[1]["core.maximalize"])
        for name, value in counts.items():
            lm.add(name, value)
        if counts["core.maximalize.candidates"]:
            lm.add("core.maximalize.accept_ratio",
                   counts["core.maximalize.added"] / counts["core.maximalize.candidates"])

    # Incremental layer on connection 0's session and mutation stream.
    conn = ctx["connections"][0]
    t0 = time.perf_counter()
    inc = IncrementalExtractor(conn["session"])
    lm.add("core.incremental.init_s", time.perf_counter() - t0)
    for op_name, u, v in conn["mutations"][:200]:
        t0 = time.perf_counter()
        (inc.insert_edge if op_name == "insert" else inc.delete_edge)(u, v)
        lm.add(f"core.incremental.{op_name}_s", time.perf_counter() - t0)
    lm.add("core.incremental.full_rebuilds", inc.stats["full_rebuilds"])

    # Traced requests, one kind at a time on a fresh connection.
    overhead = []
    sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    sock.settimeout(60.0)
    sock.connect(ctx["daemon"].socket)
    try:
        _raw_request(sock, {"op": "mutate", "graph": protocol.encode_graph(conn["session"])},
                     Tracer(enabled=False))
        mutations = iter(conn["mutations"])
        requests = []
        for kind, graphs in (("hit", ctx["hot"]), ("miss", ctx["cold"])):
            for key, graph in graphs.items():
                requests.append((kind, key, graph))
        requests += [("mutate", "session0", None)] * 4
        for kind, key, graph in requests:
            walls_pair = []
            for traced in (False, True):
                t = tracer if traced else Tracer(enabled=False)
                op_id = len(tracer.op_ids())
                start = time.perf_counter()
                with (t.op(op_id) if traced else nullcontext()):
                    with t.span("service.protocol.encode"):
                        if kind == "mutate":
                            op_name, u, v = next(mutations)
                            message = {"op": "mutate", "ops": [[op_name, u, v]]}
                        else:
                            message = {"op": "extract", "graph": protocol.encode_graph(graph)}
                            if kind == "miss":
                                message["no_cache"] = True
                    edges = _raw_request(sock, message, t)
                walls_pair.append(time.perf_counter() - start)
                if traced:
                    op = Op(kind="traced", key=key, wall_s=collect_op(tracer, op_id, lm))
                    if kind != "mutate":
                        checker.check(op, graph, edges, maximal=False)
                    ops.append(op)
            overhead.append(walls_pair[1] - walls_pair[0])
    finally:
        sock.close()
    lm.settle(source)
    return overhead


# ---------------------------------------------------------------------------
# Probes for layers a workload does not run

def probe_inputs(seed: int, ws: Path) -> dict:
    from repro.graph.io import save_graph
    from workloads import input_seed, make_graph

    paths = {}
    for key, family, scale in (("probe-er9", "er", 9), ("probe-er10", "er", 10)):
        paths[key] = ws / f"{key}.mtx"
        save_graph(make_graph(family, scale, input_seed(seed, key)), paths[key])
    return paths


def serve_probe(seed: int, ws: Path, lm: LayerMetrics, **kwargs) -> list[float]:
    """The serve path on RMAT-ER(9) hot/cold graphs and RMAT-B(8) sessions."""
    from workloads import ServeWorkload

    probe = ServeWorkload(graph_scale=9, session_scale=8)
    ctx = probe.setup(fresh_dir(ws, "serve-probe"), seed)
    try:
        return trace_serve_path(ctx, ws, lm, **kwargs)
    finally:
        probe.close(ctx)


def cli_reference(workload, ctx: dict, ws: Path) -> tuple[dict, dict]:
    """One untraced CLI operation per input: its digest (the replica must
    match it) and its wall time."""
    from repro.graph.io import load_graph

    digests, walls = {}, {}
    for i, key in enumerate(workload.cycle):
        out = ws / f"cli-{i}.txt"
        child = run_child(workload.argv(ctx["paths"][key], out, ws / f"cli-spill-{i}"),
                          stderr_path=ws / f"cli-{i}.err")
        if child.returncode != 0:
            raise RuntimeError(f"reference CLI op on {key} failed: {child.stderr.strip()}")
        walls[key] = child.wall_s
        digests[key] = edge_digest(load_graph(out).edge_array())
    return digests, walls


#: Layers that should account for most of a CLI operation, per workload.
ATTRIBUTION = {
    "extract": ("cli.startup", "graph.io.load", "core.runtime"),
    "certify": ("core.maximalize", "chordality.verify.chordal", "chordality.verify.maximal"),
    "sharded": ("shard.plan", "shard.run", "shard.stitch", "shard.certify"),
}


def traced_run(name: str, workload, ctx: dict, seed: int, seconds: float, ws: Path) -> dict:
    """Per-layer metrics for one workload (``--trace 1``)."""
    lm = LayerMetrics()
    tracer = Tracer()
    checker = OutputChecker()
    ops: list[Op] = []
    tws = fresh_dir(ws, "trace")
    native = ctx["native"]
    lines = []

    cli_startup(tws, lm)
    lm.add("core.native.resolve_s", native["resolve_s"])
    lm.add("core.native.available", 1.0 if native["available"] else 0.0)
    lm.settle("workload")

    kwargs = dict(checker=checker, ops=ops, tracer=tracer)
    if name == "serve":
        overhead = trace_serve_path(ctx, tws, lm, burst_s=seconds, source="workload",
                                    **kwargs)
        cli_walls = None
    else:
        reference, cli_walls = cli_reference(workload, ctx, tws)
        keys = list(dict.fromkeys(workload.cycle))
        if workload.sharded:
            overhead = trace_sharded_path(ctx["paths"], keys, tws, lm, source="workload",
                                          reference=reference, **kwargs)
        else:
            overhead = trace_cli_path(ctx["paths"], keys, tws, lm,
                                      maximalize=workload.maximal, verify=workload.maximal,
                                      source="workload", reference=reference, **kwargs)
    workload_ops = len(ops)
    lm.add("trace.overhead_s", median(overhead))
    lm.settle("workload")

    # Probes fill only the metrics the workload's own path left unmeasured.
    probes = probe_inputs(seed, tws)
    probe_kwargs = dict(checker=checker, ops=[], tracer=Tracer())
    trace_cli_path(probes, ["probe-er9"], tws, lm, maximalize=True, verify=True,
                   source="probe: certify path on RMAT-ER(9)", **probe_kwargs)
    if not any(k.startswith("shard.") for k in lm.values):
        trace_sharded_path(probes, ["probe-er10"], tws, lm,
                           source="probe: sharded path on RMAT-ER(10)", **probe_kwargs)
    if not any(k.startswith("service.") for k in lm.values):
        serve_probe(seed, tws, lm, burst_s=3.0, source="probe: serve path on RMAT-ER(9)",
                    **probe_kwargs)
    ops.extend(op for op in probe_kwargs["ops"] if not op.ok)

    tracer.dump(WORK / "traces" / f"{name}-{seed}.jsonl")
    v = lm.values
    if cli_walls is not None:
        parts = ATTRIBUTION[name]
        shares = []
        for op in ops[:workload_ops]:
            covered = sum(op.extra["selfs"].get(p, 0.0) for p in parts)
            if "graph.io.load" in parts:  # the CLI op also pays start-up
                covered += v["cli.startup_s"]
            shares.append(covered / cli_walls[op.key])
        lines.append(f"CLI op wall {median(list(cli_walls.values())):.4f} s (median over "
                     f"inputs); {' + '.join(parts)} cover {100 * median(shares):.1f}% of it")
    lines.append(f"traced operations {workload_ops}; every op's self times + "
                 "trace.unattributed_s = its wall time (checked)")
    for metric in sorted(v):
        lines.append(f"{metric} = {v[metric]:.6g}  [{lm.source[metric]}]")
    failed = [op for op in ops if not op.ok]
    for op in failed:
        lines.append(f"FAILED {op.kind} {op.key}: {op.error}")
    result = dict(v)
    result.update({"attempted": len(ops), "failed": len(failed), "lines": lines})
    return result
