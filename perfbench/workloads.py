"""The four workloads, run against the program as users run it.

``extract``, ``certify`` and ``sharded`` run ``repro extract`` as one
child process per operation; ``serve`` runs ``repro serve`` as a child
and drives it over its unix socket from this process with two
closed-loop connections.  Every request uses the program's default
configuration: no workload names an engine, schedule or worker count.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from harness import (
    ROOT,
    Op,
    OutputChecker,
    child_env,
    derive_seed,
    fresh_dir,
    repro_argv,
    resolve_native,
    run_child,
)

_GENERATORS = {"er": "rmat_er", "b": "rmat_b"}


def make_graph(family: str, scale: int, seed: int):
    from repro.graph import generators

    return getattr(generators, _GENERATORS[family])(scale, seed=seed)


def input_seed(seed: int, key: str) -> int:
    """Graph seed for input ``key`` (e.g. ``er14-1``), fixed by ``seed``."""
    return derive_seed(seed, *key.encode())


def _last_line(text: str) -> str:
    lines = [line for line in text.strip().splitlines() if line.strip()]
    return lines[-1] if lines else "(no stderr)"


# ---------------------------------------------------------------------------
# repro extract workloads


@dataclass(frozen=True)
class CliWorkload:
    """One ``repro extract`` child per operation, inputs cycled in order.

    ``maximal`` certifies outputs as maximal as well as chordal outside
    the timed region; ``sharded`` runs the one-shot out-of-core mode with
    a fresh spill directory per operation (so its shard cache never hits).
    """

    name: str
    inputs: tuple[tuple[str, str, int], ...]  # (key, family, scale)
    cycle: tuple[str, ...]
    flags: tuple[str, ...] = ()
    maximal: bool = False
    sharded: bool = False

    def setup(self, ws: Path, seed: int) -> dict:
        """Generate the input files and resolve the native backend."""
        from repro.graph.io import save_graph

        indir = fresh_dir(ws, "inputs")
        paths = {}
        for key, family, scale in self.inputs:
            paths[key] = indir / f"{key}.mtx"
            save_graph(make_graph(family, scale, input_seed(seed, key)), paths[key])
        return {"paths": paths, "native": resolve_native(ws)}

    def discard(self, ctx: dict) -> None:
        """Nothing outlives a set-up of this workload but its files."""

    def argv(self, path: Path, out: Path, spill: Path) -> list[str]:
        argv = repro_argv("extract", str(path), "-o", str(out), *self.flags)
        if self.sharded:
            argv += ["--spill-dir", str(spill)]
        return argv

    def run(self, ctx: dict, seconds: float, ws: Path) -> tuple[list[Op], float, dict]:
        outdir = fresh_dir(ws, "outputs")
        families = {key: family for key, family, _ in self.inputs}
        ops: list[Op] = []
        start = time.perf_counter()
        # Whole cycles only, so every run weighs its inputs alike.
        while time.perf_counter() - start < seconds or len(ops) % len(self.cycle):
            i = len(ops)
            key = self.cycle[i % len(self.cycle)]
            out = outdir / f"{i}.txt"
            child = run_child(
                self.argv(ctx["paths"][key], out, outdir / f"spill-{i}"),
                stderr_path=outdir / f"{i}.err",
            )
            op = Op(kind=self.name, key=key, wall_s=child.wall_s,
                    group=families.get(key, ""), peak_rss_mb=child.peak_rss_mb)
            op.extra["out"] = out
            if child.returncode != 0:
                op.fail(f"exit {child.returncode}: {_last_line(child.stderr)}")
            match = re.search(r"kernel=(\S+)", child.stderr)
            op.kernel_path = match.group(1) if match else "unreported"
            ops.append(op)
        span = time.perf_counter() - start
        self.check(ctx, ops)
        shutil.rmtree(outdir, ignore_errors=True)
        return ops, span, {"peak_rss_mb": max(op.peak_rss_mb for op in ops)}

    def check(self, ctx: dict, ops: list[Op]) -> None:
        """Certify every output outside the timed region."""
        from repro.graph.io import load_graph

        checker = OutputChecker()
        graphs = {}
        for op in ops:
            if not op.ok:
                continue
            if op.key not in graphs:
                graphs[op.key] = load_graph(ctx["paths"][op.key])
            try:
                edges = load_graph(op.extra["out"]).edge_array()
            except Exception as exc:  # noqa: BLE001 - an unreadable output is a failure
                op.fail(f"unreadable output: {type(exc).__name__}: {exc}")
                continue
            checker.check(op, graphs[op.key], edges, maximal=self.maximal)

    def close(self, ctx: dict) -> None:
        """Nothing to stop."""


# ---------------------------------------------------------------------------
# repro serve workload

#: Request kinds and their shares of each connection's sequence.  The
#: mix is synthetic: it is not taken from any recorded use of the
#: service.  ``wall_s.p50`` weighs the three kinds alike whatever their
#: shares (see ``harness.summarize``); the shares set only how often
#: each kind runs, and so ``ops_per_s`` and how requests contend.
SERVE_MIX = (("hit", 0.45), ("miss", 0.25), ("mutate", 0.30))
SERVE_CONNECTIONS = 2
SERVE_SEQUENCE = 4000


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``), in MiB; 0 if gone."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _group_pids(pgid: int) -> list[int]:
    """Live processes of process group ``pgid``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, pgrp, ...
        if int(stat.rsplit(")", 1)[1].split()[2]) == pgid:
            pids.append(int(entry.name))
    return pids


class Daemon:
    """``repro serve --socket S`` as a child, in its own process group."""

    def __init__(self, ws: Path) -> None:
        # Relative to the checkout root (the cwd of both ends): unix
        # socket paths are capped near 108 bytes.
        self.socket = str((ws / "serve.sock").relative_to(ROOT))
        self.log = open(ws / "serve.log", "wb")
        self.proc = subprocess.Popen(
            repro_argv("serve", "--socket", self.socket),
            cwd=ROOT, env=child_env(), stdout=self.log, stderr=self.log,
            start_new_session=True,
        )

    def client(self):
        from repro.service import ServiceClient

        return ServiceClient(socket_path=self.socket, timeout=60.0)

    def wait_ready(self, timeout: float = 60.0):
        """Connect and ``ping``; returns the connected client."""
        from repro.errors import ReproError

        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            try:
                client = self.client()
                client.ping()
                return client
            except ReproError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon plus its live pool workers (its process
        group), summed; pages shared after a fork count once per process."""
        return sum(_vm_hwm_mb(pid) for pid in _group_pids(self.proc.pid))

    def stop(self) -> None:
        """SIGTERM (the daemon drains), then SIGKILL the group if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # stray pool workers
        except (ProcessLookupError, PermissionError):
            pass
        self.log.close()


def serve_inputs(seed: int, graph_scale: int, session_scale: int) -> dict:
    """Graphs, per-connection request sequences and mutation streams."""
    from repro.graph.generators.chordal import random_mutation_stream

    hot = {f"hot{i}": make_graph("er", graph_scale, input_seed(seed, f"hot{i}"))
           for i in range(2)}
    cold = {f"cold{i}": make_graph("er", graph_scale, input_seed(seed, f"cold{i}"))
            for i in range(2)}
    kinds = [k for k, _ in SERVE_MIX]
    shares = [s for _, s in SERVE_MIX]
    connections = []
    for c in range(SERVE_CONNECTIONS):
        rng = np.random.default_rng(derive_seed(seed, 100 + c))
        sequence = [(kinds[k], int(j)) for k, j in zip(
            rng.choice(len(kinds), size=SERVE_SEQUENCE, p=shares),
            rng.integers(0, 2, size=SERVE_SEQUENCE),
        )]
        session = make_graph("b", session_scale, input_seed(seed, f"session{c}"))
        mutations = random_mutation_stream(
            session, sum(1 for kind, _ in sequence if kind == "mutate"),
            seed=derive_seed(seed, 200 + c),
        )
        connections.append({"sequence": sequence, "session": session,
                            "mutations": mutations})
    return {"hot": hot, "cold": cold, "connections": connections}


class _Mirror:
    """The client-side copy of one session graph, to certify its outputs."""

    def __init__(self, graph) -> None:
        self.n = graph.num_vertices
        self.edges = set(graph.edge_set())

    def apply(self, op: str, u: int, v: int) -> None:
        pair = (min(u, v), max(u, v))
        (self.edges.add if op == "insert" else self.edges.discard)(pair)

    def graph(self):
        from repro.graph.builder import from_edge_array

        return from_edge_array(self.n, np.asarray(sorted(self.edges), dtype=np.int64))


@dataclass(frozen=True)
class ServeWorkload:
    """Hot and cold RMAT-ER(``graph_scale``) graphs, RMAT-B(``session_scale``)
    mutate sessions."""

    name: str = "serve"
    graph_scale: int = 11
    session_scale: int = 9

    def setup(self, ws: Path, seed: int) -> dict:
        """Inputs, native resolution, daemon up to the first ``ping``, the
        mutate sessions opened and the hot graphs cached."""
        ctx = serve_inputs(seed, self.graph_scale, self.session_scale)
        ctx["native"] = resolve_native(ws)
        daemon = Daemon(ws)
        ctx["daemon"] = daemon
        try:
            clients = [daemon.wait_ready()]
            clients += [daemon.client() for _ in range(SERVE_CONNECTIONS - 1)]
            ctx["clients"] = clients
            for client, conn in zip(clients, ctx["connections"]):
                client.mutate(graph=conn["session"])
            for graph in ctx["hot"].values():
                clients[0].extract(graph)
        except BaseException:
            self.close(ctx)
            raise
        return ctx

    def discard(self, ctx: dict) -> None:
        self.close(ctx)

    def close(self, ctx: dict) -> None:
        for client in ctx.get("clients", []):
            client.close()
        ctx["clients"] = []
        ctx["daemon"].stop()

    def run(self, ctx: dict, seconds: float, ws: Path) -> tuple[list[Op], float, dict]:
        per_conn: list[list[Op]] = [[] for _ in range(SERVE_CONNECTIONS)]
        start = time.perf_counter()
        threads = [
            threading.Thread(target=drive_connection,
                             args=(ctx, c, seconds, start, per_conn[c]))
            for c in range(SERVE_CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        span = time.perf_counter() - start
        daemon = ctx["daemon"]
        extra = {"peak_rss_mb": daemon.peak_rss_mb(), "stats": ctx["clients"][0].stats()}
        ops = [op for conn in per_conn for op in conn]
        check_serve(ctx, ops)
        return ops, span, extra


def drive_connection(ctx: dict, c: int, seconds: float, start: float, ops: list[Op]) -> None:
    """One closed-loop connection: send the next request only after the
    previous reply.  Outputs are digested here, after each timed request."""
    from repro.errors import ReproError
    from repro.service import ServiceError

    client = ctx["clients"][c]
    conn = ctx["connections"][c]
    mirror = _Mirror(conn["session"])
    mutations = iter(conn["mutations"])
    for kind, j in conn["sequence"]:
        if time.perf_counter() - start >= seconds:
            return
        if kind == "mutate":
            mutation = next(mutations)
            key = f"session{c}"
        else:
            key = f"{'hot' if kind == 'hit' else 'cold'}{j}"
            graph = ctx["hot" if kind == "hit" else "cold"][key]
        t0 = time.perf_counter()
        try:
            if kind == "mutate":
                result = client.mutate(ops=[mutation])
            else:
                result = client.extract(graph, no_cache=kind == "miss")
            wall = time.perf_counter() - t0
            op = Op(kind=kind, key=key, wall_s=wall)
        except ServiceError as exc:
            op = Op(kind=kind, key=key, wall_s=time.perf_counter() - t0)
            op.fail(f"{exc.code}: {exc}")
        except ReproError as exc:
            op = Op(kind=kind, key=key, wall_s=time.perf_counter() - t0)
            op.fail(f"{type(exc).__name__}: {exc}")
        if kind == "mutate":
            mirror.apply(*mutation)
        if op.ok:
            op.extra["edges"] = result.edges
            if kind == "mutate":
                op.extra["graph"] = mirror.graph()
            else:
                op.kernel_path = result.kernel_path
                if kind == "hit" and not result.cached:
                    op.fail(f"hot graph {key} was not served from the cache")
        ops.append(op)


def check_serve(ctx: dict, ops: list[Op]) -> None:
    checker = OutputChecker()
    for op in ops:
        if not op.ok:
            continue
        edges = op.extra.pop("edges")
        if op.kind == "mutate":
            # Each mutation changes the session graph, so its output is
            # certified against the client-side mirror of that graph.
            checker.check(op, op.extra.pop("graph"), edges, maximal=False,
                          deterministic=False)
        else:
            graph = ctx["hot" if op.kind == "hit" else "cold"][op.key]
            # Hits and misses of one graph share a digest (one key each).
            checker.check(op, graph, edges, maximal=False)


def _inputs(family_scales: str) -> tuple[tuple[str, str, int], ...]:
    """``"er14 b14 er14"`` -> ``(("er14-0", "er", 14), ("b14-0", "b", 14),
    ("er14-1", "er", 14))``: distinct seeded graphs, in cycle order."""
    seen: dict[str, int] = {}
    inputs = []
    for token in family_scales.split():
        index = seen[token] = seen.get(token, -1) + 1
        family = token.rstrip("0123456789")
        inputs.append((f"{token}-{index}", family, int(token[len(family):])))
    return tuple(inputs)


def _cli_workload(name: str, family_scales: str, **kwargs) -> CliWorkload:
    inputs = _inputs(family_scales)
    return CliWorkload(name=name, inputs=inputs, cycle=tuple(k for k, _, _ in inputs),
                       **kwargs)


# Each run cycles over several distinct graphs per family (whole cycles
# only), so one seed's unusually easy or hard graph moves the figures
# little.  ER and B alternate 1:1; each family is its own latency group.
WORKLOADS = {
    "extract": _cli_workload("extract", "er14 b14 er14 b14 er14 b14"),
    "certify": _cli_workload("certify", "er9 b9 er9 b9 er9 b9 er9 b9",
                             flags=("--maximalize", "--verify"), maximal=True),
    "sharded": _cli_workload("sharded", "er11 er11 er11 er11 er11 er11",
                             flags=("--sharded", "--shards", "4", "--verify"), sharded=True),
    "serve": ServeWorkload(),
}
