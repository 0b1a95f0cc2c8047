"""Shared machinery for the benchmark: workspace, children, statistics, checks.

Everything the benchmark writes lives under ``.perfbench-work/`` at the
root of the checkout (listed in the root ``.gitignore``); the program is
always the checkout's own ``src/`` tree, run as users run it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
#: Compiled-artifact cache of the native backend, kept between runs so
#: only the first run in a checkout pays the build.
NATIVE_CACHE = WORK / "native-cache"
#: Temporary files of the benchmark and its children (a cold native build
#: compiles through it).
TMP = WORK / "tmp"

#: The fixed default seed, and the second seed kept for hold-out checks.
DEFAULT_SEED = 20120910
HOLDOUT_SEED = 7919

#: Ceiling on one child operation; a hung child is killed and counted failed.
OP_TIMEOUT_S = 120.0

#: Fewest samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def program_present() -> bool:
    """Whether the checkout holds the program the benchmark measures."""
    return (SRC / "repro" / "cli.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for every child: the checkout's sources, its cache dir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_NATIVE_CACHE"] = str(NATIVE_CACHE)
    env["TMPDIR"] = str(TMP)
    return env


def repro_argv(*args: str) -> list[str]:
    """``repro ARGS`` as the installed console script would run it."""
    return [sys.executable, "-m", "repro.cli", *args]


def fresh_dir(parent: Path, name: str) -> Path:
    path = parent / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def derive_seed(seed: int, *labels: int) -> int:
    """Independent sub-seed for one input or stream, fixed by ``seed``."""
    return int(np.random.SeedSequence([seed, *labels]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Children


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stderr: str


#: Runs ``argv[2:]`` as its own child and writes that child's exit code,
#: wall time and ``ru_maxrss`` (KiB) to ``argv[1]``.  Linux charges a
#: child the resident set of the process it was forked from, so a child
#: forked straight from the benchmark would report at least the
#: benchmark's own size; forked from this small launcher (no site, no
#: NumPy), it reports its own peak.
_LAUNCHER = (
    "import os, sys, time\n"
    "start = time.perf_counter()\n"
    "pid = os.fork()\n"
    "if pid == 0:\n"
    "    os.execv(sys.argv[2], sys.argv[2:])\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "wall = time.perf_counter() - start\n"
    "with open(sys.argv[1], 'w') as f:\n"
    "    f.write(f'{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss}')\n"
)


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], *, stderr_path: Path, timeout: float = OP_TIMEOUT_S,
              stdout_path: Path | None = None) -> ChildResult:
    """Run one child to completion; its wall time and its own peak RSS.

    The child runs under :data:`_LAUNCHER`, in a process group of its
    own so a hung child is killed with its launcher.
    """
    usage_path = stderr_path.with_suffix(".usage")
    usage_path.unlink(missing_ok=True)
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-S", "-c", _LAUNCHER, str(usage_path), *argv],
                cwd=ROOT, env=child_env(), stdout=out, stderr=err, start_new_session=True,
            )
            watchdog = threading.Timer(timeout, kill_group, (proc.pid,))
            watchdog.start()
            try:
                proc.wait()
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
    finally:
        if stdout_path:
            out.close()
    try:
        code, child_wall, maxrss = usage_path.read_text().split()
        returncode, wall, peak_rss_mb = int(code), float(child_wall), int(maxrss) / 1024.0
    except (OSError, ValueError):  # the launcher itself was killed
        returncode, peak_rss_mb = proc.returncode, 0.0
    return ChildResult(
        returncode=returncode,
        wall_s=wall,
        peak_rss_mb=peak_rss_mb,
        stderr=stderr_path.read_text(errors="replace"),
    )


_RESOLVE_SNIPPET = (
    "import json, time\n"
    "from repro.core.native import native_status\n"
    "t = time.perf_counter()\n"
    "s = native_status()\n"
    "print(json.dumps({'available': s.available, 'detail': s.detail,"
    " 'resolve_s': time.perf_counter() - t}))\n"
)


def resolve_native(scratch: Path) -> dict:
    """First ``native_status()`` in a fresh process (builds on a cold cache)."""
    out = scratch / "native.json"
    child = run_child(
        [sys.executable, "-c", _RESOLVE_SNIPPET],
        stderr_path=scratch / "native.err",
        stdout_path=out,
    )
    if child.returncode != 0:
        raise RuntimeError(f"native resolution child failed: {child.stderr.strip()}")
    status = json.loads(out.read_text())
    status["process_s"] = child.wall_s
    return status


def fingerprint(native: dict) -> dict:
    """Host and program identity recorded with every result."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git unavailable)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_available": bool(native["available"]),
        "native_detail": native["detail"],
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# Statistics


def percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank ``q``-quantile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it (too few to resolve it)."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def median(samples: list[float]) -> float:
    return float(statistics.median(samples))


# ---------------------------------------------------------------------------
# Output checks


def canonical_edges(edges) -> np.ndarray:
    """``u < v`` rows in lexicographic order (the program's canonical form)."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    order = np.lexsort((hi, lo))
    return np.column_stack((lo[order], hi[order]))


def edge_digest(edges) -> str:
    return hashlib.sha256(canonical_edges(edges).tobytes()).hexdigest()


def certify(graph, edges, *, maximal: bool) -> str | None:
    """``None`` when ``edges`` is a valid chordal (maximal) subgraph of
    ``graph``, else the checker's diagnosis."""
    from repro.chordality.verify import verify_extraction

    report = verify_extraction(graph, canonical_edges(edges), check_maximal=maximal)
    return None if report.ok else str(report)


@dataclass
class Op:
    """One timed operation and what its output check concluded.

    ``group`` is the latency group the operation is summarised in: the
    input family on the CLI workloads, the request kind on ``serve``.
    """

    kind: str
    key: str
    wall_s: float
    group: str = ""
    ok: bool = True
    error: str = ""
    digest: str = ""
    retained: int = 0
    input_edges: int = 0
    kernel_path: str = ""
    peak_rss_mb: float = 0.0
    extra: dict = field(default_factory=dict)

    def fail(self, error: str) -> None:
        self.ok = False
        self.error = self.error or error


class OutputChecker:
    """Certifies outputs once per distinct (input, digest) and holds every
    later output of the same input to the first one's digest (the default
    paths are deterministic, so any drift is a failure)."""

    def __init__(self) -> None:
        self.first_digest: dict[str, str] = {}
        self.verdicts: dict[tuple[str, str], str | None] = {}

    def check(self, op: Op, graph, edges, *, maximal: bool, deterministic: bool = True) -> None:
        op.digest = edge_digest(edges)
        op.retained = int(np.asarray(edges).reshape(-1, 2).shape[0])
        op.input_edges = int(graph.num_edges)
        if deterministic:
            first = self.first_digest.setdefault(op.key, op.digest)
            if first != op.digest:
                op.fail(f"output of {op.key} differs from its first operation's")
                return
        verdict_key = (op.key, op.digest)
        if verdict_key not in self.verdicts:
            self.verdicts[verdict_key] = certify(graph, edges, maximal=maximal)
        if self.verdicts[verdict_key] is not None:
            op.fail(f"certificate failed for {op.key}: {self.verdicts[verdict_key]}")


def group_medians(ops: list[Op]) -> dict[str, float]:
    """Median wall time of the successful operations of each group."""
    walls: dict[str, list[float]] = {}
    for op in ops:
        if op.ok:
            walls.setdefault(op.group or op.kind, []).append(op.wall_s)
    return {group: median(samples) for group, samples in sorted(walls.items())}


def summarize(ops: list[Op], span_s: float) -> dict:
    """End-to-end figures over one run's operations (failures excluded
    from latency and from answer quality).

    ``wall_s.p50`` is the geometric mean of the per-group medians, so
    every group weighs alike whatever its share of the operations: a
    change that moves only one input family (or one request kind) moves
    it, and the figure does not hinge on the mix.
    """
    good = [op for op in ops if op.ok]
    walls = [op.wall_s for op in good]
    groups = group_medians(good)
    # Answer quality counts each input once (its last output), so it does
    # not depend on how many operations fit in the run.
    last = {op.key: op for op in good}
    total_edges = sum(op.input_edges for op in last.values())
    return {
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "fail_frac": (len(ops) - len(good)) / len(ops) if ops else 1.0,
        "wall_s.p50": (
            math.exp(statistics.fmean(math.log(m) for m in groups.values()))
            if groups else float("nan")
        ),
        "group_p50": groups,
        "wall_s.p90": percentile(walls, 0.9),
        "samples": len(walls),
        "ops_per_s": len(good) / span_s if span_s > 0 else 0.0,
        "retained_frac": (
            sum(op.retained for op in last.values()) / total_edges if total_edges else 0.0
        ),
    }
