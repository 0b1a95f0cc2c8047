"""Persistent thread team with barrier-synchronised SPMD execution.

The paper's algorithm is a sequence of barrier-separated parallel loops
("for all v in Q1 in parallel").  :class:`ThreadTeam` provides exactly that
shape: ``team.run(task)`` releases all workers into ``task(thread_id)`` and
returns when every worker has finished — one superstep.  Worker threads
persist across supersteps (thread creation is not paid per iteration, as
on the real platforms).  The unified runtime's
:class:`~repro.core.runtime.executors.NativeThreadTeamExecutor` is the
adapter that plugs this team into the shared schedule driver.
"""

from __future__ import annotations

import threading
from collections.abc import Callable

__all__ = ["ThreadTeam"]


class ThreadTeam:
    """Fixed-size team of worker threads executing one task per superstep.

    Usage::

        with ThreadTeam(4) as team:
            team.run(lambda tid: work(tid))   # superstep 1
            team.run(lambda tid: work2(tid))  # superstep 2

    Exceptions raised inside workers are collected and re-raised in the
    caller after the closing barrier (first one wins; others noted in its
    ``__notes__``).
    """

    def __init__(self, num_threads: int) -> None:
        if num_threads < 1:
            raise ValueError(f"num_threads must be >= 1, got {num_threads}")
        self.num_threads = num_threads
        self._start = threading.Barrier(num_threads + 1)
        self._done = threading.Barrier(num_threads + 1)
        self._task: Callable[[int], None] | None = None
        self._errors: list[BaseException] = []
        self._error_lock = threading.Lock()
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker, args=(tid,), daemon=True,
                name=f"repro-worker-{tid}",
            )
            for tid in range(num_threads)
        ]
        for t in self._threads:
            t.start()

    def _worker(self, tid: int) -> None:
        while True:
            self._start.wait()
            task = self._task
            if task is None:  # shutdown signal
                return
            try:
                task(tid)
            except BaseException as exc:  # noqa: BLE001 - forwarded to caller
                with self._error_lock:
                    self._errors.append(exc)
            finally:
                self._done.wait()

    def run(self, task: Callable[[int], None]) -> None:
        """Execute ``task(thread_id)`` on every worker; block until all done."""
        if self._closed:
            raise RuntimeError("ThreadTeam is closed")
        self._task = task
        self._start.wait()
        self._done.wait()
        self._task = None
        if self._errors:
            first, rest = self._errors[0], self._errors[1:]
            self._errors = []
            for other in rest:
                try:
                    first.add_note(f"additional worker error: {other!r}")
                except AttributeError:  # pragma: no cover - py<3.11 fallback
                    pass
            raise first

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._task = None
        self._start.wait()  # workers see task=None and exit
        for t in self._threads:
            t.join(timeout=5.0)

    def __enter__(self) -> "ThreadTeam":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
