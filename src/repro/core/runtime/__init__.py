"""Unified extraction runtime: one schedule driver, pluggable backends.

The paper's algorithm is one loop run under several execution regimes.
This package implements that loop **once** (:mod:`~repro.core.runtime.driver`)
and parameterizes it along two axes, both in-process:

* **state** — :class:`LocalState`, the algorithm's arrays in the canonical
  schema (:mod:`~repro.core.runtime.layout`);
* **executor** — who runs each round's slices (:class:`SerialExecutor`,
  :class:`NativeThreadTeamExecutor`).

The built-in engines are thin pairings of these (see
:mod:`repro.core.engines`); a third-party backend is one new class plus a
:func:`backend_run_fn` registration — see the README's Architecture
section.
"""

from repro.core.runtime.driver import (
    SCHEDULES,
    VARIANTS,
    DriveResult,
    backend_run_fn,
    drive,
)
from repro.core.runtime.executors import NativeThreadTeamExecutor, SerialExecutor
from repro.core.runtime.layout import build_spec
from repro.core.runtime.rounds import round_body, run_async_slice, run_sync_slice
from repro.core.runtime.state import LocalState

__all__ = [
    "drive",
    "DriveResult",
    "backend_run_fn",
    "SCHEDULES",
    "VARIANTS",
    "LocalState",
    "SerialExecutor",
    "NativeThreadTeamExecutor",
    "build_spec",
    "round_body",
    "run_sync_slice",
    "run_async_slice",
]
