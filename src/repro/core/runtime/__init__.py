"""Unified extraction runtime: one schedule driver, pluggable backends.

The paper's algorithm is one loop run under several execution regimes.
This package implements that loop **once** (:mod:`~repro.core.runtime.driver`)
and parameterizes it along two axes, both in-process:

* **state** — :class:`LocalState`, the algorithm's arrays in the canonical
  schema (:mod:`~repro.core.runtime.layout`);
* **executor** — who runs each round's slices (:class:`SerialExecutor`,
  :class:`NativeThreadTeamExecutor`).

The ``superstep`` engine is a pairing of these, with the executor
chosen by schedule (see :mod:`repro.core.engines`), glued by
:func:`backend_run_fn`; that pairing is kept as is because perfbench's
traced run splits it to time the executor apart from the driver.
"""

from repro.core.runtime.driver import VARIANTS, DriveResult, backend_run_fn, drive
from repro.core.runtime.executors import NativeThreadTeamExecutor, SerialExecutor
from repro.core.runtime.layout import build_spec
from repro.core.runtime.rounds import run_sync_slice
from repro.core.runtime.state import LocalState

__all__ = [
    "drive",
    "DriveResult",
    "backend_run_fn",
    "VARIANTS",
    "LocalState",
    "SerialExecutor",
    "NativeThreadTeamExecutor",
    "build_spec",
    "run_sync_slice",
]
