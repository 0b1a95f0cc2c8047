"""Small atomic helpers — in-process lock-based counters and the claim-
word primitives of the asynchronous live rounds.

The Cray XMT provides full/empty-bit atomics in hardware; in CPython the
GIL already makes single-bytecode operations atomic, but relying on that is
fragile under free-threaded builds, so the in-process helpers below use
explicit locks.  The synchronous core engine itself needs *no* atomics
thanks to the unique-writer discipline (see :mod:`repro.core.state`).

Claim-word primitives
---------------------
The asynchronous live rounds (:func:`repro.core.runtime.rounds.run_async_slice`,
the NumPy fallback of the native thread team) decide each arc through a
single ``int64`` edge-state claim word.  CPython cannot issue a hardware
compare-and-swap, so the primitives below spell out exactly what they
*do* guarantee and what the caller must supply:

* every word lives in an 8-byte-aligned ``int64`` NumPy array (:data:`ALIGN`
  — enforced here), so a single load or store is one aligned machine
  word: **readers never observe a torn value**, only the old word or the
  new word;
* the read-modify-write of :func:`compare_and_set` /
  :func:`bulk_compare_and_set` is atomic only under a **single-mutator-
  per-slot** discipline: at most one thread may attempt to mutate a given
  slot at a time.  The live rounds guarantee this structurally — each
  edge-claim slot belongs to exactly one child vertex, each vertex to
  exactly one slice per round, and handoffs between rounds are
  barrier-sequenced — and a failed compare (slot already decided) is how
  a violation of that discipline is *detected* rather than silently
  double-applied.  The compiled bodies (:mod:`repro.core.native`) map
  these calls 1:1 onto real CAS instructions (``int_fetch_add`` /
  ``writexf`` on the XMT).

The rounds never let an unsynchronised reader make an *admitting*
decision from a racing word — stale reads can only reject.
"""

from __future__ import annotations

import threading

import numpy as np

#: Byte alignment every claim-word array must have (one int64 word).
ALIGN = 8

__all__ = [
    "AtomicCounter",
    "AtomicMax",
    "atomic_load",
    "atomic_store",
    "compare_and_set",
    "bulk_compare_and_set",
]


def _check_word_view(arr: np.ndarray) -> None:
    """Reject views the single-word atomicity argument does not cover."""
    if arr.dtype != np.int64:
        raise ValueError(f"atomic words must be int64, got {arr.dtype}")
    if arr.__array_interface__["data"][0] % ALIGN != 0:
        raise ValueError("atomic word array is not 8-byte aligned")


def atomic_load(arr: np.ndarray, idx: int) -> int:
    """Tear-free read of one aligned int64 word."""
    _check_word_view(arr)
    return int(arr[idx])


def atomic_store(arr: np.ndarray, idx: int, value: int) -> None:
    """Tear-free write of one aligned int64 word."""
    _check_word_view(arr)
    arr[idx] = value


def compare_and_set(arr: np.ndarray, idx: int, expected: int, new: int) -> bool:
    """Set ``arr[idx] = new`` iff it currently equals ``expected``.

    Returns whether the claim succeeded.  Atomic under the single-mutator-
    per-slot discipline documented in the module docstring; a ``False``
    return means the slot was already claimed/decided.
    """
    _check_word_view(arr)
    if int(arr[idx]) != expected:
        return False
    arr[idx] = new
    return True


def bulk_compare_and_set(
    arr: np.ndarray, idx: np.ndarray, expected: int, new: np.ndarray | int
) -> np.ndarray:
    """Vectorised :func:`compare_and_set` over distinct slots ``idx``.

    Returns the boolean success mask.  ``idx`` entries must be distinct
    (they are distinct arena slots in the engine) and each slot must obey
    the single-mutator discipline; slots whose current value differs from
    ``expected`` are left untouched and reported ``False``.
    """
    _check_word_view(arr)
    won = arr[idx] == expected
    if np.isscalar(new):
        arr[idx[won]] = new
    else:
        arr[idx[won]] = np.asarray(new)[won]
    return won


class AtomicCounter:
    """Lock-protected integer counter (``int_fetch_add`` analogue)."""

    __slots__ = ("_value", "_lock")

    def __init__(self, initial: int = 0) -> None:
        self._value = initial
        self._lock = threading.Lock()

    def fetch_add(self, delta: int = 1) -> int:
        """Add ``delta`` and return the *previous* value."""
        with self._lock:
            old = self._value
            self._value = old + delta
            return old

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class AtomicMax:
    """Lock-protected running maximum (``writexf``-style reduce)."""

    __slots__ = ("_value", "_lock")

    def __init__(self, initial: float = float("-inf")) -> None:
        self._value = initial
        self._lock = threading.Lock()

    def update(self, candidate: float) -> float:
        """Fold ``candidate`` into the max; returns the new max."""
        with self._lock:
            if candidate > self._value:
                self._value = candidate
            return self._value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value
