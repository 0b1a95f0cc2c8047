"""Small atomic helpers — in-process lock-based counters.

The Cray XMT provides full/empty-bit atomics in hardware; in CPython the
GIL already makes single-bytecode operations atomic, but relying on that is
fragile under free-threaded builds, so the helpers below use explicit
locks.  The extraction engine itself needs *no* atomics: its synchronous
rounds follow the unique-writer discipline (each vertex is served by
exactly one slice per round) and its asynchronous sweep is serial.
"""

from __future__ import annotations

import threading

__all__ = ["AtomicCounter", "AtomicMax"]


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
