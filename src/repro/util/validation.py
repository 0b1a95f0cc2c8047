"""Argument-validation helpers shared across the package.

These raise ``ValueError`` with uniform, greppable messages.  They exist so
that public entry points fail fast with clear errors instead of propagating
cryptic NumPy index errors from deep inside a kernel.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "is_integer",
    "check_positive",
    "check_nonnegative",
    "check_in_range",
    "check_probability_vector",
]


def is_integer(value: object) -> bool:
    """A Python or NumPy integer, but not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_positive(name: str, value: float) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_nonnegative(name: str, value: float) -> None:
    """Require ``value >= 0``."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_in_range(name: str, value: float, lo: float, hi: float) -> None:
    """Require ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")


def check_probability_vector(
    name: str, probs: Sequence[float], length: int | None = None
) -> np.ndarray:
    """Validate a probability vector (entries in [0,1], summing to 1).

    Returns the vector as a float64 array.  Used by the R-MAT generator for
    its four quadrant probabilities.
    """
    arr = np.asarray(probs, dtype=np.float64)
    if length is not None and arr.shape != (length,):
        raise ValueError(f"{name} must have shape ({length},), got {arr.shape}")
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError(f"{name} entries must lie in [0, 1], got {arr!r}")
    if not np.isclose(arr.sum(), 1.0, atol=1e-9):
        raise ValueError(f"{name} must sum to 1, got sum={arr.sum()!r}")
    return arr
