"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch one base class.  Input validation failures raise
:class:`GraphFormatError` (malformed construction data) or
:class:`ConfigError` (bad argument values or knob combinations); both
also subclass ``ValueError``, matching common NumPy/SciPy practice, so
pre-existing ``except ValueError`` call sites keep working.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError, ValueError):
    """Raised when graph construction input is malformed.

    Examples: negative vertex ids, edge endpoints out of range, indptr
    arrays that are not monotonically non-decreasing.
    """


class ConfigError(ReproError, ValueError):
    """Raised for invalid extraction arguments or knob combinations.

    Examples: unknown engine/variant/schedule names, a schedule the
    selected engine does not support, ``collect_trace`` on an engine
    without trace capability, a non-integer or non-positive
    ``num_threads``.  Subclasses
    ``ValueError`` so callers written against the pre-session API (which
    raised bare ``ValueError``) are unaffected.
    """


class SessionClosedError(ReproError, RuntimeError):
    """Raised when a closed session is used again.

    Covers :meth:`repro.core.session.Extractor.extract` after
    :meth:`~repro.core.session.Extractor.close` — including the next
    ``next()`` on a :meth:`~repro.core.session.Extractor.stream`
    generator that was mid-iteration when the session closed.
    Subclasses ``RuntimeError`` because that is what these paths
    historically raised, so pre-existing ``except RuntimeError``
    call sites keep working; new code should catch :class:`ReproError`.
    """


class NotChordalError(ReproError):
    """Raised when an operation requires a chordal graph but the input
    graph is not chordal (e.g. clique-tree construction)."""


class ConvergenceError(ReproError):
    """Raised when an iterative procedure exceeds its iteration budget.

    Algorithm 1 terminates in at most ``Delta`` iterations; exceeding a
    generous multiple of that indicates an internal bug, so the engines
    raise this instead of looping forever.
    """


class MachineModelError(ReproError):
    """Raised for invalid machine-model configurations (e.g. zero
    processors, negative latencies)."""


class ShardError(ReproError):
    """Raised by the out-of-core sharded extractor (:mod:`repro.shard`).

    Covers a spill directory whose plan does not match the input file
    (stale digest, different shard count), missing per-shard results at
    stitch time, and per-shard verification failures.  The message
    always names the spill directory and shard index involved so a
    failure can be replayed with ``repro shard run --shard N``.
    """
