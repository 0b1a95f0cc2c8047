"""Tier-2 guard: the gates that do not depend on the host.

The gates that remain are all meaningful on any machine:

* **Answer quality** against ``BENCH_quality.json`` — retained-edge
  fraction per engine x schedule on the ``bench_quality.FAMILIES`` menu,
  plus the weighted engine's retained-weight dominance over the
  unweighted pipeline (``benchmarks/bench_quality.py``).  Quality cells
  additionally must never dip below the certified floor of
  ``repro.chordality.quality.maximal_chordal_floor`` — that failure mode
  is a correctness bug, no re-record can excuse it.
* **Native speedup**, measured live as same-host ratios with no
  baseline file, each over one ``LocalState`` on RMAT-ER(14): the NumPy
  and the compiled synchronous round loops (at least
  ``NATIVE_MIN_SPEEDUP``x apart), and the reference fallback and the
  compiled asynchronous sweep (at least ``SWEEP_MIN_SPEEDUP``x apart).  Both
  gates skip, printing the resolution detail, when the compiled backend
  does not resolve.

Wall-clock timing of whole commands lives in ``perfbench/``
(``python3 perfbench/run.py``), which pairs parent and change runs on
one host instead of comparing against a baseline recorded elsewhere.

Not part of tier-1 (``bench_*`` files are not collected by default); run
explicitly:

    PYTHONPATH=src python -m pytest benchmarks/bench_regression_guard.py -q

A missing or schema-stale ``BENCH_quality.json`` is a *failure*, not a
skip: ``test_quality_baseline_wellformed`` names the problem and the
re-record command, so the guard can never silently stop guarding.
"""

from __future__ import annotations

import json

import pytest

from bench_quality import (
    FAMILIES,
    QUALITY_PATH,
    QUALITY_TOLERANCE,
    WEIGHTED_FAMILY_SEEDS,
    measure_cell,
    measure_weighted,
    quality_cells,
)

#: Minimum live NumPy/native time ratio of the scale-14 sync round loop.
#: Same-host runs measure 5-7x; below this the compiled path has lost
#: its reason to exist.
NATIVE_MIN_SPEEDUP = 2.5

#: Minimum live reference-fallback/compiled time ratio of the scale-14
#: asynchronous sweep.  Same-host runs measure ~75-95x (2-core x86-64).
SWEEP_MIN_SPEEDUP = 10.0

#: Median-of-N repeats for each side of the native ratios.
NATIVE_REPEATS = 5

_RECORD_CMD = "repro bench --record quality"
_REQUIRED_KEYS = ("retained_fraction", "families", "weighted")


def _load_quality_baseline():
    """Load ``BENCH_quality.json``; returns ``(data, problem)``.

    ``problem`` is ``None`` for a well-formed file, else a one-line
    actionable diagnosis.  The individual gates *skip* on a problem —
    ``test_quality_baseline_wellformed`` turns it into exactly one clear
    failure instead of one noisy failure per parametrized case.
    """
    if not QUALITY_PATH.exists():
        return {}, (
            f"guarded baseline {QUALITY_PATH} is missing; record it with "
            f"`{_RECORD_CMD}` and commit the file"
        )
    try:
        data = json.loads(QUALITY_PATH.read_text())
    except ValueError as exc:
        return {}, (
            f"guarded baseline {QUALITY_PATH} is not valid JSON ({exc}); "
            f"re-record it with `{_RECORD_CMD}` and commit the file"
        )
    missing = [k for k in _REQUIRED_KEYS if k not in data]
    if missing:
        return {}, (
            f"guarded baseline {QUALITY_PATH} is schema-stale: missing key(s) "
            f"{missing} (the guard reads {sorted(_REQUIRED_KEYS)}); re-record "
            f"it with `{_RECORD_CMD}` and commit the file"
        )
    return data, None


_QUALITY_BASELINE, _QUALITY_PROBLEM = _load_quality_baseline()
_QUALITY_CELLS = sorted(_QUALITY_BASELINE.get("retained_fraction", {}))

_skip_on_problem = pytest.mark.skipif(
    _QUALITY_PROBLEM is not None, reason="baseline problem reported above"
)


def test_quality_baseline_wellformed():
    """A missing/stale baseline fails loudly instead of silently skipping."""
    assert _QUALITY_PROBLEM is None, _QUALITY_PROBLEM


@_skip_on_problem
def test_quality_baseline_covers_registry():
    """Every engine x schedule cell has a recorded quality
    baseline and vice versa (a new engine must be recorded; a removed
    one must be expunged)."""
    assert set(_QUALITY_CELLS) == set(quality_cells()), (
        "BENCH_quality.json cells diverge from the engine table; "
        f"re-record with `{_RECORD_CMD}` and commit the file"
    )
    assert set(_QUALITY_BASELINE["families"]) == set(FAMILIES), (
        "BENCH_quality.json families diverge from bench_quality.FAMILIES; "
        f"re-record with `{_RECORD_CMD}` and commit the file"
    )


@_skip_on_problem
@pytest.mark.parametrize("cell", _QUALITY_CELLS)
def test_quality_not_regressed(cell):
    """Each engine x schedule cell must retain at least its recorded edge
    fraction (minus QUALITY_TOLERANCE)
    and must never fall below the certified per-graph floor."""
    if cell not in quality_cells():
        pytest.skip(f"cell {cell} no longer exists; re-record the baseline")
    baseline_row = _QUALITY_BASELINE["retained_fraction"][cell]
    for name, build in FAMILIES.items():
        recorded = baseline_row.get(name)
        if recorded is None:
            pytest.skip(f"family {name} not in recorded baseline; re-record")
        graph = build()
        current = measure_cell(cell, graph)
        meta = _QUALITY_BASELINE["families"][name]
        floor_fraction = meta["floor"] / meta["m"] if meta["m"] else 1.0
        assert current >= floor_fraction, (
            f"{cell} on {name}: retained fraction {current:.4f} is below the "
            f"certified maximal-chordal floor {floor_fraction:.4f} — the "
            "output cannot be a maximal chordal subgraph; this is a "
            "correctness bug, not a quality regression"
        )
        assert current >= recorded - QUALITY_TOLERANCE, (
            f"{cell} on {name}: retained fraction {current:.4f} vs recorded "
            f"{recorded:.4f} (drop > {QUALITY_TOLERANCE}); if intentional, "
            f"re-record with `{_RECORD_CMD}`"
        )


@_skip_on_problem
@pytest.mark.parametrize("family", sorted(WEIGHTED_FAMILY_SEEDS))
def test_weighted_dominates_unweighted(family):
    """The weighted engine must retain at least as much weight as the
    unweighted pipeline (its portfolio contains that pipeline's exact
    edge set, so this holds by construction), and must stay within
    tolerance of its recorded retained weight."""
    recorded = _QUALITY_BASELINE["weighted"].get(family)
    if recorded is None:
        pytest.skip(f"weighted family {family} not in baseline; re-record")
    current = measure_weighted(family)
    assert current["weighted"] >= current["unweighted"] - 1e-9, (
        f"{family}: weighted engine retained {current['weighted']:.2f} < "
        f"unweighted pipeline {current['unweighted']:.2f} — the portfolio "
        "floor invariant is broken"
    )
    total = max(recorded["total_weight"], 1e-12)
    drop = (recorded["weighted"] - current["weighted"]) / total
    assert drop <= QUALITY_TOLERANCE, (
        f"{family}: weighted retained weight {current['weighted']:.2f} vs "
        f"recorded {recorded['weighted']:.2f} (relative drop {drop:.4f} > "
        f"{QUALITY_TOLERANCE}); if intentional, re-record with "
        f"`{_RECORD_CMD}`"
    )


def test_native_speedup_live():
    """The compiled sync round loop must beat the NumPy one by at least
    NATIVE_MIN_SPEEDUP on RMAT-ER(14), both timed now on this host.

    One ``LocalState`` serves both sides (``drive`` resets it), so the
    ratio compares the round bodies alone, not graph construction.  One
    native thread: the compiled path must win on kernel speed, not on
    parallelism.
    """
    from repro.core.native import native_status

    status = native_status()
    if not status.available:
        pytest.skip(status.detail)

    from repro.core.runtime import (
        LocalState,
        NativeThreadTeamExecutor,
        SerialExecutor,
        drive,
    )
    from repro.graph.generators.rmat import rmat_er
    from repro.util.timing import median_of

    state = LocalState(rmat_er(14, seed=1))
    with SerialExecutor() as serial, NativeThreadTeamExecutor(1) as native:
        numpy_s = median_of(
            lambda: drive(state, serial, schedule="synchronous"), NATIVE_REPEATS
        )
        native_s = median_of(
            lambda: drive(state, native, schedule="synchronous"), NATIVE_REPEATS
        )
    ratio = numpy_s / native_s
    print(
        f"native sync speedup on er14: {ratio:.2f}x "
        f"({numpy_s * 1e3:.2f} ms NumPy vs {native_s * 1e3:.2f} ms native)"
    )
    assert ratio >= NATIVE_MIN_SPEEDUP, (
        f"live native sync speedup on er14 is {ratio:.2f}x "
        f"({numpy_s * 1e3:.2f} ms NumPy vs {native_s * 1e3:.2f} ms native), "
        f"below the {NATIVE_MIN_SPEEDUP}x gate; the compiled round bodies "
        "regressed relative to the NumPy loop"
    )


def test_native_sweep_speedup_live():
    """The compiled asynchronous sweep must beat the reference fallback by
    at least SWEEP_MIN_SPEEDUP on RMAT-ER(14), both timed now on this host.

    One ``LocalState`` and one serial executor serve both sides; the
    reference fallback is forced with ``REPRO_NATIVE=0``, as the tests
    force it, and the backend is re-resolved afterwards.
    """
    from repro.core.native import DISABLE_ENV, native_status
    from repro.core.native.build import resolve

    status = native_status()
    if not status.available:
        pytest.skip(status.detail)

    from repro.core.runtime import LocalState, SerialExecutor, drive
    from repro.graph.generators.rmat import rmat_er
    from repro.util.timing import median_of

    state = LocalState(rmat_er(14, seed=1))
    serial = SerialExecutor()
    assert drive(state, serial).kernel_path == "native"
    native_s = median_of(lambda: drive(state, serial), NATIVE_REPEATS)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(DISABLE_ENV, "0")
            resolve(force=True)
            assert drive(state, serial).kernel_path == "numpy"
            loop_s = median_of(lambda: drive(state, serial), NATIVE_REPEATS)
    finally:
        resolve(force=True)
    ratio = loop_s / native_s
    print(
        f"native sweep speedup on er14: {ratio:.1f}x "
        f"({loop_s * 1e3:.1f} ms reference fallback vs {native_s * 1e3:.2f} ms native)"
    )
    assert ratio >= SWEEP_MIN_SPEEDUP, (
        f"live native sweep speedup on er14 is {ratio:.1f}x "
        f"({loop_s * 1e3:.1f} ms reference fallback vs {native_s * 1e3:.2f} ms native), "
        f"below the {SWEEP_MIN_SPEEDUP:g}x gate; the compiled sweep regressed "
        "relative to the reference fallback"
    )
