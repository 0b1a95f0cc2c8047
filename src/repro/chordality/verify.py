"""One-call certification of extraction results: :func:`verify_extraction`.

Bit-identity between two engines shows only that they agree, not that
either returned a chordal (and, after completion, maximal) subgraph of
the input (paper Theorems 1–2); certifying that takes the oracles.
This module composes the
library's oracles — :func:`repro.chordality.recognition.is_chordal` /
:func:`~repro.chordality.recognition.find_hole` and
:func:`repro.chordality.maximality.addable_edges` — into a single
verdict object that tests, the property suite and ``repro extract
--verify`` all share.

Unlike :func:`repro.chordality.maximality.assert_valid_extraction` (which
raises on first failure), :func:`verify_extraction` always runs every
applicable check and returns a :class:`VerificationReport` carrying the
counterexamples, so a failing property seed prints a complete diagnosis
in one go.

Reports are **deterministic**: for a given ``(graph, extracted)`` pair
the counterexamples are always the same, run to run and machine to
machine — invented edges are sorted, and the maximality scan iterates
:func:`repro.chordality.maximality.missing_edges` in lexicographic
order.  Each addability answer is a reachability boolean that does not
depend on search order, so the candidate order alone fixes which edges
are reported.  A failure message pasted into a bug report therefore
names the exact edges a replay will name again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chordality.maximality import _addable_edges, missing_edges
from repro.chordality.recognition import find_hole, is_chordal
from repro.graph.builder import from_edge_array
from repro.graph.csr import CSRGraph

__all__ = ["VerificationReport", "verify_extraction"]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of :func:`verify_extraction` with counterexamples attached.

    Attributes
    ----------
    edges_valid:
        Every output edge is an edge of the input graph.
    chordal:
        The output subgraph is chordal (Theorem 1).
    maximal:
        No input edge can be added keeping chordality (Theorem 2);
        ``None`` when the check was skipped (``check_maximal=False``).
    invented_edges / hole / addable:
        Counterexamples for the respective failed check (bounded samples;
        empty/``None`` when the check passed or was skipped).
    """

    edges_valid: bool
    chordal: bool
    maximal: bool | None
    invented_edges: list[tuple[int, int]] = field(default_factory=list)
    hole: list[int] | None = None
    addable: list[tuple[int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff every check that ran passed."""
        return self.edges_valid and self.chordal and self.maximal is not False

    def __str__(self) -> str:  # the message pytest prints on `assert r.ok, r`
        if self.ok:
            checks = "chordal" + ("" if self.maximal is None else " + maximal")
            return f"valid extraction ({checks})"
        problems = []
        if not self.edges_valid:
            problems.append(
                f"output invents edges not in the input: {self.invented_edges}"
            )
        if not self.chordal:
            problems.append(f"output is not chordal; hole: {self.hole}")
        if self.maximal is False:
            problems.append(
                f"output is not maximal; addable edges include {self.addable}"
            )
        return "; ".join(problems)

    def raise_if_invalid(self) -> None:
        """Raise ``AssertionError`` with the full diagnosis unless :attr:`ok`."""
        if not self.ok:
            raise AssertionError(str(self))


def verify_extraction(
    graph: CSRGraph,
    extracted,
    *,
    check_maximal: bool = True,
    max_counterexamples: int = 3,
) -> VerificationReport:
    """Certify one extraction result against the input graph.

    Parameters
    ----------
    graph:
        The input graph the extraction ran on.
    extracted:
        The result in any of the library's shapes: a
        :class:`~repro.core.extract.ChordalResult`, a ``(k, 2)`` edge
        array, or an already-built subgraph :class:`CSRGraph` on the same
        vertex set.
    check_maximal:
        Also run the maximality certificate.  Note Algorithm 1 alone does
        not guarantee maximality (the paper's Theorem 2 overclaims — see
        :mod:`repro.chordality.maximality`); extractions that must pass
        this check should run with ``maximalize=True``.
    max_counterexamples:
        Bound on the invented-edge and addable-edge samples gathered for
        the report (the scans stop early once reached).

    Returns
    -------
    :class:`VerificationReport` — truthiness via ``report.ok``, one-line
    diagnosis via ``str(report)``.
    """
    if isinstance(extracted, CSRGraph):
        subgraph = extracted
        if subgraph.num_vertices != graph.num_vertices:
            raise ValueError(
                f"vertex sets differ: {graph.num_vertices} vs "
                f"{subgraph.num_vertices}"
            )
    else:
        edges = getattr(extracted, "edges", extracted)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        # Build unchecked (unlike repro.graph.ops.edge_subgraph): an edge
        # the input graph lacks must land in the report, not in a raise.
        # Rows the builder would drop or reject (out-of-range endpoints,
        # self-loops — no valid extraction emits either) are gathered
        # here, because the edge-set diff below can no longer see them.
        n = graph.num_vertices
        malformed = (
            (edges[:, 0] < 0)
            | (edges[:, 1] < 0)
            | (edges[:, 0] >= n)
            | (edges[:, 1] >= n)
            | (edges[:, 0] == edges[:, 1])
        )
        bad_rows = [(int(u), int(v)) for u, v in edges[malformed]]
        subgraph = from_edge_array(n, edges, allow_out_of_range=True)

    invented = missing_edges(subgraph, graph)
    if not isinstance(extracted, CSRGraph):
        invented = sorted(set(bad_rows)) + invented
    edges_valid = not invented
    chordal = is_chordal(subgraph)
    hole = None if chordal else find_hole(subgraph)
    maximal: bool | None = None
    addable: list[tuple[int, int]] = []
    if check_maximal and edges_valid and chordal:
        # Chordality is already established: skip addable_edges' re-check.
        addable = _addable_edges(graph, subgraph, max_counterexamples)
        maximal = not addable
    elif check_maximal:
        maximal = False  # can't be a maximal chordal subgraph if not even valid
    return VerificationReport(
        edges_valid=edges_valid,
        chordal=chordal,
        maximal=maximal,
        invented_edges=invented[:max_counterexamples],
        hole=hole,
        addable=addable,
    )
