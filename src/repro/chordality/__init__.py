"""Chordality machinery: recognition, elimination orderings, maximality.

A graph is chordal iff it admits a *perfect elimination ordering* (PEO).
This package provides the two classical linear-time ordering algorithms
(maximum cardinality search and lexicographic BFS), the Tarjan–Yannakakis
PEO verifier, a chordality test built on them, hole (chordless cycle)
extraction for counterexample reporting, and the maximality checker used to
validate the output of Algorithm 1 against Theorem 2.
"""

from repro.chordality.mcs import mcs_order, mcs_peo
from repro.chordality.lexbfs import lexbfs_order, lexbfs_peo
from repro.chordality.peo import is_perfect_elimination_ordering, peo_violation
from repro.chordality.recognition import is_chordal, find_hole
from repro.chordality.maximality import (
    AddabilityOracle,
    is_maximal_chordal_subgraph,
    edge_addable,
    addable_edges,
    addable_edges_slow,
    assert_valid_extraction,
)
from repro.chordality.verify import VerificationReport, verify_extraction
from repro.chordality.quality import (
    f_lower_bound,
    maximal_chordal_floor,
    chordal_edge_ceiling,
    clique_number_chordal,
    gnp_envelope,
    exact_max_chordal,
    retained_fraction,
)

__all__ = [
    "mcs_order",
    "mcs_peo",
    "lexbfs_order",
    "lexbfs_peo",
    "is_perfect_elimination_ordering",
    "peo_violation",
    "is_chordal",
    "find_hole",
    "is_maximal_chordal_subgraph",
    "AddabilityOracle",
    "edge_addable",
    "addable_edges",
    "addable_edges_slow",
    "assert_valid_extraction",
    "VerificationReport",
    "verify_extraction",
    "f_lower_bound",
    "maximal_chordal_floor",
    "chordal_edge_ceiling",
    "clique_number_chordal",
    "gnp_envelope",
    "exact_max_chordal",
    "retained_fraction",
]
