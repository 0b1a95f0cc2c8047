"""repro — Multithreaded maximal chordal subgraph extraction.

A complete reproduction of *"A Novel Multithreaded Algorithm for Extracting
Maximal Chordal Subgraphs"* (Halappanavar, Feo, Dempsey, Ali, Bhowmick —
ICPP 2012), including the graph substrate, the paper's test-suite
generators, the serial and native (nogil thread team) extraction
engines, the batch pipeline (:func:`extract_many`), graph-file
IO (:func:`load_graph` / :func:`save_graph` for MatrixMarket, SNAP, METIS,
gzip edge lists, npz), the Dearing–Shier–Warner and distributed baselines,
chordality verification, machine models for the Cray XMT and AMD Opteron
platforms, and a harness regenerating every table and figure of the
paper's evaluation.

Quickstart
----------
>>> from repro import rmat_b, extract_maximal_chordal_subgraph
>>> g = rmat_b(10, seed=1)
>>> result = extract_maximal_chordal_subgraph(g)
>>> 0 < result.num_chordal_edges <= g.num_edges
True

Many graphs under one regime are a session — one validated
:class:`ExtractionConfig`, one :class:`Extractor`:

>>> with Extractor(ExtractionConfig()) as ex:
...     results = ex.extract_many([g, g])
>>> len(results)
2

From the shell, the same workflow is ``repro generate`` / ``repro
extract`` (see :mod:`repro.cli`).  ``README.md`` has the full tour.
"""

from repro.core import (
    ChordalResult,
    ExtractionConfig,
    Extractor,
    IncrementalExtractor,
    EngineSpec,
    get_engine,
    engine_names,
    SCHEDULES,
    extract_maximal_chordal_subgraph,
    extract_many,
    reference_max_chordal,
    stitch_components,
)
from repro.errors import ConfigError, ReproError, SessionClosedError
from repro.chordality import (
    is_chordal,
    is_maximal_chordal_subgraph,
    mcs_peo,
    lexbfs_peo,
    is_perfect_elimination_ordering,
    verify_extraction,
)
from repro.graph import (
    CSRGraph,
    build_graph,
    from_edge_array,
    edge_subgraph,
    bfs_renumber,
    connected_components,
    load_graph,
    save_graph,
)
from repro.graph.generators import (
    rmat_er,
    rmat_g,
    rmat_b,
    rmat_graph,
    RMATParams,
    bio_network,
    correlation_network,
    synthetic_expression,
)

__version__ = "1.1.0"

__all__ = [
    "ChordalResult",
    "ExtractionConfig",
    "Extractor",
    "IncrementalExtractor",
    "EngineSpec",
    "get_engine",
    "engine_names",
    "SCHEDULES",
    "ConfigError",
    "ReproError",
    "SessionClosedError",
    "extract_maximal_chordal_subgraph",
    "extract_many",
    "reference_max_chordal",
    "stitch_components",
    "is_chordal",
    "is_maximal_chordal_subgraph",
    "verify_extraction",
    "mcs_peo",
    "lexbfs_peo",
    "is_perfect_elimination_ordering",
    "CSRGraph",
    "build_graph",
    "from_edge_array",
    "edge_subgraph",
    "bfs_renumber",
    "connected_components",
    "load_graph",
    "save_graph",
    "rmat_er",
    "rmat_g",
    "rmat_b",
    "rmat_graph",
    "RMATParams",
    "bio_network",
    "correlation_network",
    "synthetic_expression",
    "__version__",
]
