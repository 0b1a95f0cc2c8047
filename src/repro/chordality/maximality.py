"""Maximality validation for extracted chordal subgraphs (Theorem 2).

A chordal subgraph ``G' = (V, EC)`` of ``G = (V, E)`` is *maximal* when
adding any edge of ``E \\ EC`` to ``EC`` destroys chordality.

Fast addability criterion
-------------------------
For a chordal graph ``H`` and a non-edge ``(u, v)``, ``H + uv`` is chordal
iff ``H`` contains **no induced u–v path with two or more internal
vertices** (any chordless cycle of ``H + uv`` must use the new edge, and
the rest of such a cycle is exactly such a path).  That in turn holds iff
``u`` and ``v`` lie in *different components* of ``H - (N(u) ∩ N(v))``:

* if a path survives the removal of the common neighbors, the shortest
  surviving path is induced and has length >= 3 (a length-2 path would go
  through a removed common neighbor), so ``uv`` is not addable;
* conversely, every induced u–v path through a common neighbor ``c`` is
  forced to be exactly ``u-c-v`` (the chords ``uc``, ``cv`` would shortcut
  anything longer), so if removal of common neighbors disconnects them no
  long induced path exists and ``uv`` is addable.

:class:`AddabilityOracle` answers this test for every production caller:
the completion pass (:mod:`repro.core.maximalize`), the maximality
certificate (:func:`addable_edges`, and through it
:func:`repro.chordality.verify.verify_extraction`), the sharded boundary
stitcher and the distributed baseline's repair mode.  Two cases need no
search at all — endpoints in different components of ``H`` are addable,
and endpoints in one component with no common neighbour are not — and the
rest take one search from both ends at once.  The answer is a
reachability boolean, so it does not depend on the order the search
expands vertices in: every result
(and every counterexample a failure report prints) is determined by the
candidate order alone.  :func:`edge_addable` is the plain-Python
reference the test suite cross-validates the oracle against.

Reproduction note (paper erratum)
---------------------------------
The paper's Theorem 2 claims connectivity of ``EC`` implies maximality;
its proof ends by exhibiting a cycle of length > 3 through the added edge
and declaring chordality destroyed — but that cycle can be *chorded*.
Algorithm 1's output is indeed occasionally non-maximal (a concrete
counterexample lives in ``tests/test_theorem2_gap.py``); the library
provides :func:`repro.core.maximalize.maximalize_chordal_edges` to close
the gap, and the experiment ``maximality_gap`` quantifies how small it is
in practice.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.chordality.recognition import is_chordal
from repro.core.native.bodies import native_module, pointers
from repro.errors import GraphFormatError
from repro.graph.builder import (
    canonical_keys,
    edge_keys,
    from_edge_array,
    graph_keys,
    key_index,
    key_pairs,
)
from repro.graph.csr import CSRGraph

__all__ = [
    "AddabilityOracle",
    "edge_addable",
    "addable_edges",
    "addable_edges_slow",
    "missing_edges",
    "is_maximal_chordal_subgraph",
    "assert_valid_extraction",
]


def edge_addable(adj: list[set[int]], u: int, v: int) -> bool:
    """Can ``(u, v)`` be added to the chordal graph ``adj`` keeping it chordal?

    ``adj`` is an adjacency-set list of a **chordal** graph; ``(u, v)``
    must currently be a non-edge.  Implements the component criterion from
    the module docstring with an early-exit BFS from ``u`` toward ``v``
    avoiding ``N(u) ∩ N(v)``.

    The reference implementation: production callers use
    :class:`AddabilityOracle`, and the test suite checks the two agree.
    """
    if v in adj[u]:
        raise ValueError(f"({u}, {v}) is already an edge")
    common = adj[u] & adj[v]
    seen = {u} | common  # banned vertices count as seen
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if v in adj[x]:
            return False  # reachable avoiding common nbrs -> long induced path
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return True


def _as_pairs(edges) -> tuple[np.ndarray, np.ndarray]:
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return np.ascontiguousarray(pairs[:, 0]), np.ascontiguousarray(pairs[:, 1])


class AddabilityOracle:
    """A chordal graph ``H`` that answers "can ``uv`` be added?" and grows.

    ``H`` starts empty on ``num_vertices`` vertices; ``capacity[v]``
    bounds how many neighbours ``v`` will ever have in it (for a subgraph
    of ``G`` that grows inside ``G``, ``G``'s degrees).  Each vertex owns
    ``capacity[v]`` slots of one neighbour array with a fill count — the
    slot layout of a CSR — so accepting an edge is two O(1) writes with
    no reallocation.  A union-find over ``H``'s components and
    epoch-stamped visited marks make one test cost:

    * O(α) when ``u`` and ``v`` lie in different components (addable);
    * O(deg u + deg v) when they share a component but no neighbour (not
      addable: nothing is removed, and the component connects them);
    * otherwise a search from both ends avoiding ``N(u) ∩ N(v)``: one
      side grows from ``N(u)``, the other from ``N(v)``, a vertex at a
      time, always on the side with less adjacency queued, until they
      meet (not addable) or one runs dry (addable); a hub's row is read
      only once the other side has at least as much queued.

    The loops run in C when the compiled backend resolves (exactly when
    the round bodies do) and in an interpreted fallback over the same
    arrays otherwise; both give the same answers.  ``H`` must stay
    chordal (every edge added outside :meth:`greedy` is the caller's
    responsibility), and candidates must be non-edges of ``H``.
    """

    def __init__(self, num_vertices: int, capacity) -> None:
        n = int(num_vertices)
        self.num_vertices = n
        self._capacity = np.asarray(capacity, dtype=np.int64).reshape(n)
        if n and self._capacity.min() < 0:
            raise ValueError("capacity must be non-negative")
        self._start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._capacity, out=self._start[1:])
        self._fill = np.zeros(n, dtype=np.int64)
        self._nbr = np.zeros(int(self._start[-1]), dtype=np.int64)
        self._uf = np.arange(n, dtype=np.int64)
        self._stamp = np.zeros(n, dtype=np.int64)
        self._seen = np.zeros(n, dtype=np.int64)
        self._near = np.zeros(n, dtype=np.int64)
        self._queue = np.zeros(n, dtype=np.int64)
        self._state = np.zeros(2, dtype=np.int64)  # [version, epoch]

    @classmethod
    def of_graph(cls, graph: CSRGraph) -> "AddabilityOracle":
        """An oracle holding exactly ``graph`` (no room to grow)."""
        oracle = cls(graph.num_vertices, graph.degrees())
        oracle.add_edges(graph.edge_array())
        return oracle

    @classmethod
    def completion(cls, graph: CSRGraph, edges) -> tuple["AddabilityOracle", np.ndarray]:
        """An oracle holding the chordal edge set ``edges`` with room for
        every edge of ``graph``, and the ``(k, 2)`` edges of ``graph`` it
        lacks in ``(u, v)`` lexicographic order with ``u < v``: the
        completion pass's start.  Compiled, one merge of ``graph``'s
        sorted rows with the canonical rows of ``edges``; interpreted, a
        diff of sorted edge keys.  Edges of ``edges`` that ``graph``
        lacks get their own slots."""
        n = graph.num_vertices
        rows = np.ascontiguousarray(np.asarray(edges, dtype=np.int64).reshape(-1, 2))
        module = native_module(required=False)
        if module is None:
            have = edge_keys(n, rows)
            keys = graph_keys(graph)
            candidates = key_pairs(n, keys[key_index(have, keys) < 0])
            extra = key_pairs(n, have[key_index(keys, have) < 0])
            oracle = cls(n, graph.degrees() + np.bincount(extra.ravel(), minlength=n))
            oracle.add_edges(key_pairs(n, have))
            return oracle, candidates
        ffi, lib = module.ffi, module.lib
        g = graph if graph.sorted_adjacency else graph.with_sorted_adjacency()
        wide = int(g.indices.dtype == np.int64)
        graph_ptrs = (
            n, *pointers(ffi, g.indptr), *pointers(ffi, g.indices, dtype=g.indices.dtype), wide
        )
        capacity = np.zeros(n, dtype=np.int64)
        room = lib.repro_completion_room
        k = room(*graph_ptrs, rows.shape[0], *pointers(ffi, rows, capacity))
        if k < 0:  # not canonical: sort, drop loops and repeats
            rows = key_pairs(n, edge_keys(n, rows))
            capacity[:] = 0
            k = room(*graph_ptrs, rows.shape[0], *pointers(ffi, rows, capacity))
        oracle = cls(n, capacity)
        pairs = np.empty((2, k), dtype=np.int64)
        lib.repro_completion_build(
            *graph_ptrs, rows.shape[0],
            *pointers(ffi, rows, oracle._start, oracle._fill, oracle._nbr, oracle._uf,
                      oracle._stamp, oracle._state, pairs[0], pairs[1]),
        )
        return oracle, pairs.T

    def _check(self, us: np.ndarray, vs: np.ndarray, *, grows: bool = True) -> None:
        """Refuse endpoints the arrays cannot hold (the C loops do no
        bounds checks): out-of-range ids and, when the edges may be
        added, more neighbours at a vertex than its capacity."""
        if not us.size:
            return
        n = self.num_vertices
        if min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= n:
            raise GraphFormatError(f"edge endpoints must lie in [0, {n - 1}]")
        if not grows:
            return
        need = self._fill + np.bincount(np.concatenate((us, vs)), minlength=n)
        over = np.flatnonzero(need > self._capacity)
        if over.size:
            v = int(over[0])
            raise ValueError(
                f"vertex {v} would hold {int(need[v])} neighbours, over its "
                f"capacity {int(self._capacity[v])}"
            )

    def add_edges(self, edges) -> None:
        """Add ``(k, 2)`` edges to ``H`` unconditionally."""
        us, vs = _as_pairs(edges)
        self._check(us, vs)
        module = native_module(required=False)
        if module is None:
            lists = _Lists(self)
            for u, v in zip(us.tolist(), vs.tolist()):
                lists.link(u, v)
            lists.store(self)
            return
        module.lib.repro_oracle_add(
            us.size,
            *pointers(module.ffi, us, vs, self._start, self._fill, self._nbr,
                      self._uf, self._stamp, self._state),
        )

    def greedy(self, candidates, *, max_passes: int | None = None) -> tuple[np.ndarray, int]:
        """Offer ``(k, 2)`` candidates in order, adding each addable one.

        Passes repeat until one admits nothing (an admission can unlock
        an earlier rejection), or ``max_passes`` passes ran.  A rejected
        candidate is searched again only once one of its endpoints has
        gained an edge and its common-neighbour count has changed: ``H``
        only gains edges, so an unchanged ban set keeps the path that
        rejected it.

        Returns ``(accepted_pass, passes)``: ``accepted_pass[i]`` is the
        1-based pass that admitted candidate ``i``, 0 if it was rejected
        (``accepted_pass > 0`` is the accepted mask, and a stable sort on
        it gives admission order); ``passes`` is the number of passes run.
        """
        us, vs = _as_pairs(candidates)
        self._check(us, vs)
        k = us.size
        limit = 0 if max_passes is None else int(max_passes)
        module = native_module(required=False)
        if module is None:
            lists = _Lists(self)
            accepted, passes = lists.greedy(us.tolist(), vs.tolist(), limit)
            lists.store(self)
            return np.asarray(accepted, dtype=np.int64).reshape(k), passes
        accepted = np.zeros(k, dtype=np.int64)
        scratch = np.zeros((2, k), dtype=np.int64)
        passes = module.lib.repro_oracle_greedy(
            k,
            *pointers(module.ffi, us, vs),
            limit,
            self.num_vertices,
            *pointers(module.ffi, self._start, self._fill, self._nbr, self._uf,
                      self._stamp, self._seen, self._near, self._queue,
                      self._state, scratch[0], scratch[1], accepted),
        )
        return accepted, int(passes)

    def first_addable(self, candidates, limit: int | None = None) -> np.ndarray:
        """Indices of the first ``limit`` addable candidates (all of them
        when ``limit`` is ``None``), in candidate order; ``H`` is left
        unchanged."""
        us, vs = _as_pairs(candidates)
        self._check(us, vs, grows=False)
        cap = 0 if limit is None else max(int(limit), 1)
        module = native_module(required=False)
        if module is None:
            found = _Lists(self).first(us.tolist(), vs.tolist(), cap)
            return np.asarray(found, dtype=np.int64)
        out = np.zeros(us.size, dtype=np.int64)
        found = module.lib.repro_oracle_first(
            us.size,
            *pointers(module.ffi, us, vs),
            cap,
            self.num_vertices,
            *pointers(module.ffi, self._start, self._fill, self._nbr, self._uf,
                      self._seen, self._near, self._queue, self._state, out),
        )
        return out[:found].copy()



class _Lists:
    """The interpreted fallback: the oracle's arrays as Python lists,
    running the same loops as the C source in
    :mod:`repro.core.native.build`; :meth:`store` writes ``H`` back.
    Visited marks need no write-back: every mark is at most the stored
    epoch, and later tests use fresh epochs."""

    def __init__(self, oracle: AddabilityOracle) -> None:
        self.start = oracle._start.tolist()
        self.fill = oracle._fill.tolist()
        self.nbr = oracle._nbr.tolist()
        self.uf = oracle._uf.tolist()
        self.stamp = oracle._stamp.tolist()
        self.seen = oracle._seen.tolist()
        self.near = oracle._near.tolist()
        self.version, self.epoch = oracle._state.tolist()

    def store(self, oracle: AddabilityOracle) -> None:
        oracle._fill[:] = self.fill
        oracle._nbr[:] = self.nbr
        oracle._uf[:] = self.uf
        oracle._stamp[:] = self.stamp
        oracle._state[:] = (self.version, self.epoch)

    def find(self, x: int) -> int:
        uf = self.uf
        while uf[x] != x:
            uf[x] = uf[uf[x]]  # path halving
            x = uf[x]
        return x

    def link(self, u: int, v: int) -> None:
        self.nbr[self.start[u] + self.fill[u]] = v
        self.fill[u] += 1
        self.nbr[self.start[v] + self.fill[v]] = u
        self.fill[v] += 1
        ru, rv = self.find(u), self.find(v)
        if ru != rv:
            self.uf[rv] = ru
        self.version += 1
        self.stamp[u] = self.stamp[v] = self.version

    def addable(self, u: int, v: int, common: int = 0) -> tuple[bool, int]:
        """The test for endpoints sharing a component, and ``|C|``; a
        ``common`` equal to ``|C|`` answers False with no search."""
        start, fill, nbr, seen, near = self.start, self.fill, self.nbr, self.seen, self.near
        self.epoch += 2
        e = self.epoch
        for y in nbr[start[v] : start[v] + fill[v]]:
            near[y] = e - 1
        seen[u] = e
        near[v] = e
        side_u: list[int] = []
        c = pu = pv = 0
        for y in nbr[start[u] : start[u] + fill[u]]:
            if seen[y] == e:
                continue
            seen[y] = e
            if near[y] == e - 1:
                near[y] = e
                c += 1
            else:
                side_u.append(y)
                pu += fill[y]
        if c == 0 or c == common:
            return False, c
        side_v: list[int] = []
        for y in nbr[start[v] : start[v] + fill[v]]:
            if near[y] == e - 1:
                near[y] = e
                side_v.append(y)
                pv += fill[y]
        uh = vh = 0
        while True:  # the lists grow while they are walked: two FIFOs
            if pu <= pv:  # the side with less adjacency queued goes next
                if uh == len(side_u):
                    return True, c
                x = side_u[uh]
                uh += 1
                pu -= fill[x]
                for y in nbr[start[x] : start[x] + fill[x]]:
                    if seen[y] == e:
                        continue
                    if near[y] == e:
                        return False, c  # the sides meet: a path avoids C
                    seen[y] = e
                    side_u.append(y)
                    pu += fill[y]
            else:
                if vh == len(side_v):
                    return True, c
                x = side_v[vh]
                vh += 1
                pv -= fill[x]
                for y in nbr[start[x] : start[x] + fill[x]]:
                    if near[y] == e:
                        continue
                    if seen[y] == e:
                        return False, c
                    near[y] = e
                    side_v.append(y)
                    pv += fill[y]

    def greedy(self, us: list[int], vs: list[int], max_passes: int) -> tuple[list[int], int]:
        accepted = [0] * len(us)  # a waiting candidate's |C|, as in C
        tested_at = [-1] * len(us)
        alive = list(range(len(us)))
        stamp, passes = self.stamp, 0
        while alive and (max_passes <= 0 or passes < max_passes):
            passes += 1
            keep = []
            for i in alive:
                u, v = us[i], vs[i]
                if self.find(u) != self.find(v):
                    ok = True
                elif tested_at[i] >= stamp[u] and tested_at[i] >= stamp[v]:
                    ok = False
                else:
                    ok, accepted[i] = self.addable(u, v, accepted[i])
                    if not ok:
                        tested_at[i] = self.version
                if ok:
                    self.link(u, v)
                    accepted[i] = passes
                else:
                    keep.append(i)
            if len(keep) == len(alive):
                break
            alive = keep
        for i in alive:
            accepted[i] = 0
        return accepted, passes

    def first(self, us: list[int], vs: list[int], limit: int) -> list[int]:
        found: list[int] = []
        for i, (u, v) in enumerate(zip(us, vs)):
            if limit > 0 and len(found) >= limit:
                break
            if self.find(u) != self.find(v) or self.addable(u, v)[0]:
                found.append(i)
        return found

def _missing_edge_array(graph: CSRGraph, subgraph: CSRGraph) -> np.ndarray:
    """:func:`missing_edges` as a ``(k, 2)`` int64 array."""
    rows = key_pairs(graph.num_vertices, graph_keys(graph))
    probe = canonical_keys(subgraph.num_vertices, rows)
    return rows[key_index(graph_keys(subgraph), probe) < 0]


def missing_edges(graph: CSRGraph, subgraph: CSRGraph) -> list[tuple[int, int]]:
    """Edges of ``graph`` absent from ``subgraph``, in ``(u, v)``
    lexicographic order with ``u < v``.

    This is *the* candidate order every maximality scan iterates
    (:func:`addable_edges`, :func:`addable_edges_slow`, the completion
    pass in :mod:`repro.core.maximalize`): an explicit deterministic
    sequence instead of ad-hoc set differences, so failure reports name
    the same counterexample edges on every run.
    """
    pairs = _missing_edge_array(graph, subgraph)
    return list(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()))


def addable_edges(
    graph: CSRGraph,
    subgraph: CSRGraph,
    *,
    limit: int | None = None,
) -> list[tuple[int, int]]:
    """Edges of ``graph`` absent from ``subgraph`` whose addition keeps the
    subgraph chordal.

    For a *maximal* chordal subgraph this list is empty.  ``limit`` stops
    the scan after the given number of hits (fail-fast in property tests).
    ``subgraph`` must be chordal (checked).
    """
    if graph.num_vertices != subgraph.num_vertices:
        raise GraphFormatError(
            f"vertex sets differ: {graph.num_vertices} vs {subgraph.num_vertices}"
        )
    if not is_chordal(subgraph):
        raise ValueError("subgraph must be chordal to test edge addability")
    return _addable_edges(graph, subgraph, limit)


def _addable_edges(
    graph: CSRGraph, subgraph: CSRGraph, limit: int | None
) -> list[tuple[int, int]]:
    """:func:`addable_edges` for a subgraph already known to be chordal."""
    candidates = _missing_edge_array(graph, subgraph)
    hits = candidates[AddabilityOracle.of_graph(subgraph).first_addable(candidates, limit)]
    return list(zip(hits[:, 0].tolist(), hits[:, 1].tolist()))


def addable_edges_slow(
    graph: CSRGraph, subgraph: CSRGraph, *, limit: int | None = None
) -> list[tuple[int, int]]:
    """Oracle version of :func:`addable_edges`: rebuild + full chordality
    recognition per candidate.  Kept for cross-validation in tests."""
    if graph.num_vertices != subgraph.num_vertices:
        raise GraphFormatError(
            f"vertex sets differ: {graph.num_vertices} vs {subgraph.num_vertices}"
        )
    base_edges = subgraph.edge_array()
    found: list[tuple[int, int]] = []
    for u, v in missing_edges(graph, subgraph):
        candidate = np.vstack((base_edges, np.asarray([[u, v]], dtype=np.int64)))
        if is_chordal(from_edge_array(graph.num_vertices, candidate)):
            found.append((u, v))
            if limit is not None and len(found) >= limit:
                break
    return found


def is_maximal_chordal_subgraph(graph: CSRGraph, subgraph: CSRGraph) -> bool:
    """True iff ``subgraph`` is chordal, is a subgraph of ``graph``, and no
    edge of ``graph`` can be added without breaking chordality: a
    :func:`~repro.chordality.verify.verify_extraction` verdict."""
    if graph.num_vertices != subgraph.num_vertices:
        return False
    from repro.chordality.verify import verify_extraction  # verify imports this module

    return verify_extraction(graph, subgraph, max_counterexamples=1).ok


def assert_valid_extraction(
    graph: CSRGraph, subgraph: CSRGraph, *, check_maximal: bool = True
) -> None:
    """Raise ``AssertionError`` with :func:`~repro.chordality.verify.verify_extraction`'s
    diagnosis if ``subgraph`` is not a (maximal, when requested) chordal
    subgraph of ``graph``.

    Used by integration tests and the examples' ``--verify`` mode.
    """
    if graph.num_vertices != subgraph.num_vertices:
        raise AssertionError(
            f"vertex count mismatch: {graph.num_vertices} != {subgraph.num_vertices}"
        )
    from repro.chordality.verify import verify_extraction

    verify_extraction(graph, subgraph, check_maximal=check_maximal).raise_if_invalid()
