"""Stateful property test of the daemon's ``mutate`` sessions.

A Hypothesis :class:`~hypothesis.stateful.RuleBasedStateMachine` drives
one connection to a live :class:`~repro.service.ReproServer` through
random interleavings of: opening a session, valid insert/delete batches,
rejected batches, extracting the session graph and extracting a
bystander graph.  The client keeps a mirror of the session graph and
checks, after every step that answers:

* every mutate answer equals a local maximalizing extraction of the
  mirror (``Extractor(ExtractionConfig(maximalize=True))``);
* a batch rejected at op ``k`` leaves ops ``0..k-1`` applied (and a
  batch the protocol cannot decode applies nothing), and the server's
  ``mutations`` counter counts exactly the applied ops;
* the bystander graph stays cached through every mutation;
* an applied batch evicts the pre-mutation graph's cache entry.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import ExtractionConfig
from repro.core.session import Extractor
from repro.graph.builder import from_edge_array
from repro.graph.generators import gnp_random_graph
from repro.service import ReproServer, ServiceClient, ServiceConfig, ServiceError
from repro.service.protocol import graph_content_hash

N = 10
PAIRS = list(itertools.combinations(range(N), 2))
# A different vertex count, so no session graph ever shares its content.
BYSTANDER = gnp_random_graph(N + 1, 0.4, seed=3)
LOCAL = Extractor(ExtractionConfig(maximalize=True))


def _graph(edges: set[tuple[int, int]]):
    return from_edge_array(N, np.asarray(sorted(edges), dtype=np.int64).reshape(-1, 2))


def _valid_ops(data, edges: set[tuple[int, int]], size: int) -> list:
    """``size`` ops valid in order against ``edges`` (updated in place)."""
    ops = []
    for _ in range(size):
        missing = [p for p in PAIRS if p not in edges]
        if edges and (not missing or data.draw(st.booleans())):
            pair = data.draw(st.sampled_from(sorted(edges)))
            edges.remove(pair)
            ops.append(("delete", *pair))
        else:
            pair = data.draw(st.sampled_from(missing))
            edges.add(pair)
            ops.append(("insert", *pair))
    return ops


class MutateSessionMachine(RuleBasedStateMachine):
    """One fresh server per example, so the cache model starts empty."""

    socket_dir: str = ""
    examples = itertools.count()
    stopping: list[threading.Thread] = []

    def __init__(self) -> None:
        super().__init__()
        sock = f"{self.socket_dir}/{next(self.examples)}.sock"
        self.server = ReproServer(ServiceConfig(socket_path=sock, cache_entries=4096))
        self.server.start()
        self.client = ServiceClient(socket_path=sock)
        self.mirror: set[tuple[int, int]] | None = None
        # Ops the server applied, a rejected batch's prefix included.
        self.mutations = 0
        # Session-sized graphs the cache holds (default config), by edge set.
        self.cached: set[frozenset] = set()

    def teardown(self) -> None:
        self.client.close()
        # shutdown() waits out the server's poll interval: overlap it
        # with the next example and join at the end of the test.
        thread = threading.Thread(target=self.server.shutdown)
        thread.start()
        self.stopping.append(thread)

    def _check_answer(self, result) -> None:
        graph = _graph(self.mirror)
        assert result.num_graph_edges == len(self.mirror)
        assert result.content_hash == graph_content_hash(graph)
        assert np.array_equal(result.edges, LOCAL.extract(graph).edges)

    def _extract(self, edges: set[tuple[int, int]]):
        key = frozenset(edges)
        result = self.client.extract(_graph(edges))
        assert result.cached == (key in self.cached)
        self.cached.add(key)
        return result

    def _evicted(self, before: set[tuple[int, int]]) -> None:
        """A batch was applied (or rejected): the pre-mutation graph's
        entry must be gone."""
        self.cached.discard(frozenset(before))
        self._extract(before)

    @initialize()
    def cache_bystander(self) -> None:
        self.client.extract(BYSTANDER)

    @rule(edges=st.sets(st.sampled_from(PAIRS), max_size=20))
    def open_session(self, edges) -> None:
        self.mirror = set(edges)
        result = self.client.mutate(graph=_graph(self.mirror))
        assert result.session == "opened" and result.applied is None
        assert result.invalidated == 0
        self._check_answer(result)

    @precondition(lambda self: self.mirror is not None)
    @rule(data=st.data(), size=st.integers(1, 4))
    def apply_valid_batch(self, data, size) -> None:
        before = set(self.mirror)
        ops = _valid_ops(data, self.mirror, size)
        result = self.client.mutate(ops=ops)
        self.mutations += size
        assert result.applied["applied"] == size
        assert result.invalidated == int(frozenset(before) in self.cached)
        self._check_answer(result)
        self._evicted(before)

    @precondition(lambda self: self.mirror is not None)
    @rule(data=st.data(), prefix=st.integers(0, 3), kind=st.sampled_from(
        ["duplicate", "missing", "self-loop", "out-of-range", "undecodable"]
    ))
    def apply_rejected_batch(self, data, prefix, kind) -> None:
        before = set(self.mirror)
        applied = set(self.mirror)
        ops = _valid_ops(data, applied, prefix)
        missing = [p for p in PAIRS if p not in applied]
        if kind == "duplicate" and applied:
            bad = ("insert", *data.draw(st.sampled_from(sorted(applied))))
        elif kind == "missing" and missing:
            bad = ("delete", *data.draw(st.sampled_from(missing)))
        elif kind == "out-of-range":
            bad = ("insert", 0, N)
        elif kind == "undecodable":
            bad = ("upsert", 0, 1)
        else:
            bad = ("insert", 1, 1)
        with pytest.raises(ServiceError) as info:
            self.client.mutate(ops=ops + [bad])
        if kind == "undecodable":
            # Rejected while decoding: nothing applied, nothing evicted.
            assert info.value.code == "BAD_REQUEST"
            assert "unknown op" in str(info.value)
        else:
            # Rejected at op #prefix: the ops before it stay applied.
            assert "mutation rejected" in str(info.value)
            self.mutations += prefix
            self.mirror = applied
            self._evicted(before)
        # An empty batch reads the session as the rejection left it.
        self._check_answer(self.client.mutate(ops=[]))

    @precondition(lambda self: self.mirror is not None)
    @rule()
    def extract_session_graph(self) -> None:
        result = self._extract(self.mirror)
        expected = Extractor(ExtractionConfig()).extract(_graph(self.mirror))
        assert np.array_equal(result.edges, expected.edges)

    @rule()
    def extract_bystander(self) -> None:
        assert self.client.extract(BYSTANDER).cached

    @invariant()
    def bystander_stays_cached(self) -> None:
        assert self.client.extract(BYSTANDER).cached

    @invariant()
    def mutations_count_every_applied_op(self) -> None:
        assert self.client.stats()["mutations"] == self.mutations


def test_mutate_session_state_machine(tmp_path):
    MutateSessionMachine.socket_dir = str(tmp_path)
    MutateSessionMachine.TestCase.settings = settings(
        max_examples=40,
        stateful_step_count=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    try:
        MutateSessionMachine.TestCase().runTest()
    finally:
        for thread in MutateSessionMachine.stopping:
            thread.join()
