"""Tests for the batch pipeline: ``extract_many`` and one reusable
:class:`~repro.core.session.Extractor` session carried across a batch."""

import numpy as np
import pytest

from repro.core.extract import extract_many, extract_maximal_chordal_subgraph
from repro.core.session import Extractor
from repro.errors import ConfigError, SessionClosedError
from repro.graph.builder import build_graph
from repro.graph.generators.rmat import rmat_b, rmat_er, rmat_g
from repro.graph.weights import attach_edge_weights


def sync_reference(graph):
    """Serial synchronous engine — the bit-identity oracle for the team."""
    result = extract_maximal_chordal_subgraph(graph, schedule="synchronous")
    return result.edges, result.queue_sizes


def team_session(num_threads=2):
    """A synchronous native session, reused across graphs."""
    return Extractor(engine="native", schedule="synchronous", num_threads=num_threads)


@pytest.fixture(scope="module")
def batch():
    return [rmat_er(6, seed=1), rmat_g(7, seed=2), rmat_b(6, seed=3)]


class TestProcessPoolRebind:
    """One session moved across graphs of changing shape: every result is
    bit-identical to a fresh serial run of that graph."""

    def test_rebind_matches_serial_sync_per_graph(self, batch):
        with team_session() as ex:
            for g in batch:
                result = ex.extract(g)
                ref_edges, ref_sizes = sync_reference(g)
                assert np.array_equal(result.edges, ref_edges)
                assert result.queue_sizes == ref_sizes

    def test_growth_then_shrink(self):
        sizes = [rmat_er(5, seed=1), rmat_b(9, seed=2), rmat_er(5, seed=3)]
        with team_session() as ex:
            for g in sizes:
                assert np.array_equal(ex.extract(g).edges, sync_reference(g)[0])

    def test_constructor_graph_and_argless_extract(self):
        g = rmat_er(6, seed=4)
        with team_session() as ex:
            first = ex.extract(g).edges
            again = ex.extract(g).edges  # repeat on the same graph
        assert np.array_equal(first, sync_reference(g)[0])
        assert np.array_equal(first, again)

    def test_trivial_graphs_mid_batch(self):
        graphs = [rmat_er(5, seed=1), build_graph(0, []), build_graph(4, []),
                  rmat_er(5, seed=2)]
        with team_session() as ex:
            for g in graphs:
                result = ex.extract(g)
                assert np.array_equal(result.edges, sync_reference(g)[0])

    def test_closed_pool_raises(self):
        ex = team_session(num_threads=1)
        ex.close()
        with pytest.raises(SessionClosedError, match="closed"):
            ex.extract(rmat_er(5, seed=1))
        with pytest.raises(SessionClosedError, match="closed"):
            ex.extract_many([rmat_er(5, seed=1)])
        ex.close()  # idempotent

    def test_bad_num_workers(self):
        with pytest.raises(ConfigError, match="num_threads"):
            team_session(num_threads=0)


class TestExtractMany:
    def test_results_match_single_calls(self, batch):
        for engine, schedule in (("superstep", None), ("native", "synchronous")):
            many = extract_many(batch, engine=engine, schedule=schedule, num_threads=2)
            for g, result in zip(batch, many):
                single = extract_maximal_chordal_subgraph(
                    g, engine=engine, schedule=schedule, num_threads=2
                )
                assert np.array_equal(result.edges, single.edges)
                assert result.queue_sizes == single.queue_sizes
                assert result.engine == engine

    def test_empty_batch(self):
        assert extract_many([], engine="native") == []

    def test_accepts_iterator(self, batch):
        results = extract_many(iter(batch), engine="superstep")
        assert len(results) == len(batch)

    def test_kwargs_forwarded(self, batch):
        results = extract_many(batch, engine="superstep", renumber="bfs",
                               maximalize=True)
        for r in results:
            assert r.renumbered
            assert r.maximality_gap >= 0

    def test_async_batch_through_one_pool(self, batch):
        """extract_many with the native asynchronous schedule: every
        result is a valid (any-valid) extraction, and moving across graph
        shapes doesn't confuse the claim words."""
        from repro.chordality.verify import verify_extraction

        results = extract_many(
            batch, engine="native", schedule="asynchronous", num_threads=2
        )
        assert len(results) == len(batch)
        for g, r in zip(batch, results):
            assert r.schedule == "asynchronous"
            report = verify_extraction(g, r, check_maximal=False)
            assert report.ok, report

    def test_mixed_schedules_on_caller_pool(self, batch):
        """Interleaving async and sync native extractions keeps the sync
        results bit-identical to the serial oracle."""
        for g in batch:
            extract_maximal_chordal_subgraph(
                g, engine="native", schedule="asynchronous", num_threads=2
            )
            sync = extract_maximal_chordal_subgraph(
                g, engine="native", schedule="synchronous", num_threads=2
            )
            assert np.array_equal(sync.edges, sync_reference(g)[0])

    def test_caller_owned_pool_stays_open(self, batch):
        with team_session() as ex:
            ex.extract_many(batch[:2])
            # the session is still usable after extract_many returns
            assert np.array_equal(
                ex.extract(batch[0]).edges, sync_reference(batch[0])[0]
            )

    def test_pool_with_wrong_engine_rejected(self, batch):
        """A weighted graph on a weight-blind engine is rejected, and
        extract_many mirrors the single-call validation instead of
        silently dropping the weights."""
        weighted = attach_edge_weights(batch[0], 1.0)
        with pytest.raises(ConfigError, match="weight"):
            extract_maximal_chordal_subgraph(weighted, engine="native")
        with pytest.raises(ConfigError, match="weight"):
            extract_many([weighted], engine="native")
