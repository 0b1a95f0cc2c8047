"""Tests for the batch pipeline: ``extract_many`` and the deprecated,
rebindable :class:`~repro.core.procpool.ProcessPool` handle."""

import numpy as np
import pytest

from repro.core.extract import extract_many, extract_maximal_chordal_subgraph
from repro.core.procpool import ProcessPool
from repro.core.superstep import superstep_max_chordal
from repro.graph.builder import build_graph
from repro.graph.generators.rmat import rmat_b, rmat_er, rmat_g


def sync_reference(graph):
    """Serial synchronous engine — the bit-identity oracle for the pool."""
    edges, queue_sizes, _ = superstep_max_chordal(graph, schedule="synchronous")
    return edges, queue_sizes


@pytest.fixture(scope="module")
def batch():
    return [rmat_er(6, seed=1), rmat_g(7, seed=2), rmat_b(6, seed=3)]


class TestProcessPoolRebind:
    def test_rebind_matches_serial_sync_per_graph(self, batch):
        with ProcessPool(num_workers=2) as pool:
            for g in batch:
                edges, queue_sizes = pool.extract(g)
                ref_edges, ref_sizes = sync_reference(g)
                assert np.array_equal(edges, ref_edges)
                assert queue_sizes == ref_sizes

    def test_growth_then_shrink(self):
        sizes = [rmat_er(5, seed=1), rmat_b(9, seed=2), rmat_er(5, seed=3)]
        with ProcessPool(num_workers=2) as pool:
            for g in sizes:
                assert np.array_equal(pool.extract(g)[0], sync_reference(g)[0])

    def test_constructor_graph_and_argless_extract(self):
        g = rmat_er(6, seed=4)
        with ProcessPool(g, num_workers=2) as pool:
            first = pool.extract()[0]
            again = pool.extract()[0]  # repeat on the bound graph
        assert np.array_equal(first, sync_reference(g)[0])
        assert np.array_equal(first, again)

    def test_trivial_graphs_mid_batch(self):
        graphs = [rmat_er(5, seed=1), build_graph(0, []), build_graph(4, []),
                  rmat_er(5, seed=2)]
        with ProcessPool(num_workers=2) as pool:
            for g in graphs:
                edges, queue_sizes = pool.extract(g)
                assert np.array_equal(edges, sync_reference(g)[0])

    def test_extract_without_bind_raises(self):
        with ProcessPool(num_workers=1) as pool:
            with pytest.raises(RuntimeError, match="no graph bound"):
                pool.extract()

    def test_closed_pool_raises(self):
        pool = ProcessPool(rmat_er(5, seed=1), num_workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.extract()
        with pytest.raises(RuntimeError, match="closed"):
            pool.bind(rmat_er(5, seed=1))
        pool.close()  # idempotent

    def test_bad_num_workers(self):
        with pytest.raises(ValueError, match="num_workers"):
            ProcessPool(num_workers=0)


class TestExtractMany:
    def test_results_match_single_calls(self, batch):
        for engine in ("superstep", "process"):
            many = extract_many(batch, engine=engine, num_workers=2)
            for g, result in zip(batch, many):
                single = extract_maximal_chordal_subgraph(
                    g,
                    engine=engine,
                    schedule="synchronous" if engine == "process" else "asynchronous",
                    num_workers=2,
                )
                assert np.array_equal(result.edges, single.edges)
                assert result.queue_sizes == single.queue_sizes
                assert result.engine == engine

    def test_empty_batch(self):
        assert extract_many([], engine="process") == []

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
        """extract_many with the asynchronous schedule: every result is a
        valid (any-valid) extraction and the shared pool survives, and
        rebinding across graph shapes doesn't confuse the claim words."""
        from repro.chordality.verify import verify_extraction

        results = extract_many(
            batch, engine="process", schedule="asynchronous", num_workers=2
        )
        assert len(results) == len(batch)
        for g, r in zip(batch, results):
            assert r.schedule == "asynchronous"
            report = verify_extraction(g, r, check_maximal=False)
            assert report.ok, report

    def test_mixed_schedules_on_caller_pool(self, batch):
        """Interleaving async and sync extractions on one caller-owned
        pool keeps the sync results bit-identical to the serial oracle."""
        with ProcessPool(num_workers=2) as pool:
            for g in batch:
                extract_maximal_chordal_subgraph(
                    g, engine="process", schedule="asynchronous", pool=pool
                )
                sync = extract_maximal_chordal_subgraph(
                    g, engine="process", schedule="synchronous", pool=pool
                )
                ref_edges, _ = sync_reference(g)
                # ChordalResult canonicalises rows; compare canonically.
                lo = np.minimum(ref_edges[:, 0], ref_edges[:, 1])
                hi = np.maximum(ref_edges[:, 0], ref_edges[:, 1])
                order = np.lexsort((hi, lo))
                canon = np.column_stack((lo[order], hi[order]))
                assert np.array_equal(sync.edges, canon)

    def test_caller_owned_pool_stays_open(self, batch):
        with ProcessPool(num_workers=2) as pool:
            extract_many(batch[:2], engine="process", pool=pool)
            # pool is still usable after extract_many returns
            edges, _ = pool.extract(batch[0])
            assert np.array_equal(edges, sync_reference(batch[0])[0])

    def test_pool_with_wrong_engine_rejected(self, batch):
        with ProcessPool(num_workers=1) as pool:
            with pytest.raises(ValueError, match="pool"):
                extract_maximal_chordal_subgraph(
                    batch[0], engine="superstep", pool=pool
                )
            # extract_many mirrors the single-call validation instead of
            # silently ignoring the pool.
            with pytest.raises(ValueError, match="pool"):
                extract_many(batch, engine="superstep", pool=pool)
