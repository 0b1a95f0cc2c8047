"""Tests for edge-list and npz serialisation."""

import io

import pytest

from repro.errors import GraphFormatError
from repro.graph.builder import build_graph
from repro.graph.generators.rmat import rmat_g
from repro.graph.io import load_graph, save_graph


@pytest.fixture
def sample():
    return build_graph(5, [(0, 1), (1, 2), (3, 4)])


class TestEdgelist:
    def test_roundtrip_file(self, sample, tmp_path):
        path = tmp_path / "g.txt"
        save_graph(sample, path, "edgelist")
        assert load_graph(path, "edgelist") == sample

    def test_roundtrip_stream(self, sample):
        buf = io.StringIO()
        save_graph(sample, buf, "edgelist")
        buf.seek(0)
        assert load_graph(buf, "edgelist") == sample

    def test_header_preserves_isolated_vertices(self, tmp_path):
        g = build_graph(10, [(0, 1)])
        path = tmp_path / "g.txt"
        save_graph(g, path, "edgelist")
        assert load_graph(path, "edgelist").num_vertices == 10

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n0 1\n# another\n1 2\n"
        g = load_graph(io.StringIO(text), "edgelist")
        assert g.edge_set() == {(0, 1), (1, 2)}

    def test_vertex_count_inferred(self):
        g = load_graph(io.StringIO("0 7\n"), "edgelist")
        assert g.num_vertices == 8

    def test_malformed_line_raises(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            load_graph(io.StringIO("0 1 2\n"), "edgelist")

    def test_empty_file(self):
        g = load_graph(io.StringIO(""), "edgelist")
        assert g.num_vertices == 0

    @pytest.mark.parametrize("count", ["abc", "-3", "2.5"])
    def test_malformed_vertex_header_raises(self, count):
        with pytest.raises(GraphFormatError, match=f"'# vertices {count}'"):
            load_graph(io.StringIO(f"# vertices {count}\n0 1\n"), "edgelist")

    def test_rmat_roundtrip(self, tmp_path):
        g = rmat_g(7, seed=9)
        path = tmp_path / "rmat.txt"
        save_graph(g, path, "edgelist")
        assert load_graph(path, "edgelist") == g


class TestNpz:
    def test_roundtrip(self, sample, tmp_path):
        path = tmp_path / "g.npz"
        save_graph(sample, path, "npz")
        loaded = load_graph(path, "npz")
        assert loaded == sample
        assert loaded.sorted_adjacency == sample.sorted_adjacency

    def test_preserves_unsorted_flag(self, sample, tmp_path):
        import numpy as np

        path = tmp_path / "g.npz"
        save_graph(sample.shuffled(np.random.default_rng(0)), path, "npz")
        assert not load_graph(path, "npz").sorted_adjacency

    def test_asymmetric_arrays_raise(self, tmp_path):
        import numpy as np

        # Arc 0->2 with no 2->0 back-arc: valid CSR structure, not a graph.
        path = tmp_path / "g.npz"
        np.savez(
            path,
            indptr=np.array([0, 1, 1, 1]),
            indices=np.array([2]),
            sorted_adjacency=np.asarray(True),
        )
        with pytest.raises(GraphFormatError, match="not symmetric"):
            load_graph(path, "npz")

    def test_missing_array_raises(self, tmp_path):
        import numpy as np

        path = tmp_path / "g.npz"
        np.savez(path, indptr=np.array([0, 0]))
        with pytest.raises(GraphFormatError, match=r"\['indices', 'sorted_adjacency'\]"):
            load_graph(path, "npz")


class TestMetis:
    def test_roundtrip(self, sample, tmp_path):

        path = tmp_path / "g.metis"
        save_graph(sample, path, "metis")
        assert load_graph(path, "metis") == sample

    def test_stream_roundtrip(self):
        import io as _io

        from repro.graph.generators.rmat import rmat_er

        g = rmat_er(7, seed=4)
        buf = _io.StringIO()
        save_graph(g, buf, "metis")
        buf.seek(0)
        assert load_graph(buf, "metis") == g

    def test_comments_skipped(self):
        import io as _io


        text = "% header comment\n3 2\n2 3\n1\n1\n"
        g = load_graph(_io.StringIO(text), "metis")
        assert g.edge_set() == {(0, 1), (0, 2)}

    def test_header_mismatch_rejected(self):
        import io as _io

        import pytest as _pytest

        from repro.errors import GraphFormatError

        with _pytest.raises(GraphFormatError, match="declares"):
            load_graph(_io.StringIO("3 5\n2\n1\n\n"), "metis")

    def test_edge_weights_without_vertex_weights_rejected(self):
        import io as _io

        import pytest as _pytest

        from repro.errors import GraphFormatError

        # fmt "1" (and "001") declare edge weights with no vertex weights;
        # there is no weight-carrying topology to salvage, so this rejects.
        for fmt in ("1", "001"):
            with _pytest.raises(GraphFormatError, match="edge weights"):
                load_graph(_io.StringIO(f"2 1 {fmt}\n2 5\n1 5\n"), "metis")

    def test_vertex_weighted_read_topology_only(self):
        import io as _io


        # fmt "10": one vertex-weight token per row, skipped on read.
        g = load_graph(_io.StringIO("3 2 10\n7 2 3\n4 1\n9 1\n"), "metis")
        assert g.edge_set() == {(0, 1), (0, 2)}
        # fmt "011": vertex weight first, then neighbor/edge-weight pairs;
        # edge weights are skipped and only the topology is kept.
        g = load_graph(_io.StringIO("2 1 011\n7 2 5\n9 1 5\n"), "metis")
        assert g.num_vertices == 2
        assert g.edge_set() == {(0, 1)}

    def test_empty_file_rejected(self):
        import io as _io

        import pytest as _pytest

        from repro.errors import GraphFormatError

        with _pytest.raises(GraphFormatError, match="header"):
            load_graph(_io.StringIO(""), "metis")

    def test_isolated_trailing_vertices(self):
        import io as _io


        g = load_graph(_io.StringIO("4 1\n2\n1\n"), "metis")
        assert g.num_vertices == 4
        assert g.degree(3) == 0
