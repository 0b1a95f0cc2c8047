"""Streaming IO: peek-based format detection and chunked EdgeStream.

The sharded extractor (:mod:`repro.shard`) never materialises the input
edge list; these tests pin the two primitives it is built on:

* :func:`repro.graph.io.detect_format` must classify an open handle
  **without consuming it** — the same handle is then read in full by the
  actual pass (the regression that motivated it: detection once took
  only paths, so stream callers had to read-and-reopen).
* :class:`repro.graph.io.EdgeStream` must yield exactly the edges of the
  file in ``(k, 2)`` chunks, for every streamable format, gzipped or
  not, across chunk boundaries (pinned by shrinking the chunk size to a
  few bytes).
"""

from __future__ import annotations

import gzip
import io

import numpy as np
import pytest

import repro.graph.io as gio
from repro.errors import GraphFormatError
from repro.graph.builder import build_graph, compact_labels, from_edge_array
from repro.graph.io import (
    EdgeStream,
    detect_format,
    load_graph,
    save_graph,
)
from repro.graph.generators.random import gnp_random_graph


@pytest.fixture
def sample_graph():
    return gnp_random_graph(40, 0.15, seed=11)


def _write_snap(graph, path, *, id_stride=7, gz=False):
    """Write a SNAP-style file with sparse non-contiguous ids."""
    opener = gzip.open if gz else open
    with opener(path, "wt", encoding="utf-8") as fh:
        fh.write("# Directed graph: test dump\n# FromNodeId\tToNodeId\n")
        for u, v in graph.iter_edges():
            fh.write(f"{u * id_stride}\t{v * id_stride}\n")


class TestDetectFormatStream:
    @pytest.mark.parametrize("gz", [False, True])
    @pytest.mark.parametrize("fmt", ["edgelist", "mtx"])
    def test_binary_handle_not_consumed(self, tmp_path, sample_graph, fmt, gz):
        path = tmp_path / f"g.{fmt}{'.gz' if gz else ''}"
        save_graph(sample_graph, path, format=fmt)
        raw = path.read_bytes()
        with open(path, "rb") as fh:
            assert detect_format(fh) == fmt
            assert fh.read() == raw, (
                "detect_format consumed bytes from the handle"
            )

    def test_metis_with_comment_header(self, tmp_path, sample_graph):
        """Content sniffing needs METIS's % comment convention — a
        comment-free METIS header is indistinguishable from an edge pair
        (documented in detect_format); streams follow the same contract."""
        path = tmp_path / "g.graph"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("% generated by the repro test suite\n")
            save_graph(sample_graph, fh, "metis")
        with open(path, "rb") as fh:
            assert detect_format(fh) == "metis"
            assert fh.read() == path.read_bytes()

    def test_snap_binary_handle(self, tmp_path, sample_graph):
        path = tmp_path / "dump.txt"
        _write_snap(sample_graph, path)
        with open(path, "rb") as fh:
            assert detect_format(fh) == "snap"
            assert fh.read() == path.read_bytes()

    def test_npz_binary_handle(self, tmp_path, sample_graph):
        path = tmp_path / "g.npz"
        save_graph(sample_graph, path, format="npz")
        with open(path, "rb") as fh:
            assert detect_format(fh) == "npz"
            assert fh.read() == path.read_bytes()

    def test_text_handle_position_restored(self, tmp_path, sample_graph):
        path = tmp_path / "g.txt"
        save_graph(sample_graph, path, "edgelist")
        with open(path, "r", encoding="utf-8") as fh:
            assert detect_format(fh) == "edgelist"
            assert fh.tell() == 0
            assert fh.read() == path.read_text()

    def test_stringio(self, sample_graph):
        buf = io.StringIO()
        save_graph(sample_graph, buf, "mtx")
        buf.seek(0)
        assert detect_format(buf) == "mtx"
        assert buf.tell() == 0

    def test_nonseekable_stream_rejected(self):
        class Pipe(io.RawIOBase):
            def seekable(self):
                return False

        with pytest.raises(GraphFormatError, match="non-seekable"):
            detect_format(Pipe())

    def test_garbage_prefix_rejected(self):
        with pytest.raises(GraphFormatError):
            detect_format(io.BytesIO(b"\x00\xff\x00\xff binary junk"))

    def test_truncated_gzip_prefix_rejected(self):
        with pytest.raises(GraphFormatError, match="gzip"):
            detect_format(io.BytesIO(b"\x1f\x8b\x00garbage"))


class TestLoadGraphFromStream:
    @pytest.mark.parametrize("fmt", ["edgelist", "mtx"])
    def test_text_stream_round_trip(self, tmp_path, sample_graph, fmt):
        path = tmp_path / "graph.dat"
        save_graph(sample_graph, path, format=fmt)
        with open(path, "r", encoding="utf-8") as fh:
            loaded = load_graph(fh)  # format auto-detected via the peek
        assert loaded == sample_graph

    def test_metis_stream_with_comment(self, tmp_path, sample_graph):
        path = tmp_path / "graph.dat"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("% comment so content sniffing can classify\n")
            save_graph(sample_graph, fh, "metis")
        with open(path, "r", encoding="utf-8") as fh:
            assert load_graph(fh) == sample_graph

    def test_npz_binary_stream(self, tmp_path, sample_graph):
        path = tmp_path / "graph.npz"
        save_graph(sample_graph, path, format="npz")
        with open(path, "rb") as fh:
            assert load_graph(fh) == sample_graph

    def test_explicit_format_skips_detection(self, sample_graph):
        buf = io.StringIO()
        save_graph(sample_graph, buf, "edgelist")
        buf.seek(0)
        assert load_graph(buf, format="edgelist") == sample_graph


class TestEdgeStream:
    @pytest.mark.parametrize("gz", [False, True])
    @pytest.mark.parametrize("fmt", ["edgelist", "mtx"])
    def test_chunks_reconstruct_graph(self, tmp_path, sample_graph, fmt, gz):
        path = tmp_path / f"g.{fmt}{'.gz' if gz else ''}"
        save_graph(sample_graph, path, format=fmt)
        stream = EdgeStream(path)
        assert stream.format == fmt
        chunks = list(stream)
        assert all(c.dtype == np.int64 and c.ndim == 2 for c in chunks)
        edges = np.vstack(chunks)
        assert from_edge_array(sample_graph.num_vertices, edges) == sample_graph

    @pytest.mark.parametrize("gz", [False, True])
    def test_snap_chunks_with_sparse_ids(self, tmp_path, sample_graph, gz):
        path = tmp_path / f"dump.txt{'.gz' if gz else ''}"
        _write_snap(sample_graph, path, gz=gz)
        edges = np.vstack(list(EdgeStream(path)))
        n, relabeled, labels = compact_labels(edges)
        assert np.array_equal(labels % 7, np.zeros_like(labels))
        assert from_edge_array(n, relabeled) == load_graph(path, format="snap")

    def test_tiny_chunks_match_bulk(self, tmp_path, sample_graph, monkeypatch):
        """Pairs straddling chunk boundaries must carry over intact."""
        path = tmp_path / "g.mtx"
        save_graph(sample_graph, path, format="mtx")
        bulk = np.vstack(list(EdgeStream(path)))
        monkeypatch.setattr(gio, "_CHUNK_CHARS", 7)
        tiny = np.vstack(list(EdgeStream(path)))
        assert np.array_equal(bulk, tiny)

    def test_edgelist_header_populates_declared_vertices(self, tmp_path):
        g = build_graph(9, [(0, 1), (2, 3)])
        path = tmp_path / "g.edges"
        save_graph(g, path, "edgelist")
        stream = EdgeStream(path)
        assert stream.declared_vertices is None  # header not consumed yet
        list(stream)
        assert stream.declared_vertices == 9

    def test_mtx_header_populates_declared_fields(self, tmp_path, sample_graph):
        path = tmp_path / "g.mtx"
        save_graph(sample_graph, path, format="mtx")
        stream = EdgeStream(path)
        list(stream)
        assert stream.declared_vertices == sample_graph.num_vertices
        assert stream.declared_edges == sample_graph.num_edges

    def test_iteration_is_restartable(self, tmp_path, sample_graph):
        path = tmp_path / "g.edges"
        save_graph(sample_graph, path, "edgelist")
        stream = EdgeStream(path)
        first = np.vstack(list(stream))
        second = np.vstack(list(stream))
        assert np.array_equal(first, second)

    def test_empty_edgelist(self, tmp_path):
        path = tmp_path / "empty.edges"
        save_graph(build_graph(3, []), path, "edgelist")
        assert list(EdgeStream(path)) == []

    @pytest.mark.parametrize("fmt", ["metis", "npz"])
    def test_unstreamable_formats_rejected(self, tmp_path, sample_graph, fmt):
        path = tmp_path / f"g.{fmt}"
        save_graph(sample_graph, path, format=fmt)
        with pytest.raises(GraphFormatError, match="not streamable"):
            EdgeStream(path)

    def test_odd_token_count_raises(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n2\n")
        with pytest.raises(GraphFormatError, match="odd number of tokens"):
            list(EdgeStream(path))

    def test_non_numeric_token_raises(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\nfoo bar\n")
        with pytest.raises(GraphFormatError, match="non-numeric"):
            list(EdgeStream(path))

    def test_mtx_entry_count_mismatch_raises(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 2\n2 1\n"
        )
        with pytest.raises(GraphFormatError, match="declares 2 entries"):
            list(EdgeStream(path))

    def test_mtx_out_of_range_raises(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 1\n4 1\n"
        )
        with pytest.raises(GraphFormatError, match="out of range"):
            list(EdgeStream(path))


#: A pattern MatrixMarket file whose entries carry weight columns (read as
#: three tokens per entry), with a comment between its entries.
_PATTERN_WITH_WEIGHTS = (
    "%%MatrixMarket matrix coordinate pattern symmetric\n"
    "% weights the pattern field does not declare\n"
    "6 6 4\n2 1 1.0\n3 2 0.5\n% mid-file comment\n5 3 2.0\n6 5 1.0\n"
)


def _write_text(path, text, gz):
    opener = gzip.open if gz else open
    with opener(path, "wt", encoding="utf-8") as fh:
        fh.write(text)


class TestEntryPointParity:
    """``load_graph`` on a path, on an open text stream, and ``EdgeStream``
    chunks (shrunk to a few characters) are one parser: the same CSR
    arrays, and the same line number for a malformed edge-list line."""

    @pytest.mark.parametrize("gz", [False, True])
    @pytest.mark.parametrize("case", ["edgelist", "mtx", "snap", "mtx-weighted-pattern"])
    def test_same_csr_through_every_entry_point(
        self, tmp_path, sample_graph, monkeypatch, case, gz
    ):
        fmt = case.split("-")[0]
        path = tmp_path / f"g.{fmt}{'.gz' if gz else ''}"
        if case == "snap":
            _write_snap(sample_graph, path, gz=gz)
        elif case == "mtx-weighted-pattern":
            _write_text(path, _PATTERN_WITH_WEIGHTS, gz)
        else:
            save_graph(sample_graph, path, format=fmt)

        from_path = load_graph(path, fmt)
        with gio._open_text(path, "r") as fh:
            from_stream = load_graph(fh, fmt)
        monkeypatch.setattr(gio, "_CHUNK_CHARS", 5)
        stream = EdgeStream(path, fmt)
        pairs = np.vstack(list(stream))
        if fmt == "snap":
            n, pairs, _labels = compact_labels(pairs)
        else:
            n = stream.declared_vertices
        from_chunks = from_edge_array(n, pairs)

        if case == "mtx-weighted-pattern":
            assert from_path.edge_set() == {(0, 1), (1, 2), (2, 4), (4, 5)}
        for other in (from_stream, from_chunks):
            assert np.array_equal(other.indptr, from_path.indptr)
            assert np.array_equal(other.indices, from_path.indices)

    @pytest.mark.parametrize("gz", [False, True])
    def test_malformed_edgelist_line_named_everywhere(self, tmp_path, monkeypatch, gz):
        path = tmp_path / f"bad.edges{'.gz' if gz else ''}"
        _write_text(path, "# vertices 6\n0 1\n\n# note\n1 2\n2 3 4\n3 4\n", gz)

        def stream_load():
            with gio._open_text(path, "r") as fh:
                load_graph(fh, "edgelist")

        monkeypatch.setattr(gio, "_CHUNK_CHARS", 5)
        for entry_point in (
            lambda: load_graph(path, "edgelist"),
            stream_load,
            lambda: list(EdgeStream(path, "edgelist")),
        ):
            with pytest.raises(GraphFormatError, match=r"line 6\b.*'2 3 4'"):
                entry_point()
