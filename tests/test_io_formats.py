"""Tests for the dataset-ingestion formats: MatrixMarket, gzip, SNAP,
auto-detection and the load/save dispatchers (PR 2 batch pipeline)."""

import gzip
import io

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.builder import build_graph, compact_labels
from repro.graph.generators.rmat import rmat_er, rmat_g
from repro.graph.io import (
    FORMATS,
    detect_format,
    load_graph,
    read_snap,
    save_graph,
)


@pytest.fixture
def sample():
    # Vertex 5 is isolated — formats must preserve it.
    return build_graph(6, [(0, 1), (1, 2), (3, 4)])


class TestMtx:
    def test_roundtrip_file(self, sample, tmp_path):
        path = tmp_path / "g.mtx"
        save_graph(sample, path, "mtx")
        assert load_graph(path, "mtx") == sample

    def test_roundtrip_stream(self, sample):
        buf = io.StringIO()
        save_graph(sample, buf, "mtx")
        buf.seek(0)
        assert load_graph(buf, "mtx") == sample

    def test_rmat_roundtrip(self, tmp_path):
        g = rmat_g(7, seed=9)
        path = tmp_path / "rmat.mtx"
        save_graph(g, path, "mtx")
        assert load_graph(path, "mtx") == g

    def test_writer_emits_pattern_symmetric_lower_triangle(self, sample):
        buf = io.StringIO()
        save_graph(sample, buf, "mtx")
        lines = [ln for ln in buf.getvalue().splitlines() if not ln.startswith("%")]
        assert lines[0] == "6 6 3"
        for line in lines[1:]:
            row, col = map(int, line.split())
            assert row > col  # symmetric storage: lower triangle, 1-based

    def test_real_field_weights_ignored(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "% weighted adjacency\n"
            "3 3 2\n"
            "1 2 0.5\n"
            "3 1 -2.25\n"
        )
        g = load_graph(io.StringIO(text), "mtx")
        assert g.edge_set() == {(0, 1), (0, 2)}

    def test_general_symmetry_mirrored_entries_collapse(self):
        text = (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "3 3 3\n1 2\n2 1\n2 3\n"
        )
        g = load_graph(io.StringIO(text), "mtx")
        assert g.edge_set() == {(0, 1), (1, 2)}

    def test_diagonal_dropped(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n2 2\n2 1\n"
        g = load_graph(io.StringIO(text), "mtx")
        assert g.edge_set() == {(0, 1)}

    def test_pattern_file_with_weight_columns_accepted(self):
        text = (
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 2\n2 1 1.0\n3 2 1.0\n"
        )
        assert load_graph(io.StringIO(text), "mtx").edge_set() == {(0, 1), (1, 2)}

    def test_truncated_weighted_file_rejected(self):
        # Declares 'integer' (3 tokens/entry) but carries exactly 2 per
        # entry — a truncated download, not a pattern file in disguise.
        text = (
            "%%MatrixMarket matrix coordinate integer symmetric\n"
            "3 3 3\n2 1 1\n3 1 1\n"
        )
        with pytest.raises(GraphFormatError, match="declares"):
            load_graph(io.StringIO(text), "mtx")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("not a banner\n1 1 0\n", "banner"),
            ("%%MatrixMarket matrix array real general\n2 2\n", "coordinate"),
            ("%%MatrixMarket matrix coordinate complex symmetric\n1 1 0\n", "field"),
            ("%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n", "symmetry"),
            ("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 2 1.0\n", "square"),
            ("%%MatrixMarket matrix coordinate pattern symmetric\n", "size line"),
            ("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n1 2\n", "declares"),
            ("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 5\n", "range"),
            ("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 x\n", "token"),
        ],
    )
    def test_malformed_rejected(self, text, match):
        with pytest.raises(GraphFormatError, match=match):
            load_graph(io.StringIO(text), "mtx")


class TestGzip:
    def test_edgelist_gz_roundtrip(self, sample, tmp_path):
        path = tmp_path / "g.txt.gz"
        save_graph(sample, path, "edgelist")
        with gzip.open(path, "rb") as fh:  # really compressed, not renamed
            assert fh.read(10).startswith(b"# vertices")
        assert load_graph(path, "edgelist") == sample

    def test_mtx_gz_roundtrip(self, sample, tmp_path):
        path = tmp_path / "g.mtx.gz"
        save_graph(sample, path, "mtx")
        assert load_graph(path, "mtx") == sample

    def test_load_save_graph_gz(self, tmp_path):
        g = rmat_er(7, seed=2)
        path = tmp_path / "g.txt.gz"
        save_graph(g, path)
        assert load_graph(path) == g


class TestSnap:
    TEXT = (
        "# Directed graph (each unordered pair of nodes is saved once)\n"
        "# Example SNAP-style dump\n"
        "# Nodes: 3 Edges: 3\n"
        "# FromNodeId\tToNodeId\n"
        "100\t7\n"
        "205\t100\n"
        "7\t205\n"
    )

    def test_noncontiguous_ids_compacted(self):
        g, labels = read_snap(io.StringIO(self.TEXT))
        assert g.num_vertices == 3
        assert list(labels) == [7, 100, 205]
        # labels[new] = old: edge (100, 7) becomes (1, 0), etc.
        assert g.edge_set() == {(0, 1), (0, 2), (1, 2)}

    def test_duplicate_and_reverse_edges_collapse(self):
        g, _ = read_snap(io.StringIO("5 9\n9 5\n5 9\n"))
        assert g.num_edges == 1

    def test_empty(self):
        g, labels = read_snap(io.StringIO("# nothing\n"))
        assert g.num_vertices == 0 and labels.size == 0

    def test_odd_token_count_rejected(self):
        with pytest.raises(GraphFormatError, match="even number"):
            read_snap(io.StringIO("1 2\n3\n"))

    def test_non_integer_ids_rejected(self):
        with pytest.raises(GraphFormatError, match="integers"):
            read_snap(io.StringIO("1.5 2\n"))

    def test_write_rejected(self, tmp_path):
        """snap is read-only: a written copy would reload with compacted
        ids (vertex 2 isolated here, so every later id would shift)."""
        g = build_graph(4, [(0, 1), (1, 3)])
        with pytest.raises(GraphFormatError, match="edgelist"):
            save_graph(g, tmp_path / "out.snap")
        with pytest.raises(GraphFormatError, match="edgelist"):
            save_graph(g, io.StringIO(), format="snap")
        assert not (tmp_path / "out.snap").exists()

    def test_file_roundtrip_via_load_graph(self, tmp_path):
        path = tmp_path / "g.snap"
        path.write_text(self.TEXT)
        assert load_graph(path).num_edges == 3


class TestCompactLabels:
    def test_negative_and_sparse_ids(self):
        k, relabeled, labels = compact_labels(np.array([[-5, 3], [3, 999]]))
        assert k == 3
        assert list(labels) == [-5, 3, 999]
        assert relabeled.tolist() == [[0, 1], [1, 2]]

    def test_empty(self):
        k, relabeled, labels = compact_labels(np.empty((0, 2), dtype=np.int64))
        assert k == 0 and relabeled.shape == (0, 2) and labels.size == 0


class TestDetectFormat:
    @pytest.mark.parametrize(
        "name, fmt",
        [
            ("a.mtx", "mtx"),
            ("a.mm", "mtx"),
            ("a.npz", "npz"),
            ("a.metis", "metis"),
            ("a.graph", "metis"),
            ("a.snap", "snap"),
            ("a.edges", "edgelist"),
            ("a.el", "edgelist"),
            ("a.mtx.gz", "mtx"),
            ("a.edges.gz", "edgelist"),
        ],
    )
    def test_by_extension(self, name, fmt):
        assert detect_format(name) == fmt

    def test_txt_is_sniffed_not_assumed(self, tmp_path):
        """Real SNAP dumps ship as .txt — the generic extension must go
        through content sniffing so sparse-id files hit the snap reader."""
        ours = tmp_path / "ours.txt"
        save_graph(rmat_er(6, seed=1), ours, "edgelist")
        assert detect_format(ours) == "edgelist"
        snap = tmp_path / "ca-GrQc.txt"
        snap.write_text("# Undirected graph: ca-GrQc\n5 1000000000\n")
        assert detect_format(snap) == "snap"
        assert load_graph(snap).num_vertices == 2  # compacted, not max_id+1

    def test_txt_gz_sniffed_through_gzip(self, tmp_path):
        g = rmat_er(6, seed=1)
        path = tmp_path / "g.txt.gz"
        save_graph(g, path, "edgelist")
        assert detect_format(path) == "edgelist"
        assert load_graph(path) == g

    def test_sniff_mtx_banner(self, tmp_path):
        path = tmp_path / "noext"
        save_graph(rmat_er(6, seed=1), path, "mtx")
        assert detect_format(path) == "mtx"

    def test_sniff_edgelist_header(self, tmp_path):
        path = tmp_path / "noext"
        save_graph(rmat_er(6, seed=1), path, "edgelist")
        assert detect_format(path) == "edgelist"

    def test_sniff_metis_comment(self, tmp_path):
        buf = io.StringIO()
        save_graph(rmat_er(6, seed=1), buf, "metis")
        path = tmp_path / "noext"
        path.write_text("% metis file\n" + buf.getvalue())
        assert detect_format(path) == "metis"

    def test_sniff_snap_comment(self, tmp_path):
        path = tmp_path / "noext"
        path.write_text(TestSnap.TEXT)
        assert detect_format(path) == "snap"

    def test_sniff_npz_magic(self, tmp_path):
        path = tmp_path / "noext"
        save_graph(rmat_er(6, seed=1), tmp_path / "g.npz")
        (tmp_path / "g.npz").rename(path)
        assert detect_format(path) == "npz"

    def test_unknown_rejected(self, tmp_path):
        path = tmp_path / "noext"
        path.write_text("a b c d\n")
        with pytest.raises(GraphFormatError, match="detect"):
            detect_format(path)

    def test_binary_junk_raises_graph_format_error(self, tmp_path):
        path = tmp_path / "noext"
        path.write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(range(256)))
        with pytest.raises(GraphFormatError, match="sniff"):
            detect_format(path)

    def test_missing_file_raises_graph_format_error(self, tmp_path):
        with pytest.raises(GraphFormatError, match="sniff"):
            detect_format(tmp_path / "missing")

    def test_strip_format_extension(self):
        from repro.graph.io import strip_format_extension

        assert strip_format_extension("ca-GrQc.txt.gz") == "ca-GrQc"
        assert strip_format_extension("g.mtx") == "g"
        assert strip_format_extension("g.unknown") == "g.unknown"


class TestLoadSaveGraph:
    @pytest.mark.parametrize("ext", ["txt", "mtx", "metis", "npz", "txt.gz", "mtx.gz"])
    def test_roundtrip_every_format(self, ext, tmp_path):
        g = rmat_g(7, seed=5)
        path = tmp_path / f"g.{ext}"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_explicit_format_overrides_extension(self, sample, tmp_path):
        path = tmp_path / "weird.dat"
        save_graph(sample, path, format="mtx")
        assert load_graph(path, format="mtx") == sample

    def test_unknown_format_rejected(self, sample, tmp_path):
        with pytest.raises(GraphFormatError, match="unknown graph format"):
            save_graph(sample, tmp_path / "g.txt", format="dot")
        with pytest.raises(GraphFormatError, match="unknown graph format"):
            load_graph(tmp_path / "missing.txt", format="dot")

    def test_formats_tuple_is_public_contract(self):
        assert set(FORMATS) == {"edgelist", "mtx", "metis", "npz", "snap"}


#: Second-block contents -> whether that block leaves the whole-block
#: integer fast path for the float path.  Tabs, whole-line comments (cut
#: before parsing) and a missing final newline keep the fast path.
_SECOND_BLOCK = {
    "float-id": ("3.0 7\n", True),
    "signed-id": ("+5 7\n", True),
    "blank-line": ("\n4 9\n", True),
    "tabs": ("3\t7\n", False),
    "comment": ("{comment} note\n4 9\n", False),
    "no-trailing-newline": ("4 9", False),
}


#: Parse block size for these tests (the default is 1 MiB).
_BLOCK = 1 << 16


def _clean_lines(width=2):
    """A bit over one parse block of clean 1-based entries."""
    rows = [(1 + i % 997, 1 + (i * 7 + 3) % 1000) for i in range(_BLOCK // 7)]
    tail = " 1" if width == 3 else ""
    return "".join(f"{u} {v}{tail}\n" for u, v in rows if u != v)


def _python_parse(text, fmt):
    """``(n or None, set of (min, max) pairs)`` by a plain per-line parse."""
    lines = text.splitlines()
    n, pairs = None, set()
    if fmt == "mtx":
        lines = [ln for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("%")]
        n = int(lines[0].split()[0])
        lines = lines[1:]
    for line in lines:
        parts = line.split()
        if not parts or parts[0][0] in "#%":
            if parts[:2] == ["#", "vertices"]:
                n = int(parts[2])
            continue
        u, v = (int(float(tok)) - (fmt == "mtx") for tok in parts[:2])
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return n, pairs


class TestBlockFastPath:
    """The first parse block of these files is clean and takes the integer
    fast path; the second carries one other line shape, and the answer
    equals a plain Python parse whichever path each block takes."""

    @pytest.fixture
    def slow_blocks(self, monkeypatch):
        """Lengths of the blocks sent down the float path."""
        import repro.graph.io as gio

        monkeypatch.setattr(gio, "_CHUNK_CHARS", _BLOCK)
        seen, slow = [], gio._block_tokens
        monkeypatch.setattr(gio, "_block_tokens", lambda b: seen.append(len(b)) or slow(b))
        return seen

    @staticmethod
    def _file(tmp_path, fmt, body, field="pattern"):
        if fmt == "mtx":
            entries = sum(1 for ln in body.splitlines() if ln.strip() and ln[0] != "%")
            head = f"%%MatrixMarket matrix coordinate {field} general\n1000 1000 {entries}\n"
        elif fmt == "edgelist":
            head = "# vertices 1001\n"
        else:
            head = "# SNAP dump\n# FromNodeId\tToNodeId\n"
        path = tmp_path / f"g.{fmt}"
        path.write_text(head + body)
        return path, head + body

    def _check(self, path, text, fmt):
        n, pairs = _python_parse(text, fmt)
        if fmt == "snap":
            graph, labels = read_snap(path)
            got = {(int(labels[u]), int(labels[v])) for u, v in graph.edge_array()}
            assert {(min(e), max(e)) for e in got} == pairs
        else:
            graph = load_graph(path, fmt)
            assert graph.num_vertices == n
            assert graph.edge_set() == pairs

    @pytest.mark.parametrize("fmt", ["edgelist", "mtx", "snap"])
    def test_clean_file_never_falls_back(self, tmp_path, fmt, slow_blocks):
        path, text = self._file(tmp_path, fmt, _clean_lines())
        self._check(path, text, fmt)
        assert all(size < 100 for size in slow_blocks)  # the mtx size line only

    @pytest.mark.parametrize(
        "fmt, case",
        [
            (fmt, case)
            for fmt in ("edgelist", "mtx", "snap")
            for case in sorted(_SECOND_BLOCK)
            # A float id is a malformed edge-list line (tested below).
            if (fmt, case) != ("edgelist", "float-id")
        ],
    )
    def test_dirty_second_block_falls_back(self, tmp_path, fmt, case, slow_blocks):
        dirty, falls_back = _SECOND_BLOCK[case]
        dirty = dirty.format(comment="%" if fmt == "mtx" else "#")
        path, text = self._file(tmp_path, fmt, _clean_lines() + dirty)
        self._check(path, text, fmt)
        assert sum(size >= 100 for size in slow_blocks) == falls_back

    def test_weighted_real_mtx_weight_column(self, tmp_path, slow_blocks):
        path, text = self._file(tmp_path, "mtx", _clean_lines(3) + "4 9 0.25\n", "real")
        self._check(path, text, "mtx")
        assert sum(size >= 100 for size in slow_blocks) == 1

    def test_pattern_mtx_width_sniffed_before_the_fast_path(self, tmp_path, slow_blocks):
        path, text = self._file(tmp_path, "mtx", _clean_lines(3))
        self._check(path, text, "mtx")
        assert all(size < 100 for size in slow_blocks)

    # "1 2 3\n4" has two tokens per line on average: only the per-line
    # count keeps it off the fast path.
    @pytest.mark.parametrize("bad", ["1 2 3", "3.0 7", "1 2 3\n4"])
    def test_malformed_second_block_line_named(self, tmp_path, bad, slow_blocks):
        path, text = self._file(tmp_path, "edgelist", _clean_lines() + f"4 9\n{bad}\n5 6\n")
        lineno = text.count("\n") - 1 - bad.count("\n")
        named = bad.split("\n")[0]
        with pytest.raises(GraphFormatError, match=rf"^line {lineno}: .*'{named}'"):
            load_graph(path, "edgelist")

    @pytest.mark.parametrize("fmt", ["mtx", "snap"])
    def test_non_numeric_second_block_token(self, tmp_path, fmt, slow_blocks):
        path, _ = self._file(tmp_path, fmt, _clean_lines() + "4 x\n")
        with pytest.raises(GraphFormatError, match="non-numeric token"):
            load_graph(path, fmt)

    def test_ids_past_float_precision_take_the_float_path(self, tmp_path, slow_blocks):
        # 2**53 + 1 rounds to 2**53 as a float; the fast path would keep it.
        path, text = self._file(tmp_path, "snap", _clean_lines() + "9007199254740993 7\n")
        self._check(path, text, "snap")
        assert sum(size >= 100 for size in slow_blocks) == 1

    def test_threaded_loads_leave_warning_filters_alone(self, tmp_path):
        import threading
        import warnings

        before = list(warnings.filters)
        fmts = ("edgelist", "mtx")
        files = {fmt: self._file(tmp_path, fmt, _clean_lines()) for fmt in fmts}
        graphs, errors = {}, []

        def load(fmt):
            try:
                for _ in range(5):
                    graphs[fmt] = load_graph(files[fmt][0], fmt)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=load, args=(fmt,)) for fmt in fmts]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert warnings.filters == before
        for fmt in fmts:
            assert graphs[fmt].edge_set() == _python_parse(files[fmt][1], fmt)[1]
