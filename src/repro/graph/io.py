"""Graph serialisation: edge lists, MatrixMarket, METIS, SNAP and ``.npz``.

Dataset ingestion layer for the batch pipeline.  Supported formats:

* **edgelist** — one ``u v`` pair per line with an optional header comment
  ``# vertices N`` (needed to preserve isolated trailing vertices).
* **mtx** — MatrixMarket coordinate format, the interchange format of the
  SuiteSparse / sparse-matrix world (1-based, ``pattern``/``real``/
  ``integer`` fields, ``symmetric`` or ``general`` symmetry; weights are
  ignored, the adjacency pattern is what matters here).
* **snap** — SNAP-style edge lists: ``#``-commented headers, tab- or
  space-separated pairs, arbitrary non-contiguous vertex ids that are
  compacted to ``0..k-1`` via
  :func:`repro.graph.builder.compact_labels`.  Read-only: a file written
  as snap would come back with compacted ids and without its isolated
  vertices, so writing one is an error (write ``edgelist`` instead).
* **metis** — the graph-partitioning community's adjacency format.
* **npz** — NumPy binary of the CSR arrays (exact round-trip).

:func:`load_graph` / :func:`save_graph` are the entry points: one format
table each, serving paths (text formats transparently gzip-compressed
for ``*.gz``) and open streams alike.  The three pair formats
(``edgelist``, ``mtx``, ``snap``) share one chunk parser,
:func:`_pair_chunks`, which parses ~1 MiB text blocks with one NumPy
call each, never a Python loop per line: ``np.fromstring`` to int64 when
a block is exactly ``width`` unsigned integers per line, else a float
split that owns the error messages.  Loads then key the pairs into a
CSR graph (:func:`repro.graph.builder.edge_keys`).  Whole-file loading
concatenates the chunks; :class:`EdgeStream` hands them out one at a
time for out-of-core callers.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import os
import re
import zlib
from collections.abc import Iterator
from types import SimpleNamespace

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import compact_labels, from_edge_array
from repro.graph.csr import CSRGraph

__all__ = [
    "read_snap",
    "detect_format",
    "EdgeStream",
    "load_graph",
    "save_graph",
    "strip_format_extension",
    "FORMATS",
    "STREAMABLE_FORMATS",
]

#: Formats :func:`load_graph` understands (``save_graph`` writes all but
#: ``snap``, which is a read-side convention, not a distinct writer).
FORMATS = ("edgelist", "mtx", "metis", "npz", "snap")

#: The pair formats: parsed chunk-wise by :func:`_pair_chunks`, so
#: :class:`EdgeStream` can iterate them without ever materialising the
#: full edge list (``metis`` is row-oriented and ``npz`` is already
#: binary CSR — neither needs nor supports streaming).
STREAMABLE_FORMATS = ("edgelist", "mtx", "snap")

#: Characters of text per bulk-parse chunk (~1 MiB).
_CHUNK_CHARS = 1 << 20

#: Bytes of prefix :func:`detect_format` examines (plenty for any
#: banner/header line; gzip members decompress enough within this).
_SNIFF_BYTES = 1 << 16

#: Rows per ``write`` call of the pair writer.
_WRITE_ROWS = 1 << 16

_EXTENSION_FORMATS = {
    ".mtx": "mtx",
    ".mm": "mtx",
    ".npz": "npz",
    ".metis": "metis",
    ".graph": "metis",
    ".snap": "snap",
    ".edges": "edgelist",
    ".el": "edgelist",
    ".edgelist": "edgelist",
}

#: Comment-line prefixes of each pair format (the MatrixMarket banner is
#: consumed before its ``%`` comments are).
_COMMENT_PREFIXES = {"edgelist": "#", "snap": "#%", "mtx": "%"}

#: Whole comment lines, newline included, so stripping one leaves no
#: blank line behind to fail the fast path's line count.
_COMMENT_LINES = {
    fmt: re.compile(rf"^[^\S\n]*[{prefixes}][^\n]*\n?", re.M)
    for fmt, prefixes in _COMMENT_PREFIXES.items()
}

#: The first edge-list line that is not blank, a ``#`` comment or an
#: integer ``u v`` pair.
_BAD_EDGELIST_LINE = re.compile(
    r"^(?![^\S\n]*(?:#.*|[+-]?\d+[^\S\n]+[+-]?\d+[^\S\n]*)?$)", re.M
)


def _extension(name: str | os.PathLike) -> str:
    """The lower-cased extension of ``name`` under any trailing ``.gz``."""
    name = os.fspath(name)
    if name.endswith(".gz"):
        name = name[:-3]
    return os.path.splitext(name)[1].lower()


def strip_format_extension(name: str) -> str:
    """Drop a trailing ``.gz`` plus any known graph-format extension.

    ``ca-GrQc.txt.gz`` -> ``ca-GrQc``; unknown extensions are kept.  The
    CLI uses this to derive per-input output stems, so the set of
    recognised extensions stays defined in exactly one place.
    """
    if name.endswith(".gz"):
        name = name[:-3]
    ext = os.path.splitext(name)[1].lower()
    # ".txt" deliberately sniffs rather than maps (see detect_format) but
    # is still a recognised spelling worth stripping from output stems.
    if ext in _EXTENSION_FORMATS or ext == ".txt":
        name = name[: -len(ext)]
    return name


def _open_text(path: str | os.PathLike, mode: str):
    """Open a text file, transparently gzip-compressed for ``*.gz`` paths."""
    name = os.fspath(path)
    if name.endswith(".gz"):
        return gzip.open(name, mode + "t", encoding="utf-8")
    return open(name, mode, encoding="utf-8")


@contextlib.contextmanager
def _handle(source, mode: str, fmt: str):
    """What ``fmt``'s reader or writer takes for ``source``.

    Paths open as text (gzip for ``*.gz``) and are closed afterwards;
    ``npz`` gets the path itself, which ``np.load``/``np.savez`` open.
    Open streams pass through untouched, after checking that their kind
    (text or binary) fits the format.
    """
    binary = fmt == "npz"
    if isinstance(source, (str, os.PathLike)):
        if binary:
            yield source
        else:
            with _open_text(source, mode) as fh:
                yield fh
        return
    if binary != isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        if binary:
            std = "stdin" if mode == "r" else "stdout"
            raise GraphFormatError(
                f"format {fmt!r} is binary: it needs a path or a binary "
                f"stream, not a text stream such as {std}"
            )
        raise GraphFormatError(
            f"format {fmt!r} is text: it needs a path or a text stream, "
            "not a binary one"
        )
    yield source


# ---------------------------------------------------------------------------
# The pair formats: one chunk parser


def _text_blocks(fh) -> Iterator[str]:
    """Line-aligned text blocks of ``fh``, ~``_CHUNK_CHARS`` each."""
    tail = ""
    while block := fh.read(_CHUNK_CHARS):
        block = tail + block
        cut = block.rfind("\n") + 1
        tail = block[cut:]
        if cut:
            yield block[:cut]
    if tail:
        yield tail


def _block_tokens(block: str) -> np.ndarray:
    """One comment-free text block as a float64 token array.

    float64 keeps the converter uniform across pattern (int-only) and
    weighted (mixed) files; ids are exact up to 2**53, far beyond any
    graph this library can hold.
    """
    try:
        return np.array(block.split(), dtype=np.float64)
    except ValueError as exc:
        raise GraphFormatError(f"non-numeric token in graph data: {exc}") from exc


#: The bytes ``np.fromstring`` and ``str.split`` read alike: ASCII
#: digits and whitespace.
_INT_CHARS = b"0123456789 \t\r\n"


def _int_tokens(block: str, width: int, per_line: bool) -> np.ndarray | None:
    """``block`` as int64 tokens by one ``np.fromstring``, or ``None``
    (the float path) unless it holds only digits and whitespace,
    ``width`` tokens per line (line by line when ``per_line``, else in
    total) and no id the float path would round (``2**53`` and up).  Such
    a block reads to the same tokens either way and holds nothing
    ``np.fromstring`` could stop at, so no warning can arise.
    """
    raw = block.encode()
    if raw.translate(None, _INT_CHARS):
        return None
    tokens = np.fromstring(block, dtype=np.int64, sep=" ")
    lines = block.count("\n") + (not block.endswith("\n"))
    if tokens.size != width * lines or tokens.max(initial=0) >= 1 << 53:
        return None
    if per_line:
        # The edge-list regex's line check, vectorised (a third of its
        # cost): token starts before the k-th line end number k * width.
        b = np.frombuffer(raw, dtype=np.uint8)
        starts = np.flatnonzero(np.diff((b >= 48).view(np.int8), prepend=0) > 0)
        ends = np.append(np.flatnonzero(b == 10), b.size)[:lines]
        if np.any(np.searchsorted(starts, ends) != width * np.arange(1, lines + 1)):
            return None
    return tokens


def _int_column_pair(values: np.ndarray, what: str) -> np.ndarray:
    """Validate that float columns are integral; cast to int64."""
    if values.dtype.kind == "f" and not np.all(values == np.floor(values)):
        raise GraphFormatError(f"{what}: vertex ids must be integers")
    return values.astype(np.int64)


def _bad_edgelist_line(lineno: int, line: str) -> GraphFormatError:
    """The error for a malformed edge-list line, saying what is wrong."""
    line = line.strip()
    try:
        ntokens = _block_tokens(line).size
    except GraphFormatError as exc:
        return GraphFormatError(f"line {lineno}: {exc} in {line!r}")
    odd = " (an odd number of tokens, not a whole pair)" if ntokens % 2 else ""
    return GraphFormatError(f"line {lineno}: expected 'u v', got {line!r}{odd}")


def _read_mtx_header(fh) -> tuple[str, int, int]:
    """Consume the MatrixMarket banner, comments and size line; returns
    ``(field, rows, entries)``."""
    banner = fh.readline().strip()
    parts = banner.lower().split()
    if len(parts) != 5 or parts[0] != "%%matrixmarket":
        raise GraphFormatError(
            f"not a MatrixMarket file (banner {banner!r}); expected "
            "'%%MatrixMarket matrix coordinate <field> <symmetry>'"
        )
    _, obj, fmt, field, symmetry = parts
    if obj != "matrix" or fmt != "coordinate":
        raise GraphFormatError(
            f"only 'matrix coordinate' MatrixMarket files are supported, "
            f"got '{obj} {fmt}'"
        )
    if field not in ("pattern", "real", "integer", "double"):
        raise GraphFormatError(f"unsupported MatrixMarket field {field!r}")
    if symmetry not in ("symmetric", "general", "skew-symmetric"):
        raise GraphFormatError(f"unsupported MatrixMarket symmetry {symmetry!r}")
    line = ""
    while not line or line.startswith("%"):
        raw = fh.readline()
        if not raw:
            raise GraphFormatError("MatrixMarket file is missing its size line")
        line = raw.strip()
    size = _block_tokens(line)
    if size.size != 3:
        raise GraphFormatError(
            f"malformed MatrixMarket size line {line!r}; expected "
            "'rows cols entries'"
        )
    rows, cols, nnz = (int(t) for t in _int_column_pair(size, "MatrixMarket size line"))
    if rows != cols:
        raise GraphFormatError(f"adjacency matrix must be square, got {rows} x {cols}")
    return field, rows, nnz


def _vertex_count(token: str, line: str) -> int:
    """``token``, the ``N`` of an edge list's ``# vertices N`` ``line``."""
    try:
        count = int(token)
    except ValueError:
        count = -1
    if count < 0:
        raise GraphFormatError(
            f"edge-list header {line.strip()!r} must give a non-negative "
            "integer vertex count"
        )
    return count


def _pair_chunks(fh, fmt: str, head) -> Iterator[np.ndarray]:
    """The one parser of the pair formats: ``fh`` as ``(k, 2)`` int64 chunks.

    ``fmt`` is one of :data:`STREAMABLE_FORMATS`.  ``head`` receives
    ``declared_vertices`` (the ``# vertices N`` edge-list header or the
    MatrixMarket size line) and ``declared_edges`` (the MatrixMarket
    entry count) as soon as they are read.  MatrixMarket ids come out
    0-based and range-checked; edge-list and SNAP ids are raw.

    Whole-line comments are cut first; a block that is then digits and
    whitespace, ``width`` tokens per line (in total for SNAP and
    MatrixMarket), takes the :func:`_int_tokens` fast path.  Any other
    block is split to floats: an edge-list block is shape-checked by one
    regex search, so a malformed line raises :class:`GraphFormatError`
    naming its line number, and integer-valued floats are accepted.  SNAP
    and MatrixMarket data pair up token-wise; an odd token count or an
    entry count other than the declared one raises at the end.  A
    ``pattern`` MatrixMarket file whose first entry carries a weight
    column is read as three tokens per entry.
    """
    width = 2
    if fmt == "mtx":
        field, rows, nnz = _read_mtx_header(fh)
        head.declared_vertices, head.declared_edges = rows, nnz
        width = 2 if field == "pattern" else 3
    prefixes, comments = _COMMENT_PREFIXES[fmt], _COMMENT_LINES[fmt]
    sniff_width = fmt == "mtx" and width == 2
    lineno = seen = 0
    carry = np.empty(0, dtype=np.float64)
    for block in _text_blocks(fh):
        data, noted = block, []
        if any(p in block for p in prefixes):
            # Comments sit in a header; only the text up to the last one
            # goes through the regex.
            cut = block.find("\n", max(block.rfind(p) for p in prefixes)) + 1 or len(block)
            noted, data = comments.findall(block, 0, cut), comments.sub("", block[:cut])
            data += block[cut:]
        if sniff_width and data.strip():
            # One-sided leniency: a pattern-declared file carrying weight
            # columns is reinterpretable without data loss, but a weighted
            # file with only 2 tokens per entry is indistinguishable from
            # a truncated download — it fails the entry count instead.
            sniff_width = False
            if len(data.lstrip().split("\n", 1)[0].split()) == 3:
                width = 3
        tokens = _int_tokens(data, width, fmt == "edgelist")
        if tokens is None:
            bad = _BAD_EDGELIST_LINE.search(block) if fmt == "edgelist" else None
            if bad is not None:
                start = bad.start()
                end = block.find("\n", start)
                raise _bad_edgelist_line(
                    lineno + block.count("\n", 0, start) + 1,
                    block[start : end if end >= 0 else len(block)],
                )
            tokens = _block_tokens(data)
        if fmt == "edgelist":
            lineno += block.count("\n")
            for line in noted:
                parts = line.strip()[1:].split()
                if len(parts) == 2 and parts[0] == "vertices":
                    head.declared_vertices = _vertex_count(parts[1], line)
        if not tokens.size:
            continue
        if carry.size:
            tokens = np.concatenate((carry, tokens))
        keep = tokens.size - tokens.size % width
        carry = tokens[keep:]
        if not keep:
            continue
        pairs = _int_column_pair(tokens[:keep].reshape(-1, width)[:, :2], f"{fmt} data")
        if fmt == "mtx":
            if pairs.min() < 1 or pairs.max() > rows:
                raise GraphFormatError(
                    f"MatrixMarket index out of range for a {rows} x {rows} "
                    "matrix (indices are 1-based)"
                )
            pairs -= 1
        seen += pairs.shape[0]
        yield pairs
    if fmt == "mtx" and (carry.size or seen != nnz):
        raise GraphFormatError(
            f"MatrixMarket size line declares {nnz} entries of {width} tokens "
            f"but the file carries {seen} whole entries (+{carry.size} "
            "trailing tokens)"
        )
    if carry.size:
        raise GraphFormatError(
            f"{fmt} data has an odd number of tokens, not an even number of "
            "whole 'u v' pairs"
        )


def _read_pairs(fh, fmt: str) -> tuple[CSRGraph, np.ndarray | None]:
    """Whole-file load of a pair format: ``(graph, snap labels or None)``.

    SNAP ids are compacted (``labels[new_id] = original_id``); otherwise
    the vertex count is the declared one, else ``max id + 1``.
    """
    head = SimpleNamespace(declared_vertices=None, declared_edges=None)
    chunks = list(_pair_chunks(fh, fmt, head))
    pairs = np.concatenate(chunks) if chunks else np.empty((0, 2), dtype=np.int64)
    if fmt == "snap":
        n, pairs, labels = compact_labels(pairs)
        return from_edge_array(n, pairs), labels
    n = head.declared_vertices
    if n is None:
        n = int(pairs.max()) + 1 if pairs.size else 0
    return from_edge_array(n, pairs), None


def read_snap(
    path: str | os.PathLike | io.TextIOBase,
) -> tuple[CSRGraph, np.ndarray]:
    """Read a SNAP-style edge list; compact non-contiguous vertex ids.

    SNAP dumps (https://snap.stanford.edu/data/) are ``#``-commented,
    tab- or space-separated ``src dst`` pairs over arbitrary — typically
    sparse — integer ids.  Returns ``(graph, labels)`` with
    ``labels[new_id] = original_id`` (see
    :func:`repro.graph.builder.compact_labels`); directedness is dropped
    (the pair becomes one undirected edge).  ``load_graph(..., "snap")``
    is the same read without the labels.
    """
    with _handle(path, "r", "snap") as fh:
        return _read_pairs(fh, "snap")


def _write_pairs(fh, pairs: np.ndarray) -> None:
    """Write ``(k, 2)`` integer pairs as ``u v`` lines, in bulk."""
    for start in range(0, len(pairs), _WRITE_ROWS):
        rows = pairs[start : start + _WRITE_ROWS]
        fh.write(("%d %d\n" * len(rows)) % tuple(rows.ravel().tolist()))


def _write_edgelist(graph: CSRGraph, fh) -> None:
    fh.write(f"# vertices {graph.num_vertices}\n")
    _write_pairs(fh, graph.edge_array())


def _write_mtx(graph: CSRGraph, fh) -> None:
    """MatrixMarket ``pattern symmetric``: one entry per undirected edge in
    the lower triangle (``row > col``, 1-based), as the symmetric
    convention requires; the square ``n x n`` size keeps isolated
    vertices."""
    n = graph.num_vertices
    fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
    fh.write("% maximal chordal subgraph repro library\n")
    fh.write(f"{n} {n} {graph.num_edges}\n")
    # edge_array rows are (u, v) with u < v; the lower triangle is (v, u).
    _write_pairs(fh, graph.edge_array()[:, ::-1] + 1)


# ---------------------------------------------------------------------------
# METIS and npz


def _write_metis(graph: CSRGraph, fh) -> None:
    """METIS graph format (1-based; line ``i`` lists vertex ``i-1``'s
    neighbors) — the interchange format of the graph partitioning
    community the distributed baseline belongs to."""
    fh.write(f"{graph.num_vertices} {graph.num_edges}\n")
    for v in range(graph.num_vertices):
        fh.write(" ".join(str(int(u) + 1) for u in graph.neighbors(v)) + "\n")


def _read_metis(fh) -> CSRGraph:
    """Read a METIS-format graph (topology only).

    Accepts the plain unweighted format plus the vertex-weighted
    variants (fmt codes ``10`` / ``11``, and ``100``/``110`` with vertex
    sizes): vertex sizes/weights — ``ncon`` per vertex — are skipped,
    and for fmt ``11`` the edge weights interleaved with the adjacency
    are skipped too, keeping the topology.  Edge-weight-*only* files
    (fmt ``1`` / ``01``) are rejected with an error naming the fmt
    field.  Comment lines start with ``%``; trailing blank lines are
    tolerated (a blank line *within* the first ``n`` rows is an isolated
    vertex, per the format).
    """
    header: list[int] | None = None
    skip = 0
    has_ewgt = False
    rows: list[list[int]] = []
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if line.startswith("%"):
            continue
        if header is None:
            if not line:
                continue  # leading blank lines before the header
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(
                    f"line {lineno}: METIS header needs 'n m', got {line!r}"
                )
            fmt = parts[2] if len(parts) >= 3 else "0"
            if len(fmt) > 3 or any(ch not in "01" for ch in fmt):
                raise GraphFormatError(
                    f"line {lineno}: malformed METIS fmt field {fmt!r}"
                )
            has_vsize, has_vwgt, has_ewgt = (ch == "1" for ch in fmt.zfill(3))
            if has_ewgt and not has_vwgt:
                raise GraphFormatError(
                    f"line {lineno}: METIS fmt field {fmt!r} declares "
                    "edge weights, which are not supported (vertex-"
                    "weighted graphs are read topology-only)"
                )
            ncon = int(parts[3]) if len(parts) >= 4 else 1
            skip = (1 if has_vsize else 0) + (ncon if has_vwgt else 0)
            header = [int(parts[0]), int(parts[1])]
            continue
        tokens = line.split()
        if not tokens:
            rows.append([])  # isolated vertex (or a trailing blank)
            continue
        if len(tokens) < skip:
            raise GraphFormatError(
                f"line {lineno}: vertex row has {len(tokens)} tokens "
                f"but the fmt field requires {skip} weight tokens"
            )
        tokens = tokens[skip:]
        if has_ewgt:
            if len(tokens) % 2:
                raise GraphFormatError(
                    f"line {lineno}: fmt declares edge weights but the "
                    "row has an odd number of neighbor/weight tokens"
                )
            tokens = tokens[0::2]
        rows.append([int(tok) - 1 for tok in tokens])
    if header is None:
        raise GraphFormatError("empty METIS file (missing header)")
    n, m = header
    while len(rows) > n and not rows[-1]:
        rows.pop()  # trailing blank lines
    if len(rows) < n:
        rows.extend([[] for _ in range(n - len(rows))])
    elif len(rows) > n:
        raise GraphFormatError(
            f"METIS header declares {n} vertices but file has {len(rows)} rows"
        )
    pairs = [(v, u) for v, nbrs in enumerate(rows) for u in nbrs]
    graph = from_edge_array(
        n, np.asarray(pairs, dtype=np.int64) if pairs else np.empty((0, 2), np.int64)
    )
    if graph.num_edges != m:
        raise GraphFormatError(
            f"METIS header declares {m} edges but adjacency encodes {graph.num_edges}"
        )
    return graph


def _save_npz(graph: CSRGraph, target) -> None:
    np.savez_compressed(
        target,
        indptr=graph.indptr,
        indices=graph.indices,
        sorted_adjacency=np.asarray(graph.sorted_adjacency),
    )


def _load_npz(source) -> CSRGraph:
    with np.load(source) as data:
        missing = {"indptr", "indices", "sorted_adjacency"} - set(data.files)
        if missing:
            raise GraphFormatError(f"npz archive lacks the array(s) {sorted(missing)}")
        return CSRGraph.from_untrusted(
            data["indptr"],
            data["indices"],
            sorted_adjacency=bool(data["sorted_adjacency"]),
        )


# ---------------------------------------------------------------------------
# Detection and the two entry points


def detect_format(path: str | os.PathLike | io.IOBase) -> str:
    """Best-effort format detection for a path or an open stream.

    A path is tried by extension first: a trailing ``.gz`` is stripped
    before the lookup (so ``graph.mtx.gz`` is ``mtx``).  The generic
    ``.txt`` extension is deliberately *not* mapped — real-world SNAP
    dumps ship as ``.txt``, so those files are sniffed, which separates
    our ``# vertices``-headed edge lists from SNAP's sparse-id comment
    headers.  Anything else is opened in binary and sniffed like a
    stream.

    Sniffing never consumes a stream: binary buffered readers are
    peeked, seekable handles (text or binary) are read and rewound, so a
    caller that detects and then reads gets the whole input.  A gzip
    prefix is decompressed in memory.  The first non-blank line decides:
    a MatrixMarket banner, a METIS ``%`` comment, the npz/zip magic, a
    ``#`` comment (``# vertices`` means our edgelist header, anything
    else SNAP), or a plain data line (2 tokens = edgelist, 3 = METIS
    header with a format flag).  A comment-free METIS file whose header
    omits the format flag is indistinguishable from an edge pair and
    sniffs as ``edgelist`` — use the ``.metis``/``.graph`` extension or
    an explicit format for those.  Raises :class:`GraphFormatError` when
    nothing matches, and for non-seekable streams without ``peek``
    (pipes) — pass an explicit format for those.
    """
    if not isinstance(path, (str, os.PathLike)):
        return _sniff(path, "stream")
    name = os.fspath(path)
    fmt = _EXTENSION_FORMATS.get(_extension(name))
    if fmt is not None:
        return fmt
    try:
        with open(name, "rb", buffering=_SNIFF_BYTES) as fh:
            return _sniff(fh, repr(name))
    except OSError as exc:
        raise GraphFormatError(f"cannot sniff {name!r}: {exc}") from exc


def _sniff(stream, what: str) -> str:
    """Classify ``stream`` by its first non-blank line (see
    :func:`detect_format`), leaving its position unchanged."""
    prefix = _peek_prefix(stream, what)
    if isinstance(prefix, bytes):
        if prefix[:2] == b"PK":  # npz is a zip archive
            return "npz"
        if prefix[:2] == b"\x1f\x8b":
            try:
                prefix = zlib.decompressobj(wbits=31).decompress(prefix, _SNIFF_BYTES)
            except zlib.error as exc:
                raise GraphFormatError(
                    f"cannot sniff {what}: bad gzip prefix ({exc})"
                ) from exc
        try:
            prefix = prefix.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphFormatError(
                f"cannot sniff {what}: binary content ({exc})"
            ) from exc
    first = next((line.strip() for line in prefix.splitlines() if line.strip()), "")
    if first.lower().startswith("%%matrixmarket"):
        return "mtx"
    if first.startswith("%"):
        return "metis"
    if first.startswith("#"):
        return "edgelist" if "vertices" in first else "snap"
    tokens = first.split()
    if len(tokens) == 2:
        return "edgelist"
    if len(tokens) == 3:
        return "metis"
    raise GraphFormatError(
        f"cannot detect graph format of {what} (first line {first!r}); "
        f"pass an explicit format from {FORMATS}"
    )


def _peek_prefix(stream, what: str) -> bytes | str:
    """A prefix of ``stream`` with the read position left unchanged."""
    peek = getattr(stream, "peek", None)
    if callable(peek):
        try:
            return peek(_SNIFF_BYTES)[:_SNIFF_BYTES]
        except OSError:
            pass  # fall through to seek-based peeking
    try:
        if stream.seekable():
            pos = stream.tell()
            data = stream.read(_SNIFF_BYTES)
            stream.seek(pos)
            return data
    except (OSError, ValueError) as exc:
        raise GraphFormatError(f"cannot sniff {what}: {exc}") from exc
    raise GraphFormatError(
        f"cannot sniff a non-seekable {what} without peek support; pass an "
        f"explicit format from {FORMATS}"
    )


class EdgeStream:
    """Chunked, bounded-memory edge iteration over a text graph file.

    The out-of-core sharded extractor's input primitive: iterate the
    edges of an ``edgelist`` / ``snap`` / ``mtx`` file (optionally
    gzipped) as a sequence of ``(k, 2)`` int64 chunks — the same chunk
    parser whole-file loading concatenates — so one pass over a
    billion-edge file holds a single chunk of endpoint ids at a time,
    never the full edge list.

    Ids are raw file ids: MatrixMarket's 1-based ids are shifted to
    0-based (and range-checked against the size line), but SNAP's
    sparse ids are *not* compacted — compaction needs global knowledge,
    which the caller owns (see
    :func:`repro.graph.builder.compact_labels`).  Self-loops and
    duplicate edges pass through untouched for the same reason.

    Iterating is restartable (the file is reopened per pass).  Two
    attributes are populated once iteration has consumed the header
    (``None`` before that, and for headerless files):

    * ``declared_vertices`` — the ``# vertices N`` edgelist header, or
      the MatrixMarket size line's dimension;
    * ``declared_edges`` — MatrixMarket's declared entry count.

    Malformed files fail exactly as they do for :func:`load_graph`.
    """

    def __init__(self, path: str | os.PathLike, format: str | None = None) -> None:
        self.path = os.fspath(path)
        fmt = format or detect_format(self.path)
        if fmt not in STREAMABLE_FORMATS:
            raise GraphFormatError(
                f"format {fmt!r} is not streamable (expected one of "
                f"{STREAMABLE_FORMATS}); metis/npz inputs load in one piece "
                "via load_graph"
            )
        self.format = fmt
        self.declared_vertices: int | None = None
        self.declared_edges: int | None = None

    def __iter__(self) -> Iterator[np.ndarray]:
        with _open_text(self.path, "r") as fh:
            yield from _pair_chunks(fh, self.format, self)

    def __repr__(self) -> str:
        return f"EdgeStream({self.path!r}, format={self.format!r})"


#: format -> reader of what :func:`_handle` yields.
_READERS = {
    "edgelist": lambda fh: _read_pairs(fh, "edgelist")[0],
    "mtx": lambda fh: _read_pairs(fh, "mtx")[0],
    "snap": lambda fh: _read_pairs(fh, "snap")[0],
    "metis": _read_metis,
    "npz": _load_npz,
}

#: format -> writer into what :func:`_handle` yields.
_WRITERS = {
    "edgelist": _write_edgelist,
    "mtx": _write_mtx,
    "metis": _write_metis,
    "npz": _save_npz,
}


def load_graph(
    path: str | os.PathLike | io.IOBase, format: str | None = None
) -> CSRGraph:
    """Load a graph in any supported format from a path or an open stream.

    ``format`` is one of :data:`FORMATS`; ``None`` auto-detects with
    :func:`detect_format` (which never consumes a stream).  Text formats
    read from text-mode streams; ``npz`` needs a binary stream.  The
    ``snap`` reader's id labels are dropped — call :func:`read_snap` to
    keep the original ids.
    """
    fmt = format or detect_format(path)
    reader = _READERS.get(fmt)
    if reader is None:
        raise GraphFormatError(f"unknown graph format {fmt!r}; expected one of {FORMATS}")
    with _handle(path, "r", fmt) as fh:
        return reader(fh)


def save_graph(
    graph: CSRGraph, path: str | os.PathLike | io.IOBase, format: str | None = None
) -> None:
    """Save ``graph`` in any writable format to a path or an open stream.

    ``None`` picks the format from a path's extension, defaulting to
    ``edgelist`` for unrecognised extensions and for streams.  Text
    formats write to text-mode streams; ``npz`` needs a binary stream.
    ``snap`` is an input convention, not an output format: asking for it
    (explicitly or via a ``.snap`` extension) raises
    :class:`GraphFormatError`.
    """
    fmt = format
    if fmt is None and isinstance(path, (str, os.PathLike)):
        fmt = _EXTENSION_FORMATS.get(_extension(path))
    fmt = fmt or "edgelist"
    if fmt == "snap":
        raise GraphFormatError(
            "format 'snap' is read-only (its ids would come back compacted "
            "and its isolated vertices lost); write 'edgelist' instead"
        )
    writer = _WRITERS.get(fmt)
    if writer is None:
        raise GraphFormatError(f"unknown graph format {fmt!r}; expected one of {FORMATS}")
    with _handle(path, "w", fmt) as fh:
        writer(graph, fh)
