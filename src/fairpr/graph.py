"""Node-colored directed graphs: loading, validation, node-id files, and the row and summary CSVs.

Nodes carry a binary color (red = protected group, blue = the rest) and are
identified by dense integer ids ``0..n-1``.  Adjacency is stored CSR-style so
transition matrices can be assembled without re-scanning edge lists.

TSV input is read in one strict numpy pass (:func:`_int_rows`): checks that
accept only digits, tabs and ``\\n`` in the layout :func:`save_graph` writes,
then one ``np.fromstring`` parse.  Any other file, and any file that fails a
check, goes to the line-by-line parser, which alone words every
:class:`GraphError` with the file's ``path:line``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GraphError


@dataclass(frozen=True)
class ColoredGraph:
    """Immutable directed graph with a red/blue color per node.

    The out-neighbors of node ``i`` are ``indices[indptr[i]:indptr[i+1]]``.
    Nodes without out-edges are sinks; they are kept and handled by the
    transition-model layer.  Both color groups are always nonempty.
    """

    indptr: np.ndarray
    indices: np.ndarray
    red: np.ndarray

    def __post_init__(self):
        for arr in (self.indptr, self.indices, self.red):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.red.shape[0]

    @property
    def n_edges(self) -> int:
        return self.indices.shape[0]

    @property
    def n_red(self) -> int:
        return int(self.red.sum())

    @property
    def n_blue(self) -> int:
        return self.n - self.n_red

    @property
    def out_degree(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def sinks(self) -> np.ndarray:
        return self.out_degree == 0

    def out_count(self, mask: np.ndarray) -> np.ndarray:
        """Per-node count of out-neighbors in ``mask``: a prefix sum over the edges read at ``indptr``."""
        return np.diff(np.concatenate(([0], np.cumsum(mask[self.indices])))[self.indptr])

    def red_nodes(self) -> np.ndarray:
        return np.nonzero(self.red)[0]

    def blue_nodes(self) -> np.ndarray:
        return np.nonzero(~self.red)[0]

    def edges(self) -> np.ndarray:
        """All edges as an (m, 2) array of (src, dst), grouped by source."""
        src = np.repeat(np.arange(self.n), self.out_degree)
        return np.column_stack([src, self.indices])


def from_edges(n: int, edges, red) -> ColoredGraph:
    """Build a validated graph from an edge list and a red mask.

    Rejects out-of-range endpoints, duplicate edges, and single-color
    graphs.  Self-loops are allowed.
    """
    red = np.asarray(red, dtype=bool).copy()
    if red.shape != (n,):
        raise GraphError(f"color mask must have length {n}")
    n_red = int(red.sum())
    if n_red == 0 or n_red == n:
        raise GraphError("both color groups must be nonempty")

    edge_arr = np.asarray(
        edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64
    ).reshape(-1, 2)
    if edge_arr.size and (edge_arr.min() < 0 or edge_arr.max() >= n):
        raise GraphError("edge endpoint out of range")

    # The key src * n + dst is exact while n * n < 2**63 (n < 3.03e9).  Edges in
    # increasing key order, as save_graph writes them, skip the sort and repeat scan.
    src, dst = edge_arr.T
    key = src * n + dst
    if not (np.diff(key) > 0).all():
        key = np.sort(key)
        repeat = np.flatnonzero(np.diff(key) == 0)
        if repeat.size:
            raise GraphError("duplicate edge ({}, {})".format(*divmod(int(key[repeat[0]]), n)))
        src, dst = np.divmod(key, n)

    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return ColoredGraph(indptr=indptr, indices=dst.copy(), red=red)


def _check_target_sets(g: ColoredGraph, s, s_r) -> tuple[np.ndarray, np.ndarray]:
    masks = []
    for ids, name in ((s, "target set"), (s_r, "protected target subset")):
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            raise ValueError(f"{name} is empty")
        if ids.min() < 0 or ids.max() >= g.n:  # before the scatter, where -1 would mark node n - 1
            raise ValueError(f"{name} contains out-of-range node ids")
        mask = np.zeros(g.n, dtype=bool)
        mask[ids] = True  # no np.unique: numpy 2's imports numpy.ma, ~17 ms of a targeted run
        masks.append(mask)
    s_mask, sr_mask = masks
    if not s_mask[sr_mask].all():
        raise ValueError("protected target subset must lie inside the target set")
    if not (s_mask & ~sr_mask).any():
        raise ValueError("target set must contain nodes outside the protected subset")
    return s_mask, sr_mask


def _parse_lines(path):
    """``(lineno, line)`` of each stripped line that is neither blank nor a comment.

    Bytes that are not UTF-8 read as lone surrogates U+DC80..U+DCFF, which
    valid UTF-8 never yields, so their line can be named.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii() and any("\udc80" <= ch <= "\udcff" for ch in raw):
                raise GraphError(f"{path}:{lineno}: not valid UTF-8")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def _int(field: str) -> int:
    """``int(field)`` without the ``_`` and non-ASCII digits ``int()`` also reads; a sign
    and surrounding spaces stay accepted."""
    if not field.isascii() or "_" in field:
        raise ValueError(field)
    return int(field)


_STRICT_BYTES = b"0123456789\t\n"
_MAX_DIGITS = 18  # every such field fits in int64


def _int_rows(path, columns: int) -> np.ndarray | None:
    """The file as an (m, columns) int64 array, or ``None`` to hand it to the line parser.

    Accepts only lines of exactly ``columns`` tab-separated fields of 1 to 18
    digits, each line ending in ``\\n``; one ``np.fromstring`` then reads every
    field as ``int()`` would.  Anything else declines: an empty file, ``\\r``,
    spaces, signs, comments, blank lines, a missing final newline and bytes
    that are not ASCII.
    """
    data = Path(path).read_bytes()
    if not data.endswith(b"\n") or data.translate(None, _STRICT_BYTES):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero(raw <= ord("\n"))  # the tabs and newlines, in order
    if seps.size % columns:
        return None
    is_newline = (raw[seps] == ord("\n")).reshape(-1, columns)
    if not (is_newline == (np.arange(columns) == columns - 1)).all():
        return None
    widths = np.diff(seps, prepend=-1) - 1
    if widths.min() < 1 or widths.max() > _MAX_DIGITS:
        return None
    return np.fromstring(data, dtype=np.int64, sep=" ").reshape(-1, columns)  # " " matches tab and \n


def load_node_ids(path) -> np.ndarray:
    """The int64 ids of a node-id file, one a line (``#`` starts a comment), in file order.

    A malformed file raises ``ValueError`` naming its ``path:line``, or its ``path`` if it has no ids.
    """
    rows = _int_rows(path, 1)
    if rows is not None:
        return rows[:, 0]
    nodes = []
    for lineno, line in _parse_lines(path):
        try:
            node = _int(line)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: node id must be an integer, got {line!r}") from None
        if not -(2**63) <= node < 2**63:  # beyond int64, so beyond every graph
            raise ValueError(f"{path}:{lineno}: node id out of range, got {line!r}")
        nodes.append(node)
    if not nodes:
        raise ValueError(f"{path}: no node ids")
    return np.asarray(nodes, dtype=np.int64)


def _load_strict(edge_path, color_path) -> ColoredGraph | None:
    """The graph when both files pass :func:`_int_rows` and every check, else ``None``."""
    colors = _int_rows(color_path, 2)
    if colors is None:
        return None
    node, color = colors[:, 0], colors[:, 1]
    n = node.size
    if color.max() > 1 or node.max() != n - 1 or np.bincount(node).min() != 1:
        return None
    edges = _int_rows(edge_path, 2)
    if edges is None or edges.max() >= n:
        return None
    red = np.zeros(n, dtype=bool)
    red[node] = color == 1
    try:
        return from_edges(n, edges, red)
    except GraphError:  # a repeated edge or one color: the line parser names it
        return None


def load_graph(edge_path, color_path) -> ColoredGraph:
    """Load a graph from TSV edge and color files.

    Edge file: ``src<TAB>dst`` per line, ``#`` starts a comment line.
    Color file: ``node<TAB>color`` with color 1 = red, 0 = blue.  Every
    node referenced by an edge must be colored; nodes that appear only in
    the color file become isolated sinks.  Node ids must form the dense
    range ``0..n-1``.

    Files in :func:`save_graph`'s layout (digits, one tab, ``\\n`` on every
    line; no comments, blank lines, spaces or signs) are parsed in one numpy
    pass.  Every other file, and every file whose graph is invalid (a color
    other than 0/1, ids not ``0..n-1`` once each, an uncolored endpoint, a
    repeated edge, one color), is read again line by line, and that parser
    raises the :class:`GraphError` naming ``path:line``.
    """
    g = _load_strict(edge_path, color_path)
    return g if g is not None else _load_lines(edge_path, color_path)


def _load_lines(edge_path, color_path) -> ColoredGraph:
    """:func:`load_graph`'s line-by-line parser, which words every error."""
    colors: dict[int, int] = {}
    for lineno, line in _parse_lines(color_path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise GraphError(f"{color_path}:{lineno}: expected node<TAB>color")
        try:
            node, color = _int(parts[0]), _int(parts[1])
        except ValueError:
            raise GraphError(f"{color_path}:{lineno}: non-integer token") from None
        if node < 0:
            raise GraphError(f"{color_path}:{lineno}: node id must be nonnegative, got {node}")
        if color not in (0, 1):
            raise GraphError(f"{color_path}:{lineno}: color must be 0 or 1")
        if node in colors:
            raise GraphError(f"{color_path}:{lineno}: node {node} colored twice")
        colors[node] = color

    if not colors:
        raise GraphError(f"{color_path}: no colored nodes")
    n = max(colors) + 1
    if len(colors) != n:
        missing = next(i for i in range(n) if i not in colors)
        raise GraphError(f"{color_path}: node ids not dense, {missing} missing")

    edges, seen, repeat = [], set(), None
    for lineno, line in _parse_lines(edge_path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise GraphError(f"{edge_path}:{lineno}: expected src<TAB>dst")
        try:
            edge = _int(parts[0]), _int(parts[1])
        except ValueError:
            raise GraphError(f"{edge_path}:{lineno}: non-integer token") from None
        for endpoint in edge:
            if endpoint not in colors:
                raise GraphError(f"{edge_path}:{lineno}: node {endpoint} has no color")
        if repeat is None and edge in seen:
            repeat = f"{edge_path}:{lineno}: duplicate edge {edge}"
        seen.add(edge)  # the list's own tuple, so the set holds no second copy
        edges.append(edge)

    red = np.zeros(n, dtype=bool)
    for node, color in colors.items():
        red[node] = bool(color)
    if red.all() or not red.any():  # named before any repeated edge
        raise GraphError(f"{color_path}: both color groups must be nonempty")
    if repeat is not None:
        raise GraphError(repeat)
    return from_edges(n, edges, red)


def save_graph(g: ColoredGraph, edge_path, color_path) -> None:
    """Write a graph back to TSV files; inverse of :func:`load_graph`.

    Edges go out sorted by ``(src, dst)``, the order :func:`from_edges` keeps
    without sorting again.
    """
    write_rows(edge_path, None, "%d\t%d", *g.edges().T)
    write_rows(color_path, None, "%d\t%d", range(g.n), g.red)


def write_rows(path, header: str | None, row: str, *columns) -> None:
    """Write one ``row % values`` line per position of the columns (sequences, or arrays read by
    ``tolist``) under ``header`` unless None: ``%d`` for ints and bools, ``%.17g`` for floats, ``\\n``
    line ends.  ``%`` takes ~0.7x ``str.format``'s time; the text is built in memory and written once."""
    line = row + "\n"
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    text = "".join([line % values for values in zip(*columns)])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text if header is None else header + "\n" + text)


def write_summary_csv(g: ColoredGraph, path) -> None:
    """Single-row CSV summary: n, edges, group shares, cross-edge ratios.

    ``cross_R`` is the fraction of red-sourced edges that point to blue,
    normalized by the blue share ``b`` of nodes, so 1.0 means red sources
    pick targets as if color-blind; below 1 is homophily, above 1
    heterophily.  ``cross_B`` is the same for blue; either is empty when its
    group has no out-edges.
    """
    r = g.n_red / g.n
    b = 1.0 - r
    red_src_edges = int(g.out_degree[g.red].sum())
    blue_src_edges = g.n_edges - red_src_edges
    cross_red = f"{g.out_count(~g.red)[g.red].sum() / red_src_edges / b:.17g}" if red_src_edges > 0 else ""
    cross_blue = f"{g.out_count(g.red)[~g.red].sum() / blue_src_edges / r:.17g}" if blue_src_edges > 0 else ""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "edges", "r", "b", "cross_R", "cross_B"])
        writer.writerow([g.n, g.n_edges, f"{r:.17g}", f"{b:.17g}", cross_red, cross_blue])
