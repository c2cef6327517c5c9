import csv
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_colored_graph
from fairpr import graph
from fairpr.errors import GraphError
from fairpr.graph import (
    from_edges,
    load_graph,
    load_node_ids,
    save_graph,
    write_summary_csv,
)


def test_from_edges_basic_properties():
    # 0 -> 1, 0 -> 2, 1 -> 2; node 2 is a sink
    g = from_edges(3, [(0, 1), (0, 2), (1, 2)], [True, False, True])
    assert g.n == 3
    assert g.n_edges == 3
    assert g.n_red == 2
    assert g.n_blue == 1
    assert g.out_degree.tolist() == [2, 1, 0]
    assert g.sinks.tolist() == [False, False, True]
    assert g.indices[g.indptr[0] : g.indptr[1]].tolist() == [1, 2]
    assert g.indices[g.indptr[2] : g.indptr[3]].tolist() == []
    assert g.red_nodes().tolist() == [0, 2]
    assert g.blue_nodes().tolist() == [1]
    assert g.edges().tolist() == [[0, 1], [0, 2], [1, 2]]


def test_out_count_with_interleaved_and_trailing_sinks():
    # nodes 0, 2 and 5 are sinks; a sink's count is 0 and leaves its neighbors' counts alone
    g = from_edges(6, [(1, 0), (1, 3), (3, 0), (3, 1), (3, 3), (4, 2)], [True, False, False, True, False, False])
    assert g.out_count(g.red).tolist() == [0, 2, 0, 2, 0, 0]
    assert g.out_count(~g.red).tolist() == [0, 0, 0, 1, 1, 0]
    assert g.out_count(np.zeros(6, dtype=bool)).tolist() == [0] * 6
    assert g.out_count(np.ones(6, dtype=bool)).tolist() == g.out_degree.tolist() == [0, 2, 0, 3, 1, 0]
    assert g.out_count(g.red).dtype == np.int64


def test_from_edges_rejects_bad_input():
    with pytest.raises(GraphError):
        from_edges(2, [(0, 2)], [True, False])
    with pytest.raises(GraphError):
        from_edges(2, [(0, 1), (0, 1)], [True, False])
    with pytest.raises(GraphError):
        from_edges(2, [(0, 1)], [True, True])
    with pytest.raises(GraphError):
        from_edges(2, [(0, 1)], [True])


def test_from_edges_allows_self_loops_and_is_immutable():
    g = from_edges(2, [(0, 0), (0, 1)], [True, False])
    assert g.indices[g.indptr[0] : g.indptr[1]].tolist() == [0, 1]
    with pytest.raises(ValueError):
        g.red[0] = False


def test_tsv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    g = random_colored_graph(rng, 40, sink_frac=0.2)
    save_graph(g, tmp_path / "e.tsv", tmp_path / "c.tsv")
    h = load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
    assert np.array_equal(g.indptr, h.indptr)
    assert np.array_equal(g.indices, h.indices)
    assert np.array_equal(g.red, h.red)


def test_saved_graph_and_target_set_load_without_the_line_parser(tmp_path, monkeypatch):
    def line_parser(*args):
        raise AssertionError("the line parser ran")

    monkeypatch.setattr(graph, "_load_lines", line_parser)
    monkeypatch.setattr(graph, "_parse_lines", line_parser)
    g = random_colored_graph(np.random.default_rng(5), 1500, sink_frac=0.1)
    save_graph(g, tmp_path / "e.tsv", tmp_path / "c.tsv")
    h = load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
    assert np.array_equal(g.indptr, h.indptr)
    assert np.array_equal(g.indices, h.indices)
    assert np.array_equal(g.red, h.red)
    (tmp_path / "s.txt").write_text("".join(f"{i}\n" for i in range(0, g.n, 7)))
    assert load_node_ids(tmp_path / "s.txt").tolist() == list(range(0, g.n, 7))


def _target_outcome(n, s, s_r):
    """The message ``_check_target_sets`` raises on these id lists, or None."""
    for ids, name in ((s, "target set"), (s_r, "protected target subset")):
        if not ids:
            return f"{name} is empty"
        if min(ids) < 0 or max(ids) >= n:
            return f"{name} contains out-of-range node ids"
    if not set(s_r) <= set(s):
        return "protected target subset must lie inside the target set"
    if not set(s) - set(s_r):
        return "target set must contain nodes outside the protected subset"
    return None


_id_lists = st.integers(2, 9).flatmap(
    lambda n: st.tuples(st.just(n), *[st.lists(st.integers(-n - 2, n + 2), max_size=2 * n)] * 2)
)


@settings(max_examples=300, deadline=None)
@given(_id_lists)
@example((5, [4, 0, 4, 2], [2, 2]))  # repeats, unsorted: masks {0, 2, 4} and {2}
@example((5, [0, 1, -1], [0]))  # scattered unchecked, -1 would mark node 4
@example((5, [0, 5], [0]))  # and 5 would raise IndexError
@example((5, [0, 1], []))
def test_target_masks_equal_the_sorted_unique_reference(case):
    # the masks are scattered, not built with np.unique and np.isin, which they must equal;
    # the checks and their messages come first, in the same order
    n, s, s_r = case
    g = from_edges(n, [(0, 1)], np.arange(n) == 0)
    message = _target_outcome(n, s, s_r)
    if message is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            graph._check_target_sets(g, s, s_r)
        return
    masks = graph._check_target_sets(g, s, s_r)
    for mask, ids in zip(masks, (s, s_r)):
        assert mask.dtype == bool
        assert np.array_equal(mask, np.isin(np.arange(n), np.unique(ids)))


def test_from_edges_sorts_only_out_of_order_input():
    red = [True, False, False]
    in_order = from_edges(3, np.array([[0, 1], [0, 2], [2, 0]]), red)
    shuffled = from_edges(3, [(2, 0), (0, 2), (0, 1)], red)
    assert np.array_equal(in_order.indptr, shuffled.indptr)
    assert np.array_equal(in_order.indices, shuffled.indices)
    with pytest.raises(GraphError, match=r"^duplicate edge \(0, 2\)$"):
        from_edges(3, np.array([[0, 2], [0, 1], [0, 2]]), red)


def test_load_graph_skips_comments_and_blank_lines(tmp_path):
    (tmp_path / "e.tsv").write_text("# header\n0\t1\n\n1\t0\n")
    (tmp_path / "c.tsv").write_text("0\t1\n# note\n1\t0\n")
    g = load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
    assert g.n == 2 and g.n_edges == 2
    assert g.red.tolist() == [True, False]


@pytest.mark.parametrize(
    "edges,colors",
    [
        ("0\t1\n", "0\t1\n1\t0\n1\t1\n"),  # node colored twice
        ("0\t1\n", "0\t1\n2\t0\n"),  # ids not dense
        ("0\t2\n", "0\t1\n1\t0\n"),  # edge endpoint uncolored
        ("0\t1\n", "0\t2\n1\t0\n"),  # color out of range
        ("0 1\n", "0\t1\n1\t0\n"),  # wrong delimiter
        ("0\t1\n", "a\t1\n1\t0\n"),  # non-integer id
    ],
)
def test_load_graph_rejects_malformed_files(tmp_path, edges, colors):
    (tmp_path / "e.tsv").write_text(edges)
    (tmp_path / "c.tsv").write_text(colors)
    with pytest.raises(GraphError):
        load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")


@pytest.mark.parametrize(
    "colors,lineno",
    [
        ("0\t1\n-1\t0\n1\t0\n", 2),  # an extra negative id; the rest is dense
        ("-1\t1\n1\t0\n2\t0\n", 1),  # a negative id in place of 0
    ],
)
def test_load_graph_rejects_negative_node_id_with_its_line(tmp_path, colors, lineno):
    (tmp_path / "e.tsv").write_text("0\t1\n")
    (tmp_path / "c.tsv").write_text(colors)
    expected = f"{tmp_path / 'c.tsv'}:{lineno}: node id must be nonnegative, got -1"
    with pytest.raises(GraphError, match=re.escape(expected)):
        load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")


@pytest.mark.parametrize(
    "edges,colors,message",
    [
        (b"0\t1\n\xff\n", b"0\t1\n1\t0\n", "e.tsv:2: not valid UTF-8"),
        (b"0\t1\n", b"# \xfe\n0\t1\n1\t0\n", "c.tsv:1: not valid UTF-8"),
        (b"1\t0\n0\t1\n1\t1\n1\t0\n0\t1\n", b"0\t1\n1\t0\n", "e.tsv:4: duplicate edge (1, 0)"),
        (b"0\t1\n", b"0\t1\n1\t1\n", "c.tsv: both color groups must be nonempty"),
        (b"0\t1\n0\t1\n", b"0\t0\n1\t0\n", "c.tsv: both color groups must be nonempty"),
        (b"0\t1\n", b"# no colors\n\n", "c.tsv: no colored nodes"),
    ],
)
def test_load_graph_names_the_file_and_line_of_an_invalid_graph(tmp_path, edges, colors, message):
    (tmp_path / "e.tsv").write_bytes(edges)
    (tmp_path / "c.tsv").write_bytes(colors)
    with pytest.raises(GraphError, match=f"^{re.escape(str(tmp_path / message))}$"):
        load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")


def summary_row(g, tmp_path) -> dict:
    write_summary_csv(g, tmp_path / "summary.csv")
    with open(tmp_path / "summary.csv", newline="") as fh:
        return next(csv.DictReader(fh))


def test_group_stats_color_blind_graph_has_unit_cross_ratios(tmp_path):
    # every node links to all others: target colors follow group shares
    n = 10
    red = np.arange(n) < 4
    edges = [(u, v) for u in range(n) for v in range(n) if u != v]
    stats = summary_row(from_edges(n, edges, red), tmp_path)
    assert float(stats["r"]) == pytest.approx(0.4)
    assert float(stats["b"]) == pytest.approx(0.6)
    # self exclusion skews counts by one node out of n-1
    assert float(stats["cross_R"]) == pytest.approx((6 / 9) / 0.6)
    assert float(stats["cross_B"]) == pytest.approx((4 / 9) / 0.4)


def test_group_stats_none_when_group_has_no_out_edges(tmp_path):
    g = from_edges(3, [(1, 0), (2, 0)], [True, False, False])
    stats = summary_row(g, tmp_path)
    assert stats["cross_R"] == ""
    assert float(stats["cross_B"]) == pytest.approx((2 / 2) / (1 / 3))


def test_write_summary_csv(tmp_path):
    g = from_edges(3, [(0, 1), (1, 0)], [True, False, False])
    write_summary_csv(g, tmp_path / "s.csv")
    lines = (tmp_path / "s.csv").read_text().strip().splitlines()
    assert lines[0] == "n,edges,r,b,cross_R,cross_B"
    cells = lines[1].split(",")
    assert cells[0] == "3" and cells[1] == "2"
    assert float(cells[2]) == pytest.approx(1 / 3)
