"""Fuzzed edge and color files: ``fairpr rank`` accepts them or exits 1, never a traceback.

The strict numpy reader either declines a file or reads the same graph as the
line parser, and ``load_graph`` ends exactly as the line parser does.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairpr import graph
from fairpr.cli import main
from fairpr.errors import GraphError

MUTATIONS = (
    "negative_id",
    "gap",
    "extra_column",
    "missing_column",
    "non_integer",
    "bad_color",
    "duplicate_node",
    "duplicate_edge",
    "comment",
    "blank",
    "non_utf8",
)
BAD_TOKENS = ("a", "1.5", "", "0x1", "nan", "1e3", "+1", " 2", "--1", "9" * 25)


@st.composite
def tsv_files(draw):
    """Bytes of an edge file and a color file: a valid small graph, then a few mutations."""
    n = draw(st.integers(2, 6))
    red = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), unique=True, max_size=8)
    )
    files = {
        "edges": [[str(u), str(v)] for u, v in pairs],
        "colors": [[str(i), str(int(c))] for i, c in enumerate(red)],
    }
    garbled = set()
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        name = "colors" if kind in ("gap", "bad_color", "duplicate_node") else "edges"
        if kind not in ("gap", "bad_color", "duplicate_node", "duplicate_edge"):
            name = draw(st.sampled_from(("edges", "colors")))
        rows = files[name]
        at = draw(st.integers(0, len(rows)))
        pick = min(at, len(rows) - 1)  # an existing row, when there is one
        if kind == "negative_id":
            neg = str(-draw(st.integers(1, 3)))
            if rows and draw(st.booleans()):
                rows[pick][draw(st.integers(0, min(1, len(rows[pick]) - 1))) if name == "edges" else 0] = neg
            else:
                rows.insert(at, [neg, draw(st.sampled_from(("0", "1")))])
        elif kind == "gap":
            if rows and draw(st.booleans()):
                del rows[pick]
            else:
                rows.insert(at, [str(n + draw(st.integers(0, 3))), "0"])
        elif kind == "extra_column" and rows:
            rows[pick].append(draw(st.sampled_from(("0", "1", "x", ""))))
        elif kind == "missing_column" and rows:
            del rows[pick][1:]
        elif kind == "non_integer" and rows:
            rows[pick][draw(st.integers(0, len(rows[pick]) - 1))] = draw(st.sampled_from(BAD_TOKENS))
        elif kind == "bad_color" and rows:
            rows[pick][-1] = draw(st.sampled_from(("2", "-1", "10", "01", "true")))
        elif kind in ("duplicate_node", "duplicate_edge") and rows:
            dup = list(rows[pick])
            if kind == "duplicate_node" and len(dup) == 2 and draw(st.booleans()):
                dup[1] = "1" if dup[1] == "0" else "0"
            rows.insert(at, dup)
        elif kind == "comment":
            rows.insert(at, ["# note", "x"])
        elif kind == "blank":
            rows.insert(at, [draw(st.sampled_from(("", "  ", "\t")))])
        elif kind == "non_utf8":
            garbled.add(name)
    out = {}
    for name, rows in files.items():
        data = "".join("\t".join(row) + "\n" for row in rows).encode()
        if name in garbled:
            cut = draw(st.integers(0, len(data)))
            data = data[:cut] + b"\xff\xfe" + data[cut:]
        out[name] = data
    return out["edges"], out["colors"]


def _colored_ids(text: str) -> list[int]:
    lines = [line.strip() for line in text.splitlines()]
    return sorted(int(line.split("\t")[0]) for line in lines if line and not line.startswith("#"))


@settings(max_examples=300, deadline=None)
@given(files=tsv_files())
@example(files=(b"0\t1\n", b"0\t1\n-1\t0\n1\t0\n"))  # an extra negative id
@example(files=(b"1\t2\n", b"-1\t0\n1\t1\n2\t0\n"))  # a negative id in place of 0
@example(files=(b"0\t1\n\xff\xfe1\t0\n", b"0\t1\n1\t0\n"))  # not UTF-8
@example(files=(b"0\t1\n1\t0\n0\t1\n", b"0\t1\n1\t0\n"))  # a duplicate edge
@example(files=(b"0\t1\n", b"0\t1\n1\t1\n"))  # one color only
@example(files=(b"", b"0\t0\n1\t1\n"))  # no edges: every product sums no entries
def test_rank_accepts_or_rejects_fuzzed_tsv_files_cleanly(files):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "edges.tsv").write_bytes(files[0])
        (tmp / "colors.tsv").write_bytes(files[1])
        out = tmp / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(
                [
                    "rank", "--edges", str(tmp / "edges.tsv"), "--colors", str(tmp / "colors.tsv"),
                    "--algo", "opr", "--out", str(out),
                ]
            )
        err = stderr.getvalue().splitlines()
        assert rc in (0, 1)
        if rc == 1:
            assert len(err) == 1 and err[0].startswith("error: ")
            assert f"{tmp / 'edges.tsv'}:" in err[0] or f"{tmp / 'colors.tsv'}:" in err[0]
            assert not (out / "scores.csv").exists()
        else:
            # the color lines name the nodes 0..n-1 once each
            rows = (out / "scores.csv").read_text().splitlines()
            assert _colored_ids(files[1].decode()) == list(range(len(rows) - 1))


# Files the strict reader must hand to the line parser, valid or not.
MUST_FALL_BACK = (
    (b"0\t1\r\n1\t0\r\n", b"0\t1\r\n1\t0\r\n"),  # CRLF lines
    (b"0\t1\n1\t0", b"0\t1\n1\t0\n"),  # no final newline
    (b"0\t+1\n", b"0\t1\n1\t0\n"),  # a sign
    (b"0\t 1\n", b"0\t1\n1\t0\n"),  # a leading space
    (b"0\t1 \n", b"0\t1\n1\t0\n"),  # a trailing space
    (b"0\t" + b"0" * 18 + b"1\n", b"0\t1\n1\t0\n"),  # a 19-digit id
    (b"0\t1\n\t\n1\t0\n", b"0\t1\n1\t0\n"),  # a lone tab line
    (b"", b"0\t1\n1\t0\n"),  # an empty edge file
)


def _outcome(load, edge_path, color_path):
    """The graph's arrays, or the text of the error."""
    try:
        g = load(edge_path, color_path)
    except GraphError as exc:
        return str(exc)
    return g.indptr.tolist(), g.indices.tolist(), g.red.tolist()


@settings(max_examples=300, deadline=None)
@given(files=tsv_files())
@example(files=MUST_FALL_BACK[0])
@example(files=MUST_FALL_BACK[1])
@example(files=MUST_FALL_BACK[2])
@example(files=MUST_FALL_BACK[3])
@example(files=MUST_FALL_BACK[4])
@example(files=MUST_FALL_BACK[5])
@example(files=MUST_FALL_BACK[6])
@example(files=MUST_FALL_BACK[7])
@example(files=(b"0\t2\n", b"0\t1\n2\t0\n0\t1\n"))  # ids reach n - 1 on n lines, but 0 repeats and 1 is missing
def test_strict_reader_declines_or_matches_the_line_parser(files):
    with tempfile.TemporaryDirectory() as tmp:
        edges, colors = Path(tmp) / "edges.tsv", Path(tmp) / "colors.tsv"
        edges.write_bytes(files[0])
        colors.write_bytes(files[1])
        expected = _outcome(graph._load_lines, edges, colors)
        strict = graph._load_strict(edges, colors)
        if strict is not None:
            assert (strict.indptr.tolist(), strict.indices.tolist(), strict.red.tolist()) == expected
        assert _outcome(graph.load_graph, edges, colors) == expected


@pytest.mark.parametrize("files", MUST_FALL_BACK)
def test_strict_reader_declines_what_it_does_not_accept(tmp_path, files):
    (tmp_path / "edges.tsv").write_bytes(files[0])
    (tmp_path / "colors.tsv").write_bytes(files[1])
    assert graph._load_strict(tmp_path / "edges.tsv", tmp_path / "colors.tsv") is None
    assert graph._int_rows(tmp_path / "edges.tsv", 2) is None


@pytest.mark.parametrize(
    "data,columns,rows",
    [
        (b"0\t1\n22\t333\n", 2, [[0, 1], [22, 333]]),
        (b"7\n0012\n", 1, [[7], [12]]),
        (b"9" * 18 + b"\n", 1, [[10**18 - 1]]),
    ],
)
def test_strict_reader_parses_fields_as_int_does(tmp_path, data, columns, rows):
    (tmp_path / "f.tsv").write_bytes(data)
    parsed = graph._int_rows(tmp_path / "f.tsv", columns)
    assert parsed.dtype == np.int64 and parsed.tolist() == rows
