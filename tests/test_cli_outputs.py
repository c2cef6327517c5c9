"""Every file the CLI writes for one small graph with sinks and a target set,
held to the checked-in table ``cli_outputs.json``.

The commands: ``rank`` for every ``--algo``, and targeted for each that
supports it; ``audit`` sampled and full; and a default ``sweep`` whose phi
list holds an infeasible value, one a thousandth of the attainable range
above its low end, where the ``fspr`` dual stalls, fails certificates and
restarts, and one in mid-range.

Integers, strings and booleans must match the table exactly, floats to
``REL`` relative plus ``ABS`` absolute, the floor for values that are
rounding noise around zero (residuals, zero jump probabilities).  A SHA-256
pin of the float files would not hold on other hosts: a ``DYNAMIC_ARCH``
OpenBLAS picks its ``ddot``/``dgemm`` kernels, and their rounding, by CPU.
``report.json``'s ``iterations``, a count of dual steps, is not compared.

``PYTHONPATH=src python tests/test_cli_outputs.py`` prints the sorted
``sha256  path`` listing of the same files, for byte-identity checks on one
host; ``--pin`` rewrites the table after a change that moves outputs on
purpose.
"""

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from fairpr.cli import main
from fairpr.graph import from_edges, save_graph
from fairpr.synth import SynthConfig, generate

TABLE = Path(__file__).with_name("cli_outputs.json")
REL, ABS = 1e-9, 1e-15
UNCOMPARED = {"iterations"}
NEAR_END_PHI = "0.07782"  # the attainable range is [0.0772, 0.6629]

COMMANDS = {
    **{f"rank-{algo}": ["rank", "--algo", algo, "--phi", "0.3"]
       for algo in ("opr", "fspr", "lfpr-n", "lfpr-u", "lfpr-p", "lfpr-o")},
    **{f"rank-{algo}-targeted": ["rank", "--algo", algo, "--phi", "0.4", "--target-set", "{s}",
                                 "--target-protected", "{sr}"]
       for algo in ("fspr", "lfpr-n", "lfpr-u", "lfpr-p")},
    "audit-sampled": ["audit", "--algo", "lfpr-u", "--phi", "0.3", "--sample", "20", "--seed", "1"],
    "audit-full": ["audit"],
    "sweep": ["sweep", "--phi", f"0.05,{NEAR_END_PHI},0.3"],
}


def run_commands(root: Path) -> Path:
    """Write the inputs under ``root / "in"`` and run every command; returns the output root."""
    g = generate(SynthConfig(60, 0.3, 0.8, 0.5, seed=3, edges_per_node=2))
    # Drop about a quarter of the edges and all of every tenth node's: sinks.
    src, dst = g.edges().T.tolist()
    g = from_edges(g.n, [(a, b) for a, b in zip(src, dst) if a % 10 != 9 and (31 * a + b) % 4], g.red)
    inputs, out = root / "in", root / "out"
    inputs.mkdir(parents=True)
    save_graph(g, inputs / "edges.tsv", inputs / "colors.tsv")
    s = np.arange(0, 40, 2)
    (inputs / "s.txt").write_text("".join(f"{i}\n" for i in s))
    (inputs / "sr.txt").write_text("".join(f"{i}\n" for i in s[g.red[s]]))
    files = {"s": inputs / "s.txt", "sr": inputs / "sr.txt"}
    for name, argv in COMMANDS.items():
        argv = [arg.format(**files) for arg in argv]
        argv += ["--edges", str(inputs / "edges.tsv"), "--colors", str(inputs / "colors.tsv"), "--out", str(out / name)]
        assert main(argv) == 0, argv
    return out


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_outputs(out: Path) -> dict:
    """Every output file, by its path under ``out``: a CSV as rows of typed cells, a JSON file as its value."""
    table = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        with open(path, encoding="utf-8", newline="") as fh:
            value = json.load(fh) if path.suffix == ".json" else [list(map(_cell, row)) for row in csv.reader(fh)]
        table[path.relative_to(out).as_posix()] = value
    return table


def mismatches(expected, actual, where: str):
    """Where ``actual`` departs from ``expected`` beyond the stated tolerances."""
    kinds = {type(expected), type(actual)}
    if kinds == {dict}:
        if expected.keys() != actual.keys():
            yield f"{where}: keys {sorted(expected)} != {sorted(actual)}"
            return
        for key in expected.keys() - UNCOMPARED:
            yield from mismatches(expected[key], actual[key], f"{where}.{key}")
    elif kinds == {list}:
        if len(expected) != len(actual):
            yield f"{where}: {len(expected)} entries != {len(actual)}"
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            yield from mismatches(e, a, f"{where}[{i}]")
    elif float in kinds and kinds <= {int, float}:
        if not abs(actual - expected) <= REL * abs(expected) + ABS:
            yield f"{where}: {actual!r} != {expected!r}"
    elif type(expected) is not type(actual) or expected != actual:
        yield f"{where}: {actual!r} != {expected!r}"


def _dump(table: dict) -> str:
    """The table as JSON with one CSV row per line."""
    entries = []
    for path, value in table.items():
        if isinstance(value, list):
            value = "[\n  " + ",\n  ".join(map(json.dumps, value)) + "\n ]"
        else:
            value = json.dumps(value, sort_keys=True)
        entries.append(f" {json.dumps(path)}: {value}")
    return "{\n" + ",\n".join(entries) + "\n}\n"


def test_cli_outputs_match_the_table(tmp_path):
    actual = read_outputs(run_commands(tmp_path))
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    assert sorted(actual) == sorted(expected)
    found = [m for path in expected for m in mismatches(expected[path], actual[path], path)]
    assert not found, "\n".join(found[:20])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            out = run_commands(Path(tmp))
        if sys.argv[1:] == ["--pin"]:
            TABLE.write_text(_dump(read_outputs(out)), encoding="utf-8")
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}")
