import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairpr
from fairpr.analysis import write_json
from fairpr.cli import main
from fairpr.graph import _int_rows, load_graph, save_graph
from fairpr.lfpr import PolicyKind
from fairpr.pagerank import DEFAULT_GAMMA, standard_transition
from fairpr.synth import SynthConfig, generate


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("g")
    g = generate(SynthConfig(n=60, red_fraction=0.3, alpha_red=0.7, alpha_blue=0.7, seed=5))
    save_graph(g, root / "edges.tsv", root / "colors.tsv")
    return root / "edges.tsv", root / "colors.tsv", g


def read_scores(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return np.array([float(r["score"]) for r in rows])


def test_generate_writes_all_artifacts(tmp_path):
    rc = main(
        [
            "generate",
            "--n", "50", "--r", "0.3", "--alpha-red", "0.6", "--alpha-blue", "0.6",
            "--seed", "2", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    for name in ("edges.tsv", "colors.tsv", "summary.csv", "manifest.csv"):
        assert (tmp_path / name).exists()
    g = load_graph(tmp_path / "edges.tsv", tmp_path / "colors.tsv")
    assert g.n == 50
    manifest = (tmp_path / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "seed,r,alpha_R,alpha_B,n,red_pagerank"
    cells = manifest[1].split(",")
    assert cells[0] == "2" and cells[4] == "50"
    assert 0.0 < float(cells[5]) < 1.0


def test_generate_bytes_are_pinned(tmp_path):
    # the digests of the graph the generator has always grown from this seed and config
    argv = ["generate", "--n", "2000", "--seed", "4242", "--r", "0.3", "--alpha-red", "0.8",
            "--alpha-blue", "0.5", "--edges-per-node", "2", "--out", str(tmp_path)]
    assert main(argv) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("edges.tsv", "colors.tsv", "manifest.csv")
    }
    assert digests == {
        "edges.tsv": "92cc57864bcce10df4212aa30ec14aa163cb1f9366c3ce114c08d0e33bbcb6c8",
        "colors.tsv": "e037ff22d4f3b0c7da4755b2fd8cfa254be6ac61040bfd86cb5f895b54752bb8",
        "manifest.csv": "7f8108ccfb2e30d2e7fac1ade48ac48ade8dcc0444720de3d1d4b79429261159",
    }
    # the manifest's red_pagerank is a solver output at 17 digits, so its digest
    # moves with the engine; hold its value to a dense solve on the same graph
    g = load_graph(tmp_path / "edges.tsv", tmp_path / "colors.tsv")
    a = np.eye(g.n) - (1.0 - DEFAULT_GAMMA) * standard_transition(g).to_dense()
    dense = DEFAULT_GAMMA * np.linalg.solve(a.T, np.full(g.n, 1.0 / g.n))
    red_pagerank = float((tmp_path / "manifest.csv").read_text().splitlines()[1].split(",")[5])
    assert abs(red_pagerank - dense[g.red].sum()) <= 1e-12


def test_generate_gives_up_on_a_homophily_too_close_to_zero(tmp_path):
    # the seed ring is all red, and red accepts red with probability 1e-15
    proc = _child_python(
        "-m", "fairpr.cli", "generate", "--n", "20", "--r", "0.95", "--alpha-red", "1e-15",
        "--alpha-blue", "0.5", "--seed", "1", "--out", str(tmp_path), timeout=20,
    )
    assert proc.returncode == 1
    assert "node 10 drew 1000000 candidate endpoints" in proc.stderr
    assert "alpha_red=1e-15 is too close to 0 or 1" in proc.stderr
    assert not (tmp_path / "edges.tsv").exists()


@pytest.mark.parametrize("config", [["--n", "12", "--n0", "3", "--r", "0.999"], ["--n", "10", "--r", "0.99"]])
def test_generate_out_of_regenerations_exits_1_with_a_message(tmp_path, capsys, config):
    # ten attempts whose seed rings stay all red: a message, no traceback, and nothing created
    argv = ["generate", *config, "--alpha-red", "0.5", "--alpha-blue", "0.5", "--out", str(tmp_path / "g")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: could not generate a graph with both color groups\n"
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("algo", ["opr", "fspr", "lfpr-n", "lfpr-u", "lfpr-p"])
def test_rank_algorithms(tmp_path, graph_files, algo):
    edges, colors, g = graph_files
    rc = main(
        [
            "rank", "--edges", str(edges), "--colors", str(colors),
            "--algo", algo, "--phi", "0.35", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    scores = read_scores(tmp_path / "scores.csv")
    assert scores.sum() == pytest.approx(1.0, abs=1e-8)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["algorithm"] == algo
    if algo == "opr":
        assert report["loss"] == 0.0
    else:
        assert report["fair"] is True
        assert abs(report["red_mass"] - 0.35) <= 1e-7
        assert report["loss"] >= report["lower_bound_loss"] - 1e-12
    if algo == "fspr":
        sol = (tmp_path / "solution.csv").read_text().splitlines()
        assert sol[0] == "node,jump_prob,score"
        assert len(sol) == g.n + 1
        jump = np.array([float(r.split(",")[1]) for r in sol[1:]])
        assert jump.sum() == pytest.approx(1.0, abs=1e-9)


def test_rank_lfpr_o_writes_policy(tmp_path, graph_files):
    edges, colors, g = graph_files
    rc = main(
        [
            "rank", "--edges", str(edges), "--colors", str(colors),
            "--algo", "lfpr-o", "--phi", "0.4", "--iters", "5", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    policy = json.loads((tmp_path / "policy.json").read_text())
    assert policy["kind"] in ("uniform", "proportional", "optimized")
    x = np.zeros(g.n)
    for k, v in policy["x"].items():
        x[int(k)] = v
    assert x.sum() == pytest.approx(1.0, abs=1e-9)
    assert not x[~g.red].any()


def _vectors(size):
    values = st.floats() | st.sampled_from((0.0, -0.0, 5e-324, 2.2e-308, 1.7976931348623157e308))
    return st.lists(values, min_size=size, max_size=size).map(np.array)


# report.json's values: floats at the ends of their range, bools, strings, None
_REPORT_VALUES = (
    st.floats() | st.sampled_from((-0.0, 5e-324, 1e308, float("nan"), float("inf"), float("-inf")))
    | st.booleans() | st.integers() | st.text() | st.none()
)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(list(PolicyKind)),
    vectors=st.integers(0, 40).flatmap(lambda n: st.none() | st.tuples(_vectors(n), _vectors(n))),
    report=st.dictionaries(st.text(), _REPORT_VALUES, max_size=12),
)
@example(kind=PolicyKind.NEIGHBORHOOD, vectors=None, report={})  # lfpr-n: the kind alone; the empty payload
@example(kind=PolicyKind.UNIFORM, vectors=(np.array([0.0, -0.0, 0.0]), np.array([0.0, 5e-324, 1e308])),
         report={"loss": -0.0, "red_mass": 5e-324, "kkt_residual": float("nan"), "phi": float("inf")})
@example(kind=PolicyKind.OPTIMIZED, vectors=(np.array([-0.0, 0.25]), np.zeros(2)),  # an all-zero group
         report={"lists": [1, [2.5, {"b": None}]], "deep": {"a": {"b": []}}, "flat": {"2": 1.0, "10": "x"}})
def test_write_json_is_the_bytes_of_indented_json(tmp_path_factory, kind, vectors, report):
    # a policy's nonzero entries by node id, and report-like payloads, as json.dump(..., indent=2, sort_keys=True)
    policy = {"kind": kind.value}
    for name, vec in zip("xy", vectors or ()):
        policy[name] = {str(i): float(v) for i, v in enumerate(vec) if v != 0.0}
    path = tmp_path_factory.getbasetemp() / "payload.json"
    for payload in (policy, report):
        write_json(path, payload)
        assert path.read_text(encoding="utf-8") == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_rank_reruns_are_byte_identical(tmp_path, graph_files):
    edges, colors, _ = graph_files
    outs = []
    for sub in ("a", "b"):
        rc = main(
            [
                "rank", "--edges", str(edges), "--colors", str(colors),
                "--algo", "fspr", "--phi", "0.35", "--out", str(tmp_path / sub),
            ]
        )
        assert rc == 0
        outs.append(tmp_path / sub)
    for name in ("scores.csv", "report.json", "solution.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_rank_targeted(tmp_path, graph_files):
    edges, colors, g = graph_files
    s = np.arange(16)
    s_r = s[g.red[s]]
    assert 0 < s_r.size < s.size
    (tmp_path / "s.txt").write_text("\n".join(map(str, s)) + "\n")
    (tmp_path / "sr.txt").write_text("\n".join(map(str, s_r)) + "\n")
    rc = main(
        [
            "rank", "--edges", str(edges), "--colors", str(colors),
            "--algo", "lfpr-n", "--phi", "0.5", "--out", str(tmp_path),
            "--target-set", str(tmp_path / "s.txt"),
            "--target-protected", str(tmp_path / "sr.txt"),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["targeted_residual"] <= 1e-8
    assert report["fair"] is True
    assert report["protected_target_mass"] == pytest.approx(
        0.5 * report["target_mass"], abs=1e-9
    )


def test_rank_usage_errors(tmp_path, graph_files, capsys):
    edges, colors, _ = graph_files
    # unknown algorithm -> argparse usage failure
    assert main(["rank", "--edges", str(edges), "--colors", str(colors), "--algo", "bogus"]) == 1
    # lfpr needs phi
    assert (
        main(
            [
                "rank", "--edges", str(edges), "--colors", str(colors),
                "--algo", "lfpr-n", "--out", str(tmp_path),
            ]
        )
        == 1
    )
    # missing input file
    assert (
        main(
            [
                "rank", "--edges", str(tmp_path / "nope.tsv"), "--colors", str(colors),
                "--algo", "opr", "--out", str(tmp_path),
            ]
        )
        == 1
    )
    # targeted run with only one of the two node lists
    (tmp_path / "s.txt").write_text("0\n1\n")
    assert (
        main(
            [
                "rank", "--edges", str(edges), "--colors", str(colors),
                "--algo", "lfpr-n", "--phi", "0.5", "--out", str(tmp_path),
                "--target-set", str(tmp_path / "s.txt"),
            ]
        )
        == 1
    )
    # targeted runs of an algorithm without a targeted variant, and a node-id file of comments
    (tmp_path / "sr.txt").write_text("0\n")
    (tmp_path / "none.txt").write_text("# no ids\n")
    rank = ["rank", "--edges", str(edges), "--colors", str(colors), "--phi", "0.5", "--out", str(tmp_path)]
    for algo, target_set, message in (
        ("opr", "s.txt", "targeted runs are not supported for --algo opr"),
        ("lfpr-o", "s.txt", "targeted runs are not supported for --algo lfpr-o"),
        ("lfpr-n", "none.txt", f"{tmp_path / 'none.txt'}: no node ids"),
    ):
        targets = ["--target-set", str(tmp_path / target_set), "--target-protected", str(tmp_path / "sr.txt")]
        capsys.readouterr()
        assert main([*rank, "--algo", algo, *targets]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_rank_infeasible_fspr_exits_2(tmp_path, graph_files):
    edges, colors, _ = graph_files
    rc = main(
        [
            "rank", "--edges", str(edges), "--colors", str(colors),
            "--algo", "fspr", "--phi", "0.999", "--out", str(tmp_path),
        ]
    )
    assert rc == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0
    assert main(["rank", "--help"]) == 0


def test_audit_command(tmp_path, graph_files):
    edges, colors, g = graph_files
    rc = main(
        [
            "audit", "--edges", str(edges), "--colors", str(colors),
            "--algo", "lfpr-u", "--phi", "0.3", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "audit.csv").read_text().splitlines()
    assert len(lines) == g.n + 1
    assert all(line.endswith(",1") for line in lines[1:])
    assert (tmp_path / "audit_hist.csv").exists()
    # fspr has no transition model to audit
    assert (
        main(
            [
                "audit", "--edges", str(edges), "--colors", str(colors),
                "--algo", "fspr", "--phi", "0.3", "--out", str(tmp_path),
            ]
        )
        == 1
    )


def test_audit_solves_the_original_pagerank_only_for_the_proportional_policy(tmp_path, graph_files, monkeypatch):
    # lfpr-u and lfpr-n do not read p_o; lfpr-p does
    edges, colors, _ = graph_files
    calls, pagerank = [], fairpr.cli.pagerank

    def spy(*args, **kwargs):
        calls.append(args)
        return pagerank(*args, **kwargs)

    for module in (fairpr.cli, fairpr.lfpr):
        monkeypatch.setattr(module, "pagerank", spy)
    for algo, expected in (("lfpr-u", 0), ("lfpr-n", 0), ("lfpr-p", 1)):
        calls.clear()
        argv = ["audit", "--edges", str(edges), "--colors", str(colors), "--algo", algo, "--phi", "0.3"]
        assert main([*argv, "--out", str(tmp_path / algo)]) == 0
        assert len(calls) == expected, algo


def test_audit_sampling(tmp_path, graph_files):
    edges, colors, _ = graph_files
    rc = main(
        [
            "audit", "--edges", str(edges), "--colors", str(colors),
            "--algo", "opr", "--sample", "10", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "audit.csv").read_text().splitlines()
    assert len(lines) == 11
    # a sample of every node draws nothing and writes the full audit's bytes
    outputs = []
    for sample, out in ((["--sample", "60"], tmp_path / "all"), ([], tmp_path / "full")):
        argv = ["audit", "--edges", str(edges), "--colors", str(colors), "--algo", "opr", "--out", str(out)]
        assert main(argv + sample) == 0
        outputs.append([(out / name).read_bytes() for name in ("audit.csv", "audit_hist.csv")])
    assert outputs[0] == outputs[1]


def test_sweep_over_files(tmp_path, graph_files, monkeypatch):
    edges, colors, _ = graph_files
    bound_phis = []
    bound = fairpr.analysis.lower_bound_loss

    def counted_bound(p_o, g, phi):
        bound_phis.append(phi)
        return bound(p_o, g, phi)

    monkeypatch.setattr(fairpr.analysis, "lower_bound_loss", counted_bound)
    rc = main(
        [
            "sweep", "--edges", str(edges), "--colors", str(colors),
            "--phi", "0.3,0.5", "--algo", "fspr,lfpr-u", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["status"] for r in rows} == {"ok"}
    for r in rows:
        assert abs(float(r["red_mass"]) - float(r["phi"])) <= 1e-7
        assert float(r["loss"]) >= float(r["lower_bound_loss"]) - 1e-12
    assert bound_phis == [0.3, 0.5]  # once per phi, shared by both algorithms


def test_sweep_synthetic_grid(tmp_path):
    rc = main(
        [
            "sweep", "--grid-n", "40", "--grid-r", "0.3", "--grid-alpha-red", "0.5,0.7",
            "--grid-seeds", "2", "--phi", "0.3", "--algo", "lfpr-u", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert len({r["instance"] for r in rows}) == 4


def test_sweep_writes_error_rows_for_a_grid_cell_the_generator_rejects(tmp_path):
    # the second cell's red nodes accept red endpoints with probability 1e-15
    rc = main(
        [
            "sweep", "--grid-n", "20", "--grid-r", "0.95", "--grid-alpha-red", "0.5,1e-15",
            "--grid-alpha-blue", "0.5", "--phi", "0.3", "--algo", "lfpr-n", "--seed", "1",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["instance"], r["status"]) for r in rows] == [
        ("synth-r0.95-aR0.5-aB0.5-s0", "ok"),
        ("synth-r0.95-aR1e-15-aB0.5-s0", "error"),
    ]
    assert "alpha_red=1e-15 is too close to 0 or 1" in rows[1]["message"]
    assert rows[1]["algorithm"] == "lfpr-n" and rows[1]["phi"] == rows[0]["phi"]


def test_sweep_all_infeasible_exits_2(tmp_path, graph_files):
    edges, colors, _ = graph_files
    rc = main(
        [
            "sweep", "--edges", str(edges), "--colors", str(colors),
            "--phi", "0.999", "--algo", "fspr", "--out", str(tmp_path),
        ]
    )
    assert rc == 2
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["status"] == "infeasible"


@pytest.mark.parametrize(
    "phis, algos, statuses, code",
    [
        ("0.3", "lfpr-u", ["ok"], 0),
        ("0.3,0.999", "fspr", ["ok", "infeasible"], 0),
        ("0.999", "fspr", ["infeasible"], 2),
        ("0.999,1.5", "fspr", ["infeasible", "error"], 1),
        ("1.5", "fspr,lfpr-u", ["error", "error"], 1),
    ],
)
def test_sweep_exit_code_and_counts_follow_its_rows(tmp_path, graph_files, capsys, phis, algos, statuses, code):
    # 0 with any ok row, 2 when every row is infeasible, else 1
    edges, colors, _ = graph_files
    argv = ["sweep", "--edges", str(edges), "--colors", str(colors), "--phi", phis, "--algo", algos]
    assert main([*argv, "--out", str(tmp_path)]) == code
    with open(tmp_path / "sweep.csv") as fh:
        assert [r["status"] for r in csv.DictReader(fh)] == statuses
    ok = statuses.count("ok")
    assert capsys.readouterr().out == f"sweep: {ok} ok, {len(statuses) - ok} failed rows -> {tmp_path / 'sweep.csv'}\n"


def test_sweep_requires_some_input(tmp_path, graph_files, capsys, work):
    assert main(["sweep", "--phi", "0.3", "--out", str(tmp_path)]) == 1
    assert main(["sweep", "--edges", str(graph_files[0]), "--phi", "0.3", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.endswith("error: need both --edges and --colors\n")
    # grid flags beside graph files would be silently ignored; each is named, the default values too
    files = ["--edges", str(graph_files[0]), "--colors", str(graph_files[1])]
    for grid, named in (
        (["--grid-n", "50", "--grid-r", "0.9", "--seed", "3"], "--grid-n, --grid-r, --seed"),
        (["--grid-alpha-red", "0.5", "--grid-alpha-blue", "0.5", "--grid-seeds", "1"],
         "--grid-alpha-red, --grid-alpha-blue, --grid-seeds"),
        (["--seed", "0"], "--seed"),
    ):
        argv = ["sweep", *files, *grid, "--phi", "0.3", "--algo", "lfpr-u", "--out", str(tmp_path / "grid")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {named}: grid flags do not apply to --edges/--colors\n"
    assert not (tmp_path / "grid").exists() and not work  # rejected before cmd_sweep is entered


def _child_python(*args, timeout=None):
    """Run Python in a child process that imports the package from this checkout's src/."""
    src = str(Path(fairpr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout)


def test_cli_import_leaves_scipy_unloaded():
    # importing scipy.sparse would be most of every command's start-up time
    proc = _child_python(
        "-c", "import sys, fairpr.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_the_generator_unloaded():
    # only generate and sweep --grid-n import fairpr.synth, and with it logging
    proc = _child_python(
        "-c", "import sys, fairpr.cli; print([m for m in ('fairpr.synth', 'logging') if m in sys.modules])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_solver_commands_leave_numpy_random_unloaded(tmp_path, graph_files):
    # numpy loads numpy.random lazily, with secrets, hashlib, hmac and base64:
    # 12-18 ms of start-up that the fspr and lfpr-o solves and a full audit skip
    edges, colors, g = graph_files
    s = np.arange(16)
    (tmp_path / "s.txt").write_text("\n".join(map(str, s)) + "\n")
    (tmp_path / "sr.txt").write_text("\n".join(map(str, s[g.red[s]])) + "\n")
    graph = ["--edges", str(edges), "--colors", str(colors), "--out", str(tmp_path)]
    targets = ["--target-set", str(tmp_path / "s.txt"), "--target-protected", str(tmp_path / "sr.txt")]
    runs = [
        ["rank", *graph, "--algo", "fspr", "--phi", "0.3"],
        ["rank", *graph, "--algo", "fspr", "--phi", "0.5", *targets],
        ["rank", *graph, "--algo", "lfpr-o", "--phi", "0.3"],
        ["audit", *graph, "--algo", "opr", "--sample", str(g.n)],
    ]
    code = "import json, sys; from fairpr.cli import main; print([main(a) for a in json.loads(sys.argv[1])], 'numpy.random' in sys.modules)"
    proc = _child_python("-c", code, json.dumps(runs))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"


def test_console_entry_point_runs():
    proc = _child_python("-m", "fairpr.cli", "--help")
    assert proc.returncode == 0
    assert "rank" in proc.stdout


@pytest.mark.parametrize("gamma", ["1.5", "1.0", "0", "-0.2", "nan"])
def test_meaningless_gamma_exits_1_with_a_precise_message(tmp_path, graph_files, capsys, gamma):
    edges, colors, _ = graph_files
    graph = ["--edges", str(edges), "--colors", str(colors), "--gamma", gamma, "--out", str(tmp_path)]
    for argv in (
        ["rank", *graph, "--algo", "lfpr-n", "--phi", "0.3"],
        ["audit", *graph, "--algo", "opr"],
        ["sweep", *graph, "--phi", "0.3", "--algo", "lfpr-u"],
    ):
        capsys.readouterr()
        assert main(argv) == 1
        assert "gamma must lie strictly between 0 and 1" in capsys.readouterr().err
    assert not (tmp_path / "scores.csv").exists()


GONE = ["--edges", "no-such-edges.tsv", "--colors", "no-such-colors.tsv"]
GAMMA, PHI = "gamma must lie strictly between 0 and 1, got", "phi must lie strictly between 0 and 1, got"
TARGETS = ["--target-set", "s.txt", "--target-protected", "sr.txt"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rank", *GONE, "--algo", "lfpr-n", "--phi", "0.3", "--gamma", "0"], f"{GAMMA} 0.0"),
        (["audit", *GONE, "--gamma", "1"], f"{GAMMA} 1.0"),
        (["sweep", *GONE, "--phi", "0.3", "--gamma", "-0.2"], f"{GAMMA} -0.2"),
        (["rank", *GONE, "--algo", "fspr", "--phi", "1.5"], f"{PHI} 1.5"),
        (["audit", *GONE, "--algo", "opr", "--phi", "0"], f"{PHI} 0.0"),
        (["rank", *GONE, "--algo", "lfpr-u"], "--phi is required for this algorithm"),
        (["audit", *GONE, "--algo", "lfpr-p"], "--phi is required for this algorithm"),
        (["rank", *GONE, "--algo", "lfpr-n", "--phi", "0.3", "--target-set", "s.txt"],
         "targeted runs need both --target-set and --target-protected"),
        (["rank", *GONE, "--algo", "lfpr-n", "--phi", "0.3", "--target-protected", "sr.txt"],
         "targeted runs need both --target-set and --target-protected"),
        (["rank", *GONE, "--algo", "opr", *TARGETS], "targeted runs are not supported for --algo opr"),
        (["rank", *GONE, "--algo", "lfpr-o", "--phi", "0.3", *TARGETS],
         "targeted runs are not supported for --algo lfpr-o"),
    ],
)
def test_meaningless_flags_exit_1_before_any_file_is_read(tmp_path, capsys, monkeypatch, work, argv, message):
    # the graph files do not exist: a flag found only after the load would report that instead
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [] and not work  # no command body is entered


@pytest.mark.parametrize("command", [
    ["generate", "--n", "100", "--r", "0.3", "--alpha-red", "0.5", "--alpha-blue", "0.5"],
    ["sweep", "--grid-n", "100", "--phi", "0.3"],
])
def test_a_meaningless_gamma_exits_1_before_a_graph_is_grown(tmp_path, capsys, monkeypatch, command):
    def grow(*args, **kwargs):
        raise AssertionError("synth.generate called")

    monkeypatch.setattr(fairpr.synth, "generate", grow)
    assert main([*command, "--gamma", "0", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {GAMMA} 0.0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("phi", ["nan", "inf", "0", "1", "1.5", "-0.2"])
def test_meaningless_phi_exits_1_with_a_precise_message(tmp_path, graph_files, capsys, phi):
    edges, colors, _ = graph_files
    graph = ["--edges", str(edges), "--colors", str(colors), f"--phi={phi}"]
    message = "phi must lie strictly between 0 and 1"
    for argv in (
        ["rank", *graph, "--algo", "opr"],
        ["rank", *graph, "--algo", "fspr"],
        ["rank", *graph, "--algo", "lfpr-n"],
        ["audit", *graph, "--algo", "lfpr-u"],
        ["audit", *graph, "--algo", "opr"],
    ):
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

    assert main(["sweep", *graph, "--algo", "opr,fspr,lfpr-u", "--out", str(tmp_path / "sweep")]) == 1
    with open(tmp_path / "sweep" / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["algorithm"] for r in rows] == ["opr", "fspr", "lfpr-u"]
    for r in rows:
        assert r["status"] == "error" and message in r["message"]
        assert r["loss"] == r["lower_bound_loss"] == ""


def test_rank_has_no_seed_flag(tmp_path, graph_files, capsys):
    edges, colors, _ = graph_files
    argv = ["rank", "--edges", str(edges), "--colors", str(colors), "--algo", "lfpr-u", "--phi", "0.3"]
    assert main([*argv, "--seed", "1", "--out", str(tmp_path)]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-8"])
def test_meaningless_fspr_tolerance_exits_1(tmp_path, graph_files, capsys, tol):
    edges, colors, _ = graph_files
    rc = main(
        [
            "rank", "--edges", str(edges), "--colors", str(colors),
            "--algo", "fspr", "--phi", "0.35", f"--tol={tol}", "--out", str(tmp_path),
        ]
    )
    assert rc == 1
    assert "tol must be a positive finite number" in capsys.readouterr().err


def test_unconverged_fspr_warns_but_keeps_its_report(tmp_path, graph_files, capsys):
    edges, colors, _ = graph_files
    rc = main(
        [
            "rank", "--edges", str(edges), "--colors", str(colors),
            "--algo", "fspr", "--phi", "0.35", "--iters", "1", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().err.startswith("warning: fspr stopped after 1 iterations")
    assert json.loads((tmp_path / "report.json").read_text())["converged"] is False


@pytest.mark.parametrize("algo", ["fspr", "lfpr-n", "lfpr-u", "lfpr-p"])
def test_rank_targeted_loss_sits_above_its_lower_bound(tmp_path, graph_files, algo):
    edges, colors, g = graph_files
    s = np.arange(0, g.n, 3)
    (tmp_path / "s.txt").write_text("\n".join(map(str, s)) + "\n")
    (tmp_path / "sr.txt").write_text("\n".join(map(str, s[g.red[s]])) + "\n")
    rc = main(
        [
            "rank", "--edges", str(edges), "--colors", str(colors),
            "--algo", algo, "--phi", "0.5", "--out", str(tmp_path),
            "--target-set", str(tmp_path / "s.txt"),
            "--target-protected", str(tmp_path / "sr.txt"),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert 0.0 < report["lower_bound_loss"] <= report["loss"]


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-8"])
def test_meaningless_tolerance_is_rejected_by_every_subcommand(tmp_path, graph_files, capsys, tol):
    edges, colors, _ = graph_files
    graph = ["--edges", str(edges), "--colors", str(colors), f"--tol={tol}", "--out", str(tmp_path)]
    for argv in (
        ["rank", *graph, "--algo", "lfpr-u", "--phi", "0.3"],
        ["sweep", *graph, "--phi", "0.3", "--algo", "fspr,lfpr-u"],
        ["audit", *graph, "--algo", "opr"],
    ):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "--tol" in err and "tol must be a positive finite number" in err
    # generate solves nothing, so it takes no --tol at all
    argv = ["generate", "--n", "30", "--r", "0.3", "--alpha-red", "0.5", "--alpha-blue", "0.5"]
    assert main([*argv, f"--tol={tol}", "--out", str(tmp_path)]) == 1
    assert f"unrecognized arguments: --tol={tol}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_malformed_target_node_id_names_its_file_and_line(tmp_path, graph_files, capsys):
    edges, colors, _ = graph_files
    (tmp_path / "s.txt").write_text("# target set\n0\n\nx1\n2\n")
    (tmp_path / "sr.txt").write_text("0\n")
    rc = main(
        [
            "rank", "--edges", str(edges), "--colors", str(colors),
            "--algo", "lfpr-n", "--phi", "0.5", "--out", str(tmp_path / "out"),
            "--target-set", str(tmp_path / "s.txt"),
            "--target-protected", str(tmp_path / "sr.txt"),
        ]
    )
    assert rc == 1
    assert f"{tmp_path / 's.txt'}:4: node id must be an integer, got 'x1'" in capsys.readouterr().err


FULLWIDTH = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x0660, 0x066A))))


@pytest.mark.parametrize(
    "kind, lineno, spell",
    [
        ("colors", 11, lambda line: line.replace("10", "1_0", 1)),
        ("edges", 4, lambda line: line.translate(FULLWIDTH)),
        ("target-set", 11, lambda line: line.replace("10", "1_0", 1)),
        ("target-protected", 1, lambda line: line.translate(ARABIC_INDIC)),
    ],
    ids=["colors", "edges", "target-set", "target-protected"],
)
def test_underscores_and_non_ascii_digits_are_not_node_ids(tmp_path, graph_files, capsys, kind, lineno, spell):
    # int() reads each respelled line as the same ids; the line parser declines it as the strict pass does
    edges, colors, g = graph_files
    files = {"edges": edges, "colors": colors}
    for name, nodes in (("target-set", np.arange(16)), ("target-protected", np.flatnonzero(g.red[:16]))):
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text("".join(f"{i}\n" for i in nodes))
    lines = Path(files[kind]).read_text(encoding="utf-8").splitlines()
    bad = lines[lineno - 1] = spell(lines[lineno - 1])
    files[kind] = tmp_path / f"bad-{kind}.txt"
    files[kind].write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["rank", "--algo", "lfpr-u", "--phi", "0.5", "--out", str(out)]
    assert main(argv + [arg for name, path in files.items() for arg in (f"--{name}", str(path))]) == 1
    message = "non-integer token" if kind in ("colors", "edges") else f"node id must be an integer, got {bad!r}"
    assert capsys.readouterr().err.splitlines() == [f"error: {files[kind]}:{lineno}: {message}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "layout",
    [
        lambda ids: "# node ids\n" + "".join(f"{i}\n" for i in ids),  # a comment
        lambda ids: f"{ids[0]}\n\n" + "".join(f"{i}\n" for i in ids[1:]),  # a blank line
        lambda ids: "".join(f"{i}\r\n" for i in ids),  # \r\n endings
        lambda ids: "\n".join(map(str, ids)),  # no final newline
        lambda ids: "".join(f"+{i}\n" for i in ids),  # a + sign
    ],
    ids=["comment", "blank-line", "crlf", "no-final-newline", "plus-sign"],
)
def test_target_files_for_the_line_parser_give_the_strict_files_report(tmp_path, graph_files, layout):
    # files the strict reader declines go to the line parser, which reads the same ids
    edges, colors, g = graph_files
    s = np.arange(16)
    reports = []
    for name, text in (("strict", lambda ids: "".join(f"{i}\n" for i in ids)), ("loose", layout)):
        files = {"s": tmp_path / f"{name}-s.txt", "sr": tmp_path / f"{name}-sr.txt"}
        files["s"].write_bytes(text(s.tolist()).encode())
        files["sr"].write_bytes(text(s[g.red[s]].tolist()).encode())
        assert (_int_rows(files["s"], 1) is None) == (name == "loose")
        assert (_int_rows(files["sr"], 1) is None) == (name == "loose")
        argv = ["rank", "--edges", str(edges), "--colors", str(colors), "--algo", "lfpr-u", "--phi", "0.5",
                "--target-set", str(files["s"]), "--target-protected", str(files["sr"]), "--out", str(tmp_path / name)]
        assert main(argv) == 0
        reports.append((tmp_path / name / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("option", ["--target-set", "--target-protected"])
def test_target_node_id_beyond_int64_names_its_file_and_line(tmp_path, graph_files, capsys, option):
    edges, colors, _ = graph_files
    (tmp_path / "s.txt").write_text("0\n1\n2\n")
    (tmp_path / "sr.txt").write_text("0\n")
    (tmp_path / "huge.txt").write_text("# one id\n" + "9" * 25 + "\n")
    files = {"--target-set": tmp_path / "s.txt", "--target-protected": tmp_path / "sr.txt"}
    files[option] = tmp_path / "huge.txt"
    rc = main(
        [
            "rank", "--edges", str(edges), "--colors", str(colors),
            "--algo", "lfpr-u", "--phi", "0.5", "--out", str(tmp_path / "out"),
            *(arg for name, path in files.items() for arg in (name, str(path))),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {tmp_path / 'huge.txt'}:2: node id out of range, got '{'9' * 25}'"]


@pytest.mark.parametrize("iters", ["0", "-3", "1.5", "many"])
def test_meaningless_iteration_budget_is_rejected_by_every_subcommand(tmp_path, graph_files, capsys, iters):
    edges, colors, _ = graph_files
    graph = ["--edges", str(edges), "--colors", str(colors), "--iters", iters, "--out", str(tmp_path)]
    for argv in (
        ["rank", *graph, "--algo", "fspr", "--phi", "0.35"],
        ["rank", *graph, "--algo", "lfpr-o", "--phi", "0.35"],
        ["sweep", *graph, "--phi", "0.3", "--algo", "fspr,lfpr-o"],
        ["audit", *graph, "--algo", "lfpr-o", "--phi", "0.3"],
    ):
        capsys.readouterr()
        assert main(argv) == 1
        assert f"argument --iters: iters must be a positive integer, got {iters}" in capsys.readouterr().err
    argv = ["generate", "--n", "30", "--r", "0.3", "--alpha-red", "0.5", "--alpha-blue", "0.5"]
    assert main([*argv, "--iters", iters, "--out", str(tmp_path)]) == 1
    assert f"unrecognized arguments: --iters {iters}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, named",
    [
        (["rank", "--algo", "lfpr-u", "--phi", "0.3", "--iters", "3", "--tol", "0.5"], "--tol, --iters"),
        (["rank", "--algo", "opr", "--tol", "0.5", "--iters", "2"], "--tol, --iters"),
        (["audit", "--algo", "lfpr-n", "--phi", "0.3", "--tol", "0.5"], "--tol"),
        (["sweep", "--algo", "lfpr-n", "--phi", "0.3", "--iters", "1"], "--iters"),
    ],
)
def test_solver_flags_without_a_solver_that_reads_them_exit_1(tmp_path, graph_files, capsys, work, argv, named):
    # only fspr and lfpr-o read --tol and --iters; elsewhere they would be silently ignored
    edges, colors, _ = graph_files
    assert main([*argv, "--edges", str(edges), "--colors", str(colors), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {named}: only --algo fspr and lfpr-o read them\n"
    assert not (tmp_path / "out").exists() and not work  # no command body is entered


@pytest.fixture
def work(monkeypatch):
    """A list that gains one entry, its name, per command body entered or graph loaded or generated from now on."""
    calls = []
    spied = [(fairpr.graph, "load_graph"), (fairpr.synth, "generate")]
    spied += [(fairpr.cli, f"cmd_{command}") for command in ("rank", "sweep", "audit", "generate")]
    for module, name in spied:
        f = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, f=f, n=name, **k: calls.append(n) or f(*a, **k))
    return calls


@pytest.mark.parametrize("command", ["rank", "sweep", "audit", "generate"])
def test_an_out_that_cannot_be_a_directory_exits_1_before_any_work(tmp_path, graph_files, capsys, work, command):
    # a file, or a path under one: rejected before the graph is loaded or generated, and nothing is created
    edges, colors, _ = graph_files
    graph = ["--edges", str(edges), "--colors", str(colors)]
    argv = {
        "rank": ["rank", *graph, "--algo", "fspr", "--phi", "0.35"],
        "sweep": ["sweep", *graph, "--phi", "0.2,0.4"],
        "audit": ["audit", *graph],
        "generate": ["generate", "--n", "30", "--r", "0.3", "--alpha-red", "0.5", "--alpha-blue", "0.5"],
    }[command]
    blocker = tmp_path / "afile"
    blocker.write_text("x")
    for out in (blocker, blocker / "sub"):
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --out {out}: {blocker} is not a directory\n"
        assert captured.out == "" and not work
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "x"


@pytest.mark.parametrize("command", ["rank", "audit"])
def test_unconverged_lfpr_o_warns_but_keeps_its_outputs(tmp_path, graph_files, capsys, command):
    edges, colors, _ = graph_files
    rc = main(
        [
            command, "--edges", str(edges), "--colors", str(colors),
            "--algo", "lfpr-o", "--phi", "0.35", "--iters", "1", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: lfpr-o stopped after 1 iterations with KKT residual ")
    assert err.rstrip().endswith("above --tol 1e-08")
    if command == "rank":
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["iterations"] == 1 and report["converged"] is False
        assert report["kkt_residual"] > 1e-8
        assert not {"search_iterations", "search_evaluations", "penalty_residual"} & report.keys()
    else:
        assert (tmp_path / "audit.csv").exists()


def test_converged_lfpr_o_is_silent(tmp_path, graph_files, capsys):
    edges, colors, _ = graph_files
    argv = ["rank", "--edges", str(edges), "--colors", str(colors),
            "--algo", "lfpr-o", "--phi", "0.35", "--iters", "20000", "--tol", "1e-6"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is True and report["kkt_residual"] <= 1e-6


def test_lfpr_o_where_its_two_starting_policies_coincide(tmp_path, capsys):
    # The red nodes 0, 1, 3 link to each other alike and share one PageRank, so
    # the uniform and proportional policies agree: their secant has no curvature.
    (tmp_path / "e.tsv").write_text("0\t1\n0\t3\n1\t0\n1\t3\n3\t0\n3\t1\n")
    (tmp_path / "c.tsv").write_text("0\t1\n1\t1\n2\t0\n3\t1\n")
    graph = ["--edges", str(tmp_path / "e.tsv"), "--colors", str(tmp_path / "c.tsv")]
    args = ["--algo", "lfpr-o", "--phi", "0.75", "--out", str(tmp_path)]
    assert main(["rank", *graph, *args]) == 0
    assert main(["audit", *graph, *args]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["fair"] is True and report["converged"] is True


def test_lfpr_o_reruns_are_byte_identical(tmp_path, graph_files):
    edges, colors, _ = graph_files
    for sub in ("a", "b"):
        rc = main(
            [
                "rank", "--edges", str(edges), "--colors", str(colors),
                "--algo", "lfpr-o", "--phi", "0.35", "--out", str(tmp_path / sub),
            ]
        )
        assert rc == 0
    for name in ("scores.csv", "report.json", "policy.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_lfpr_o_runs_above_the_old_dense_limit(tmp_path):
    # the search it replaced refused graphs above 4000 nodes
    g = generate(SynthConfig(n=5000, red_fraction=0.3, alpha_red=0.8, alpha_blue=0.5,
                             seed=12345, edges_per_node=2))
    save_graph(g, tmp_path / "edges.tsv", tmp_path / "colors.tsv")
    rc = main(
        [
            "rank", "--edges", str(tmp_path / "edges.tsv"), "--colors", str(tmp_path / "colors.tsv"),
            "--algo", "lfpr-o", "--phi", "0.3", "--iters", "5", "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["fair"] is True and report["iterations"] == 5
    assert report["loss"] >= report["lower_bound_loss"]


def test_fspr_report_keeps_exactly_its_keys(tmp_path, graph_files):
    # the solver's work counts stay on its result object, out of report.json
    edges, colors, _ = graph_files
    argv = ["rank", "--edges", str(edges), "--colors", str(colors), "--algo", "fspr", "--phi", "0.35"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert sorted(report) == [
        "achieved_fairness", "algorithm", "converged", "fair", "fairness_residual", "gamma",
        "iterations", "kkt_residual", "loss", "lower_bound_loss", "phi", "red_mass",
    ]


@pytest.mark.parametrize("n", [400, 5000])
def test_default_lfpr_o_converges_silently(tmp_path, capsys, n):
    # the benchmark's generator settings; the default --tol and --iters
    g = generate(SynthConfig(n=n, red_fraction=0.3, alpha_red=0.8, alpha_blue=0.5,
                             seed=12345, edges_per_node=2))
    save_graph(g, tmp_path / "edges.tsv", tmp_path / "colors.tsv")
    argv = ["rank", "--edges", str(tmp_path / "edges.tsv"), "--colors", str(tmp_path / "colors.tsv"),
            "--algo", "lfpr-o", "--phi", "0.3", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["converged"] is True and report["iterations"] < 200
    assert report["kkt_residual"] <= 1e-8 and report["fair"] is True


def test_unknown_sweep_algorithm_exits_1_before_any_graph_is_loaded(tmp_path, capsys):
    missing = ["--edges", str(tmp_path / "no-edges.tsv"), "--colors", str(tmp_path / "no-colors.tsv")]
    argv = ["sweep", *missing, "--phi", "0.3", "--algo", "fspr,lfpr-x", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "argument --algo: unknown algorithm 'lfpr-x'" in err
    assert "no-edges.tsv" not in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, option, value, message",
    [
        ("audit", "--sample", "0", "sample must be a positive integer, got 0"),
        ("audit", "--sample", "-3", "sample must be a positive integer, got -3"),
        ("sweep", "--grid-seeds", "0", "grid-seeds must be a positive integer, got 0"),
        ("sweep", "--phi", ",", "expected a comma-separated list of numbers, got ','"),
    ],
)
def test_meaningless_counts_and_empty_lists_exit_1(tmp_path, graph_files, capsys, command, option, value, message):
    edges, colors, _ = graph_files
    argv = [command, "--edges", str(edges), "--colors", str(colors), "--out", str(tmp_path / "out")]
    if command == "sweep" and option != "--phi":
        argv += ["--phi", "0.3"]
    assert main([*argv, f"{option}={value}"]) == 1
    assert f"argument {option}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--n", "30", "--r", "0.3", "--alpha-red", "0.5", "--alpha-blue", "0.5", "--seed", "-1"],
        ["sweep", "--grid-n", "40", "--phi", "0.3", "--seed", "-2"],
        ["audit", "--sample", "10", "--seed", "-3"],
        ["audit", "--seed", "-3"],  # draws no sample, so numpy never sees the seed
        ["generate", "--n", "30", "--r", "0.3", "--alpha-red", "0.5", "--alpha-blue", "0.5", "--seed", "\u0663"],
    ],
)
def test_a_negative_or_non_ascii_seed_exits_1_naming_the_flag(tmp_path, capsys, argv):
    if argv[0] == "audit":  # missing files: the seed is rejected before any file is read
        argv += ["--edges", str(tmp_path / "no-edges.tsv"), "--colors", str(tmp_path / "no-colors.tsv")]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"argument --seed: seed must be a non-negative integer, got {argv[argv.index('--seed') + 1]}" in err
    assert "no-edges.tsv" not in err
    assert not (tmp_path / "out").exists()


GENERATE = ["generate", "--n", "300", "--r", "0.3", "--alpha-red", "0.5", "--alpha-blue", "0.5"]


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (GENERATE, "--n", "3_00"),
        (GENERATE, "--n0", "1_0"),
        (GENERATE, "--edges-per-node", "\u0662"),
        (GENERATE, "--r", "\u0660.3"),
        (GENERATE, "--alpha-red", "0.5".translate(FULLWIDTH)),
        (GENERATE, "--alpha-blue", "0.5_0"),
        (["rank", "--algo", "fspr", "--phi", "0.3"], "--phi", "\u0660.\u0663"),
        (["rank", "--algo", "fspr", "--phi", "0.3"], "--gamma", "0.1_5"),
        (["rank", "--algo", "fspr", "--phi", "0.3"], "--tol", "1_0e-9"),
        (["audit", "--algo", "lfpr-n"], "--phi", "0.3".translate(ARABIC_INDIC)),
        (["sweep", "--grid-n", "300"], "--phi", "\u0660.\u0663,0.4"),
        (["sweep", "--phi", "0.3"], "--grid-n", "\u0663\u0660\u0660"),
        (["sweep", "--grid-n", "300", "--phi", "0.3"], "--grid-r", "\u0660.3"),
        (["sweep", "--grid-n", "300", "--phi", "0.3"], "--grid-alpha-red", "0.5,0_5"),
        (["sweep", "--grid-n", "300", "--phi", "0.3"], "--grid-alpha-blue", "0.5".translate(FULLWIDTH)),
    ],
)
def test_a_number_with_an_underscore_or_non_ascii_digits_exits_1_naming_the_flag(
    tmp_path, capsys, work, argv, flag, value
):
    # Python's int and float read both; a number the CLI accepts is one in ASCII digits
    if argv[0] in ("rank", "audit"):  # missing files: the flag is rejected before any file is read
        argv = [*argv, "--edges", str(tmp_path / "no-edges.tsv"), "--colors", str(tmp_path / "no-colors.tsv")]
    assert main([*argv, flag, value, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: expected a number in ASCII digits without '_', got " in err
    assert "no-edges.tsv" not in err and not work
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["rank", "--algo", "lfpr-n", "--phi", "0.3", "--target-set", "", "--target-protected", ""],
         "--target-set, --target-protected"),
        (["rank", "--algo", "lfpr-n", "--phi", "0.3", "--target-set", "", "--target-protected", "sr.txt"],
         "--target-set"),
        (["rank", "--algo", "fspr", "--phi", "0.3", "--edges", ""], "--edges"),
        (["sweep", "--edges", "", "--colors", "", "--grid-n", "300", "--phi", "0.3"], "--edges, --colors"),
        (["sweep", "--colors", "", "--phi", "0.3"], "--colors"),
        (["generate", "--n", "60", "--r", "0.3", "--alpha-red", "0.8", "--alpha-blue", "0.5", "--out", ""], "--out"),
        (["rank", "--algo", "fspr", "--phi", "0.3", "--out", "", "--edges", ""], "--out, --edges"),
    ],
)
def test_an_empty_file_name_exits_1_before_any_work(tmp_path, graph_files, capsys, monkeypatch, work, argv, named):
    # an empty name is neither an absent flag (a global rank, a grid sweep) nor the directory "."
    edges, colors, _ = graph_files
    graph = {} if argv[0] == "generate" else {"--edges": str(edges), "--colors": str(colors)}
    argv = [*argv, *(item for flag, path in graph.items() if flag not in argv for item in (flag, path))]
    monkeypatch.chdir(tmp_path)  # where an empty --out would write
    assert main(argv if "--out" in argv else [*argv, "--out", "out"]) == 1
    assert capsys.readouterr().err == f"error: {named}: empty file name\n"
    assert not work and list(tmp_path.iterdir()) == []


def test_an_audit_seed_without_a_sample_to_draw_exits_1(tmp_path, graph_files, capsys):
    # an audit of every node draws nothing, so a --seed would be silently ignored; a sampled one reads it
    edges, colors, g = graph_files
    audit = ["audit", "--edges", str(edges), "--colors", str(colors), "--algo", "lfpr-u", "--phi", "0.3"]
    for sample in ([], ["--sample", str(g.n)]):  # up to 5000 nodes, and a sample of at least n, audit all
        assert main([*audit, *sample, "--seed", "9", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: --seed: the audit reports all {g.n} nodes and draws no sample\n"
    assert not (tmp_path / "out").exists()
    runs = {"seed-9": ["--seed", "9"], "seed-0": ["--seed", "0"], "default": []}
    for name, seed in runs.items():
        assert main([*audit, "--sample", "10", *seed, "--out", str(tmp_path / name)]) == 0
    drawn = {name: (tmp_path / name / "audit.csv").read_bytes() for name in runs}
    assert drawn["default"] == drawn["seed-0"] != drawn["seed-9"]  # the default seed is still 0


def test_a_rejected_audit_seed_exits_before_any_solve(tmp_path, graph_files, capsys, monkeypatch):
    # lfpr-o's QP and the audit's absorption solve are the audit's work; the --seed rule needs only n
    edges, colors, g = graph_files

    def solve(*args, **kwargs):
        raise AssertionError("solved before the --seed rule ran")

    monkeypatch.setattr(fairpr.lfpr, "optimize_residuals", solve)
    monkeypatch.setattr(fairpr.analysis, "absorption_vector", solve)
    argv = ["audit", "--edges", str(edges), "--colors", str(colors), "--algo", "lfpr-o", "--phi", "0.3"]
    assert main([*argv, "--seed", "1", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: --seed: the audit reports all {g.n} nodes and draws no sample\n"
    assert not (tmp_path / "out").exists()


def test_fspr_and_lfpr_o_share_one_iteration_budget(tmp_path, graph_files, monkeypatch):
    # both default to 5000 iterations; their work counts stay out of report.json
    edges, colors, _ = graph_files
    budgets = {}
    for module, name, key in ((fairpr.fspr, "solve_fspr", "max_iters"), (fairpr.lfpr, "optimize_residuals", "iterations")):
        solver = getattr(module, name)

        def spy(*args, solver=solver, name=name, key=key, **kwargs):
            budgets[name] = kwargs[key]
            return solver(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    for algo in ("fspr", "lfpr-o"):
        out = tmp_path / algo
        argv = ["rank", "--edges", str(edges), "--colors", str(colors), "--algo", algo, "--phi", "0.35"]
        assert main([*argv, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "matvecs" not in report and "dual_steps" not in report
    assert budgets == {"solve_fspr": 5000, "optimize_residuals": 5000}
