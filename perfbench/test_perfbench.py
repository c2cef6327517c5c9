"""Tests of the benchmark itself, on tiny graphs.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import run as bench  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Command, scaled  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(capsys, argv):
    assert bench.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric_and_passes_every_check(capsys, workload):
    record, result = _result(capsys, ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    setups = len(record["setup_times_s"])
    assert setups >= bench.SETUP_REPEATS and sum(record["setup_times_s"]) >= bench.SETUP_MIN_S
    assert result["attempted"] == setups + len(WORKLOADS[workload].commands) * len(record["round_s"])
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["inputs"][0]["n"] == bench.SMOKE_N


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_smoke_run_reconciles_self_times_with_wall_time(capsys, workload):
    record, result = _result(capsys, ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1", "--smoke"])
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert record["absent"] == []
    wall = result["metrics"]["trace.wall_s"]["value"]
    commands = len(WORKLOADS[workload].commands)
    # Self times (cli.self_s included) add up to the traced wall time, less
    # only the timer calls around each cli.main span.
    assert record["self_sum_s"] == pytest.approx(wall, rel=0.01, abs=2e-3 * commands)
    assert result["metrics"]["cli.self_s"]["value"] > 0


def test_corrupted_scores_csv_is_counted_as_a_failure(tmp_path):
    workload = scaled(WORKLOADS["large-io"], bench.SMOKE_N)
    run = bench.Run(workload, seed=5, work=tmp_path)
    bench.load_cli()
    inst = run.instances[0]
    inst.directory.mkdir()
    bench.setup_instances(run, lambda argv, log: bench.call_main(argv, log) == 0, repeats=1)
    cmd = Command("rank", ("lfpr-n",), (0.3,))
    out = inst.directory / "out"
    assert bench.call_main(cmd.argv(inst, out), inst.directory / "rank.log") == 0
    assert run.record(run.check(cmd, inst, out))

    scores = out / "scores.csv"
    lines = scores.read_text().splitlines()
    node, score = lines[5].split(",")
    lines[5] = f"{node},{float(score) * 1.5!r}"
    scores.write_text("\n".join(lines) + "\n")
    problems = run.check(cmd, inst, out)
    assert not run.record(problems)
    assert any("sum to" in p for p in problems)
    assert any("differs from an earlier round" in p for p in problems)
    assert (run.attempted, run.failed) == (3, 1)


def test_missing_function_makes_its_metric_absent(monkeypatch):
    bench.load_cli()
    lfpr = sys.modules["fairpr.lfpr"]
    original = sys.modules["fairpr.pagerank"].solve_left
    monkeypatch.delattr(lfpr, "optimize_residuals")
    tracer = Tracer()
    with tracer:
        assert sys.modules["fairpr.fspr"].solve_left is not original
    assert sys.modules["fairpr.fspr"].solve_left is original
    metrics, absent = bench.layer_metrics(tracer, Tracer(), untraced_wall=0.0, traced_wall=0.0)
    assert absent == ["lfpr.search_s", "lfpr.search_evaluations"]
    assert "lfpr.build_s" in metrics
