"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.

With ``--trace 0`` every command runs as its own ``python -m fairpr.cli``
process, as a user would run it, and the end-to-end metrics are reported.
With ``--trace 1`` the same argv lists go to ``fairpr.cli.main`` in this
process, once plain and once under :class:`perfbench.tracer.Tracer`, and the
per-layer metrics are reported.  Either way every output is checked; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

# One BLAS thread in this process and every child, set before numpy loads.
# On a shared 2-core host a second BLAS thread waits on whatever else holds
# the other core: lfpr-o at n = 400 took 5.3 s with two threads on an idle
# machine but 15.6-17.1 s with one core busy, against 5.9-6.7 s either way
# with one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

from perfbench import checks  # noqa: E402
from perfbench.hostspeed import HostSpeed  # noqa: E402
from perfbench.tracer import SpanIndex, Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    derive_inputs,
    describe_inputs,
    generate_argv,
    make_instances,
    scaled,
)

SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RUN_DEADLINE_S = 170.0  # the whole run must end within 180 s
SETUP_REPEATS = 3       # set-ups per run at least, for a median
SETUP_MIN_S = 3.0       # ... and at least this much set-up time in all
SMOKE_N = 120


class Failure(Exception):
    pass


class Run:
    """State of one benchmark invocation: counts, checks and ratios."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.instances = make_instances(workload, seed, work)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict = {}
        self.ratios: list[float] = []
        self.started = perf_counter()

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (perf_counter() - self.started)

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def check(self, cmd, inst, out: Path) -> list[str]:
        """Output checks of one finished command; also collects loss ratios."""
        try:
            if cmd.kind == "rank":
                problems, digest = checks.check_scores(out / "scores.csv", inst.stats["n"])
                key = (inst.directory.name, cmd)
                if self.digests.setdefault(key, digest) != digest:
                    problems.append(f"{out}/scores.csv differs from an earlier round")
                phi = cmd.phis[0] if cmd.phis else None
                return problems + checks.check_report(out / "report.json", cmd.algos[0], phi, cmd.targeted, self.ratios)
            if cmd.kind == "audit":
                return checks.check_audit(out, inst.red, cmd.algos[0], cmd.full_audit)
            return checks.check_sweep(out / "sweep.csv", cmd.algos, cmd.phis, self.ratios)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            return [f"{out}: unreadable output ({exc!r})"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(argv: list[str], log: Path, run: Run) -> tuple[float, int, float]:
    """One ``fairpr`` process: wall seconds, exit code, peak RSS in MB."""
    timeout = max(1.0, run.remaining())
    with open(log, "wb") as log_fh:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "fairpr.cli", *argv],
            stdout=log_fh,
            stderr=subprocess.STDOUT,
            env=child_env(),
            cwd=ROOT,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def setup_instances(run: Run, generate, repeats: int, min_seconds: float = 0.0, before=None) -> list[float]:
    """Set every instance up, cycling over them until there were at least
    ``repeats`` set-ups taking at least ``min_seconds`` in all; ``before``
    runs ahead of each, untimed."""
    times = []
    while len(times) < max(repeats, len(run.instances)) or sum(times) < min_seconds:
        inst = run.instances[len(times) % len(run.instances)]
        if before:
            before()
        start = perf_counter()
        ok = generate(generate_argv(run.workload, inst), inst.directory / "generate.log")
        if ok:
            derive_inputs(run.workload, inst)
        times.append(perf_counter() - start)
        if not run.record([] if ok else [f"{inst.directory}: generate failed"]):
            raise Failure(f"set-up of {inst.directory.name} failed")
    for inst in run.instances:
        describe_inputs(run.workload, inst)
    return times


def timed_run(run: Run, seconds: float) -> tuple[dict, dict]:
    """Subprocess rounds until ``seconds`` is used up.

    Times are scaled to the reference host speed (``hostspeed.py``), which
    is sampled, untimed, before every set-up and every command.
    """
    host = HostSpeed()

    def generate(argv, log):
        _, code, _ = run_cli(argv, log, run)
        return code == 0

    setup_times = setup_instances(run, generate, SETUP_REPEATS, SETUP_MIN_S, before=host.sample)
    slots = {(j, i): [] for j in range(len(run.instances)) for i in range(len(run.workload.commands))}
    rounds = []
    peak_rss = 0.0
    measure_start = perf_counter()
    while not rounds or (
        perf_counter() - measure_start + statistics.fmean(rounds) <= seconds
        and run.remaining() > 2 * max(rounds)
    ):
        round_s = 0.0
        run.ratios = []
        for j, inst in enumerate(run.instances):
            for i, cmd in enumerate(run.workload.commands):
                out = inst.directory / f"out{i}"
                host.sample()
                wall, code, rss = run_cli(cmd.argv(inst, out), inst.directory / f"out{i}.log", run)
                slots[j, i].append(wall)
                round_s += wall
                peak_rss = max(peak_rss, rss)
                problems = [f"{cmd.label}: exit code {code}"] if code != 0 else run.check(cmd, inst, out)
                run.record(problems)
        rounds.append(round_s)

    def mean_round(kinds) -> float:
        commands = run.workload.commands
        walls = sum(statistics.fmean(w) for (_, i), w in slots.items() if commands[i].kind in kinds)
        return walls * host.factor

    metrics = {
        "setup_s": (statistics.median(setup_times) * host.factor, "s"),
        "commands_s": (mean_round(("rank", "audit", "sweep")), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    info = {f"{kind}_s": mean_round((kind,)) for kind in ("rank", "audit", "sweep")}
    info.update(
        host_speed=host.factor,
        host_samples=len(host.samples),
        setup_times_s=setup_times,
        round_s=rounds,
        command_s=[[slots[j, i] for i in range(len(run.workload.commands))] for j in range(len(run.instances))],
        loss_over_bound=checks.mean_ratio(run.ratios),
    )
    return metrics, info


def load_cli():
    """``fairpr.cli`` from this checkout, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("fairpr.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "fairpr").resolve():
        raise Failure(f"imported fairpr from {cli.__file__}, not from {SRC}")
    return cli


def call_main(argv: list[str], log: Path) -> int:
    """``fairpr.cli.main(argv)`` in this process, its output sent to ``log``."""
    cli = sys.modules["fairpr.cli"]
    with open(log, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
        return cli.main(argv)


def traced_run(run: Run) -> tuple[dict, dict]:
    """One round in-process untraced, then the same round traced."""
    load_cli()
    setup_tracer = Tracer()

    def generate(argv, log):
        with setup_tracer:
            return call_main(argv, log) == 0

    setup_instances(run, generate, 1)
    walls = []
    tracer = Tracer()
    for traced in (False, True):
        wall = 0.0
        run.ratios = []
        for inst in run.instances:
            for i, cmd in enumerate(run.workload.commands):
                out = inst.directory / f"out{i}"
                with tracer if traced else contextlib.nullcontext():
                    start = perf_counter()
                    code = call_main(cmd.argv(inst, out), inst.directory / f"out{i}.log")
                    wall += perf_counter() - start
                problems = [f"{cmd.label}: exit code {code}"] if code != 0 else run.check(cmd, inst, out)
                run.record(problems)
        walls.append(wall)
    setup_tracer.dump(run.work / "setup_spans.json")
    tracer.dump(run.work / "spans.json")
    metrics, absent = layer_metrics(tracer, setup_tracer, untraced_wall=walls[0], traced_wall=walls[1])
    metrics["loss_over_bound"] = (checks.mean_ratio(run.ratios), "ratio")
    return metrics, {"absent": absent, "self_sum_s": SpanIndex(tracer.spans).self_total(lambda s: True)}


def layer_metrics(tracer: Tracer, setup_tracer: Tracer, untraced_wall: float, traced_wall: float) -> tuple[dict, list]:
    """Per-layer metrics, and the names left out because none of their functions exist."""
    idx = SpanIndex(tracer.spans)
    setup_idx = SpanIndex(setup_tracer.spans)
    iterations = tracer.results["fspr.solve_fspr"]
    projections = idx.calls_within(("simplex.project_fair_simplex",), "fspr.solve_fspr")
    model_constructors = ("lfpr.build_neighborhood_model", "lfpr.build_residual_model", "lfpr.build_targeted_model")
    writers = ("analysis.write_audit_csv", "analysis.write_histogram_csv")
    matvec_names = ("pagerank.TransitionModel.apply_left", "pagerank.TransitionModel.apply_right")
    table = [
        ("simplex.project_fair_s", "s", ("simplex.project_fair_simplex",), idx.total),
        ("simplex.project_fair_calls", "count", ("simplex.project_fair_simplex",), idx.calls),
        ("simplex.sorts", "count", ("simplex.project_simplex",), idx.calls),
        ("pagerank.solve_left_s", "s", ("pagerank.solve_left",), idx.total),
        ("pagerank.solve_left_calls", "count", ("pagerank.solve_left",), idx.calls),
        ("pagerank.solve_right_s", "s", ("pagerank.solve_right",), idx.total),
        ("pagerank.solve_right_calls", "count", ("pagerank.solve_right",), idx.calls),
        ("pagerank.matvecs", "count", matvec_names, lambda n: sum(tracer.counts[k] for k in n)),
        ("fspr.solve_self_s", "s", ("fspr.solve_fspr",), lambda n: idx.self_total(lambda s: s in n)),
        ("fspr.problem_s", "s", ("fspr.fspr_problem", "fspr.targeted_fspr_problem"), idx.total),
        ("fspr.iterations", "count", ("fspr.solve_fspr",), lambda n: iterations),
        ("fspr.projections_per_iter", "ratio", ("fspr.solve_fspr",),
         lambda n: (projections / iterations if iterations else 0.0)
         if "simplex.project_fair_simplex" in tracer.wrapped else None),
        ("lfpr.search_s", "s", ("lfpr.optimize_residuals",), idx.total),
        ("lfpr.search_evaluations", "count", ("lfpr.optimize_residuals",),
         lambda n: tracer.results["lfpr.optimize_residuals"]),
        ("lfpr.build_s", "s", model_constructors, idx.total),
        ("graph.load_s", "s", ("graph.load_graph",), idx.total),
        ("graph.load_calls", "count", ("graph.load_graph",), idx.calls),
        ("graph.save_s", "s", ("graph.save_graph",), setup_idx.total),
        ("synth.generate_s", "s", ("synth.generate",), setup_idx.total),
        ("pagerank.write_scores_s", "s", ("pagerank.write_scores_csv",), idx.total),
        ("analysis.write_s", "s", writers, idx.total),
        ("cli.self_s", "s", ("cli.main",), lambda n: idx.self_total(lambda s: s.startswith("cli."))),
        ("analysis.lower_bound_s", "s", ("analysis.lower_bound_vector",), idx.total),
        ("analysis.lower_bound_calls", "count", ("analysis.lower_bound_vector",), idx.calls),
        ("analysis.audit_s", "s", ("analysis.personalized_audit",), idx.total),
    ]
    metrics, absent = {}, []
    for name, unit, names, compute in table:
        value = compute(frozenset(names)) if tracer.wrapped.intersection(names) else None
        if value is None:
            absent.append(name)
        else:
            metrics[name] = (float(value), unit)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    return metrics, absent


def _command_output(argv: list[str]) -> str:
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=10).stdout.strip()
    return ""


def environment() -> dict:
    import numpy
    import scipy

    has_git = (ROOT / ".git").exists()
    blas = {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS}
    return {
        "commit": (_command_output(["git", "rev-parse", "HEAD"]) if has_git else "") or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas,
        "l3_cache_bytes": _command_output(["getconf", "LEVEL3_CACHE_SIZE"]) or "unknown",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help=f"tiny graphs (n={SMOKE_N}), one instance")
    args = parser.parse_args(argv)

    if not (SRC / "fairpr" / "cli.py").is_file():
        print(f"perfbench: no fairpr sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = scaled(workload, SMOKE_N)
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, args.seed, work)
    for inst in run.instances:
        inst.directory.mkdir(parents=True)

    try:
        metrics, info = traced_run(run) if args.trace else timed_run(run, args.seconds)
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "inputs": [inst.stats for inst in run.instances],
        "commands": [cmd.label for cmd in workload.commands],
        **info,
    }
    fail_rate = run.failed / run.attempted
    print(json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    if not args.trace:
        for name in ("rank_s", "audit_s", "sweep_s"):
            print(f"  {name:28s} {info[name]:.6g} s (part of commands_s)")
        print(f"  {'loss_over_bound':28s} {info['loss_over_bound']:.6g} ratio (also a traced metric)")
    print(f"  {'fail_rate':28s} {fail_rate:.6g} ratio ({run.failed}/{run.attempted} commands)")
    for problem in run.problems[:20]:
        print(f"  FAILED: {problem}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({"record": record, "result": result}, indent=2, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
