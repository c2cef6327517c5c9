"""Command-line interface: rank, sweep, audit, generate.

Exit codes: 0 on success, 1 on input or usage errors, 2 when the
requested fairness target is infeasible.  All output files are written
deterministically (full-precision floats, sorted JSON keys), so reruns
with the same inputs and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import io
import itertools
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, fspr, graph, lfpr
from .errors import FairprError, InfeasibleError
from .pagerank import DEFAULT_GAMMA, _check_gamma, _check_phi, pagerank, standard_transition, write_scores_csv

LFPR_KINDS = {
    "lfpr-n": lfpr.PolicyKind.NEIGHBORHOOD,
    "lfpr-u": lfpr.PolicyKind.UNIFORM,
    "lfpr-p": lfpr.PolicyKind.PROPORTIONAL,
}
ALGOS = ("opr", "fspr", "lfpr-n", "lfpr-u", "lfpr-p", "lfpr-o")
FILE_FLAGS = ("out", "edges", "colors", "target_set", "target_protected")
GRID_FLAGS = ("grid_n", "grid_r", "grid_alpha_red", "grid_alpha_blue", "grid_seeds", "seed")


def _solver_fields(algo, result, tol) -> dict:
    """Report fields of an iterative solve; an exhausted budget also warns on stderr."""
    if not result.converged:
        print(
            f"warning: {algo} stopped after {result.iterations} iterations with "
            f"KKT residual {result.kkt_residual:.3e} above --tol {tol:g}",
            file=sys.stderr,
        )
    return {"iterations": result.iterations, "converged": result.converged, "kkt_residual": result.kkt_residual}


def _lfpr_policy(g, algo, args, phi, p_o):
    """Residual policy of a global lfpr algorithm, plus lfpr-o's solver fields."""
    if algo != "lfpr-o":
        return lfpr.make_policy(LFPR_KINDS[algo], g, p_o=p_o), {}
    result = lfpr.optimize_residuals(g, phi, args.gamma, p_o, iterations=args.iters, tol=args.tol)
    return result.policy, _solver_fields(algo, result, args.tol)


def _rank_once(g, algo, args, phi, p_o, targets):
    """Scores, report.json's algorithm fields, fspr's jump vector and a global lfpr's policy
    (each None where the algorithm has none) for one configuration."""
    extras: dict = {"algorithm": algo}
    if algo == "opr":
        return p_o, extras, None, None
    if algo == "fspr":
        model = standard_transition(g)
        if targets is None:
            problem = fspr.fspr_problem(model, g, phi, args.gamma, p_o=p_o)
        else:
            problem = fspr.targeted_fspr_problem(model, g, targets[0], targets[1], phi, args.gamma, p_o=p_o)
        solution = fspr.solve_fspr(problem, tol=args.tol, max_iters=args.iters)
        extras.update(
            {
                "fairness_residual": solution.constraint_residual,
                "achieved_fairness": solution.achieved_fairness,
                **_solver_fields(algo, solution, args.tol),
            }
        )
        return solution.scores, extras, solution.x, None
    if targets is not None:
        scores = lfpr.targeted_lfpr(g, targets[0], targets[1], phi, LFPR_KINDS[algo], args.gamma, p_o=p_o)
        return scores, extras, None, None
    policy, stats = _lfpr_policy(g, algo, args, phi, p_o)
    return lfpr.lfpr_pagerank(g, phi, policy, args.gamma), {**extras, **stats}, None, policy


def cmd_rank(args) -> int:
    g = graph.load_graph(args.edges, args.colors)
    p_o = pagerank(standard_transition(g), args.gamma)
    targets = None
    if args.target_set is not None:
        targets = (graph.load_node_ids(args.target_set), graph.load_node_ids(args.target_protected))

    scores, extras, jump, policy = _rank_once(g, args.algo, args, args.phi, p_o, targets)
    report = analysis.make_report(scores, p_o, g, args.phi, args.gamma, targets)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_scores_csv(out / "scores.csv", scores)
    if jump is not None:
        graph.write_rows(out / "solution.csv", "node,jump_prob,score", "%d,%.17g,%.17g", range(g.n), jump, scores)
    if policy is not None:  # the kind, and the nonzero x and y entries by node id
        payload = {"kind": policy.kind.value}
        for name, vec in (("x", policy.x), ("y", policy.y)):
            if vec is not None:
                nodes = np.flatnonzero(vec)
                payload[name] = dict(zip(map(str, nodes.tolist()), vec[nodes].tolist()))
        analysis.write_json(out / "policy.json", payload)
    analysis.write_json(out / "report.json", {**report, **extras})
    print(
        f"{args.algo}: red_mass={report['red_mass']:.6f} loss={report['loss']:.6e} "
        f"lower_bound_loss={report['lower_bound_loss']:.6e}"
    )
    return 0


def _sweep_instances(args):
    if args.edges is not None:
        yield Path(args.edges).stem, graph.load_graph(args.edges, args.colors)
        return
    from . import synth  # only generating commands pay for the generator's import
    grid = itertools.product(args.grid_r or [0.3], args.grid_alpha_red or [0.5], args.grid_alpha_blue or [0.5],
                             range(args.grid_seeds or 1))
    for cell, (r, a_red, a_blue, s) in enumerate(grid):
        seed = int(synth.child_seed(args.seed or 0, cell).generate_state(1)[0])
        try:
            g = synth.generate(synth.SynthConfig(args.grid_n, r, a_red, a_blue, seed=seed))
        except ValueError as exc:
            g = exc
        yield f"synth-r{r}-aR{a_red}-aB{a_blue}-s{s}", g


def _failure(exc) -> tuple[str, str]:
    """A failed sweep row's status and message."""
    return "infeasible" if isinstance(exc, InfeasibleError) else "error", str(exc)


def _sweep_cell(instance, cell) -> tuple:
    """Status, red mass, loss and message of one (algo, phi) cell of ``instance = (g, args, p_o)``,
    and the text its solve wrote to stderr, for the caller to write in cell order."""
    (g, args, p_o), (algo, phi) = instance, cell
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            scores = _rank_once(g, algo, args, phi, p_o, None)[0]
            result = ("ok", analysis.red_mass(scores, g), analysis.utility_loss(scores, p_o), "")
        except (FairprError, ValueError) as exc:
            status, message = _failure(exc)
            result = (status, None, None, message)
    return (*result, err.getvalue())


_inherited = None  # a forked sweep worker's instance; set only in the worker, by _inherit


def _inherit(instance) -> None:
    global _inherited
    _inherited = instance


def _inherited_cell(cell) -> tuple:
    return _sweep_cell(_inherited, cell)


def _workers(g, cells) -> int:
    """How many forked workers solve one graph's cells: one per usable CPU, at most one per cell.
    One, meaning in this process, off Linux, in a process that runs other threads, and where the
    cells' solves are too small to repay the pool's ~15 ms: below 120,000 edges times solving cells,
    lfpr cells ran no faster on two workers than in-process. Forking a process with threads is
    unsafe, and a multi-threaded BLAS, whose threads start when numpy loads, would start as many
    again in each worker."""
    solves = sum(algo != "opr" for algo, _ in cells)  # an opr cell only reads p_o
    if g.n_edges * solves < 120_000 or not hasattr(os, "sched_getaffinity"):
        return 1
    try:
        if len(os.listdir("/proc/self/task")) > 1:
            return 1
    except OSError:
        return 1
    return min(len(cells), len(os.sched_getaffinity(0)))


def _solve_cells(instance, cells):
    """``_sweep_cell`` of every cell, in order: on ``_workers`` forked workers, which inherit
    ``instance`` instead of unpickling it, or, with one, in this process."""
    workers = _workers(instance[0], cells)
    if workers < 2:
        return map(functools.partial(_sweep_cell, instance), cells)
    import multiprocessing  # only a sweep on several workers pays for these imports
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _inherit, (instance,)) as pool:
            return list(pool.map(_inherited_cell, cells))
    except BrokenProcessPool as exc:  # a worker was killed, say by the kernel's out-of-memory killer
        raise FairprError(f"a sweep worker died before it returned its cell: {exc}") from exc


def cmd_sweep(args) -> int:
    rows = []
    cells = list(itertools.product(args.algos, args.phis))
    for name, g in _sweep_instances(args):
        if isinstance(g, Exception):  # a grid cell the generator rejected
            rows += [[name, a, f"{p:.17g}", "", "", "", "error", str(g)] for a, p in cells]
            continue
        p_o = pagerank(standard_transition(g), args.gamma)
        bound = functools.cache(functools.partial(analysis.lower_bound_loss, p_o, g))  # once per phi, for every algo
        for (algo, phi), (status, mass, loss, message, err) in zip(cells, _solve_cells((g, args, p_o), cells)):
            sys.stderr.write(err)
            values = ["", "", ""]
            if status == "ok":
                try:
                    values = [f"{mass:.17g}", f"{loss:.17g}", f"{bound(phi):.17g}"]
                except (FairprError, ValueError) as exc:  # opr takes any phi; its bound checks it
                    status, message = _failure(exc)
            rows.append([name, algo, f"{phi:.17g}", *values, status, message])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "algorithm", "phi", "red_mass", "loss", "lower_bound_loss", "status", "message"])
        writer.writerows(rows)
    statuses = [row[6] for row in rows]
    ok = statuses.count("ok")
    print(f"sweep: {ok} ok, {len(rows) - ok} failed rows -> {out / 'sweep.csv'}")
    if ok:
        return 0
    return 2 if set(statuses) == {"infeasible"} else 1


def cmd_audit(args) -> int:
    g = graph.load_graph(args.edges, args.colors)
    if args.seed is not None and analysis.audit_sample(g.n, args.sample) is None:  # the one rule that needs g.n
        raise ValueError(f"--seed: the audit reports all {g.n} nodes and draws no sample")
    model = standard_transition(g)
    if args.algo != "opr":
        p_o = pagerank(model, args.gamma) if args.algo == "lfpr-p" else None  # lfpr-o solves its own
        policy, _ = _lfpr_policy(g, args.algo, args, args.phi, p_o)
        model = lfpr.build_residual_model(g, args.phi, policy)
    # phi = None audits against the red node share.
    audit = analysis.personalized_audit(model, g, args.gamma, args.phi, sample=args.sample, seed=args.seed or 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    analysis.write_audit_csv(audit, out / "audit.csv")
    analysis.write_histogram_csv(audit, out / "audit_hist.csv")
    print(
        f"audit: {audit.nodes.size} nodes, all_fair={audit.all_fair} "
        f"red_mean={audit.red_mean:.6f} blue_mean={audit.blue_mean:.6f}"
    )
    return 0


def cmd_generate(args) -> int:
    from . import synth
    cfg = synth.SynthConfig(
        n=args.n,
        red_fraction=args.r,
        alpha_red=args.alpha_red,
        alpha_blue=args.alpha_blue,
        seed=args.seed,
        n0=args.n0,
        edges_per_node=args.edges_per_node,
    )
    g = synth.generate(cfg)
    red_pr = analysis.red_mass(pagerank(standard_transition(g), args.gamma), g)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    graph.save_graph(g, out / "edges.tsv", out / "colors.tsv")
    graph.write_summary_csv(g, out / "summary.csv")
    graph.write_rows(out / "manifest.csv", "seed,r,alpha_R,alpha_B,n,red_pagerank", "%d,%.17g,%.17g,%.17g,%d,%.17g",
                     [cfg.seed], [cfg.red_fraction], [cfg.alpha_red], [cfg.alpha_blue], [cfg.n], [red_pr])
    print(f"generated n={g.n} edges={g.n_edges} red={g.n_red} red_pagerank={red_pr:.6f}")
    return 0


def _number(kind):
    """Parser of an ``int`` or ``float`` option that rejects the ``_`` separators and
    non-ASCII digits Python's own parsers accept, as node ids and counts do."""

    def parse(text: str):
        if not text.isascii() or "_" in text:
            raise argparse.ArgumentTypeError(f"expected a number in ASCII digits without '_', got {text!r}")
        return kind(text)

    parse.__name__ = kind.__name__  # argparse names it in "invalid float value: ..."
    return parse


_int, _float = _number(int), _number(float)


def _tolerance(text: str) -> float:
    tol = _float(text)
    if not (np.isfinite(tol) and tol > 0.0):
        raise argparse.ArgumentTypeError(f"tol must be a positive finite number, got {text}")
    return tol


def _count(name: str, least: int = 1):
    """Parser of an integer option in ASCII digits, at least ``least`` (1 or 0), named ``name`` in its message."""
    kind = "positive" if least else "non-negative"

    def parse(text: str) -> int:
        if not (text.isascii() and text.isdecimal() and int(text) >= least):
            raise argparse.ArgumentTypeError(f"{name} must be a {kind} integer, got {text}")
        return int(text)

    return parse


def _float_list(text: str) -> list[float]:
    values = [_float(tok) for tok in text.split(",") if tok]
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of numbers, got {text!r}")
    return values


def _algo_list(text: str) -> list[str]:
    algos = text.split(",")
    for algo in algos:
        if algo not in ALGOS:
            raise argparse.ArgumentTypeError(
                f"unknown algorithm {algo!r} (choose from {', '.join(ALGOS)})"
            )
    return algos


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairpr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph="required"):
        """Flags of every subcommand, plus, unless ``graph`` is None (generate), the graph
        files ("required" or "optional") and the solver's ``--tol`` and ``--iters``."""
        p.add_argument("--gamma", type=_float, default=DEFAULT_GAMMA)
        p.add_argument("--out", default=".", help="output directory")
        if graph is None:
            return
        p.add_argument("--edges", required=graph == "required", help="edge TSV: src<TAB>dst")
        p.add_argument("--colors", required=graph == "required", help="color TSV: node<TAB>{0|1}, 1 = red")
        # Both default to None, so that a run without fspr or lfpr-o can reject them.
        tol, steps = f"{fspr.KKT_TOL:g}".replace("e-0", "e-"), fspr.MAX_DUAL_STEPS  # "1e-8", 5000
        p.add_argument("--tol", type=_tolerance, help=f"fspr and lfpr-o solver tolerance (default {tol})")
        p.add_argument("--iters", type=_count("iters"), help=f"fspr and lfpr-o budget of dual steps (default {steps})")

    p_rank = sub.add_parser("rank", help="compute one fair ranking")
    common(p_rank)
    p_rank.add_argument("--algo", choices=ALGOS, required=True)
    p_rank.add_argument("--phi", type=_float, default=None, help="target red share")
    p_rank.add_argument("--target-set", default=None, help="file of node ids")
    p_rank.add_argument("--target-protected", default=None, help="file of protected ids")
    p_rank.set_defaults(func=cmd_rank)

    p_sweep = sub.add_parser("sweep", help="loss/fairness over a phi or graph grid")
    common(p_sweep, graph="optional")
    p_sweep.add_argument("--phi", dest="phis", type=_float_list, required=True,
                         help="comma-separated phi values")
    p_sweep.add_argument("--algo", dest="algos", type=_algo_list,
                         default=["fspr", "lfpr-n", "lfpr-u", "lfpr-p"],
                         help="comma-separated algorithms")
    # The grid flags default to None, so that a sweep over files can reject them.
    p_sweep.add_argument("--grid-n", type=_int)
    p_sweep.add_argument("--grid-r", type=_float_list, help="default 0.3")
    p_sweep.add_argument("--grid-alpha-red", type=_float_list, help="default 0.5")
    p_sweep.add_argument("--grid-alpha-blue", type=_float_list, help="default 0.5")
    p_sweep.add_argument("--grid-seeds", type=_count("grid-seeds"), help="default 1")
    p_sweep.add_argument("--seed", type=_count("seed", 0), help="seed of the synthetic grid (default 0)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_audit = sub.add_parser("audit", help="personalized fairness audit")
    common(p_audit)
    p_audit.add_argument("--algo", choices=[a for a in ALGOS if a != "fspr"], default="opr")
    p_audit.add_argument("--phi", type=_float, default=None)
    p_audit.add_argument("--sample", type=_count("sample"), default=None, help="audit sample size")
    p_audit.add_argument("--seed", type=_count("seed", 0), help="seed of the audit sample (default 0)")
    p_audit.set_defaults(func=cmd_audit)

    p_gen = sub.add_parser("generate", help="grow a synthetic colored graph")
    common(p_gen, graph=None)
    p_gen.add_argument("--n", type=_int, required=True)
    p_gen.add_argument("--r", type=_float, required=True, help="red arrival probability")
    p_gen.add_argument("--alpha-red", type=_float, required=True)
    p_gen.add_argument("--alpha-blue", type=_float, required=True)
    p_gen.add_argument("--n0", type=_int, default=10, help="seed ring size")
    p_gen.add_argument("--edges-per-node", type=_int, default=1)
    p_gen.add_argument("--seed", type=_count("seed", 0), default=0, help="generator seed")
    p_gen.set_defaults(func=cmd_generate)
    return parser


def _check_run(args) -> None:
    """Reject, in this order and before any file is read or graph grown, a run whose flags alone
    make it meaningless; then fill the defaults of ``--tol`` and ``--iters``."""
    existing = next((p for p in (Path(args.out), *Path(args.out).parents) if p.is_symlink() or p.exists()), None)
    if existing is not None and not existing.is_dir():  # a file, or a path under one: create nothing
        raise ValueError(f"--out {args.out}: {existing} is not a directory")
    empty = [f"--{k.replace('_', '-')}" for k in FILE_FLAGS if getattr(args, k, None) == ""]
    if empty:  # else read as the directory "."
        raise ValueError(f"{', '.join(empty)}: empty file name")
    _check_gamma(args.gamma)
    if args.command == "generate":
        return
    given = [f"--{k}" for k in ("tol", "iters") if getattr(args, k) is not None]
    if given and not {"fspr", "lfpr-o"} & set(args.algos if args.command == "sweep" else [args.algo]):
        raise ValueError(f"{', '.join(given)}: only --algo fspr and lfpr-o read them")
    args.tol, args.iters = args.tol or fspr.KKT_TOL, args.iters or fspr.MAX_DUAL_STEPS  # a given value is positive
    if args.command == "sweep":
        grid = [f"--{k.replace('_', '-')}" for k in GRID_FLAGS if getattr(args, k) is not None]
        if (args.edges is None) != (args.colors is None):
            raise ValueError("need both --edges and --colors")
        if args.edges is not None and grid:
            raise ValueError(f"{', '.join(grid)}: grid flags do not apply to --edges/--colors")
        if args.edges is None and args.grid_n is None:
            raise ValueError("sweep needs either --edges/--colors or a --grid-n synthetic grid")
        return
    targeted = [getattr(args, k, None) is not None for k in ("target_set", "target_protected")]
    if targeted[0] != targeted[1]:
        raise ValueError("targeted runs need both --target-set and --target-protected")
    if args.phi is not None:
        _check_phi(args.phi)
    elif args.algo != "opr":
        raise ValueError("--phi is required for this algorithm")
    if targeted[0] and args.algo not in ("fspr", *LFPR_KINDS):
        raise ValueError(f"targeted runs are not supported for --algo {args.algo}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _check_run(args)
        return args.func(args)
    except (FairprError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InfeasibleError) else 1


def entry() -> None:
    """The process entry of ``fairpr`` and ``python -m fairpr.cli``: ``main`` with the import-time
    heap frozen. Imported objects are never garbage, so the collector skips them at exit (~20 ms of
    a command) and in a sweep's forked workers. ``main`` itself does not freeze: a caller that
    runs it in-process, a test say, would have its own garbage cycles pinned."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
