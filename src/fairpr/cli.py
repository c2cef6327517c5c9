"""Command-line interface: rank, sweep, audit, generate.

Exit codes: 0 on success, 1 on input or usage errors, 2 when the
requested fairness target is infeasible.  All output files are written
deterministically (full-precision floats, sorted JSON keys), so reruns
with the same inputs and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis, fspr, graph, lfpr
from .errors import FairprError, InfeasibleError
from .pagerank import DEFAULT_GAMMA, pagerank, standard_transition, write_scores_csv

LFPR_KINDS = {
    "lfpr-n": lfpr.PolicyKind.NEIGHBORHOOD,
    "lfpr-u": lfpr.PolicyKind.UNIFORM,
    "lfpr-p": lfpr.PolicyKind.PROPORTIONAL,
}
ALGOS = ("opr", "fspr", "lfpr-n", "lfpr-u", "lfpr-p", "lfpr-o")


def _load_node_list(path) -> np.ndarray:
    rows = graph._int_rows(path, 1)
    if rows is not None:
        return rows[:, 0]
    nodes = []
    for lineno, line in graph._parse_lines(path):
        try:
            node = int(line)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: node id must be an integer, got {line!r}") from None
        if not -(2**63) <= node < 2**63:  # beyond int64, so beyond every graph
            raise ValueError(f"{path}:{lineno}: node id out of range, got {line!r}")
        nodes.append(node)
    if not nodes:
        raise ValueError(f"{path}: no node ids")
    return np.asarray(nodes, dtype=np.int64)


def _require_phi(phi):
    if phi is None:
        raise ValueError("--phi is required for this algorithm")
    return phi


def _solver_fields(algo, result, tol) -> dict:
    """Report fields of an iterative solve; an exhausted budget also warns on stderr."""
    if not result.converged:
        print(
            f"warning: {algo} stopped after {result.iterations} iterations with "
            f"KKT residual {result.kkt_residual:.3e} above --tol {tol:g}",
            file=sys.stderr,
        )
    return {"iterations": result.iterations, "converged": result.converged, "kkt_residual": result.kkt_residual}


def _lfpr_policy(g, algo, args, phi, gamma, p_o):
    """Residual policy of a global lfpr algorithm, plus lfpr-o's solver fields."""
    if algo != "lfpr-o":
        return lfpr.make_policy(LFPR_KINDS[algo], g, p_o=p_o), {}
    result = lfpr.optimize_residuals(g, phi, gamma, p_o, iterations=args.iters, tol=args.tol)
    return result.policy, _solver_fields(algo, result, args.tol)


def _rank_once(g, algo, args, phi, p_o, gamma, targets):
    """Scores plus algorithm-specific report fields for one configuration."""
    extras: dict = {"algorithm": algo}
    policy = None
    if targets is not None and algo not in ("fspr", "lfpr-n", "lfpr-u", "lfpr-p"):
        raise ValueError(f"targeted runs are not supported for --algo {algo}")

    if algo == "opr":
        return p_o, extras, policy
    phi = _require_phi(phi)
    if algo == "fspr":
        model = standard_transition(g)
        if targets is None:
            problem = fspr.fspr_problem(model, g, phi, gamma, p_o=p_o)
        else:
            problem = fspr.targeted_fspr_problem(
                model, g, targets[0], targets[1], phi, gamma, p_o=p_o
            )
        solution = fspr.solve_fspr(problem, tol=args.tol, max_iters=args.iters)
        scores = solution.scores
        extras.update(
            {
                "fairness_residual": solution.constraint_residual,
                "achieved_fairness": solution.achieved_fairness,
                "jump_vector": solution.x,
                **_solver_fields(algo, solution, args.tol),
            }
        )
    elif targets is None:
        policy, stats = _lfpr_policy(g, algo, args, phi, gamma, p_o)
        scores = lfpr.lfpr_pagerank(g, phi, policy, gamma)
        extras.update(stats)
    else:
        scores = lfpr.targeted_lfpr(g, targets[0], targets[1], phi, LFPR_KINDS[algo], gamma, p_o=p_o)
    return scores, extras, policy


def _policy_json(policy) -> str:
    """``write_json``'s bytes for the kind and the nonzero x and y entries, from json's C encoder."""
    text = '{\n  "kind": ' + json.dumps(policy.kind.value)
    for name, vec in (("x", policy.x), ("y", policy.y)):
        if vec is not None:
            nodes = np.flatnonzero(vec)
            body = json.dumps(dict(zip(map(str, nodes.tolist()), vec[nodes].tolist())),
                              sort_keys=True, separators=(",\n    ", ": "))
            text += f',\n  "{name}": ' + (body if nodes.size == 0 else "{\n    " + body[1:-1] + "\n  }")
    return text + "\n}\n"


def cmd_rank(args) -> int:
    g = graph.load_graph(args.edges, args.colors)
    gamma = args.gamma
    p_o = pagerank(standard_transition(g), gamma)
    targets = None
    if args.target_set or args.target_protected:
        if not (args.target_set and args.target_protected):
            raise ValueError("targeted runs need both --target-set and --target-protected")
        targets = (_load_node_list(args.target_set), _load_node_list(args.target_protected))

    scores, extras, policy = _rank_once(g, args.algo, args, args.phi, p_o, gamma, targets)
    phi = args.phi if args.phi is not None else g.n_red / g.n
    bound = None  # the global bound, unless the run is targeted
    if targets is not None:
        s_mask, sr_mask = graph._check_target_sets(g, *targets)
        bound = analysis.targeted_lower_bound_loss(p_o, s_mask, sr_mask, phi)
        target_mass = float(scores[s_mask].sum())
        protected_mass = float(scores[sr_mask].sum())
        residual = abs(protected_mass - phi * target_mass)
        extras.update(target_mass=target_mass, protected_target_mass=protected_mass,
                      targeted_residual=residual, fair=bool(residual <= analysis.FAIRNESS_TOL))
    report = analysis.make_report(scores, p_o, g, phi, gamma, lower_bound=bound)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_scores_csv(out / "scores.csv", scores)
    jump = extras.pop("jump_vector", None)
    if jump is not None:
        rows = map("{},{:.17g},{:.17g}\n".format, range(g.n), jump.tolist(), scores.tolist())
        with open(out / "solution.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write("node,jump_prob,score\n" + "".join(rows))
    if policy is not None:
        (out / "policy.json").write_text(_policy_json(policy), encoding="utf-8")
    analysis.write_json(out / "report.json", {**asdict(report), **extras})
    print(
        f"{args.algo}: red_mass={report.red_mass:.6f} loss={report.loss:.6e} "
        f"lower_bound_loss={report.lower_bound_loss:.6e}"
    )
    return 0


def _sweep_instances(args):
    if args.edges or args.colors:
        if not (args.edges and args.colors):
            raise ValueError("need both --edges and --colors")
        yield Path(args.edges).stem, graph.load_graph(args.edges, args.colors)
        return
    if args.grid_n is None:
        raise ValueError("sweep needs either --edges/--colors or a --grid-n synthetic grid")
    from . import synth  # only generating commands pay for the generator's import
    cell = 0
    for r in args.grid_r:
        for a_red in args.grid_alpha_red:
            for a_blue in args.grid_alpha_blue:
                for s in range(args.grid_seeds):
                    seed = int(synth.child_seed(args.seed, cell).generate_state(1)[0])
                    cell += 1
                    name = f"synth-r{r}-aR{a_red}-aB{a_blue}-s{s}"
                    try:
                        g = synth.generate(synth.SynthConfig(args.grid_n, r, a_red, a_blue, seed=seed))
                    except (ValueError, RuntimeError) as exc:
                        g = exc
                    yield name, g


def cmd_sweep(args) -> int:
    gamma = args.gamma
    rows = []
    ok_rows = 0
    infeasible_rows = 0
    for name, g in _sweep_instances(args):
        if isinstance(g, Exception):  # a grid cell the generator rejected
            rows += [[name, a, f"{p:.17g}", "", "", "", "error", str(g)] for a in args.algos for p in args.phis]
            continue
        p_o = pagerank(standard_transition(g), gamma)
        bounds: dict[float, float] = {}  # phi -> lower bound, shared by every algorithm
        for algo in args.algos:
            for phi in args.phis:
                try:
                    scores, _, _ = _rank_once(g, algo, args, phi, p_o, gamma, None)
                    mass = analysis.red_mass(scores, g)
                    if phi not in bounds:
                        bounds[phi] = analysis.lower_bound_loss(p_o, g, phi)
                    rows.append(
                        [
                            name,
                            algo,
                            f"{phi:.17g}",
                            f"{mass:.17g}",
                            f"{analysis.utility_loss(scores, p_o):.17g}",
                            f"{bounds[phi]:.17g}",
                            "ok",
                            "",
                        ]
                    )
                    ok_rows += 1
                except InfeasibleError as exc:
                    rows.append([name, algo, f"{phi:.17g}", "", "", "", "infeasible", str(exc)])
                    infeasible_rows += 1
                except (FairprError, ValueError) as exc:
                    rows.append([name, algo, f"{phi:.17g}", "", "", "", "error", str(exc)])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["instance", "algorithm", "phi", "red_mass", "loss", "lower_bound_loss", "status", "message"]
        )
        writer.writerows(rows)
    print(f"sweep: {ok_rows} ok, {len(rows) - ok_rows} failed rows -> {out / 'sweep.csv'}")
    if ok_rows:
        return 0
    return 2 if infeasible_rows == len(rows) and rows else 1


def cmd_audit(args) -> int:
    g = graph.load_graph(args.edges, args.colors)
    model = standard_transition(g)
    if args.algo != "opr":
        phi = _require_phi(args.phi)
        p_o = pagerank(model, args.gamma) if args.algo == "lfpr-p" else None  # lfpr-o solves its own
        policy, _ = _lfpr_policy(g, args.algo, args, phi, args.gamma, p_o)
        model = lfpr.build_residual_model(g, phi, policy)
    # phi = None audits against the red node share.
    audit = analysis.personalized_audit(
        model, g, args.gamma, args.phi, sample=args.sample, seed=args.seed
    )
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
    with open(out / "manifest.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("seed,r,alpha_R,alpha_B,n,red_pagerank\n")
        fh.write(
            f"{cfg.seed},{cfg.red_fraction:.17g},{cfg.alpha_red:.17g},"
            f"{cfg.alpha_blue:.17g},{cfg.n},{red_pr:.17g}\n"
        )
    print(f"generated n={g.n} edges={g.n_edges} red={g.n_red} red_pagerank={red_pr:.6f}")
    return 0


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (np.isfinite(tol) and tol > 0.0):
        raise argparse.ArgumentTypeError(f"tol must be a positive finite number, got {text}")
    return tol


def _count(name: str):
    """Parser of a positive integer option, named ``name`` in its message."""

    def parse(text: str) -> int:
        if not (text.isdecimal() and int(text) >= 1):
            raise argparse.ArgumentTypeError(f"{name} must be a positive integer, got {text}")
        return int(text)

    return parse


def _float_list(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok]
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
        p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
        p.add_argument("--out", default=".", help="output directory")
        if graph is None:
            return
        p.add_argument("--edges", required=graph == "required", help="edge TSV: src<TAB>dst")
        p.add_argument("--colors", required=graph == "required", help="color TSV: node<TAB>{0|1}, 1 = red")
        p.add_argument("--tol", type=_tolerance, default=1e-8, help="solver tolerance")
        p.add_argument("--iters", type=_count("iters"), default=5000,
                       help="budget of dual steps of the fspr and lfpr-o solver")

    p_rank = sub.add_parser("rank", help="compute one fair ranking")
    common(p_rank)
    p_rank.add_argument("--algo", choices=ALGOS, required=True)
    p_rank.add_argument("--phi", type=float, default=None, help="target red share")
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
    p_sweep.add_argument("--grid-n", type=int, default=None)
    p_sweep.add_argument("--grid-r", type=_float_list, default=[0.3])
    p_sweep.add_argument("--grid-alpha-red", type=_float_list, default=[0.5])
    p_sweep.add_argument("--grid-alpha-blue", type=_float_list, default=[0.5])
    p_sweep.add_argument("--grid-seeds", type=_count("grid-seeds"), default=1)
    p_sweep.add_argument("--seed", type=int, default=0, help="seed of the synthetic grid")
    p_sweep.set_defaults(func=cmd_sweep)

    p_audit = sub.add_parser("audit", help="personalized fairness audit")
    common(p_audit)
    p_audit.add_argument("--algo", choices=[a for a in ALGOS if a != "fspr"], default="opr")
    p_audit.add_argument("--phi", type=float, default=None)
    p_audit.add_argument("--sample", type=_count("sample"), default=None, help="audit sample size")
    p_audit.add_argument("--seed", type=int, default=0, help="seed of the audit sample")
    p_audit.set_defaults(func=cmd_audit)

    p_gen = sub.add_parser("generate", help="grow a synthetic colored graph")
    common(p_gen, graph=None)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--r", type=float, required=True, help="red arrival probability")
    p_gen.add_argument("--alpha-red", type=float, required=True)
    p_gen.add_argument("--alpha-blue", type=float, required=True)
    p_gen.add_argument("--n0", type=int, default=10, help="seed ring size")
    p_gen.add_argument("--edges-per-node", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0, help="generator seed")
    p_gen.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FairprError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
