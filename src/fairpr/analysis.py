r"""Fairness metrics, the utility-loss lower bound, and per-node audits.

No fair vector is closer to the original scores than the Euclidean
projection of ``p_o`` onto the fair distributions, which
``lower_bound_vector`` computes with one ``project_fair_simplex`` call.
The global bound is the targeted one at S = all nodes and S_R = red.

The personalized audit asks a stronger question than aggregate fairness:
whose personal jump vector would be treated fairly?  For node ``i`` with
personalized scores ``PR_i``, the adjusted red mass

    a_i = PR_i(R) - gamma * [i is red]

removes the jump's own contribution; a model is personalized-fair when
``a_i = phi * (1 - gamma)`` for every node.  This holds for all nodes
simultaneously iff every row of the transition matrix sends exactly a
``phi`` share to red, which ``converse_check`` tests row by row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import ColoredGraph, _check_target_sets, write_rows
from .pagerank import DEFAULT_GAMMA, TransitionModel, _check_phi, absorption_vector
from .simplex import project_fair_simplex

FAIRNESS_TOL = 1e-7
AUDIT_FULL_NODES, AUDIT_SAMPLE_SIZE, AUDIT_BINS = 5000, 1000, 20


def red_mass(p: np.ndarray, g: ColoredGraph) -> float:
    """Total score mass on the red group."""
    return float(np.asarray(p, dtype=float)[g.red].sum())


def utility_loss(f: np.ndarray, p_o: np.ndarray) -> float:
    """Squared L2 distance between a fair vector and the original scores."""
    diff = np.asarray(f, dtype=float) - np.asarray(p_o, dtype=float)
    return float(diff @ diff)


def lower_bound_vector(p_o: np.ndarray, g: ColoredGraph, phi: float, s_mask=None, sr_mask=None) -> np.ndarray:
    """Fair vector closest to ``p_o``: the least possible utility loss.

    Every score vector ``w`` giving S_R a ``phi`` share of S's mass satisfies
    ``w >= 0``, ``sum w = 1`` and ``(1_SR - phi 1_S)' w = 0``, so the
    projection of ``p_o`` onto that set loses no more than any of them.  The
    masks default to the global case, S = all nodes and S_R = red.
    """
    s = np.ones(g.n) if s_mask is None else s_mask.astype(float)
    sr = g.red if sr_mask is None else sr_mask
    return project_fair_simplex(p_o, sr.astype(float) - _check_phi(phi) * s, 0.0)


def lower_bound_loss(p_o: np.ndarray, g: ColoredGraph, phi: float) -> float:
    return utility_loss(lower_bound_vector(p_o, g, phi), p_o)


def converse_check(m: TransitionModel, g: ColoredGraph, phi: float) -> bool:
    """True iff every row sends a ``phi`` share of its mass to red, to 1e-9."""
    return bool(np.abs(m.apply_right(g.red.astype(float)) - phi).max() <= 1e-9)


@dataclass(frozen=True)
class PersonalizedAudit:
    """Adjusted personalized red mass per audited node, plus histograms."""

    nodes: np.ndarray
    red: np.ndarray
    adjusted: np.ndarray
    fair: np.ndarray
    hist_edges: np.ndarray
    red_hist: np.ndarray
    blue_hist: np.ndarray

    @property
    def all_fair(self) -> bool:
        return bool(self.fair.all())

    @property
    def red_mean(self) -> float:
        vals = self.adjusted[self.red]
        return float(vals.mean()) if vals.size else float("nan")

    @property
    def blue_mean(self) -> float:
        vals = self.adjusted[~self.red]
        return float(vals.mean()) if vals.size else float("nan")


def audit_sample(n: int, sample: int | None) -> int | None:
    """Size of the sample an audit of ``n`` nodes draws, or None when it reports every node."""
    if sample is None and n > AUDIT_FULL_NODES:
        sample = AUDIT_SAMPLE_SIZE
    return None if sample is None or sample >= n else int(sample)


def personalized_audit(
    m: TransitionModel,
    g: ColoredGraph,
    gamma: float = DEFAULT_GAMMA,
    phi: float | None = None,
    sample: int | None = None,
    seed: int = 0,
    tol: float = FAIRNESS_TOL,
) -> PersonalizedAudit:
    """Audit per-node personalized fairness of a transition model.

    The adjusted values for all nodes come from one backward solve of
    ``Q e_R`` (identical to running a personalized PageRank per node).
    ``sample`` nodes are reported, a color-stratified draw seeded by
    ``seed``, or every node when ``sample >= n``.  ``None`` reports every
    node up to ``AUDIT_FULL_NODES`` nodes and ``AUDIT_SAMPLE_SIZE`` beyond.
    ``phi = None`` audits against the graph's red node share.
    """
    phi = g.n_red / g.n if phi is None else _check_phi(phi)
    adjusted_all = absorption_vector(m, g.red.astype(float), gamma) - gamma * g.red

    k = audit_sample(g.n, sample)
    if k is None:
        nodes = np.arange(g.n)  # every node: no draw, and no numpy.random import
    else:
        rng = np.random.default_rng(seed)
        k_red = int(round(k * g.n_red / g.n))
        k_red = min(max(k_red, 1), min(k - 1, g.n_red)) if k > 1 else 1
        k_blue = min(k - k_red, g.n_blue)
        nodes = np.sort(
            np.concatenate(
                [
                    rng.choice(g.red_nodes(), size=k_red, replace=False),
                    rng.choice(g.blue_nodes(), size=k_blue, replace=False),
                ]
            )
        )

    adjusted = adjusted_all[nodes]
    target = phi * (1.0 - gamma)
    fair = np.abs(adjusted - target) <= tol
    red = g.red[nodes]
    hist_edges = np.linspace(0.0, 1.0 - gamma, AUDIT_BINS + 1)
    red_hist, _ = np.histogram(adjusted[red], bins=hist_edges)
    blue_hist, _ = np.histogram(adjusted[~red], bins=hist_edges)
    return PersonalizedAudit(
        nodes=nodes,
        red=red,
        adjusted=adjusted,
        fair=fair,
        hist_edges=hist_edges,
        red_hist=red_hist,
        blue_hist=blue_hist,
    )


def make_report(scores, p_o, g: ColoredGraph, phi=None, gamma=DEFAULT_GAMMA, targets=None) -> dict:
    """report.json's fairness fields of ``scores``; ``phi = None`` means the red node share.

    ``targets``, the node ids ``(S, S_R)``, judges ``fair`` and the lower bound
    on ``PR(S_R) = phi PR(S)`` and adds the two target masses and the residual.
    """
    phi = g.n_red / g.n if phi is None else phi
    mass = red_mass(scores, g)
    report = {"phi": float(phi), "gamma": float(gamma), "red_mass": mass, "loss": utility_loss(scores, p_o)}
    if targets is None:
        return {**report, "fair": bool(abs(mass - phi) <= FAIRNESS_TOL),
                "lower_bound_loss": lower_bound_loss(p_o, g, phi)}
    s_mask, sr_mask = _check_target_sets(g, *targets)
    target_mass, protected_mass = float(scores[s_mask].sum()), float(scores[sr_mask].sum())
    residual = abs(protected_mass - phi * target_mass)
    bound = utility_loss(lower_bound_vector(p_o, g, phi, s_mask, sr_mask), p_o)
    return {**report, "fair": bool(residual <= FAIRNESS_TOL), "lower_bound_loss": bound,
            "target_mass": target_mass, "protected_target_mass": protected_mass, "targeted_residual": residual}


def write_json(path, payload: dict) -> None:
    """``json.dump(payload, indent=2, sort_keys=True)``'s bytes plus a newline.  A dict of scalars (a
    policy's nodes) goes through json's C encoder, spliced in: ~0.7x the indented encoder's time."""
    fields = []
    for key, value in sorted(payload.items()):
        kinds = set(map(type, value.values())) if isinstance(value, dict) and value else {dict}
        if not any(issubclass(kind, (dict, list, tuple)) for kind in kinds):  # a dict of scalars
            text = "{\n    " + json.dumps(value, sort_keys=True, separators=(",\n    ", ": "))[1:-1] + "\n  }"
        else:
            text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        fields.append(f"  {json.dumps(key)}: {text}")
    Path(path).write_text("{\n" + ",\n".join(fields) + "\n}\n" if fields else "{}\n", encoding="utf-8")


def write_audit_csv(audit: PersonalizedAudit, path) -> None:
    write_rows(path, "node,color,adjusted_red_mass,fair", "%d,%d,%.17g,%d",
               audit.nodes, audit.red, audit.adjusted, audit.fair)


def write_histogram_csv(audit: PersonalizedAudit, path) -> None:
    write_rows(path, "bin_lo,bin_hi,red_count,blue_count", "%.17g,%.17g,%d,%d",
               audit.hist_edges[:-1], audit.hist_edges[1:], audit.red_hist, audit.blue_hist)
