r"""Fairness metrics, the utility-loss lower bound, and per-node audits.

No fair vector is closer to the original scores than the Euclidean
projection of ``p_o`` onto the fair distributions, which
``lower_bound_vector`` computes with one ``project_fair_simplex`` call.
The global bound is the targeted one at S = all nodes and S_R = red, so
``targeted_lower_bound_loss`` runs the same projection.

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

import numpy as np

from .graph import ColoredGraph
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


def lower_bound_vector(p_o: np.ndarray, g: ColoredGraph, phi: float) -> np.ndarray:
    """Fair vector closest to ``p_o``: the least possible utility loss.

    The projection of ``p_o`` onto ``{w >= 0, sum w = 1, red mass = phi}``,
    which is the targeted projection at S = all nodes and S_R = red.
    """
    return _fair_projection(p_o, np.ones(g.n, dtype=bool), g.red, _check_phi(phi))


def lower_bound_loss(p_o: np.ndarray, g: ColoredGraph, phi: float) -> float:
    return utility_loss(lower_bound_vector(p_o, g, phi), p_o)


def targeted_lower_bound_loss(
    p_o: np.ndarray, s_mask: np.ndarray, sr_mask: np.ndarray, phi: float
) -> float:
    """Least loss of any distribution giving S_R a ``phi`` share of S's mass.

    Every targeted-fair score vector ``w`` satisfies ``w >= 0``,
    ``sum w = 1`` and ``(1_SR - phi 1_S)' w = 0``, so the projection of
    ``p_o`` onto that set loses no more than any of them.
    """
    return utility_loss(_fair_projection(p_o, s_mask, sr_mask, phi), p_o)


def _fair_projection(p_o, s_mask, sr_mask, phi) -> np.ndarray:
    """Projection of ``p_o`` onto ``{w >= 0, sum w = 1, (1_SR - phi 1_S)' w = 0}``."""
    a = sr_mask.astype(float) - phi * s_mask.astype(float)
    return project_fair_simplex(p_o, a, 0.0)


def converse_check(m: TransitionModel, g: ColoredGraph, phi: float, tol: float = 1e-9) -> bool:
    """True iff every row sends a ``phi`` share of its mass to red."""
    return bool(np.abs(m.apply_right(g.red.astype(float)) - phi).max() <= tol)


@dataclass(frozen=True)
class PersonalizedAudit:
    """Adjusted personalized red mass per audited node, plus histograms."""

    phi: float
    gamma: float
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


def personalized_audit(
    m: TransitionModel,
    g: ColoredGraph,
    gamma: float = DEFAULT_GAMMA,
    phi: float | None = None,
    sample=None,
    seed: int = 0,
    tol: float = FAIRNESS_TOL,
) -> PersonalizedAudit:
    """Audit per-node personalized fairness of a transition model.

    The adjusted values for all nodes come from one backward solve of
    ``Q e_R`` (identical to running a personalized PageRank per node).
    ``sample`` picks which nodes are reported: ``None`` reports everything
    up to ``AUDIT_FULL_NODES`` nodes and a color-stratified sample beyond
    that; an int requests that sample size, every node from ``n`` up; an
    array gives explicit ids.
    ``phi = None`` audits against the graph's red node share.
    """
    phi = g.n_red / g.n if phi is None else _check_phi(phi)
    adjusted_all = absorption_vector(m, g.red.astype(float), gamma) - gamma * g.red

    if sample is None and g.n > AUDIT_FULL_NODES:
        sample = AUDIT_SAMPLE_SIZE
    if sample is None or (np.isscalar(sample) and sample >= g.n):
        nodes = np.arange(g.n)  # every node: no draw, and no numpy.random import
    elif np.isscalar(sample):
        k = int(min(sample, g.n))
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
    else:
        nodes = np.unique(np.asarray(sample, dtype=np.int64))
        if nodes.size and (nodes.min() < 0 or nodes.max() >= g.n):
            raise ValueError("audit sample contains out-of-range node ids")

    adjusted = adjusted_all[nodes]
    target = phi * (1.0 - gamma)
    fair = np.abs(adjusted - target) <= tol
    red = g.red[nodes]
    hist_edges = np.linspace(0.0, 1.0 - gamma, AUDIT_BINS + 1)
    red_hist, _ = np.histogram(adjusted[red], bins=hist_edges)
    blue_hist, _ = np.histogram(adjusted[~red], bins=hist_edges)
    return PersonalizedAudit(
        phi=float(phi),
        gamma=float(gamma),
        nodes=nodes,
        red=red,
        adjusted=adjusted,
        fair=fair,
        hist_edges=hist_edges,
        red_hist=red_hist,
        blue_hist=blue_hist,
    )


@dataclass(frozen=True)
class FairnessReport:
    phi: float
    gamma: float
    red_mass: float
    fair: bool
    loss: float
    lower_bound_loss: float


def make_report(
    scores: np.ndarray,
    p_o: np.ndarray,
    g: ColoredGraph,
    phi: float,
    gamma: float = DEFAULT_GAMMA,
    lower_bound: float | None = None,
) -> FairnessReport:
    """Fairness and loss of ``scores``; ``lower_bound`` defaults to the global bound."""
    mass = red_mass(scores, g)
    if lower_bound is None:
        lower_bound = lower_bound_loss(p_o, g, phi)
    return FairnessReport(
        phi=float(phi),
        gamma=float(gamma),
        red_mass=mass,
        fair=bool(abs(mass - phi) <= FAIRNESS_TOL),
        loss=utility_loss(scores, p_o),
        lower_bound_loss=lower_bound,
    )


def write_json(path, payload: dict) -> None:
    """Indented JSON with sorted keys, so reruns write identical bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_audit_csv(audit: PersonalizedAudit, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        # % writes str.format's digits in ~0.7x its time (n = 30,000: 46 -> 31 ms).
        rows = zip(audit.nodes.tolist(), audit.red.tolist(), audit.adjusted.tolist(), audit.fair.tolist())
        fh.write("node,color,adjusted_red_mass,fair\n" + "".join(["%d,%d,%.17g,%d\n" % row for row in rows]))


def write_histogram_csv(audit: PersonalizedAudit, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("bin_lo,bin_hi,red_count,blue_count\n")
        for i in range(audit.red_hist.size):
            fh.write(
                f"{audit.hist_edges[i]:.17g},{audit.hist_edges[i + 1]:.17g},"
                f"{audit.red_hist[i]},{audit.blue_hist[i]}\n"
            )
