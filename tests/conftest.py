"""Shared builders and independent oracles for the test suite."""

import numpy as np

from fairpr.graph import ColoredGraph, from_edges
from fairpr.pagerank import TransitionModel


def random_colored_graph(rng, n, avg_out=3.0, red_frac=0.3, sink_frac=0.0):
    """Random digraph with both colors present; optional guaranteed sinks."""
    n_red = max(1, min(n - 1, int(round(red_frac * n))))
    red = np.zeros(n, dtype=bool)
    red[rng.choice(n, size=n_red, replace=False)] = True

    n_sinks = int(round(sink_frac * n))
    sinks = set(rng.choice(n, size=n_sinks, replace=False).tolist()) if n_sinks else set()

    edges = []
    for u in range(n):
        if u in sinks:
            continue
        k = min(n - 1, 1 + rng.poisson(max(avg_out - 1.0, 0.0)))
        targets = rng.choice(n, size=k, replace=False)
        for v in targets:
            if int(v) != u:
                edges.append((u, int(v)))
    if not edges:
        edges.append((0, 1))
    return from_edges(n, sorted(set(edges)), red)


def count_products(monkeypatch):
    """A list that gains one entry per ``TransitionModel`` product from now on."""
    calls = []
    for name in ("apply_left", "apply_right"):
        product = getattr(TransitionModel, name)
        monkeypatch.setattr(TransitionModel, name, lambda self, v, f=product: calls.append(1) or f(self, v))
    return calls


def row_fair_matrix(rng, red, phi):
    """Dense stochastic matrix whose every row puts mass phi on red columns."""
    red = np.asarray(red, dtype=bool)
    n = red.size
    assert red.any() and (~red).any()
    mat = rng.uniform(0.1, 1.0, size=(n, n))
    mat[:, red] *= phi / mat[:, red].sum(axis=1, keepdims=True)
    mat[:, ~red] *= (1.0 - phi) / mat[:, ~red].sum(axis=1, keepdims=True)
    return mat


def clipped_lower_bound_oracle(p_o, red, phi, steps=200):
    """Independent water-filling solve of min ||x - p_o||^2 on the fair simplex.

    Within each color class the optimum is a clipped shift x_i = max(p_i + t, 0)
    with the shift t chosen so the class hits its mass budget; found by bisection.
    """
    red = np.asarray(red, dtype=bool)

    def fill(values, budget):
        lo = -float(values.max())
        hi = float(budget)
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            if np.maximum(values + mid, 0.0).sum() > budget:
                hi = mid
            else:
                lo = mid
        return np.maximum(values + 0.5 * (lo + hi), 0.0)

    x = np.empty_like(np.asarray(p_o, dtype=float))
    x[red] = fill(p_o[red], phi)
    x[~red] = fill(p_o[~red], 1.0 - phi)
    return x
