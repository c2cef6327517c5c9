"""Synthetic colored graphs grown by biased preferential attachment.

Nodes arrive one at a time, are colored red with probability ``r``, and
attach to existing nodes picked proportionally to degree.  A candidate
endpoint of the same color is accepted with the arriving node's homophily
parameter ``alpha`` (``1 - alpha`` for the other color), retrying until an
edge is accepted, so ``alpha > 0.5`` yields homophilic groups and
``alpha < 0.5`` heterophilic ones.  Every undirected link is stored as two
directed edges.

Degree-proportional sampling uses the endpoint-list trick: every accepted
edge appends both endpoints to a list, and uniform draws from the list are
degree-weighted draws over nodes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graph import ColoredGraph, from_edges

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SynthConfig:
    n: int
    red_fraction: float
    alpha_red: float
    alpha_blue: float
    seed: int = 0
    n0: int = 10
    edges_per_node: int = 1

    def __post_init__(self):
        if self.n0 < 3 or self.n < self.n0:
            raise ValueError("need n >= n0 >= 3")
        if not 0.0 < self.red_fraction < 1.0:
            raise ValueError("red_fraction must lie strictly between 0 and 1")
        for name in ("alpha_red", "alpha_blue"):
            val = getattr(self, name)
            if not 0.0 < val < 1.0:
                raise ValueError(f"{name} must lie strictly between 0 and 1")
        if self.edges_per_node < 1:
            raise ValueError("edges_per_node must be at least 1")
        if self.edges_per_node >= self.n0:
            raise ValueError("edges_per_node must be below the seed size n0")


def child_seed(seed: int, index: int) -> np.random.SeedSequence:
    """Deterministic per-cell seed stream: ``SeedSequence([seed, index])``."""
    return np.random.SeedSequence([int(seed), int(index)])


def _seed_colors(n0: int, red_fraction: float) -> np.ndarray:
    """Evenly spread ceil(n0 * r) red nodes over the seed ring."""
    target = int(np.ceil(n0 * red_fraction))
    pos = np.arange(n0)
    return ((pos + 1) * target) // n0 > (pos * target) // n0


def generate(cfg: SynthConfig) -> ColoredGraph:
    """Grow one synthetic graph; deterministic for a fixed config.

    Regenerates, up to ten times, with a shifted stream in the rare case a
    color group ends up empty (possible only for tiny n or extreme ``red_fraction``).
    """
    for attempt in range(10):
        rng = np.random.default_rng(child_seed(cfg.seed, attempt))
        red = np.zeros(cfg.n, dtype=bool)
        red[: cfg.n0] = _seed_colors(cfg.n0, cfg.red_fraction)

        undirected = [(i, (i + 1) % cfg.n0) for i in range(cfg.n0)]
        endpoints = [v for e in undirected for v in e]

        for v in range(cfg.n0, cfg.n):
            is_red = rng.random() < cfg.red_fraction
            red[v] = is_red
            alpha = cfg.alpha_red if is_red else cfg.alpha_blue
            chosen: set[int] = set()
            for _ in range(cfg.edges_per_node):
                while True:
                    u = endpoints[rng.integers(len(endpoints))]
                    if u == v or u in chosen:
                        continue
                    accept = alpha if red[u] == is_red else 1.0 - alpha
                    if rng.random() < accept:
                        break
                chosen.add(u)
                undirected.append((v, u))
                endpoints.append(v)
                endpoints.append(u)

        if red.any() and not red.all():
            edges = [(a, b) for a, b in undirected] + [(b, a) for a, b in undirected]
            graph = from_edges(cfg.n, edges, red)
            if attempt > 0:
                logger.warning("regenerated graph %d time(s) to get both colors", attempt)
            return graph
    raise RuntimeError("could not generate a graph with both color groups")
