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

The draws come from ``default_rng(child_seed(seed, attempt))``, but not
through its scalar methods, which cost about a microsecond a call.
``_draws`` reads the raw 64-bit PCG64 words in blocks
(``bit_generator.random_raw``) and derives from them, in Python ints, the
values the Generator returns for the same sequence of calls, because it
repeats numpy's own arithmetic on the same words:

- ``Generator.random()`` takes one word ``w`` and returns
  ``(w >> 11) * 2**-53``, exact in a double.
- ``Generator.integers(high)``, for ``high <= 2**32``, is Lemire's bounded
  draw on 32-bit values (Lemire, "Fast random integer generation in an
  interval", ACM TOMACS 2019): ``m = x * high`` for a 32-bit ``x``, redrawn
  while the low 32 bits of ``m`` fall below ``2**32 % high``, and the
  result is ``m >> 32``.  PCG64 serves 32-bit values from a word's low half
  and keeps its high half for the next 32-bit request; ``random()``
  neither uses nor drops the kept half.

Nothing else draws from an attempt's generator, so reading ahead of it is
safe.  A graph depends only on its seed and config, and is the one the
Generator's scalar calls grow.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graph import ColoredGraph, from_edges

logger = logging.getLogger(__name__)

_BLOCK = 4096  # raw words read from the bit generator at a time
MAX_EDGE_DRAWS = 10**6  # candidate draws one edge may spend before generate gives up
_MASK32 = 0xFFFFFFFF


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
        # _draws' 32-bit bounded draw holds for lists of at most 2**32 endpoints.
        endpoints = 2 * (self.n0 + (self.n - self.n0) * self.edges_per_node)
        if endpoints >= 2**32:
            raise ValueError(
                f"the endpoint list 2*(n0 + (n - n0)*edges_per_node) = {endpoints} "
                "must stay below 2**32"
            )


def child_seed(seed: int, index: int) -> np.random.SeedSequence:
    """Deterministic per-cell seed stream: ``SeedSequence([seed, index])``."""
    return np.random.SeedSequence([int(seed), int(index)])


def _seed_colors(n0: int, red_fraction: float) -> np.ndarray:
    """Evenly spread ceil(n0 * r) red nodes over the seed ring."""
    target = int(np.ceil(n0 * red_fraction))
    pos = np.arange(n0)
    return ((pos + 1) * target) // n0 > (pos * target) // n0


def _draws(bit_generator):
    """``(random, integers)``: the values ``Generator.random()`` and
    ``Generator.integers(high)`` return for a fresh Generator over
    ``bit_generator``, interleaved in any order, for ``1 <= high <= 2**32``.

    Reads ahead of the Generator in blocks, so ``bit_generator`` must serve
    no other caller.
    """
    words: list[int] = []
    pos = _BLOCK
    upper = None  # the high half of the last word, for the next 32-bit draw

    def random() -> float:
        nonlocal words, pos
        if pos == _BLOCK:
            words, pos = bit_generator.random_raw(_BLOCK).tolist(), 0
        pos += 1
        return (words[pos - 1] >> 11) * 2.0**-53

    def integers(high: int) -> int:
        nonlocal words, pos, upper
        if high == 1:
            return 0  # numpy draws no word for a one-value range
        while True:
            if upper is None:
                if pos == _BLOCK:
                    words, pos = bit_generator.random_raw(_BLOCK).tolist(), 0
                word = words[pos]
                pos += 1
                upper = word >> 32
                m = (word & _MASK32) * high
            else:
                m, upper = upper * high, None
            # Lemire's test: keep m unless its low half is below 2**32 % high,
            # which is itself below high.
            if m & _MASK32 >= high or m & _MASK32 >= 2**32 % high:
                return m >> 32

    return random, integers


def generate(cfg: SynthConfig) -> ColoredGraph:
    """Grow one synthetic graph; deterministic for a fixed config.

    Regenerates, up to ten times, with a shifted stream in the rare case a
    color group ends up empty (possible only for tiny n or extreme ``red_fraction``).
    Raises ``ValueError`` when it runs out of attempts, or when one edge takes
    ``MAX_EDGE_DRAWS`` candidate draws (a homophily within ~1e-6 of 0 or 1).
    """
    for attempt in range(10):
        random, integers = _draws(np.random.default_rng(child_seed(cfg.seed, attempt)).bit_generator)
        red = _seed_colors(cfg.n0, cfg.red_fraction).tolist() + [False] * (cfg.n - cfg.n0)
        # Consecutive pairs are the undirected links, ring first.
        endpoints = [v for i in range(cfg.n0) for v in (i, (i + 1) % cfg.n0)]

        for v in range(cfg.n0, cfg.n):
            is_red = random() < cfg.red_fraction
            red[v] = is_red
            alpha = cfg.alpha_red if is_red else cfg.alpha_blue
            other = 1.0 - alpha
            chosen: set[int] = set()
            for _ in range(cfg.edges_per_node):
                size = len(endpoints)
                for _ in range(MAX_EDGE_DRAWS):
                    u = endpoints[integers(size)]
                    if u == v or u in chosen:
                        continue
                    if random() < (alpha if red[u] == is_red else other):
                        break
                else:
                    name = "alpha_red" if is_red else "alpha_blue"
                    raise ValueError(
                        f"node {v} drew {MAX_EDGE_DRAWS} candidate endpoints without "
                        f"accepting an edge: {name}={alpha!r} is too close to 0 or 1"
                    )
                chosen.add(u)
                endpoints.append(v)
                endpoints.append(u)

        if any(red) and not all(red):
            links = np.array(endpoints, dtype=np.int64).reshape(-1, 2)
            graph = from_edges(cfg.n, np.concatenate([links, links[:, ::-1]]), red)
            if attempt > 0:
                logger.warning("regenerated graph %d time(s) to get both colors", attempt)
            return graph
    raise ValueError("could not generate a graph with both color groups")
