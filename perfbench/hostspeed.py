"""How fast the host runs right now, measured by a fixed task.

On a shared host the speed of the same single-threaded work drifts by a
third and more over minutes, as neighbours load the machine, and every
command of a run drifts with it.  The benchmark times this fixed task
before every set-up and every command and scales its times by
``REFERENCE_S / mean task time``: seconds on a host that runs the task in
``REFERENCE_S``.  The task mixes what ``fairpr`` spends its time on (sparse
and dense products, sorting, Python loops, text formatting) and touches
nothing of ``fairpr``, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from scipy import sparse

# About the mean task time on the 2-core machine the benchmark was written on.
REFERENCE_S = 0.015


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        n, nnz = 20000, 80000
        ends = rng.integers(0, n, size=(2, nnz))
        self.matrix = sparse.csr_matrix((rng.random(nnz), (ends[0], ends[1])), shape=(n, n))
        self.vector = rng.random(n)
        self.keys = rng.random(100000)
        self.dense = rng.random((400, 400))
        self.block = rng.random((64, 400))
        self.samples: list[float] = []

    def sample(self, count: int = 5) -> None:
        for _ in range(count):
            start = perf_counter()
            for _ in range(10):
                self.matrix @ self.vector
            for _ in range(10):
                self.block @ self.dense
            np.sort(self.keys)
            total = 0
            for i in range(50000):
                total += i * i
            "".join(f"{i}\t{i}\n" for i in range(10000))
            self.samples.append(perf_counter() - start)

    @property
    def factor(self) -> float:
        """Reference seconds per measured second over every sample so far."""
        return REFERENCE_S / statistics.fmean(self.samples)
