r"""PageRank fixed points on structured transition models.

A transition model is a row-stochastic matrix stored as a sparse base plus a
sum of rank-one terms ``outer(delta, target)``.  Sink rows, fair-jump
redistribution, and residual policies are all rank-one corrections, so the
full matrix is never materialized: left and right products cost one sparse
matvec plus a dot product per term.

The sparse base is a numpy-only CSR container, :class:`SparseRows`; each
product is one ``np.bincount`` over its entries, which adds the same terms
in the same order as a CSR matvec of ``base`` (right) or of its transpose
(left), so no transpose is stored.  Keeping scipy out keeps its import, the
largest part of a CLI process's start-up, off every command.

The central fixed point is

    p' = (1 - gamma) p' M + gamma v'

with jump probability ``gamma`` and jump vector ``v``.  Writing
``Q = gamma [I - (1 - gamma) M]^{-1}``, the solution is ``p' = v' Q``; row
``i`` of ``Q`` is the personalized PageRank of node ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError
from .graph import ColoredGraph

DEFAULT_GAMMA = 0.15
DEFAULT_TOL = 1e-12
INNER_TOL = 1e-13  # inside the optimizers, whose gradients need exact products
DEFAULT_MAX_ITERS = 10_000


@dataclass(frozen=True)
class SparseRows:
    """Square CSR matrix: row ``i`` holds ``data[indptr[i]:indptr[i+1]]`` in
    the columns ``indices[indptr[i]:indptr[i+1]]``.  The arrays are not copied."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def n(self) -> int:
        return self.indptr.shape[0] - 1

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of every entry."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def left(self, p: np.ndarray) -> np.ndarray:
        """``p' A``; each column sums its entries in row order, as a CSR matvec of ``A'`` does."""
        return self._sum_into(self.indices, p.take(self.rows))

    def right(self, q: np.ndarray) -> np.ndarray:
        """``A q``; each row sums its entries in storage order, as a CSR matvec does."""
        return self._sum_into(self.rows, q.take(self.indices))

    def _sum_into(self, slots: np.ndarray, values: np.ndarray) -> np.ndarray:
        # bincount of no entries is int64 zeros, whatever the weights.
        return np.bincount(slots, weights=values * self.data, minlength=self.n).astype(float, copy=False)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n))
        np.add.at(dense, (self.rows, self.indices), self.data)
        return dense


@dataclass(frozen=True)
class TransitionModel:
    """Row-stochastic matrix: sparse base plus rank-one residual terms.

    The effective matrix is ``base + sum_k outer(delta_k, target_k)``.
    All entries are nonnegative and every row sums to one.
    """

    base: SparseRows
    residuals: tuple[tuple[np.ndarray, np.ndarray], ...] = ()

    @property
    def n(self) -> int:
        return self.base.n

    def apply_left(self, p: np.ndarray) -> np.ndarray:
        """Row-vector product ``p' M``."""
        out = self.base.left(p)
        for delta, target in self.residuals:
            out = out + (p @ delta) * target
        return out

    def apply_right(self, q: np.ndarray) -> np.ndarray:
        """Column-vector product ``M q``."""
        out = self.base.right(q)
        for delta, target in self.residuals:
            out = out + (target @ q) * delta
        return out

    def row_masses(self, mask: np.ndarray) -> np.ndarray:
        """Per-row mass sent into the node set ``mask`` (boolean or weights)."""
        return self.apply_right(np.asarray(mask, dtype=float))

    def to_dense(self) -> np.ndarray:
        dense = self.base.to_dense()
        for delta, target in self.residuals:
            dense += np.outer(delta, target)
        return dense


def from_dense(mat: np.ndarray) -> TransitionModel:
    mat = np.asarray(mat, dtype=float)
    rows, cols = np.nonzero(mat)
    indptr = np.zeros(mat.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=mat.shape[0]), out=indptr[1:])
    return TransitionModel(base=SparseRows(mat[rows, cols], cols, indptr))


def standard_transition(g: ColoredGraph) -> TransitionModel:
    """Uniform-over-out-neighbors transitions; sink rows jump uniformly."""
    out = g.out_degree.astype(float)
    safe = np.where(out > 0, out, 1.0)
    data = np.repeat(1.0 / safe, g.out_degree)
    residuals = ()
    if g.sinks.any():
        uniform = np.full(g.n, 1.0 / g.n)
        residuals = ((g.sinks.astype(float), uniform),)
    return TransitionModel(base=SparseRows(data, g.indices, g.indptr), residuals=residuals)


def check_distribution(v: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a 1-D probability vector")
    if v.min() < -tol:
        raise ValueError("probability vector has negative entries")
    if abs(v.sum() - 1.0) > tol:
        raise ValueError(f"probability vector sums to {v.sum():.12f}, not 1")
    return v


def power_iterate(
    m: TransitionModel,
    v: np.ndarray,
    gamma: float = DEFAULT_GAMMA,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> np.ndarray:
    """Solve ``p' = (1 - gamma) p' M + gamma v'`` by power iteration.

    Stops when the L1 step (equal to the fixed-point residual of the
    previous iterate) drops below ``tol``.  Deterministic for fixed inputs.
    """
    v = check_distribution(v)
    return solve_left(m, v, gamma, tol=tol, max_iters=max_iters)


def _check_gamma(gamma: float) -> float:
    """Outside (0, 1) the fixed-point maps below do not contract to a PageRank."""
    gamma = float(gamma)
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie strictly between 0 and 1, got {gamma}")
    return gamma


def _check_phi(phi: float) -> float:
    phi = float(phi)
    if not 0.0 < phi < 1.0:
        raise ValueError(f"phi must lie strictly between 0 and 1, got {phi}")
    return phi


def solve_left(m, v, gamma, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS, start=None):
    """Fixed point of ``p' = (1 - gamma) p' M + gamma v'`` for arbitrary v.

    The map is an L1 contraction with factor ``1 - gamma`` because M is
    row-stochastic, so this converges for any right-hand side, including
    the non-distribution vectors used inside gradient computations.
    """
    return _fixed_point(m.apply_left, v, gamma, np.add.reduce, tol, max_iters, start, "left")


def solve_right(m, r, gamma, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS, start=None):
    """Fixed point of ``q = gamma r + (1 - gamma) M q`` (max-norm contraction)."""
    return _fixed_point(m.apply_right, r, gamma, np.maximum.reduce, tol, max_iters, start, "right")


def _fixed_point(apply, r, gamma, reduce, tol, max_iters, start, side):
    """Iterate ``x <- (1 - gamma) apply(x) + gamma r`` until ``reduce(|step|) <= tol``.

    ``reduce`` is ``np.add.reduce`` (L1) or ``np.maximum.reduce`` (max norm):
    the same bits as ``.sum()``/``.max()``, without ``np.sum``'s dispatch.
    """
    gamma = _check_gamma(gamma)
    r = np.asarray(r, dtype=float)
    x = r.copy() if start is None else np.asarray(start, dtype=float).copy()
    jump, diff = gamma * r, np.empty_like(x)
    for _ in range(max_iters):
        x_next = apply(x)
        x_next *= 1.0 - gamma
        x_next += jump
        step = reduce(np.abs(np.subtract(x_next, x, out=diff), out=diff))
        x = x_next
        if step <= tol:
            return x
    raise ConvergenceError(f"{side} fixed point not within {tol} after {max_iters} iterations")


def pagerank(m: TransitionModel, gamma: float = DEFAULT_GAMMA, tol: float = DEFAULT_TOL) -> np.ndarray:
    """PageRank with the uniform jump vector."""
    v = np.full(m.n, 1.0 / m.n)
    return power_iterate(m, v, gamma, tol=tol)


def personalized_pagerank(
    m: TransitionModel, i: int, gamma: float = DEFAULT_GAMMA, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """PageRank personalized to node ``i`` (jump vector = indicator of i)."""
    v = np.zeros(m.n)
    v[i] = 1.0
    return power_iterate(m, v, gamma, tol=tol)


def absorption_vector(m: TransitionModel, mask: np.ndarray, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Per-start-node mass absorbed by ``mask``: the vector ``Q mask``.

    Entry ``j`` equals the personalized PageRank of ``j`` summed over the
    set, computed backward in one solve instead of n forward solves.  The
    final max-norm error is at most ``INNER_TOL * (1 - gamma) / gamma``.
    """
    return solve_right(m, np.asarray(mask, dtype=float), gamma, tol=INNER_TOL)


def red_absorption_vector(m: TransitionModel, g: ColoredGraph, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Vector of personalized red masses ``Q e_R`` (one backward solve)."""
    return absorption_vector(m, g.red.astype(float), gamma)


def dense_q(m: TransitionModel, gamma: float = DEFAULT_GAMMA, cap: int = 2000) -> np.ndarray:
    """Dense resolvent ``Q = gamma [I - (1 - gamma) M]^{-1}``.

    Row i is the personalized PageRank of node i; Q is row-stochastic.
    Quadratic memory, so refuse beyond ``cap`` nodes.
    """
    gamma = _check_gamma(gamma)
    if m.n > cap:
        raise ValueError(f"dense resolvent limited to {cap} nodes, got {m.n}")
    a = np.eye(m.n) - (1.0 - gamma) * m.to_dense()
    return gamma * np.linalg.inv(a)


def write_scores_csv(path, scores: np.ndarray) -> None:
    """Write ``node,score`` rows at full float precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("node,score\n" + "".join(map("{},{:.17g}\n".format, range(len(scores)), scores.tolist())))
