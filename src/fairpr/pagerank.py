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

Solves take plain steps ``x <- T(x)`` of this map and, after every ``CYCLE``
of them, restart from the affine mix of the cycle's images whose residuals
``T(x) - x`` mix to the least 2-norm (reduced-rank extrapolation, or restarted
Anderson mixing): about half the products.  T contracts by ``1 - gamma``, so
``|T(x) - x| <= tol`` bounds the error of ``T(x)`` by ``tol (1 - gamma) / gamma``
for any x; the stop test is on the point whose image is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError
from .graph import ColoredGraph, write_rows

DEFAULT_GAMMA = 0.15
DEFAULT_TOL = 1e-12
# The optimizers' floor: their problem data and the forward and adjoint solves
# that certify the points they return stop at this step.
INNER_TOL = 1e-13
# Plain fixed-point steps between two extrapolations.
CYCLE = 6
DEFAULT_MAX_ITERS = 10_000
DISTRIBUTION_TOL = 1e-9  # check_distribution's slack on negative entries and on the sum


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
        # The product overwrites the caller's fresh gather; bincount of no entries is int64 zeros.
        weights = np.multiply(values, self.data, out=values)
        return np.bincount(slots, weights=weights, minlength=self.n).astype(float, copy=False)

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
            out += (p @ delta) * target
        return out

    def apply_right(self, q: np.ndarray) -> np.ndarray:
        """Column-vector product ``M q``."""
        out = self.base.right(q)
        for delta, target in self.residuals:
            out += (target @ q) * delta
        return out

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


def check_distribution(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a 1-D probability vector")
    if v.min() < -DISTRIBUTION_TOL:
        raise ValueError("probability vector has negative entries")
    if abs(v.sum() - 1.0) > DISTRIBUTION_TOL:
        raise ValueError(f"probability vector sums to {v.sum():.12f}, not 1")
    return v


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


def solve_left(m, v, gamma, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS, start=None, counts=None):
    """Fixed point of ``p' = (1 - gamma) p' M + gamma v'`` for arbitrary v.

    The map is an L1 contraction with factor ``1 - gamma`` because M is
    row-stochastic, so this converges for any right-hand side, including
    the non-distribution vectors used inside gradient computations.  The
    final L1 error is at most ``tol * (1 - gamma) / gamma``, extrapolated or
    not.  A ``counts`` mapping, if given, has its ``"matvecs"`` entry raised
    by the products the solve spent.
    """
    return _fixed_point(m.apply_left, v, gamma, np.add.reduce, tol, max_iters, start, "left", counts)


def solve_right(m, r, gamma, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS, start=None, counts=None):
    """Fixed point of ``q = gamma r + (1 - gamma) M q`` (max-norm contraction).

    The final max-norm error is at most ``tol * (1 - gamma) / gamma``;
    ``counts`` as in :func:`solve_left`.
    """
    return _fixed_point(m.apply_right, r, gamma, np.maximum.reduce, tol, max_iters, start, "right", counts)


def _fixed_point(apply, r, gamma, reduce, tol, max_iters, start, side, counts):
    """Step ``x <- T(x) = (1 - gamma) apply(x) + gamma r`` until ``reduce(|T(x) - x|) <= tol``,
    restarting from the extrapolated point after every ``CYCLE`` steps (see the module docstring).

    ``reduce`` is ``np.add.reduce`` (L1) or ``np.maximum.reduce`` (max norm):
    the same bits as ``.sum()``/``.max()``, without ``np.sum``'s dispatch.
    Adds its step count to ``counts["matvecs"]`` unless ``counts`` is None.
    """
    gamma = _check_gamma(gamma)
    r = np.asarray(r, dtype=float)
    x = r.copy() if start is None else np.asarray(start, dtype=float).copy()
    jump, diff = gamma * r, np.empty_like(x)
    images, residuals = np.empty((CYCLE, x.size)), np.empty((CYCLE, x.size))
    step, steps = np.inf, 0
    while steps < max_iters:
        x_next = np.multiply(apply(x), 1.0 - gamma, out=images[steps % CYCLE])
        x_next += jump
        step = reduce(np.abs(np.subtract(x_next, x, out=residuals[steps % CYCLE]), out=diff))
        x = x_next
        steps += 1
        if step <= tol:
            break
        if steps % CYCLE == 0:  # weights summing to 1 that mix the residuals to the least 2-norm
            h = residuals @ residuals.T  # the Gram matrix of residual differences, from one pass
            gram = h[:-1, :-1] - h[:-1, -1:] - h[-1:, :-1] + h[-1, -1]
            gram += 1e-12 * gram.trace() * np.eye(CYCLE - 1)
            try:
                coef = np.linalg.solve(gram, h[-1, -1] - h[:-1, -1])
            except np.linalg.LinAlgError:
                continue
            mix = np.append(coef, 1.0 - coef.sum()) @ images if np.isfinite(coef).all() else x
            x = x if mix.min() < 0.0 <= x.min() else mix  # a nonnegative image mixes to a nonnegative x
    if counts is not None:
        counts["matvecs"] += steps
    if step <= tol:
        return x.copy()  # not a view that keeps the cycle buffers alive
    raise ConvergenceError(
        f"{side} fixed point not within {tol} after {max_iters} iterations (last step {step:.3e})"
    )


def pagerank(m: TransitionModel, gamma: float = DEFAULT_GAMMA, tol: float = DEFAULT_TOL) -> np.ndarray:
    """PageRank with the uniform jump vector."""
    v = np.full(m.n, 1.0 / m.n)
    return solve_left(m, check_distribution(v), gamma, tol=tol)


def personalized_pagerank(m: TransitionModel, i: int, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """PageRank personalized to node ``i`` (jump vector = indicator of i)."""
    v = np.zeros(m.n)
    v[i] = 1.0
    return solve_left(m, check_distribution(v), gamma)


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
    write_rows(path, "node,score", "%d,%.17g", range(len(scores)), scores)
