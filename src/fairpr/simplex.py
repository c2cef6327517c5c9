r"""Euclidean projections onto the probability simplex and slices of it.

``project_simplex`` is the classic sort-based O(n log n) thresholding
(Held, Wolfe & Crowder 1974; see also Wang & Carreira-Perpinan 2013).

``project_polyhedron`` projects onto ``{x >= 0, B x = c}`` for any k x n
``B``: ``x(lam) = max(z + B' lam, 0)`` at the minimizer of the convex dual
``||x(lam)||^2 / 2 - c' lam``, whose gradient is ``B x(lam) - c``.  A
semismooth Newton method on the k multipliers, with the generalized
Hessian ``B_S B_S'`` on the support S and an exact line search, finds it.
Every ``x(lam)`` is nonnegative and stationary with the right sign on its
zeros, so the search stops once ``B x = c`` holds to rounding.

``project_fair_simplex`` is the case ``B = [1; a]``: the simplex cut by
one more equality ``a' x = c``.  It runs on the rows ``[1; a - c]`` with
right-hand side ``(1, 0)``, the same set, so that where the support's
values of ``a`` nearly coincide the two multipliers need not grow large
and cancel, and both equalities hold to machine precision.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, InfeasibleError


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of ``v`` onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ar = np.arange(1, v.shape[0] + 1)
    rho = np.nonzero(u * ar > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def fair_rows(a: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """``(B, rhs)`` of ``{sum x = 1, a' x = c}``, written as ``sum x = 1, (a - c)' x = 0``."""
    return np.vstack([np.ones_like(a), a - c]), np.array([1.0, 0.0])


def project_fair_simplex(z: np.ndarray, a: np.ndarray, c: float) -> np.ndarray:
    """Project ``z`` onto ``{x >= 0, sum x = 1, a' x = c}``.

    Raises :class:`InfeasibleError` when ``c`` lies outside
    ``[min a, max a]``, in which case the set is empty.
    """
    z = np.asarray(z, dtype=float)
    a = np.asarray(a, dtype=float)
    amin, amax = float(a.min()), float(a.max())
    spread = amax - amin
    slack = 1e-12 * max(1.0, abs(amin), abs(amax))
    if c < amin - slack or c > amax + slack:
        raise InfeasibleError(
            f"target {c:.6g} outside attainable range [{amin:.6g}, {amax:.6g}]"
        )
    if spread <= slack:
        # Constraint is constant over the simplex: vacuous when it holds.
        return project_simplex(z)
    return project_polyhedron(z, *fair_rows(a, min(max(c, amin), amax)))[0]


def _line_minimum(y, w, cd):
    """Least ``t > 0`` minimizing ``||max(y + t w, 0)||^2 / 2 - t cd``.

    The derivative is nondecreasing and piecewise linear, so a Newton step
    that stays on its piece is exact; one leaving the bracket set by the
    derivative's signs halves it instead, or doubles ``t`` while it is open.
    """
    lo, hi, t = 0.0, np.inf, 1.0
    for _ in range(200):
        active = y + t * w > 0.0
        wa = w[active]
        g = wa @ (y[active] + t * wa) - cd
        if g == 0.0:
            return t
        lo, hi = (t, hi) if g < 0.0 else (lo, t)
        curv = wa @ wa
        t_new = t - g / curv if curv > 0.0 else np.inf
        if lo < t_new < hi:
            if np.array_equal(y + t_new * w > 0.0, active):
                return t_new
        else:
            t_new = 2.0 * t if np.isinf(hi) else 0.5 * (lo + hi)
            if not lo < t_new < hi:
                return t  # bracket exhausted at machine precision
        t = t_new
    return t


def project_polyhedron(
    z: np.ndarray, b: np.ndarray, c: np.ndarray, lam: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Project ``z`` onto ``{x >= 0, B x = c}``; returns ``x`` and the multipliers.

    ``B`` has full row rank; ``lam`` warm-starts the multipliers, by default
    at the projection onto ``B x = c`` alone.  Raises :class:`ConvergenceError`
    when the search stalls short of ``B x = c``, as it can where no ``x > 0``
    meets ``B x = c``.
    """
    z = np.asarray(z, dtype=float)
    norms = np.linalg.norm(b, axis=1)  # the search runs on unit rows
    b, c = b / norms[:, None], c / norms
    lam = np.linalg.solve(b @ b.T, c - b @ z) if lam is None else lam * norms
    k = b.shape[0]
    abs_b, abs_z = np.abs(b), np.abs(z)
    for step in range(100):
        y = z + lam @ b
        x = np.maximum(y, 0.0)
        r = b @ x - c
        # x = z + B'lam on the support carries the rounding of every term.
        size = abs_z + np.abs(lam) @ abs_b
        if np.all(np.abs(r) <= 1e-14 * (abs_b @ np.where(y > 0.0, size, 0.0) + np.abs(c))):
            return x, lam / norms
        # The exact line search stops on breakpoints; counting the coordinates
        # that sit on one keeps the Hessian from dropping the piece ahead.
        bs = b[:, y >= -1e-12 * size]
        h = bs @ bs.T
        # A tiny ridge keeps the step defined on a rank-deficient support; there it
        # points along the null space, and the line search finds its length.  A row
        # that barely meets the support gets less, down to 1e-6 of its own
        # curvature, or the ridge would swamp it and the step crawl.
        curv = np.diag(h)
        ridge = 1e-12 * (curv.sum() + 1.0) / k
        d = np.linalg.solve(h + np.diag(np.clip(1e-6 * curv, 1e-12 * ridge, ridge)), -r)
        lam_next = lam + _line_minimum(y, d @ b, c @ d) * d
        if step == 99 or (lam_next == lam).all():
            break  # out of steps, or none the line search finds moves lam
        lam = lam_next
    # Stalled.  Beside a much larger support coordinate, the small ones are
    # known only to its rounding, so B x = c is judged at that scale.
    top = np.max(size, where=y > 0.0, initial=0.0)
    if np.all(np.abs(r) <= 1e-13 * (abs_b.sum(axis=1) * top + np.abs(c))):
        return x, lam / norms
    raise ConvergenceError(f"polyhedron projection stalled with |Bx - c| = {np.abs(r).max():.3e}")
