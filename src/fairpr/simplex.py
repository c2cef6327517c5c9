r"""Euclidean projections onto the probability simplex and slices of it.

``project_simplex`` is the classic sort-based O(n log n) thresholding
(Held, Wolfe & Crowder 1974; see also Wang & Carreira-Perpinan 2013).

``project_fair_simplex`` projects onto the simplex intersected with one
extra linear equality ``a' x = c``.  By KKT the solution has the form
``x = max(z + mu + nu a, 0)`` for scalars (mu, nu); for fixed nu the inner
problem is a plain simplex projection, and the map

    h(nu) = a' P_simplex(z + nu a) - c

is monotone nondecreasing and piecewise linear in nu: on a fixed support
it is linear, and its root there is the (mu, nu) of a 2x2 system.  The
search is therefore a Newton method on the support (Kiwiel 2008; Condat
2016): each step projects once at nu, solves the 2x2 system on the
support it finds, and stops when that support passes the KKT check.
Otherwise the root becomes the next nu, safeguarded to the open bracket
that the signs of h have established; a root outside it falls back to
halving the bracket, or to growing it while one side is still open.
A few steps suffice in practice.  The search runs on ``a - c`` with
target 0, which changes neither h nor the projection but keeps the 2x2
solve accurate when the support's values of ``a`` nearly coincide, so
both equalities hold to machine precision.

``project_polyhedron`` projects onto ``{x >= 0, B x = c}`` for any k x n
``B``: ``x(lam) = max(z + B' lam, 0)`` at the minimizer of the convex dual
``||x(lam)||^2 / 2 - c' lam``, whose gradient is ``B x(lam) - c``.  A
semismooth Newton method on the k multipliers, with the generalized
Hessian ``B_S B_S'`` on the support S and an exact line search, finds it.
Every ``x(lam)`` is nonnegative and stationary with the right sign on its
zeros, so the search stops once ``B x = c`` holds to rounding.
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


def _face_projection(z, support):
    """Projection of z onto the simplex restricted to ``support`` coords."""
    x = np.zeros_like(z)
    x[support] = project_simplex(z[support])
    return x


def _support_root(z, a, support):
    """(mu, nu) with ``x = z + mu + nu a`` on ``support`` meeting ``sum x = 1, a' x = 0``.

    ``support`` is an array of indices.  This is the root of h restricted to
    the support, the exact point for a fixed support; None when the 2x2
    system is singular (an empty support, or ``a`` constant on it).
    """
    k = support.size
    if k == 0:
        return None
    zs = z[support]
    as_ = a[support]
    s1 = as_.sum()
    s2 = as_ @ as_
    det = k * s2 - s1 * s1
    scale = max(s2, 1.0)
    if det <= 1e-14 * k * scale:
        return None
    r1 = 1.0 - zs.sum()
    r2 = -(as_ @ zs)
    return (s2 * r1 - s1 * r2) / det, (k * r2 - s1 * r1) / det


def _polish(z, a, support, mu, nu):
    """``max(z + mu + nu a, 0)`` if (mu, nu) certify the index array ``support`` by KKT, else None."""
    y = z + mu + nu * a
    xs = y[support]
    if xs.min() < -1e-12:
        return None
    y[support] = -np.inf  # leaves the excluded coordinates
    if y.max() > 1e-10:
        return None  # the support was not the optimal one
    x = np.zeros_like(z)
    x[support] = np.maximum(xs, 0.0)
    return x


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
    if c >= amax:
        return _face_projection(z, a >= amax - 0.5 * spread * 1e-9)
    if c <= amin:
        return _face_projection(z, a <= amin + 0.5 * spread * 1e-9)

    a = a - c  # target 0 from here on (see the module docstring)
    lo, hi = -np.inf, np.inf  # h(lo) < 0 <= h(hi)
    nu = 0.0
    # A safety bound: every step narrows the bracket or doubles its open side.
    for _ in range(500):
        x = project_simplex(z + nu * a)
        support = np.flatnonzero(x > 0.0)  # index arrays gather faster than masks
        root = _support_root(z, a, support)
        if root is not None:
            polished = _polish(z, a, support, *root)
            if polished is not None:
                return polished
        if a @ x < 0.0:
            lo = nu
        else:
            hi = nu
        if root is not None and lo < root[1] < hi:
            nu = root[1]
        elif np.isinf(hi):
            nu = lo + max(1.0, abs(lo))
        elif np.isinf(lo):
            nu = hi - max(1.0, abs(hi))
        else:
            nu = 0.5 * (lo + hi)
            if not lo < nu < hi:
                break  # bracket exhausted at machine precision
    return x


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
    when the search stalls, as it can where no ``x > 0`` meets ``B x = c``.
    """
    z = np.asarray(z, dtype=float)
    norms = np.linalg.norm(b, axis=1)  # the search runs on unit rows
    b, c = b / norms[:, None], c / norms
    lam = np.linalg.solve(b @ b.T, c - b @ z) if lam is None else lam * norms
    k = b.shape[0]
    abs_b, abs_z = np.abs(b), np.abs(z)
    for _ in range(100):
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
        # points along the null space, and the line search finds its length.
        d = np.linalg.solve(h + 1e-12 * (np.trace(h) + 1.0) / k * np.eye(k), -r)
        lam = lam + _line_minimum(y, d @ b, c @ d) * d
    raise ConvergenceError(f"polyhedron projection stalled with |Bx - c| = {np.abs(r).max():.3e}")
