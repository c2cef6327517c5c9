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
"""

from __future__ import annotations

import numpy as np

from .errors import InfeasibleError


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
