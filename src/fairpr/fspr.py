r"""Fair PageRank by optimizing the jump vector.

With ``Q = gamma [I - (1 - gamma) P]^{-1}``, the PageRank under jump
vector ``x`` is ``p' = x' Q``, and the red mass it assigns is ``x' q``
where ``q = Q e_R`` is the per-node personalized red mass.  Choosing the
fairest jump vector closest to the original scores is therefore the
convex program

    minimize    || x' Q - p_O ||^2
    subject to  x' q = phi,   x >= 0,   sum x = 1.

A target red mass is attainable iff ``min q <= phi <= max q``: mixing the
extreme coordinates reaches any value in between, and nothing outside.

The solver is an accelerated projected gradient (FISTA with backtracking
and restart).  Gradients never materialize Q: the forward product
``p = x' Q`` and the adjoint product ``Q (p - p_O)`` are each one linear
fixed-point solve, warm-started across iterations.  Both are affine in
x, so at the momentum point ``y = x_k + beta (x_k - x_{k-1})`` they are
extrapolated from the two iterates with the same beta instead of solved.
An iteration thus costs one forward solve per line-search trial plus one
adjoint solve, and the best point is always one whose products were
solved.  Projections onto the constraint set go through
:func:`fairpr.simplex.project_fair_simplex`.

The targeted variant constrains the protected share of a target set S:
``x' q_SR = phi * x' q_S`` becomes the single homogeneous constraint
``a' x = 0`` with ``a = q_SR - phi * q_S``, handled by the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import InfeasibleError
from .graph import ColoredGraph
from .lfpr import _check_phi, _check_target_sets
from .pagerank import (
    DEFAULT_GAMMA,
    INNER_TOL,
    TransitionModel,
    absorption_vector,
    pagerank,
    red_absorption_vector,
    solve_left,
    solve_right,
)
from .simplex import project_fair_simplex


class Feasibility(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE_LOW = "infeasible_low"
    INFEASIBLE_HIGH = "infeasible_high"


def feasibility_check(q_r: np.ndarray, phi: float) -> Feasibility:
    """Whether any jump vector reaches red mass ``phi``.

    ``infeasible_low`` means the target sits below every attainable value
    (all personalized red masses exceed ``phi``); ``infeasible_high`` the
    opposite.
    """
    q_r = np.asarray(q_r, dtype=float)
    if phi < q_r.min():
        return Feasibility.INFEASIBLE_LOW
    if phi > q_r.max():
        return Feasibility.INFEASIBLE_HIGH
    return Feasibility.FEASIBLE


def two_point_jump(values: np.ndarray, target: float) -> np.ndarray:
    """Feasible jump vector mixing the extreme coordinates of ``values``."""
    values = np.asarray(values, dtype=float)
    i = int(np.argmin(values))
    j = int(np.argmax(values))
    x = np.zeros(values.shape[0])
    if i == j or values[j] == values[i]:
        x[i] = 1.0
        return x
    if not values[i] <= target <= values[j]:
        raise InfeasibleError(f"target {target:.6g} outside [{values[i]:.6g}, {values[j]:.6g}]")
    pi = (values[j] - target) / (values[j] - values[i])
    x[i] = pi
    x[j] += 1.0 - pi
    return x


@dataclass(frozen=True)
class FsprProblem:
    """Data of one jump-vector program: objective target and constraint."""

    model: TransitionModel
    gamma: float
    p_o: np.ndarray
    q_r: np.ndarray
    phi: float
    constraint: np.ndarray
    rhs: float


def fspr_problem(
    model: TransitionModel,
    g: ColoredGraph,
    phi: float,
    gamma: float = DEFAULT_GAMMA,
    p_o: np.ndarray | None = None,
) -> FsprProblem:
    phi = _check_phi(phi)
    if p_o is None:
        p_o = pagerank(model, gamma)
    q_r = red_absorption_vector(model, g, gamma)
    return FsprProblem(
        model=model, gamma=gamma, p_o=p_o, q_r=q_r, phi=phi, constraint=q_r, rhs=phi
    )


def targeted_fspr_problem(
    model: TransitionModel,
    g: ColoredGraph,
    s,
    s_r,
    phi: float,
    gamma: float = DEFAULT_GAMMA,
    p_o: np.ndarray | None = None,
) -> FsprProblem:
    """Constrain the protected share of the target set instead of all red."""
    s_mask, sr_mask = _check_target_sets(g, s, s_r)
    problem = fspr_problem(model, g, phi, gamma, p_o)
    q_s = absorption_vector(model, s_mask.astype(float), gamma)
    q_sr = absorption_vector(model, sr_mask.astype(float), gamma)
    return replace(problem, constraint=q_sr - problem.phi * q_s, rhs=0.0)


@dataclass(frozen=True)
class FsprSolution:
    x: np.ndarray
    scores: np.ndarray
    loss: float
    achieved_fairness: float
    constraint_residual: float
    kkt_residual: float
    iterations: int
    converged: bool


def fair_pagerank_from_jump(
    model: TransitionModel, x: np.ndarray, gamma: float = DEFAULT_GAMMA, tol: float = INNER_TOL
) -> np.ndarray:
    """Scores induced by jump vector ``x``: the product ``x' Q``."""
    return solve_left(model, np.asarray(x, dtype=float), gamma, tol=tol)


def solve_fspr(
    problem: FsprProblem, tol: float = 1e-8, max_iters: int = 5000
) -> FsprSolution:
    """Minimize the score distortion over fair jump vectors.

    Raises :class:`InfeasibleError` when the constraint cannot be met.
    Stops when the unit-step projected-gradient residual
    ``|| x - proj(x - grad f(x)) ||_2`` drops below ``tol``; if the budget
    runs out first, the best iterate is returned flagged non-converged.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    a = problem.constraint
    if feasibility_check(a, problem.rhs) is not Feasibility.FEASIBLE:
        lo, hi = float(a.min()), float(a.max())
        raise InfeasibleError(
            f"no jump vector attains the target: need {problem.rhs:.6g} "
            f"within [{lo:.6g}, {hi:.6g}]"
        )
    model, gamma, p_o = problem.model, problem.gamma, problem.p_o

    def project(z):
        return project_fair_simplex(z, a, problem.rhs)

    def forward(x, start):
        return solve_left(model, x, gamma, tol=INNER_TOL, start=start)

    def gradient(p, start):
        return 2.0 * solve_right(model, p - p_o, gamma, tol=INNER_TOL, start=start)

    def loss(p):
        diff = p - p_o
        return float(diff @ diff)

    x = project(np.full(model.n, 1.0 / model.n))
    p = forward(x, None)
    cur = (x, p, gradient(p, None), loss(p))  # (x, p, grad, f) of a solved point
    best, best_kkt = cur, np.inf
    y = cur  # momentum point, same layout
    t_momentum = 1.0
    lip = 1.0
    iters_used = 0
    converged = False

    for k in range(1, max_iters + 1):
        iters_used = k
        y_x, y_p, y_g, f_y = y

        # Backtracking line search on the majorization at y; one forward solve a trial.
        p_new = y_p
        for _ in range(60):
            x_new = project(y_x - y_g / lip)
            step = x_new - y_x
            p_new = forward(x_new, p_new)
            f_new = loss(p_new)
            bound = f_y + y_g @ step + 0.5 * lip * (step @ step)
            if f_new <= bound + 1e-13 * (1.0 + abs(f_y)):
                break
            lip *= 2.0

        g_new = gradient(p_new, 0.5 * y_g)
        new = (x_new, p_new, g_new, f_new)
        kkt = float(np.linalg.norm(x_new - project(x_new - g_new)))
        if f_new < best[3]:
            best, best_kkt = new, kkt
        if kkt <= tol:
            best, best_kkt = new, kkt
            converged = True
            break

        if f_new > cur[3] + 1e-12 * (1.0 + abs(cur[3])):
            # Momentum overshot beyond solver noise: restart from the best point.
            cur = y = best
            t_momentum = 1.0
            continue
        if (y_x - x_new) @ (x_new - cur[0]) > 0.0:
            # Momentum points uphill: adaptive restart keeps the rate linear.
            cur = y = new
            t_momentum = 1.0
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2))
            beta = (t_momentum - 1.0) / t_next
            # x -> x'Q and x -> Q(x'Q - p_o) are affine: extrapolate them with x.
            y_x, y_p, y_g = (v + beta * (v - v_old) for v, v_old in zip(new[:3], cur[:3]))
            y = (y_x, y_p, y_g, loss(y_p))
            cur = new
            t_momentum = t_next
        lip = max(lip * 0.9, 1e-6)

    best_x, scores, _, best_f = best
    return FsprSolution(
        x=best_x,
        scores=scores,
        loss=best_f,
        achieved_fairness=float(best_x @ problem.q_r),
        constraint_residual=float(abs(a @ best_x - problem.rhs)),
        kkt_residual=best_kkt,
        iterations=iters_used,
        converged=converged,
    )


# The targeted problem differs only in its constraint, so the solver is shared.
solve_targeted_fspr = solve_fspr


def solve_fspr_dense(
    q_matrix: np.ndarray,
    p_o: np.ndarray,
    a: np.ndarray,
    rhs: float,
    max_pivots: int | None = None,
) -> np.ndarray:
    """Direct active-set solve on the dense resolvent; testing path.

    Solves the same program via normal equations restricted to the free
    coordinates, pivoting on the most violated bound multiplier.  Exact up
    to linear-algebra precision, but quadratic memory, so only suitable
    for moderate n.
    """
    q_matrix = np.asarray(q_matrix, dtype=float)
    n = q_matrix.shape[0]
    h = 2.0 * (q_matrix @ q_matrix.T)
    c = -2.0 * (q_matrix @ p_o)
    e = np.vstack([np.ones(n), a])
    d = np.array([1.0, float(rhs)])

    x = two_point_jump(a, rhs)
    free = x > 0
    if max_pivots is None:
        max_pivots = 3 * n + 10

    for _ in range(max_pivots):
        idx = np.nonzero(free)[0]
        k = idx.size
        kkt = np.zeros((k + 2, k + 2))
        kkt[:k, :k] = h[np.ix_(idx, idx)]
        kkt[:k, k:] = e[:, idx].T
        kkt[k:, :k] = e[:, idx]
        rhs_vec = np.concatenate([-c[idx], d])
        try:
            sol = np.linalg.solve(kkt, rhs_vec)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, rhs_vec, rcond=None)
        x_free = sol[:k]
        lam = sol[k:]

        if x_free.min() >= -1e-12:
            x = np.zeros(n)
            x[idx] = np.maximum(x_free, 0.0)
            slack = h @ x + c + e.T @ lam
            bound = np.nonzero(~free)[0]
            if bound.size == 0 or slack[bound].min() >= -1e-9:
                return x
            free[bound[np.argmin(slack[bound])]] = True
        else:
            x_target = np.zeros(n)
            x_target[idx] = x_free
            moving = x_target < x - 1e-15
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(moving, x / np.where(moving, x - x_target, 1.0), np.inf)
            blocker = int(np.argmin(steps))
            alpha = min(1.0, steps[blocker])
            x = x + alpha * (x_target - x)
            x[blocker] = 0.0
            free[blocker] = False
    raise RuntimeError("active-set solve did not settle within the pivot budget")
