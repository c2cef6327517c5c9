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

The targeted variant constrains the protected share of a target set S:
``x' q_SR = phi * x' q_S`` becomes the single homogeneous constraint
``a' x = 0`` with ``a = q_SR - phi * q_S``.  Both are the convex QP
``min ||(u + w)' Q - p_O||^2`` over ``{u >= 0, B u = c}`` with no shift
``w`` and ``B = [1; a]``; the optimized locally fair policy is the same QP
with a shift, two other rows in ``B`` and the resolvent of another model,
convex in the owed mass u, in which its KKT residual is then measured (see
:func:`fairpr.lfpr.optimize_residuals`).  :func:`solve_fspr` solves them all.

It is an accelerated projected gradient (FISTA with backtracking and
restart).  Gradients never materialize Q: the forward product
``p = (u + w)' Q`` and the adjoint product ``Q (p - p_O)`` are each one
linear fixed-point solve, warm-started across iterations.  Both are affine
in u, so at the momentum point ``y = u_k + beta (u_k - u_{k-1})`` they are
extrapolated from the two iterates with the same beta instead of solved.
An iteration thus costs one forward solve per line-search trial plus one
adjoint solve, and the best point is always one whose products were
solved.  Every projection is one :func:`fairpr.simplex.project_polyhedron`
call, warm-started at the last multipliers; a jump vector's ``B = [1; a]``
is built once, in the shifted form of :func:`fairpr.simplex.fair_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import InfeasibleError
from .graph import ColoredGraph, _check_target_sets
from .pagerank import (
    DEFAULT_GAMMA,
    INNER_TOL,
    TransitionModel,
    _check_phi,
    absorption_vector,
    pagerank,
    red_absorption_vector,
    solve_left,
    solve_right,
)
from .simplex import fair_rows, project_polyhedron


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


@dataclass(frozen=True)
class FsprProblem:
    """Data of one program ``min ||(u + shift)' Q - p_o||^2`` over ``{u >= 0, B u = c}``.

    ``Q`` is the resolvent of ``model``.  A 1-D ``constraint`` is the ``a``
    of ``B = [1; a]``, ``c = (1, rhs)``: jump vectors with red mass ``u' q_r``.
    A 2-D one is ``B``, with ``c = rhs``.  ``start`` is a feasible first
    iterate (by default the projection of the uniform vector), ``lipschitz``
    the line search's first estimate of the gradient's Lipschitz constant.
    """

    model: TransitionModel
    gamma: float
    p_o: np.ndarray
    constraint: np.ndarray
    rhs: float | np.ndarray
    q_r: np.ndarray | None = None
    phi: float | None = None
    shift: np.ndarray | None = None
    start: np.ndarray | None = None
    lipschitz: float = 1.0


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
    return FsprProblem(model=model, gamma=gamma, p_o=p_o, q_r=q_r, phi=phi, constraint=q_r, rhs=phi)


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
    """The best iterate, its diagnostics (``achieved_fairness`` needs a ``q_r``) and work."""

    x: np.ndarray
    scores: np.ndarray
    loss: float
    achieved_fairness: float | None
    constraint_residual: float
    kkt_residual: float
    iterations: int
    converged: bool
    forward_solves: int
    adjoint_solves: int
    backtracks: int


def _projection(problem: FsprProblem):
    """A projection onto the feasible set, raising when a jump vector's is empty.

    Each keeps its own warm start: the loop's steps and KKT tests lie apart.
    """
    b, rhs = problem.constraint, problem.rhs
    if b.ndim == 1:
        if feasibility_check(b, rhs) is not Feasibility.FEASIBLE:
            raise InfeasibleError(
                f"no jump vector attains the target: need {rhs:.6g} "
                f"within [{float(b.min()):.6g}, {float(b.max()):.6g}]"
            )
        b, rhs = fair_rows(b, rhs)
    lam = None  # the warm start: the last call's multipliers

    def project(z):
        nonlocal lam
        x, lam = project_polyhedron(z, b, rhs, lam)
        return x

    return project


def solve_fspr(
    problem: FsprProblem, tol: float = 1e-8, max_iters: int = 5000
) -> FsprSolution:
    """Minimize the score distortion over the problem's feasible set.

    Raises :class:`InfeasibleError` when a jump-vector constraint cannot be
    met.  Stops when the unit-step projected-gradient residual
    ``|| u - proj(u - grad f(u)) ||_2`` drops below ``tol``; if the budget
    runs out first, the best iterate is returned flagged non-converged.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    if not (np.isfinite(problem.lipschitz) and problem.lipschitz > 0.0):
        raise ValueError(f"lipschitz must be a positive finite number, got {problem.lipschitz}")
    project, project_kkt = _projection(problem), _projection(problem)
    model, gamma, p_o, shift = problem.model, problem.gamma, problem.p_o, problem.shift
    counts = {"forward": 0, "adjoint": 0, "backtracks": 0}

    def forward(x, start):
        counts["forward"] += 1
        return solve_left(model, x if shift is None else x + shift, gamma, tol=INNER_TOL, start=start)

    def gradient(p, start):
        counts["adjoint"] += 1
        return 2.0 * solve_right(model, p - p_o, gamma, tol=INNER_TOL, start=start)

    def loss(p):
        diff = p - p_o
        return float(diff @ diff)

    x = project(np.full(model.n, 1.0 / model.n)) if problem.start is None else problem.start
    p = forward(x, None)
    cur = (x, p, gradient(p, None), loss(p))  # (x, p, grad, f) of a solved point
    best, best_kkt = cur, float(np.linalg.norm(x - project_kkt(x - cur[2])))
    y = cur  # momentum point, same layout
    t_momentum = 1.0
    lip = problem.lipschitz
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
            counts["backtracks"] += 1

        g_new = gradient(p_new, 0.5 * y_g)
        new = (x_new, p_new, g_new, f_new)
        kkt = float(np.linalg.norm(x_new - project_kkt(x_new - g_new)))
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
            # x -> (x + w)'Q and x -> Q((x + w)'Q - p_o) are affine: extrapolate them with x.
            y_x, y_p, y_g = (v + beta * (v - v_old) for v, v_old in zip(new[:3], cur[:3]))
            y = (y_x, y_p, y_g, loss(y_p))
            cur = new
            t_momentum = t_next
        lip = max(lip * 0.9, 1e-6)

    best_x, scores, _, best_f = best
    a, rhs = problem.constraint, problem.rhs
    return FsprSolution(
        x=best_x,
        scores=scores,
        loss=best_f,
        achieved_fairness=None if problem.q_r is None else float(best_x @ problem.q_r),
        constraint_residual=float(np.abs(a @ best_x - rhs).max()),
        kkt_residual=best_kkt,
        iterations=iters_used,
        converged=converged,
        forward_solves=counts["forward"],
        adjoint_solves=counts["adjoint"],
        backtracks=counts["backtracks"],
    )


# The targeted problem differs only in its constraint, so the solver is shared.
solve_targeted_fspr = solve_fspr
