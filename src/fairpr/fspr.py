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
:func:`fairpr.lfpr.optimize_residuals`).  :func:`solve_fspr` solves them all
by one method: MPRGP on a dual that needs only products, whose points a
forward and an adjoint solve certify.

The dual works in score space.  ``Q' = A^{-1}`` with
``A = (I - (1 - gamma) P') / gamma``, so the scores ``p' = (u + w)' Q`` pay
the mass ``u = A p - w``, one product, and the QP is the projection of
``p_O`` onto ``{p : A p >= w, (B A) p = c + B w}``.  With multipliers
``mu >= 0`` for ``A p >= w``, ``p(mu) = p_O + A' mu + C' nu``, where
``C' = A' B'`` costs k products once and ``nu`` meets the equalities.  The
dual, ``min_{mu >= 0} 1/2 mu' H mu + b' mu`` with ``H = A P A'`` (P the
projector off the range of ``C'``) and gradient ``A p(mu) - w``, is solved
by MPRGP (Dostal & Schoberl, "Minimizing quadratic functions subject to
bound constraints with the rate of convergence and finite termination",
Comput. Optim. Appl. 2005): conjugate gradient steps on the free set
``mu > 0``, two products each; an expansion step, to the bound that blocks
one and on by a projected step of ``1/L``; a proportioning step along the
chopped gradient when that outweighs the free one.  ``p(mu)`` and the
gradient follow by recurrence.  ``L`` is 1.2 times the largest curvature
``d'Hd / d'd`` of the directions stepped along, 1.0 until one has any: H
vanishes on the range of ``B'``, so a direction with neither curvature nor
a blocking bound takes the projected step.

A dual point's ``x = proj(u)`` is certified by one forward and one adjoint
solve at ``INNER_TOL``, warm-started from ``p(mu)`` and ``mu + B' nu``, and
the KKT residual ``|x - proj(x - grad f(x))|``; each projection is one
warm-started :func:`fairpr.simplex.project_polyhedron`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConvergenceError, InfeasibleError
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

# The optimizers' defaults: the KKT residual they stop at and their budget of dual steps.
KKT_TOL, MAX_DUAL_STEPS = 1e-8, 5000


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
    A 2-D one is ``B``, with ``c = rhs``.
    """

    model: TransitionModel
    gamma: float
    p_o: np.ndarray
    constraint: np.ndarray
    rhs: float | np.ndarray
    q_r: np.ndarray | None = None
    shift: np.ndarray | None = None


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
    return FsprProblem(model=model, gamma=gamma, p_o=p_o, q_r=q_r, constraint=q_r, rhs=phi)


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
    return replace(problem, constraint=q_sr - problem.rhs * q_s, rhs=0.0)


@dataclass(frozen=True)
class FsprSolution:
    """The returned point, its diagnostics (``achieved_fairness`` needs a ``q_r``) and work.

    ``iterations`` counts the dual's steps, ``certificates`` the points
    certified by a forward and an adjoint solve, ``matvecs`` every
    transition product.
    """

    x: np.ndarray
    scores: np.ndarray
    loss: float
    achieved_fairness: float | None
    constraint_residual: float
    kkt_residual: float
    iterations: int
    converged: bool
    certificates: int
    matvecs: int


def _projection(b: np.ndarray, rhs: np.ndarray):
    """A projection onto ``{x >= 0, B x = c}``.

    Each keeps its own warm start: the dual's points and the KKT tests lie apart.
    """
    lam = None  # the warm start: the last call's multipliers

    def project(z):
        nonlocal lam
        x, lam = project_polyhedron(z, b, rhs, lam)
        return x

    return project


def solve_fspr(problem: FsprProblem, tol: float = KKT_TOL, max_iters: int = MAX_DUAL_STEPS) -> FsprSolution:
    """Minimize the score distortion over the problem's feasible set.

    Raises :class:`InfeasibleError` when a jump-vector constraint cannot be
    met.  Returns the first certified point whose unit-step projected-gradient
    residual ``|| u - proj(u - grad f(u)) ||_2`` is within ``tol``.  A solve
    that runs out of its ``max_iters`` dual steps returns its lowest-residual
    certified point, flagged non-converged.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    b, rhs = problem.constraint, problem.rhs
    if b.ndim == 1:  # the a of B = [1; a], c = (1, rhs)
        if feasibility_check(b, rhs) is not Feasibility.FEASIBLE:
            raise InfeasibleError(
                f"no jump vector attains the target: need {rhs:.6g} "
                f"within [{float(b.min()):.6g}, {float(b.max()):.6g}]"
            )
        b, rhs = fair_rows(b, rhs)
    project, project_kkt = _projection(b, rhs), _projection(b, rhs)
    model, gamma, p_o = problem.model, problem.gamma, problem.p_o
    shift = np.zeros(model.n) if problem.shift is None else problem.shift
    counts = {"matvecs": 0, "certificates": 0}

    def certified(x, p, half):
        """``(kkt, loss, x, scores, grad)`` of x, from a forward and an adjoint solve warm-started at p and half."""
        counts["certificates"] += 1
        p = solve_left(model, x if problem.shift is None else x + shift, gamma, tol=INNER_TOL, start=p, counts=counts)
        grad = 2.0 * solve_right(model, p - p_o, gamma, tol=INNER_TOL, start=half, counts=counts)
        return float(np.linalg.norm(x - project_kkt(x - grad))), float((p - p_o) @ (p - p_o)), x, p, grad

    def through_a(v, apply=model.apply_left):
        """``A v``, the jump under which scores v are the PageRank (``A' v`` by ``apply_right``); one product."""
        counts["matvecs"] += 1
        return (v - (1.0 - gamma) * apply(v)) / gamma

    # The equalities read C p = B w + c with C' = A'B' = basis r: p(mu) is
    # z = p_o + A'mu with its component in span(C') replaced by ``offset``.
    basis, r = np.linalg.qr(np.column_stack([through_a(row, model.apply_right) for row in b]))
    level = np.linalg.solve(r.T, rhs + b @ shift)
    offset = basis @ level

    def hessian(d):
        """``(A'd, H d)``, H = A P A' with P the projector off span(C'); two products."""
        lifted = through_a(d, model.apply_right)
        return lifted, through_a(lifted - basis @ (basis.T @ lifted))

    def moved(d, alpha, image):
        """``(mu, z, grad)`` after the step ``mu - alpha d``, ``image = hessian(d)``."""
        return np.maximum(mu - alpha * d, 0.0), z - alpha * image[0], grad - alpha * image[1]

    def at(mu, z):
        """``(mu, z, grad)`` at multipliers mu with ``z = p_o + A'mu``; one product."""
        return mu, z, through_a(z - basis @ (basis.T @ z) + offset) - shift  # u = A p(mu) - w

    # MPRGP on the dual.  checked: the dual's best checked point (x, p(mu),
    # mu + B'nu) and its KKT estimate; handed: the last one certified; mark: the
    # estimate at the last halving.  best: the best certified point.
    mu, z, grad = at(np.zeros(model.n), p_o)
    top, lip = 0.0, 1.0  # top: the largest d'Hd / d'd stepped along
    direction, checked, checked_est, handed, mark, mark_step = None, None, np.inf, None, np.inf, 0
    best, stall_kkt, restarted = None, np.inf, False
    for step in range(1, max_iters + 1):
        free = mu > 0.0
        free_grad = np.where(free, grad, 0.0)
        chopped = np.where(free, 0.0, np.minimum(grad, 0.0))
        # A conjugate gradient step on the free set, or a proportioning one along the
        # chopped gradient where that outweighs the free one.
        proportional = chopped @ chopped <= np.minimum(lip * mu, free_grad) @ free_grad
        d = (free_grad if direction is None else direction) if proportional else chopped
        optimal = not d.any()  # a zero projected gradient, or a conjugate direction that cancelled
        if optimal or step % 10 == 0 or step == max_iters:
            # Estimate the KKT residual of x = proj(u) from projections alone: the loss
            # gradient at u = A p(mu) - w is 2 (mu + B'nu), since Q A' = I.
            coef = basis.T @ z
            p, half = z - basis @ coef + offset, mu + np.linalg.solve(r, level - coef) @ b
            try:
                x = project(grad)
                est = max(np.linalg.norm(x - grad), np.linalg.norm(grad - project_kkt(grad - 2.0 * half)))
            except ConvergenceError:
                est = np.inf  # a failed projection skips the check
            if est < checked_est:
                checked, checked_est = (x, p, half), est
            stalled = False
            if checked_est <= 0.5 * mark:
                mark, mark_step = checked_est, step
            elif step - mark_step >= 50:
                # No halving in 50 steps, as near the ends of the attainable range,
                # where the estimate overstates the residual of a projected point.
                stalled, mark_step = True, step
            # The best checked point goes to the certificate, once, on a zero direction, a
            # stall, an estimate below tol / 10 or the last step; within tol, it is returned.
            if (optimal or stalled or checked_est <= 0.1 * tol or step == max_iters) and checked is not handed:
                handed = checked
                point = certified(*checked)
                best = point if best is None or point[0] < best[0] else best
                if best[0] <= tol:
                    break
                if stalled:
                    restart = point[0] >= stall_kkt and not restarted
                    stall_kkt = point[0]
                    if restart:
                        # Once, at a stall no better certified than the last, start over from
                        # x's multipliers: nu fits half the gradient on x's support.
                        half, support = 0.5 * point[4], point[2] > 0.0
                        nu = np.linalg.lstsq(b[:, support].T, half[support], rcond=None)[0]
                        mu = np.maximum(half - nu @ b, 0.0)
                        mu, z, grad = at(mu, p_o + through_a(mu, model.apply_right))
                        direction, checked, checked_est, handed, mark, mark_step = None, None, np.inf, None, np.inf, step
                        restarted = True
                        continue
        if optimal:
            if direction is None:
                break  # an exact dual optimum: nothing left to step along
            direction = None
            continue
        image = hessian(d)
        curv, blocking = d @ image[1], d > 0.0
        if curv > 0.0:  # L of the module docstring; 1.0 until a direction has curvature
            top = max(top, curv / (d @ d))
            lip = 1.2 * top
        feasible = float(np.min(mu[blocking] / d[blocking])) if blocking.any() else np.inf
        if curv > 0.0 and (grad @ d) / curv <= feasible:
            mu, z, grad = moved(d, (grad @ d) / curv, image)
            free_grad = np.where(mu > 0.0, grad, 0.0)
            direction = free_grad - (free_grad @ image[1]) / curv * d if proportional else None
            continue
        # Expansion: to the blocking bound, if any (H vanishes on span(B'), where a
        # step without one would be 0/0), then a projected gradient step of 1/L.
        if blocking.any():
            mu, z, grad = moved(d, feasible, image)
        d = mu - np.maximum(mu - np.where(mu > 0.0, grad, 0.0) / lip, 0.0)
        if d.any():  # a zero step would spend its two products on zero vectors
            mu, z, grad = moved(d, 1.0, hessian(d))
        direction = None
    if best is None:  # nothing certified: the projected uniform point
        best = certified(project(np.full(model.n, 1.0 / model.n)), None, None)
    kkt, loss, x, scores, _ = best
    return FsprSolution(
        x=x,
        scores=scores,
        loss=loss,
        achieved_fairness=None if problem.q_r is None else float(x @ problem.q_r),
        constraint_residual=float(np.abs(problem.constraint @ x - problem.rhs).max()),
        kkt_residual=kkt,
        iterations=step,
        converged=kkt <= tol,
        certificates=counts["certificates"],
        matvecs=counts["matvecs"],
    )


# The targeted problem differs only in its constraint, so the solver is shared.
solve_targeted_fspr = solve_fspr
