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
:func:`fairpr.lfpr.optimize_residuals`).  :func:`solve_fspr` solves them all,
in two phases: a dual start that needs only products, then the loop that
certifies it.

The dual start works in score space.  ``Q' = A^{-1}`` with
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

Since ``Q A' = I``, the loss gradient at ``u = A p(mu) - w`` is
``2 (mu + B' nu)``, so every 10 steps the KKT residual of ``x = proj(u)``
is estimated from projections alone, as the larger of
``|u - proj(u - 2 (mu + B' nu))|`` and ``|x - u|``.  The phase stops at the
first of: that estimate below ``tol / 10``; a zero projected gradient, an
exact dual optimum; no halving of the estimate in 50 steps, a stall, as
near the ends of the attainable range, where the loop needs few
iterations; ``max_iters`` steps.  It hands the loop its best checked point:
``x``, its scores ``p(mu)`` and ``mu + B' nu`` to warm-start the forward
and the adjoint solve.  A projection that fails in the phase, as one of a
far-infeasible early point can, hands over the loop's own start.

The loop is an accelerated projected gradient (FISTA with backtracking and
restart) in u, from the lower-loss one of the dual point and the problem's
own start, or else from the projected uniform vector.  The forward product
``p = (u + w)' Q`` and the adjoint ``Q (p - p_O)`` are each one
warm-started fixed-point solve; both are affine in u, so at the momentum
point they are extrapolated from the two iterates instead.  Each
projection is one warm-started :func:`fairpr.simplex.project_polyhedron`.

The loop's products are inexact (Schmidt, Le Roux & Bach, "Convergence
rates of inexact proximal-gradient methods for convex optimization",
NeurIPS 2011): each solve stops at ``max(INNER_TOL, INNER_THETA * KKT)``
with the KKT residual of the last solved iterate, and the step it stops at
bounds its loss error.  The line search and the restart test count a
violation only beyond such errors (Devolder, Glineur & Nesterov,
"First-order methods of smooth convex optimization with inexact oracle",
Math. Prog. 2014).  For quadratic f the line search tests
``|p(x) - p(y)|^2 <= L/2 |x - y|^2``, the majorization with ``f(y)`` and
the gradient term cancelled exactly: a difference of two losses near 0.1
is all rounding.  The returned scores and loss are solved at ``INNER_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConvergenceError, InfeasibleError
from .graph import ColoredGraph, _check_target_sets
from .pagerank import (
    DEFAULT_GAMMA,
    INNER_THETA,
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
    iterate, which the solver weighs against its dual start;
    ``start_scores``, its scores if known, warm-start its forward solve.
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
    start_scores: np.ndarray | None = None


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
    """The best iterate, its diagnostics (``achieved_fairness`` needs a ``q_r``) and work.

    ``dual_steps`` counts the steps of the dual start, ``forward_solves``
    and ``adjoint_solves`` the loop's solves, ``matvecs`` every transition
    product, the dual's and the final re-solve's included.
    """

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
    matvecs: int
    dual_steps: int


def _rows(problem: FsprProblem) -> tuple[np.ndarray, np.ndarray]:
    """``(B, c)`` of the feasible set, raising when a jump vector's is empty."""
    b, rhs = problem.constraint, problem.rhs
    if b.ndim == 2:
        return b, rhs
    if feasibility_check(b, rhs) is not Feasibility.FEASIBLE:
        raise InfeasibleError(
            f"no jump vector attains the target: need {rhs:.6g} "
            f"within [{float(b.min()):.6g}, {float(b.max()):.6g}]"
        )
    return fair_rows(b, rhs)


def _projection(b: np.ndarray, rhs: np.ndarray):
    """A projection onto ``{x >= 0, B x = c}``.

    Each keeps its own warm start: the loop's steps and KKT tests lie apart.
    """
    lam = None  # the warm start: the last call's multipliers

    def project(z):
        nonlocal lam
        x, lam = project_polyhedron(z, b, rhs, lam)
        return x

    return project


def _dual_start(problem: FsprProblem, b, rhs, tol: float, max_steps: int, counts: dict):
    """The dual start of the module docstring, in at most ``max_steps`` steps.

    Returns ``(x, p, half)`` of its best checked point: the projection of the
    paid mass ``u = A p - w``, the scores p and ``mu + B' nu``, half the
    gradient at u; None if a projection fails.
    """
    model, gamma, p_o = problem.model, problem.gamma, problem.p_o
    shift = np.zeros(model.n) if problem.shift is None else problem.shift
    project, project_kkt = _projection(b, rhs), _projection(b, rhs)

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

    mu, z, top, lip = np.zeros(model.n), p_o, 0.0, 1.0  # top: the largest d'Hd / d'd stepped along
    grad = through_a(z - basis @ (basis.T @ z) + offset) - shift  # u = A p(mu) - w
    direction, best, best_est, mark, mark_step = None, None, np.inf, np.inf, 0
    try:
        for step in range(1, max_steps + 1):
            counts["dual"] += 1
            free = mu > 0.0
            free_grad = np.where(free, grad, 0.0)
            chopped = np.where(free, 0.0, np.minimum(grad, 0.0))
            optimal = not (free_grad.any() or chopped.any())  # a zero projected gradient
            if optimal or step % 10 == 0 or step == max_steps:
                coef = basis.T @ z
                p, half = z - basis @ coef + offset, mu + np.linalg.solve(r, level - coef) @ b
                x = project(grad)
                est = max(np.linalg.norm(x - grad), np.linalg.norm(grad - project_kkt(grad - 2.0 * half)))
                if est < best_est:
                    best, best_est = (x, p, half), est
                if optimal or best_est <= 0.1 * tol or step == max_steps:
                    break
                if best_est <= 0.5 * mark:
                    mark, mark_step = best_est, step
                elif step - mark_step >= 50:
                    break  # stalled: no halving in 50 steps
            # A conjugate gradient step on the free set, or a proportioning one along the
            # chopped gradient where that outweighs the free one.
            proportional = chopped @ chopped <= np.minimum(lip * mu, free_grad) @ free_grad
            d = (free_grad if direction is None else direction) if proportional else chopped
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
            mu, z, grad = moved(d, 1.0, hessian(d))
            direction = None
    except ConvergenceError:
        return None
    return best


def solve_fspr(
    problem: FsprProblem, tol: float = 1e-8, max_iters: int = 5000
) -> FsprSolution:
    """Minimize the score distortion over the problem's feasible set.

    Raises :class:`InfeasibleError` when a jump-vector constraint cannot be
    met.  Stops when the unit-step projected-gradient residual
    ``|| u - proj(u - grad f(u)) ||_2`` drops below ``tol``; if the budget
    runs out first, the best iterate is returned flagged non-converged.
    ``max_iters`` bounds the dual start's steps and the loop's iterations.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    b, rhs = _rows(problem)
    project, project_kkt = _projection(b, rhs), _projection(b, rhs)
    model, gamma, p_o, shift = problem.model, problem.gamma, problem.p_o, problem.shift
    counts = {"forward": 0, "adjoint": 0, "backtracks": 0, "matvecs": 0, "dual": 0}
    spread = (1.0 - gamma) / gamma  # a solve stopped at step s is within s * spread
    inner = INNER_TOL  # until the first KKT residual is known

    def forward(x, start, stop):
        return solve_left(model, x if shift is None else x + shift, gamma, tol=stop, start=start, counts=counts)

    def solved(x, p, start):
        """``(x, p, grad, f, err)`` of a point whose p was solved at ``inner``; ``err`` bounds p's L1 error."""
        counts["adjoint"] += 1
        diff = p - p_o
        grad = 2.0 * solve_right(model, diff, gamma, tol=inner, start=start, counts=counts)
        return x, p, grad, float(diff @ diff), inner * spread

    def delta(point):
        """The error of a point's loss that its products' error can explain: ``2 ||p - p_o||_inf err``."""
        return 2.0 * float(np.abs(point[1] - p_o).max()) * point[4]

    def kkt_of(point):
        return float(np.linalg.norm(point[0] - project_kkt(point[0] - point[2])))

    dual = _dual_start(problem, b, rhs, tol, max_iters, counts)
    starts = [] if dual is None else [dual]
    if problem.start is not None:
        starts.append((problem.start, problem.start_scores, None))
    elif dual is None:
        starts.append((project(np.full(model.n, 1.0 / model.n)), None, None))
    counts["forward"] += len(starts)
    starts = [(x, forward(x, p, inner), half) for x, p, half in starts]
    x, p, half = min(starts, key=lambda start: float((start[1] - p_o) @ (start[1] - p_o)))
    cur = solved(x, p, half)
    best, best_kkt = cur, kkt_of(cur)
    inner = max(INNER_TOL, INNER_THETA * best_kkt)
    y = cur  # momentum point, same layout; an extrapolated one has no loss
    t_momentum = 1.0
    lip = 1.0
    iters_used = 0
    converged = False

    for k in range(1, max_iters + 1):
        iters_used = k
        y_x, y_p, y_g, _, y_err = y

        # Backtracking line search on the majorization at y (module docstring);
        # one forward solve a trial.
        p_new = y_p
        for _ in range(60):
            x_new = project(y_x - y_g / lip)
            step = x_new - y_x
            counts["forward"] += 1
            p_new = forward(x_new, p_new, inner)
            dp = p_new - y_p
            noise = 2.0 * float(np.abs(dp).max()) * (inner * spread + y_err)
            if dp @ dp - noise <= 0.5 * lip * (step @ step):
                break
            lip *= 2.0
            counts["backtracks"] += 1

        new = solved(x_new, p_new, 0.5 * y_g)
        kkt = kkt_of(new)
        inner = max(INNER_TOL, INNER_THETA * kkt)
        if new[3] < best[3]:
            best, best_kkt = new, kkt
        if kkt <= tol:
            best, best_kkt = new, kkt
            converged = True
            break

        if new[3] > cur[3] + 1e-12 * (1.0 + abs(cur[3])) + delta(new) + delta(cur):
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
            # x -> (x + w)'Q and x -> Q((x + w)'Q - p_o) are affine: extrapolate them with x,
            # and p's error bound with them, at most 3 times the larger of the two.
            y_x, y_p, y_g = (v + beta * (v - v_old) for v, v_old in zip(new[:3], cur[:3]))
            y = (y_x, y_p, y_g, None, (1.0 + beta) * new[4] + beta * cur[4])
            cur = new
            t_momentum = t_next
        lip = max(lip * 0.9, 1e-6)

    # The loop's products are only as exact as its last KKT residual asked.
    best_x = best[0]
    scores = forward(best_x, best[1], INNER_TOL)
    a, rhs = problem.constraint, problem.rhs
    return FsprSolution(
        x=best_x,
        scores=scores,
        loss=float((scores - p_o) @ (scores - p_o)),
        achieved_fairness=None if problem.q_r is None else float(best_x @ problem.q_r),
        constraint_residual=float(np.abs(a @ best_x - rhs).max()),
        kkt_residual=best_kkt,
        iterations=iters_used,
        converged=converged,
        forward_solves=counts["forward"],
        adjoint_solves=counts["adjoint"],
        backtracks=counts["backtracks"],
        matvecs=counts["matvecs"],
        dual_steps=counts["dual"],
    )


# The targeted problem differs only in its constraint, so the solver is shared.
solve_targeted_fspr = solve_fspr
