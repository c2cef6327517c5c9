import itertools

import numpy as np
import pytest

from conftest import count_products, random_colored_graph
from fairpr.errors import ConvergenceError, InfeasibleError
import fairpr.fspr
from fairpr.fspr import (
    Feasibility,
    feasibility_check,
    fspr_problem,
    solve_fspr,
    solve_targeted_fspr,
    targeted_fspr_problem,
)
from fairpr.graph import from_edges
from fairpr.pagerank import (
    INNER_TOL,
    TransitionModel,
    absorption_vector,
    dense_q,
    pagerank,
    red_absorption_vector,
    solve_left,
    solve_right,
    standard_transition,
)
from fairpr.simplex import project_fair_simplex
from fairpr.synth import SynthConfig, generate
from oracles import fair_pagerank_from_jump, solve_fspr_dense, two_point_jump


def dense_loss(q, p_o, x):
    r = x @ q - p_o
    return float(r @ r)


def feasible_phi(q_r, frac):
    return float(q_r.min() + frac * (q_r.max() - q_r.min()))


def test_feasibility_check_brackets_the_range():
    q_r = np.array([0.2, 0.5, 0.8])
    assert feasibility_check(q_r, 0.5) is Feasibility.FEASIBLE
    assert feasibility_check(q_r, 0.2) is Feasibility.FEASIBLE
    assert feasibility_check(q_r, 0.1) is Feasibility.INFEASIBLE_LOW
    assert feasibility_check(q_r, 0.9) is Feasibility.INFEASIBLE_HIGH


def test_two_point_jump_two_node_closed_form():
    q = np.array([0.7, 0.2])
    phi = 0.5
    x = two_point_jump(q, phi)
    # weight on the high node is (phi - q_min) / (q_max - q_min)
    assert x[0] == pytest.approx((phi - 0.2) / 0.5)
    assert x.sum() == pytest.approx(1.0)
    assert q @ x == pytest.approx(phi, abs=1e-15)


def test_two_point_jump_general():
    rng = np.random.default_rng(0)
    q = rng.uniform(0.1, 0.9, size=17)
    for frac in (0.0, 0.3, 1.0):
        x = two_point_jump(q, feasible_phi(q, frac))
        assert x.min() >= 0.0 and x.sum() == pytest.approx(1.0)
        assert q @ x == pytest.approx(feasible_phi(q, frac), abs=1e-12)
    with pytest.raises(InfeasibleError):
        two_point_jump(q, float(q.max()) + 0.01)


def test_solver_hits_constraint_and_dense_optimum():
    for seed in range(6):
        g = random_colored_graph(np.random.default_rng(seed), 25, sink_frac=0.1)
        m = standard_transition(g)
        p_o = pagerank(m)
        q = dense_q(m)
        prob = fspr_problem(m, g, feasible_phi(prob_qr_of(m, g), 0.4), p_o=p_o)
        sol = solve_fspr(prob)
        assert sol.converged
        assert sol.constraint_residual <= 1e-10
        assert abs(sol.achieved_fairness - prob.rhs) <= 1e-10
        x_dense = solve_fspr_dense(q, p_o, prob.constraint, prob.rhs)
        assert sol.loss <= dense_loss(q, p_o, x_dense) + 1e-10
        # scores really are the PageRank induced by the jump vector
        np.testing.assert_allclose(sol.scores, sol.x @ q, atol=1e-10)
        assert sol.scores.sum() == pytest.approx(1.0, abs=1e-9)


def prob_qr_of(m, g):
    from fairpr.pagerank import red_absorption_vector

    return red_absorption_vector(m, g)


def test_solver_rejects_unattainable_targets():
    rng = np.random.default_rng(2)
    g = random_colored_graph(rng, 20)
    m = standard_transition(g)
    q_r = prob_qr_of(m, g)
    for phi in (q_r.min() * 0.5, min(0.999, q_r.max() * 1.5)):
        with pytest.raises(InfeasibleError):
            solve_fspr(fspr_problem(m, g, float(phi)))


def test_solution_at_original_mass_keeps_original_scores():
    # when phi equals the baseline red mass the optimum is the uniform jump
    rng = np.random.default_rng(3)
    g = random_colored_graph(rng, 30)
    m = standard_transition(g)
    p_o = pagerank(m)
    phi = float(p_o @ g.red)
    sol = solve_fspr(fspr_problem(m, g, phi, p_o=p_o))
    assert sol.loss <= 1e-12
    np.testing.assert_allclose(sol.scores, p_o, atol=1e-6)


def test_an_exact_dual_optimum_stops_the_dual_at_once():
    # phi at or near the original red mass: the projection of p_o onto the
    # equalities pays every node a positive mass, so mu = 0 has a zero
    # projected gradient; the dual stops at its first step, one certificate ends it
    g = random_colored_graph(np.random.default_rng(1), 30)
    m = standard_transition(g)
    p_o = pagerank(m)
    q_r = prob_qr_of(m, g)
    for shift in (0.0, 0.01, -0.01):
        phi = float(p_o @ g.red + shift * (q_r.max() - q_r.min()))
        sol = solve_fspr(fspr_problem(m, g, phi, p_o=p_o))
        assert sol.iterations == 1 and sol.certificates == 1 and sol.converged


def test_targeted_solver_zeroes_the_share_constraint():
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        g = random_colored_graph(rng, 24)
        m = standard_transition(g)
        s = rng.choice(g.n, size=8, replace=False)
        s_r = s[g.red[s]]
        if s_r.size == 0 or s_r.size == s.size:
            continue
        q = dense_q(m)
        p_o = pagerank(m)
        ratios = (q @ np.isin(np.arange(g.n), s_r)) / (q @ np.isin(np.arange(g.n), s))
        phi = float(0.5 * (ratios.min() + ratios.max()))
        prob = targeted_fspr_problem(m, g, s, s_r, phi, p_o=p_o)
        sol = solve_targeted_fspr(prob)
        assert sol.converged
        # |x'Q_SR - phi x'Q_S| is exactly the constraint residual
        assert sol.constraint_residual <= 1e-10
        x_dense = solve_fspr_dense(q, p_o, prob.constraint, prob.rhs)
        assert sol.loss <= dense_loss(q, p_o, x_dense) + 1e-10


def test_fair_pagerank_from_jump_matches_resolvent():
    rng = np.random.default_rng(4)
    g = random_colored_graph(rng, 15, sink_frac=0.2)
    m = standard_transition(g)
    q = dense_q(m)
    x = rng.dirichlet(np.ones(g.n))
    np.testing.assert_allclose(fair_pagerank_from_jump(m, x), x @ q, atol=1e-11)


def test_dense_active_set_solves_tiny_qp_exactly():
    # 2 coords + both constraints pin the solution to the two-point jump
    q = np.array([[0.8, 0.2], [0.3, 0.7]])
    p_o = np.array([0.5, 0.5])
    a = q @ np.array([1.0, 0.0])
    phi = 0.55
    x = solve_fspr_dense(q, p_o, a, phi)
    np.testing.assert_allclose(x, two_point_jump(a, phi), atol=1e-12)


def test_solver_loss_never_beats_projection_lower_bound():
    # the fair-simplex projection of p_o bounds any fair score vector's loss
    from fairpr.analysis import lower_bound_loss

    rng = np.random.default_rng(5)
    g = random_colored_graph(rng, 40)
    m = standard_transition(g)
    p_o = pagerank(m)
    q_r = prob_qr_of(m, g)
    phi = feasible_phi(q_r, 0.6)
    sol = solve_fspr(fspr_problem(m, g, phi, p_o=p_o))
    assert sol.loss >= lower_bound_loss(p_o, g, phi) - 1e-9


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-8])
def test_solver_rejects_meaningless_tolerance(tol):
    rng = np.random.default_rng(6)
    g = random_colored_graph(rng, 20)
    m = standard_transition(g)
    prob = fspr_problem(m, g, feasible_phi(prob_qr_of(m, g), 0.5))
    with pytest.raises(ValueError, match="tol"):
        solve_fspr(prob, tol=tol)


@pytest.mark.parametrize("budget", [0, -3])
def test_solver_rejects_an_empty_iteration_budget(budget):
    rng = np.random.default_rng(6)
    g = random_colored_graph(rng, 20)
    m = standard_transition(g)
    prob = fspr_problem(m, g, feasible_phi(prob_qr_of(m, g), 0.5))
    with pytest.raises(ValueError, match="max_iters must be at least 1"):
        solve_fspr(prob, max_iters=budget)


def test_targeted_problem_differs_from_global_only_in_its_constraint():
    rng = np.random.default_rng(7)
    g = random_colored_graph(rng, 30, sink_frac=0.1)
    m = standard_transition(g)
    s = np.arange(12)
    s_r = s[g.red[s]]
    glob = fspr_problem(m, g, 0.4)
    targ = targeted_fspr_problem(m, g, s, s_r, 0.4)
    for field in ("gamma", "p_o", "q_r"):
        np.testing.assert_array_equal(getattr(glob, field), getattr(targ, field))
    assert glob.rhs == 0.4 and targ.rhs == 0.0
    q = dense_q(m)
    expected = q @ np.isin(np.arange(g.n), s_r) - 0.4 * (q @ np.isin(np.arange(g.n), s))
    np.testing.assert_allclose(targ.constraint, expected, atol=1e-11)


def at_end(values, end):
    """The value ``end`` above the least of ``values``, or ``-end`` below the largest."""
    return float(values.min() + end if end > 0 else values.max() + end)


@pytest.mark.parametrize("targeted", [False, True])
def test_products_reused_by_linearity_keep_the_solution_exact(targeted):
    # The dual's scores and gradient are those of its unprojected point, and
    # the certificate's solves are warm-started from them; cold solves at the
    # returned x must confirm every claim, in mid-range and within 1e-6 and
    # 1e-3 of either end, where the dual stalls.
    for seed, end in itertools.product(range(4), (None, 1e-6, 1e-3, -1e-3, -1e-6)):
        rng = np.random.default_rng(200 + seed)
        g = random_colored_graph(rng, 40, sink_frac=0.2)
        m = standard_transition(g)
        assert m.residuals  # sinks add the rank-one dangling term
        p_o = pagerank(m)
        q = dense_q(m)
        if targeted:
            s = np.arange(0, g.n, 2)
            s_r = s[g.red[s]]
            ratios = (q @ np.isin(np.arange(g.n), s_r)) / (q @ np.isin(np.arange(g.n), s))
            phi = feasible_phi(ratios, 0.5) if end is None else at_end(ratios, end)
            prob = targeted_fspr_problem(m, g, s, s_r, phi, p_o=p_o)
        else:
            q_r = prob_qr_of(m, g)
            phi = feasible_phi(q_r, 0.3) if end is None else at_end(q_r, end)
            prob = fspr_problem(m, g, phi, p_o=p_o)
        tol = 1e-8
        sol = solve_fspr(prob, tol=tol)
        assert sol.converged
        p = solve_left(m, sol.x, prob.gamma, tol=1e-14)
        grad = 2.0 * solve_right(m, p - p_o, prob.gamma, tol=1e-14)
        step = sol.x - project_fair_simplex(sol.x - grad, prob.constraint, prob.rhs)
        assert np.linalg.norm(step) <= tol
        np.testing.assert_allclose(sol.scores, sol.x @ q, rtol=0.0, atol=1e-10)
        x_dense = solve_fspr_dense(q, p_o, prob.constraint, prob.rhs)
        assert sol.loss <= dense_loss(q, p_o, x_dense) + 1e-10


@pytest.mark.parametrize("targeted", [False, True])
def test_solution_counts_its_solves(targeted, monkeypatch):
    # phi a thousandth of its range above the low end: the dual stalls, its
    # point fails the certificate, and it goes on.  One forward and one adjoint
    # solve a certificate; the dual's steps and every product counted.
    g = thinned_directed_graph(5, n=200)
    m = standard_transition(g)
    if targeted:
        s = np.arange(0, g.n, 2)
        in_s = np.isin(np.arange(g.n), s)
        ratios = absorption_vector(m, in_s & g.red) / absorption_vector(m, in_s)
        prob = targeted_fspr_problem(m, g, s, s[g.red[s]], feasible_phi(ratios, 1e-3))
    else:
        prob = fspr_problem(m, g, feasible_phi(prob_qr_of(m, g), 1e-3))
    solves = []
    for name in ("solve_left", "solve_right"):
        solve = getattr(fairpr.fspr, name)
        monkeypatch.setattr(fairpr.fspr, name, lambda *a, f=solve, **k: solves.append(f.__name__) or f(*a, **k))
    calls = count_products(monkeypatch)
    for budget in (3, 5000):
        del calls[:], solves[:]
        sol = solve_fspr(prob, max_iters=budget)
        assert solves == ["solve_left", "solve_right"] * sol.certificates and sol.certificates > 0
        assert 0 < sol.iterations <= budget
        assert sol.matvecs == len(calls)
    assert sol.converged and sol.iterations > 60 and sol.certificates > 1


def thinned_directed_graph(seed, n=1000):
    """A generated graph (the benchmark's generator settings) with about a
    quarter of its edges dropped and a tenth of its nodes made dangling."""
    g = generate(SynthConfig(n, 0.3, 0.8, 0.5, seed=seed, edges_per_node=2))
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(g.n), np.diff(g.indptr))
    keep = (rng.random(src.size) >= 0.25) & (rng.random(g.n) >= 0.1)[src]
    return from_edges(g.n, list(zip(src[keep].tolist(), g.indices[keep].tolist())), g.red)


def test_dual_and_certificate_cut_the_products(monkeypatch):
    # Five seeded n = 1000 directed problems at phi 0.3.  A projected-gradient
    # loop with every inner product solved to INNER_TOL took 27160 + 20056 +
    # 19690 + 37187 + 22573 = 126666 products, and with inexact solves from the
    # projected uniform vector 55929; a FISTA dual start took 2766, the MPRGP
    # one 1153 with a power estimate of its L and 931 with L from the
    # curvatures it steps along, all with the loop after it, and 822 with the
    # certificate alone.  The last two ceilings add 15 % and 7 % to 1153 and
    # 931.  The count of one problem moves with its iteration path, so the
    # ceilings are on the five together.
    problems = []
    for seed in range(1, 6):
        g = thinned_directed_graph(seed)
        problems.append(fspr_problem(standard_transition(g), g, 0.3))
    calls = count_products(monkeypatch)
    total = 0
    for prob in problems:
        sol = solve_fspr(prob)
        assert sol.converged
        total += sol.matvecs
    assert total == len(calls)
    assert total <= 0.1 * 126666
    assert total <= 1330
    assert total <= 1000


@pytest.mark.parametrize("budget", [5000, 3])
def test_returned_scores_are_solved_at_the_floor(budget):
    # the dual's scores belong to its unprojected point, the farther from x
    # the earlier it stops; the returned scores and loss are solved at x
    g = thinned_directed_graph(3, n=300)
    m = standard_transition(g)
    prob = fspr_problem(m, g, 0.3)
    sol = solve_fspr(prob, max_iters=budget)
    assert sol.converged == (budget == 5000)
    exact = solve_left(m, sol.x, prob.gamma, tol=INNER_TOL)
    assert np.abs(sol.scores - exact).sum() <= 1e-12
    assert sol.loss == float((sol.scores - prob.p_o) @ (sol.scores - prob.p_o))


def test_solver_converges_when_the_loss_dwarfs_the_product_error():
    # phi near the top of the attainable range, far above the original red
    # share 0.295: the loss is 0.0204, where a projected-gradient loop with
    # inexact products once let a loose product's loss error decide its line
    # search and restarts (23 iterations with every product solved to
    # INNER_TOL).  The dual's estimate is below tol / 10 at step 60, and that
    # point certifies.
    g = random_colored_graph(np.random.default_rng(0), 30, sink_frac=0.1)
    m = standard_transition(g)
    q_r = red_absorption_vector(m, g)
    assert pagerank(m) @ g.red < 0.3
    sol = solve_fspr(fspr_problem(m, g, feasible_phi(q_r, 0.98)), tol=1e-10)
    assert sol.converged and sol.iterations <= 60 and sol.certificates == 1
    assert sol.loss > 0.02


@pytest.mark.parametrize(
    "seed, n, phi", [(4, 220, 0.54812421421511), (23, 20, 0.1347980434165736), (39, 293, 0.14698917465591455)]
)
def test_dual_start_never_fails_a_solve_near_an_end(seed, n, phi):
    # phi within 1e-9 of an end of the attainable range, where projecting a
    # far-infeasible early dual point can stall; the solve must still converge
    rng = np.random.default_rng(seed)
    assert rng.integers(10, 300) == n
    g = random_colored_graph(rng, n, sink_frac=rng.choice([0, 0.1, 0.3]))
    m = standard_transition(g)
    q_r = red_absorption_vector(m, g)
    assert min(phi - q_r.min(), q_r.max() - phi) < 1e-9
    sol = solve_fspr(fspr_problem(m, g, phi))
    assert sol.converged and sol.constraint_residual <= 1e-10


def test_a_failed_projection_skips_its_check(monkeypatch):
    # the dual's first projection raises: its check is skipped, the dual goes
    # on, and the solve converges to the same loss
    g = thinned_directed_graph(3, n=300)
    prob = fspr_problem(standard_transition(g), g, 0.3)
    reference = solve_fspr(prob)
    real = fairpr.fspr.project_polyhedron
    calls = []

    def stalls_once(*args):
        calls.append(1)
        if len(calls) == 1:
            raise ConvergenceError("polyhedron projection stalled")
        return real(*args)

    monkeypatch.setattr(fairpr.fspr, "project_polyhedron", stalls_once)
    sol = solve_fspr(prob)
    assert len(calls) > 1 and sol.converged
    assert sol.loss == pytest.approx(reference.loss, rel=1e-8)


@pytest.mark.parametrize("frac, ceiling", [(1e-3, 1750), (0.999, 2000)])
def test_a_stall_that_does_not_help_restarts_the_dual(frac, ceiling):
    # Near the ends of the range the dual stalls again and again.  Restarted
    # once from the multipliers of a certified point, it took 1504 and 1722
    # products here, against 4070 and 3370 without the restart; the ceilings
    # add 15 % to the first two.
    g = generate(SynthConfig(2000, 0.3, 0.8, 0.5, seed=7, edges_per_node=2))
    m = standard_transition(g)
    q_r = red_absorption_vector(m, g)
    sol = solve_fspr(fspr_problem(m, g, feasible_phi(q_r, frac)))
    assert sol.converged and sol.matvecs <= ceiling


def test_a_zero_direction_costs_no_products(monkeypatch):
    # With one free multiplier the conjugate direction can cancel to exactly 0;
    # a Hessian product on it spent two transition products on zero vectors
    # (16 of the solve's 34 products here).  It now goes to the certificate.
    g = random_colored_graph(np.random.default_rng(71590), 4, red_frac=0.5)
    m = standard_transition(g)
    prob = fspr_problem(m, g, 0.3828125, p_o=pagerank(m))
    zero = []
    for name in ("apply_left", "apply_right"):
        product = getattr(TransitionModel, name)
        monkeypatch.setattr(TransitionModel, name, lambda self, v, f=product: zero.append(not v.any()) or f(self, v))
    sol = solve_fspr(prob)
    assert sol.converged and len(zero) == sol.matvecs > 0 and not any(zero)


def test_an_exact_dual_optimum_that_fails_its_certificate_ends_the_dual():
    # tol below the certificate's own rounding (its KKT residual is ~1e-16): the
    # exact optimum at the first step fails, and with nothing left to step along
    # the dual stops there.
    g = random_colored_graph(np.random.default_rng(1), 30)
    m = standard_transition(g)
    p_o = pagerank(m)
    prob = fspr_problem(m, g, float(p_o @ g.red), p_o=p_o)
    sol = solve_fspr(prob, tol=1e-18)
    assert sol.iterations == 1 and sol.certificates == 1 and not sol.converged


def test_a_cancelled_direction_that_fails_its_certificate_steps_on(monkeypatch):
    # test_a_zero_direction_costs_no_products's problem at a tol below its
    # certificate's rounding: the conjugate direction cancels at step 3, that
    # point fails, and the dual drops the direction and steps on to its budget;
    # the point certified at step 3 stays the best.  Stuck there, the expansion's
    # projected-gradient step is exactly zero, and it costs no products.
    g = random_colored_graph(np.random.default_rng(71590), 4, red_frac=0.5)
    m = standard_transition(g)
    prob = fspr_problem(m, g, 0.3828125, p_o=pagerank(m))
    stopped = solve_fspr(prob)
    assert stopped.iterations == 3 and stopped.certificates == 1
    zero = []
    for name in ("apply_left", "apply_right"):
        product = getattr(TransitionModel, name)
        monkeypatch.setattr(TransitionModel, name, lambda self, v, f=product: zero.append(not v.any()) or f(self, v))
    sol = solve_fspr(prob, tol=1e-16, max_iters=40)
    assert sol.iterations == 40 and not sol.converged and sol.certificates == 1
    assert sol.kkt_residual == stopped.kkt_residual and sol.loss == stopped.loss
    assert len(zero) == sol.matvecs > 0 and not any(zero)
