from dataclasses import replace

import numpy as np
import pytest

from conftest import random_colored_graph
from fairpr.errors import InfeasibleError
from fairpr.fspr import (
    Feasibility,
    feasibility_check,
    fspr_problem,
    solve_fspr,
    solve_targeted_fspr,
    targeted_fspr_problem,
)
from fairpr.pagerank import dense_q, pagerank, solve_left, solve_right, standard_transition
from fairpr.simplex import project_fair_simplex
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
        assert abs(sol.achieved_fairness - prob.phi) <= 1e-10
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


@pytest.mark.parametrize("lipschitz", [float("nan"), float("inf"), 0.0, -1.0])
def test_solver_rejects_a_meaningless_lipschitz_estimate(lipschitz):
    rng = np.random.default_rng(6)
    g = random_colored_graph(rng, 20)
    m = standard_transition(g)
    prob = fspr_problem(m, g, feasible_phi(prob_qr_of(m, g), 0.5))
    with pytest.raises(ValueError, match="lipschitz must be a positive finite number"):
        solve_fspr(replace(prob, lipschitz=lipschitz))


def test_targeted_problem_differs_from_global_only_in_its_constraint():
    rng = np.random.default_rng(7)
    g = random_colored_graph(rng, 30, sink_frac=0.1)
    m = standard_transition(g)
    s = np.arange(12)
    s_r = s[g.red[s]]
    glob = fspr_problem(m, g, 0.4)
    targ = targeted_fspr_problem(m, g, s, s_r, 0.4)
    for field in ("gamma", "phi", "p_o", "q_r"):
        np.testing.assert_array_equal(getattr(glob, field), getattr(targ, field))
    assert targ.rhs == 0.0
    q = dense_q(m)
    expected = q @ np.isin(np.arange(g.n), s_r) - 0.4 * (q @ np.isin(np.arange(g.n), s))
    np.testing.assert_allclose(targ.constraint, expected, atol=1e-11)


@pytest.mark.parametrize("targeted", [False, True])
def test_products_reused_by_linearity_keep_the_solution_exact(targeted):
    # The solver extrapolates x'Q and its gradient instead of solving at the
    # momentum point; cold solves at the returned x must confirm every claim.
    for seed in range(4):
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
            phi = float(0.5 * (ratios.min() + ratios.max()))
            prob = targeted_fspr_problem(m, g, s, s_r, phi, p_o=p_o)
        else:
            prob = fspr_problem(m, g, feasible_phi(prob_qr_of(m, g), 0.3), p_o=p_o)
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
def test_solution_counts_its_solves(targeted):
    # one forward solve a line-search trial, one adjoint solve an iteration,
    # each plus one at the start
    rng = np.random.default_rng(9)
    g = random_colored_graph(rng, 40, sink_frac=0.1)
    m = standard_transition(g)
    if targeted:
        s = np.arange(0, g.n, 2)
        q = dense_q(m)
        ratios = (q @ np.isin(np.arange(g.n), s[g.red[s]])) / (q @ np.isin(np.arange(g.n), s))
        prob = targeted_fspr_problem(m, g, s, s[g.red[s]], float(ratios.mean()))
    else:
        prob = fspr_problem(m, g, feasible_phi(prob_qr_of(m, g), 0.3))
    for budget in (3, 5000):
        sol = solve_fspr(prob, max_iters=budget)
        assert sol.forward_solves == 1 + sol.iterations + sol.backtracks
        assert sol.adjoint_solves == 1 + sol.iterations
    assert sol.converged and sol.backtracks > 0
