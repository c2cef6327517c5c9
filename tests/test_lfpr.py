import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import count_products, random_colored_graph
from fairpr.analysis import lower_bound_loss
from fairpr.fspr import solve_fspr
from fairpr.graph import from_edges
from fairpr.lfpr import (
    PolicyKind,
    ResidualPolicy,
    _residual_problem,
    _split_rows,
    build_fair_jump,
    build_residual_model,
    lfpr_pagerank,
    make_policy,
    optimize_residuals,
    residual_decompose,
    targeted_jump,
    targeted_lfpr,
)
from fairpr.pagerank import dense_q, pagerank, solve_left, solve_right, standard_transition
from fairpr.synth import SynthConfig, generate
from oracles import row_sums, solve_fspr_dense, split_rows_reference, targeted_model_reference, validate

KINDS = (PolicyKind.NEIGHBORHOOD, PolicyKind.UNIFORM, PolicyKind.PROPORTIONAL)


def make_star(out_red, out_blue):
    # node 0 points at out_red red nodes then out_blue blue nodes
    n = 1 + out_red + out_blue
    red = np.zeros(n, dtype=bool)
    red[1 : 1 + out_red] = True
    edges = [(0, v) for v in range(1, n)] + [(1, 0)]
    return from_edges(n, edges, red)


def test_residual_worked_example_is_exact():
    # one red and four blue out-neighbors at phi = 1/2: the node keeps
    # per-edge share 1/8 and owes 3/8 to the red side
    g = make_star(1, 4)
    dec = residual_decompose(g, 0.5)
    assert dec.rho_red[0] == 0.125
    assert dec.delta_red[0] == 0.375
    assert bool((dec.short | g.sinks)[0]) is True
    assert dec.delta_blue[0] == 0.0


def test_decomposition_row_identities():
    rng = np.random.default_rng(0)
    for phi in (0.2, 0.5, 0.8):
        g = random_colored_graph(rng, 40, sink_frac=0.2)
        dec = residual_decompose(g, phi)
        base_red = dec.base.to_dense() @ g.red.astype(float)
        base_blue = dec.base.to_dense() @ (~g.red).astype(float)
        np.testing.assert_allclose(base_red + dec.delta_red, phi, atol=1e-12)
        np.testing.assert_allclose(base_blue + dec.delta_blue, 1.0 - phi, atol=1e-12)
        assert dec.delta_red.min() >= 0.0 and dec.delta_blue.min() >= 0.0
        # no non-sink row owes both sides
        assert ((dec.delta_red == 0) | (dec.delta_blue == 0))[~g.sinks].all()


def test_exact_ratio_row_needs_no_residual():
    # one red + one blue neighbor at phi = 1/2 is already locally fair
    g = make_star(1, 1)
    dec = residual_decompose(g, 0.5)
    assert not (dec.short | g.sinks)[0]
    assert dec.delta_blue[0] == 0.0
    assert np.where(dec.short, 0.0, dec.rho)[0] == 0.5


def test_fair_jump_masses():
    rng = np.random.default_rng(1)
    g = random_colored_graph(rng, 23)
    for phi in (0.1, 0.6):
        v = build_fair_jump(g, phi)
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        assert v @ g.red == pytest.approx(phi, abs=1e-12)


def test_neighborhood_model_equals_decomposition_route():
    # spreading each node's residual over its own-side neighbors must
    # reproduce the directly built per-neighbor shares
    rng = np.random.default_rng(2)
    g = random_colored_graph(rng, 30)
    phi = 0.4
    dense = build_residual_model(g, phi, make_policy(PolicyKind.NEIGHBORHOOD, g)).to_dense()
    dec = residual_decompose(g, phi)
    alt = dec.base.to_dense()
    for i in range(g.n):
        nbrs = g.indices[g.indptr[i] : g.indptr[i + 1]]
        red_nbrs = nbrs[g.red[nbrs]]
        blue_nbrs = nbrs[~g.red[nbrs]]
        if red_nbrs.size and blue_nbrs.size:
            if (dec.short | g.sinks)[i]:
                alt[i, red_nbrs] += dec.delta_red[i] / red_nbrs.size
            else:
                alt[i, blue_nbrs] += dec.delta_blue[i] / blue_nbrs.size
            np.testing.assert_allclose(dense[i], alt[i], atol=1e-14)


@pytest.mark.parametrize("kind", KINDS)
def test_every_row_is_phi_fair(kind):
    rng = np.random.default_rng(3)
    for phi in (0.25, 0.5, 0.75):
        g = random_colored_graph(rng, 35, sink_frac=0.15)
        p_o = pagerank(standard_transition(g))
        model = build_residual_model(g, phi, make_policy(kind, g, p_o=p_o))
        validate(model)
        np.testing.assert_allclose(model.apply_right(g.red.astype(float)), phi, atol=1e-12)
        np.testing.assert_allclose(row_sums(model), 1.0, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("phi", [0.1, 0.5, 0.9])
def test_lfpr_pagerank_hits_target_exactly(kind, phi):
    rng = np.random.default_rng(4)
    for _ in range(3):
        g = random_colored_graph(rng, int(rng.integers(10, 80)), sink_frac=0.1)
        p_o = pagerank(standard_transition(g))
        p = lfpr_pagerank(g, phi, make_policy(kind, g, p_o=p_o))
        assert p.sum() == pytest.approx(1.0, abs=1e-10)
        assert p @ g.red == pytest.approx(phi, abs=1e-10)


def test_lfpr_matches_dense_fixed_point():
    rng = np.random.default_rng(5)
    g = random_colored_graph(rng, 18, sink_frac=0.2)
    phi = 0.35
    policy = make_policy(PolicyKind.UNIFORM, g)
    model = build_residual_model(g, phi, policy)
    v = build_fair_jump(g, phi)
    gamma = 0.15
    a = np.eye(g.n) - (1.0 - gamma) * model.to_dense()
    expected = gamma * np.linalg.solve(a.T, v)
    np.testing.assert_allclose(solve_left(model, v, gamma), expected, atol=1e-11)


def test_make_policy_validation():
    g = from_edges(3, [(0, 1), (1, 2), (2, 0)], [True, False, False])
    with pytest.raises(ValueError):
        make_policy(PolicyKind.PROPORTIONAL, g)
    with pytest.raises(ValueError, match="optimize_residuals"):
        make_policy(PolicyKind.OPTIMIZED, g)
    # scores that give the red group (node 0) no mass, or the blue group none
    for p_o in ([0.0, 0.5, 0.5], [1.0, -0.0, 0.0]):
        with pytest.raises(ValueError, match="a group has zero score mass"):
            make_policy(PolicyKind.PROPORTIONAL, g, p_o=np.array(p_o))


@pytest.mark.parametrize("kind", [PolicyKind.UNIFORM, PolicyKind.PROPORTIONAL, PolicyKind.OPTIMIZED])
def test_a_distribution_policy_without_its_vectors_is_rejected(kind):
    g = from_edges(3, [(0, 1), (1, 2), (2, 0)], [True, False, False])
    x = make_policy(PolicyKind.UNIFORM, g).x
    for policy in (ResidualPolicy(kind), ResidualPolicy(kind, x=x)):
        with pytest.raises(ValueError, match=f"{kind.value} policy is missing its x/y vectors"):
            build_residual_model(g, 0.5, policy)


def test_make_policy_accepts_string_kinds():
    g = from_edges(3, [(0, 1), (1, 2), (2, 0)], [True, False, False])
    assert make_policy("uniform", g).kind is PolicyKind.UNIFORM


def test_optimized_search_dominates_fixed_policies():
    rng = np.random.default_rng(6)
    for seed in range(3):
        g = random_colored_graph(np.random.default_rng(20 + seed), 50)
        phi = 0.45
        p_o = pagerank(standard_transition(g))
        loss_u = float(np.sum((lfpr_pagerank(g, phi, make_policy("uniform", g)) - p_o) ** 2))
        loss_p = float(
            np.sum((lfpr_pagerank(g, phi, make_policy("proportional", g, p_o=p_o)) - p_o) ** 2)
        )
        res = optimize_residuals(g, phi, p_o=p_o, iterations=25)
        assert res.loss <= min(loss_u, loss_p) + 1e-12
        p = lfpr_pagerank(g, phi, res.policy)
        assert p @ g.red == pytest.approx(phi, abs=1e-9)
        assert res.policy.x.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.policy.y.sum() == pytest.approx(1.0, abs=1e-12)


def test_optimized_search_is_deterministic():
    rng = np.random.default_rng(7)
    g = random_colored_graph(rng, 30)
    a = optimize_residuals(g, 0.4, iterations=10)
    b = optimize_residuals(g, 0.4, iterations=10)
    assert a.loss == b.loss
    np.testing.assert_array_equal(a.policy.x, b.policy.x)
    np.testing.assert_array_equal(a.policy.y, b.policy.y)


def paid_mass(g, phi, gamma, policy, p):
    """The mass ``u`` that the policy pays out at its locally fair scores p."""
    dec = residual_decompose(g, phi)
    return (1 - gamma) / gamma * ((p @ dec.delta_red) * policy.x + (p @ dec.delta_blue) * policy.y)


@pytest.mark.parametrize("seed", range(3))
def test_utility_loss_gradient_matches_central_differences(seed):
    # graphs with sinks, at the u of a random interior policy; every coordinate
    rng = np.random.default_rng(40 + seed)
    g = random_colored_graph(rng, int(rng.integers(20, 50)), sink_frac=0.2)
    phi, gamma = float(rng.uniform(0.2, 0.8)), 0.15
    p_o = pagerank(standard_transition(g))
    problem = _residual_problem(g, phi, gamma, p_o)
    x, y = (np.where(mask, rng.uniform(0.5, 1.5, g.n), 0.0) for mask in (g.red, ~g.red))
    policy = ResidualPolicy(PolicyKind.OPTIMIZED, x=x / x.sum(), y=y / y.sum())
    p = lfpr_pagerank(g, phi, policy, gamma, tol=1e-14)
    u = paid_mass(g, phi, gamma, policy, p)
    # u is feasible, and p is affine in it: p' = (u + v)' Q for the base alone
    np.testing.assert_allclose(problem.constraint @ u, problem.rhs, rtol=0, atol=1e-12)
    forward = lambda w: solve_left(problem.model, w + problem.shift, gamma, tol=1e-14)
    np.testing.assert_allclose(forward(u), p, rtol=0, atol=1e-14)
    grad = 2.0 * solve_right(problem.model, p - p_o, gamma, tol=1e-14)
    eps = 1e-5
    loss = lambda w: float((forward(w) - p_o) @ (forward(w) - p_o))
    fd = np.array([(loss(u + eps * e) - loss(u - eps * e)) / (2 * eps) for e in np.eye(g.n)])
    assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)


def test_optimized_policy_nears_the_lower_bound():
    # the seeded benchmark-style graph at phi = 0.3; the random-direction
    # search that came first ended at 3.11x the bound here, a projected
    # gradient in (x, y) at 1.04x without converging in 200 iterations
    g = generate(SynthConfig(n=400, red_fraction=0.3, alpha_red=0.8, alpha_blue=0.5,
                             seed=12345, edges_per_node=2))
    p_o = pagerank(standard_transition(g))
    res = optimize_residuals(g, 0.3, p_o=p_o)
    assert res.loss <= 1.04 * lower_bound_loss(p_o, g, 0.3)
    assert res.converged and res.kkt_residual <= 1e-8 and res.iterations < 100
    # forward solves: the certificate's one; a converged search solves no fixed policy
    assert res.evaluations == 1


@pytest.mark.parametrize("sinks", [0.0, 0.2])
def test_optimized_policy_matches_the_dense_qp_oracle(sinks):
    # the u-QP solved by an exact active-set method on the dense resolvent
    for seed in range(3):
        rng = np.random.default_rng(60 + seed)
        g = random_colored_graph(rng, int(rng.integers(15, 40)), sink_frac=sinks)
        phi, gamma = float(rng.uniform(0.2, 0.8)), 0.15
        p_o = pagerank(standard_transition(g))
        problem = _residual_problem(g, phi, gamma, p_o)
        q = dense_q(problem.model, gamma)
        uniform = make_policy("uniform", g)  # its paid mass is a feasible start
        start = paid_mass(g, phi, gamma, uniform, lfpr_pagerank(g, phi, uniform, gamma, tol=1e-14))
        u = solve_fspr_dense(q, p_o, problem.constraint, problem.rhs, shift=problem.shift, start=start)
        oracle = float(((u + problem.shift) @ q - p_o) @ ((u + problem.shift) @ q - p_o))
        res = optimize_residuals(g, phi, gamma, p_o, iterations=5000, tol=1e-10)
        assert res.converged
        assert abs(res.loss - oracle) <= 1e-9 * oracle
        p = lfpr_pagerank(g, phi, res.policy, gamma)
        assert float((p - p_o) @ (p - p_o)) == pytest.approx(res.loss, rel=1e-9)


def test_optimized_policy_when_no_row_owes_red():
    # every row already sends at least phi to red and there are no sinks, so
    # delta_R = 0: u must vanish on red, and x falls back to uniform
    n = 8
    red = np.arange(n) % 2 == 0
    edges = [(i, j) for i in range(n) for j in range(n) if i != j and (red[j] or (i + j) % 3 == 0)]
    g = from_edges(n, edges, red)
    assert (residual_decompose(g, 0.2).delta_red == 0).all()
    res = optimize_residuals(g, 0.2, tol=1e-10)
    # its loss is 0.13, where a loop with inexact products once needed a loss
    # test beyond a fixed 1e-13 slack (9 iterations with every product solved
    # to INNER_TOL); the dual ends at a zero step direction
    assert res.converged and res.iterations < 20 and res.loss > 0.1
    np.testing.assert_array_equal(res.policy.x, red / red.sum())
    assert abs(lfpr_pagerank(g, 0.2, res.policy) @ red - 0.2) <= 1e-9


def test_optimized_search_restarts_only_beyond_the_product_error():
    # A random case (n = 16, no sinks, loss 0.030) where a loop that restarted
    # on loss rises a loose product's error explains never converged in 500
    # iterations (22 with every product solved to INNER_TOL); the dual needs 20
    rng = np.random.default_rng(1021)
    rng.integers(8, 60), rng.choice([0.0, 0.2])  # the draws that picked n = 16 and no sinks
    g = random_colored_graph(rng, 16)
    res = optimize_residuals(g, 0.1, tol=1e-10)
    assert res.converged and res.iterations < 40
    assert res.loss > 0.03


@pytest.mark.parametrize("seed", range(90, 98))
def test_optimized_policy_never_loses_to_a_fixed_one(seed):
    # a search out of steps returns the better fixed policy where that has the
    # lower loss, so even a budget of one or two dual steps keeps the fixed
    # policy's loss (at seed 94 one step of the dual alone ends 0.7 % above it)
    rng = np.random.default_rng(seed)
    g = random_colored_graph(rng, int(rng.integers(4, 30)), sink_frac=rng.choice([0.0, 0.2]))
    phi = float(rng.choice([0.02, 0.05, 0.95, 0.98]))
    p_o = pagerank(standard_transition(g))
    fixed = []
    for kind in ("uniform", "proportional"):
        p = lfpr_pagerank(g, phi, make_policy(kind, g, p_o=p_o))
        fixed.append(float((p - p_o) @ (p - p_o)))
    for budget in (1, 2, 5000):
        res = optimize_residuals(g, phi, p_o=p_o, iterations=budget)
        assert res.loss <= min(fixed) * (1.0 + 1e-9)
    assert res.converged


def test_optimized_search_counts_its_products(monkeypatch):
    # the problem's own two adjoint solves and the solver's, not p_o's
    g = random_colored_graph(np.random.default_rng(8), 30, sink_frac=0.1)
    p_o = pagerank(standard_transition(g))
    calls = count_products(monkeypatch)
    res = optimize_residuals(g, 0.4, p_o=p_o)
    assert res.converged and res.matvecs == len(calls) > 0


def spy_solutions(monkeypatch):
    """A list that gains each solution ``optimize_residuals`` gets from ``solve_fspr``."""
    solutions = []

    def spy(*args, **kwargs):
        solutions.append(solve_fspr(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr("fairpr.lfpr.solve_fspr", spy)
    return solutions


def test_a_converged_search_solves_no_fixed_policy(monkeypatch):
    # the fixed policies are the fallback of a search out of steps alone
    g = random_colored_graph(np.random.default_rng(8), 30, sink_frac=0.1)
    p_o = pagerank(standard_transition(g))
    solutions, forward = spy_solutions(monkeypatch), []
    monkeypatch.setattr("fairpr.lfpr.solve_left", lambda *a, **k: forward.append(1) or solve_left(*a, **k))
    res = optimize_residuals(g, 0.4, p_o=p_o)
    assert res.converged and not forward
    assert res.evaluations == solutions[0].certificates


def test_a_search_out_of_steps_returns_the_better_fixed_policy(monkeypatch):
    # test_optimized_policy_never_loses_to_a_fixed_one's seed 94: one dual step
    # ends above the better fixed policy, which is returned as it is
    rng = np.random.default_rng(94)
    g = random_colored_graph(rng, int(rng.integers(4, 30)), sink_frac=rng.choice([0.0, 0.2]))
    phi = float(rng.choice([0.02, 0.05, 0.95, 0.98]))
    p_o = pagerank(standard_transition(g))
    fixed = []
    for kind in ("uniform", "proportional"):
        policy = make_policy(kind, g, p_o=p_o)
        p = lfpr_pagerank(g, phi, policy)
        fixed.append((float((p - p_o) @ (p - p_o)), policy))
    loss, policy = min(fixed, key=lambda pair: pair[0])
    solutions, calls = spy_solutions(monkeypatch), count_products(monkeypatch)
    res = optimize_residuals(g, phi, p_o=p_o, iterations=1)
    (sol,) = solutions
    assert sol.loss > loss and not res.converged and res.iterations == 1
    np.testing.assert_array_equal(res.policy.x, policy.x)
    np.testing.assert_array_equal(res.policy.y, policy.y)
    assert abs(res.loss - loss) <= 1e-12
    # the dual's residual, and the two fixed policies' forward solves and products counted
    assert res.kkt_residual == sol.kkt_residual
    assert res.evaluations == sol.certificates + 2 and res.matvecs == len(calls)


def test_optimized_search_converges_and_reports_its_residual():
    g = random_colored_graph(np.random.default_rng(8), 30, sink_frac=0.1)
    res = optimize_residuals(g, 0.4, iterations=5000, tol=1e-9)
    assert res.converged and res.kkt_residual <= 1e-9
    assert res.iterations < 5000
    short = optimize_residuals(g, 0.4, iterations=1, tol=1e-9)
    assert not short.converged and short.kkt_residual > 1e-9 and short.iterations == 1


@pytest.mark.parametrize("budget", [dict(iterations=0), dict(iterations=-3), dict(tol=0.0), dict(tol=float("nan"))])
def test_optimized_search_rejects_a_meaningless_budget(budget):
    g = random_colored_graph(np.random.default_rng(8), 25)
    with pytest.raises(ValueError, match="iterations must be at least 1|tol must be a positive finite"):
        optimize_residuals(g, 0.5, **budget)


@pytest.mark.parametrize("kind", ["neighborhood", "uniform", "proportional"])
def test_targeted_share_is_exact(kind):
    rng = np.random.default_rng(9)
    for phi in (0.3, 0.5, 0.8):
        g = random_colored_graph(rng, 40, sink_frac=0.1)
        s = rng.choice(g.n, size=12, replace=False)
        s_r = s[g.red[s]]
        if s_r.size == 0 or s_r.size == s.size:
            continue
        p = targeted_lfpr(g, s, s_r, phi, kind=kind)
        pr_s = p[s].sum()
        assert pr_s > 0
        assert p[s_r].sum() == pytest.approx(phi * pr_s, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 50),
    sink_frac=st.sampled_from([0.2, 0.4]),
    phi=st.floats(0.05, 0.95),
    gamma=st.sampled_from([0.05, 0.15, 0.5]),
    kind=st.sampled_from(KINDS),
)
def test_targeted_scores_bound_the_jump_from_below(seed, n, sink_frac, phi, gamma, kind):
    # p' = (1 - gamma) x'M + gamma v' for a nonnegative x and M, so p >= gamma v,
    # and S, on which the jump v is positive, always receives mass
    rng = np.random.default_rng(seed)
    g = random_colored_graph(rng, n, sink_frac=sink_frac)
    assert g.sinks.any()
    s = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
    s_r = s[: int(rng.integers(1, s.size))]
    s_mask, sr_mask = np.isin(np.arange(n), s), np.isin(np.arange(n), s_r)
    p = targeted_lfpr(g, s, s_r, phi, kind=kind, gamma=gamma)
    assert (p >= gamma * targeted_jump(g, s_mask, sr_mask, phi)).all()
    assert p[s_mask].sum() >= gamma * s.size / n * (1.0 - 1e-12) > 0.0


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    sink_frac=st.sampled_from([0.0, 0.2, 0.5]),
    avg_out=st.sampled_from([1.0, 3.0, 6.0]),
    phi=st.floats(1e-9, 1.0 - 1e-9),
    targeted=st.booleans(),
)
def test_split_rows_matches_the_reference_bit_for_bit(seed, n, sink_frac, avg_out, phi, targeted):
    # the global masks (S = all nodes, S_R = red) or a targeted pair S_R in S, both splits
    rng = np.random.default_rng(seed)
    g = random_colored_graph(rng, n, avg_out=avg_out, sink_frac=sink_frac)
    s_mask, sr_mask = np.ones(n, dtype=bool), g.red
    if targeted:
        s = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
        s_mask, sr_mask = np.isin(np.arange(n), s), np.isin(np.arange(n), s[: int(rng.integers(1, s.size))])
    for neighborhood in (False, True):
        got = _split_rows(g, s_mask, sr_mask, phi, neighborhood)
        want = split_rows_reference(g, s_mask, sr_mask, phi, neighborhood)
        pairs = [(got.base.data, want.base.data), (got.delta_red, want.delta_red), (got.delta_blue, want.delta_blue)]
        if neighborhood:
            assert got.rho is None and got.short is None and want.rho is None and want.short is None
        else:
            pairs += [(got.rho, want.rho), (got.short, want.short)]
        for a, b in pairs:
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert len(got.rest) == len(want.rest)
        for a, b in zip(sum(got.rest, ()), sum(want.rest, ())):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_targeted_model_rows_split_target_mass():
    rng = np.random.default_rng(10)
    g = random_colored_graph(rng, 30, sink_frac=0.2)
    s = np.arange(10)
    s_r = s[g.red[s]]
    if s_r.size == 0 or s_r.size == s.size:
        s_r = s[:1] if s_r.size == 0 else s_r[:-1]
        pytest.skip("degenerate random draw")
    phi = 0.6
    s_mask = np.isin(np.arange(g.n), s)
    sr_mask = np.isin(np.arange(g.n), s_r)
    model = build_residual_model(g, phi, make_policy("uniform", g, None, s_mask, sr_mask), s_mask, sr_mask)
    validate(model)
    in_s = model.apply_right(s_mask.astype(float))
    in_sr = model.apply_right(sr_mask.astype(float))
    np.testing.assert_allclose(in_sr, phi * in_s, atol=1e-13)
    # rows keep their out-of-target entries from the standard walk
    std = standard_transition(g).to_dense()
    dense = model.to_dense()
    nonsink = ~g.sinks
    np.testing.assert_allclose(dense[nonsink][:, ~s_mask], std[nonsink][:, ~s_mask], atol=1e-14)


def test_targeted_jump_masses():
    rng = np.random.default_rng(11)
    g = random_colored_graph(rng, 20)
    s_mask = np.zeros(g.n, dtype=bool)
    s_mask[:8] = True
    sr_mask = s_mask & g.red
    if not sr_mask.any() or not (s_mask & ~g.red).any():
        pytest.skip("degenerate random draw")
    v = targeted_jump(g, s_mask, sr_mask, 0.7)
    assert v.sum() == pytest.approx(1.0, abs=1e-12)
    assert v[s_mask].sum() == pytest.approx(8 / g.n, abs=1e-12)
    assert v[sr_mask].sum() == pytest.approx(0.7 * 8 / g.n, abs=1e-12)


def test_targeted_validation_errors():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [True, True, False, False])
    with pytest.raises(ValueError):
        targeted_lfpr(g, [], [0], 0.5)
    with pytest.raises(ValueError):
        targeted_lfpr(g, [0, 1], [], 0.5)
    with pytest.raises(ValueError):
        targeted_lfpr(g, [0, 1], [2], 0.5)
    with pytest.raises(ValueError):
        targeted_lfpr(g, [0, 1], [0, 1], 0.5)
    with pytest.raises(ValueError):
        targeted_lfpr(g, [0, 9], [0], 0.5)
    with pytest.raises(ValueError):
        targeted_lfpr(g, [0, 1], [0], 0.5, kind="optimized")


@pytest.mark.parametrize("phi", [0.0, 1.0, -0.2, 1.5])
def test_phi_out_of_range_rejected(phi):
    g = from_edges(3, [(0, 1), (1, 2), (2, 0)], [True, False, False])
    with pytest.raises(ValueError):
        lfpr_pagerank(g, phi, make_policy("uniform", g))


def test_global_builders_are_the_targeted_builder_at_s_all():
    # global phi-fairness is targeted fairness with S = all nodes and S_R = red,
    # and the builder's default masks must reproduce that model bit for bit
    rng = np.random.default_rng(13)
    for phi in (0.1, 0.3, 0.7):
        g = random_colored_graph(rng, 60, sink_frac=0.1)
        everyone = np.ones(g.n, dtype=bool)
        p_o = pagerank(standard_transition(g))
        dec = residual_decompose(g, phi)
        for kind in KINDS:
            targeted = build_residual_model(g, phi, make_policy(kind, g, p_o, everyone, g.red), everyone, g.red)
            policy = make_policy(kind, g, p_o=p_o)
            model = build_residual_model(g, phi, policy)
            if kind is not PolicyKind.NEIGHBORHOOD:
                np.testing.assert_array_equal(dec.base.data, targeted.base.data)
            np.testing.assert_array_equal(model.base.data, targeted.base.data)
            np.testing.assert_array_equal(model.base.indices, targeted.base.indices)
            np.testing.assert_array_equal(model.base.indptr, targeted.base.indptr)
            assert len(model.residuals) == len(targeted.residuals)
            for (d_a, t_a), (d_b, t_b) in zip(model.residuals, targeted.residuals):
                np.testing.assert_array_equal(d_a, d_b)
                np.testing.assert_array_equal(t_a, t_b)
            np.testing.assert_array_equal(
                lfpr_pagerank(g, phi, policy),
                solve_left(targeted, build_fair_jump(g, phi), 0.15),
            )


@st.composite
def split_cases(draw):
    n = draw(st.integers(4, 14))
    red = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    assume(red.any() and not red.all())
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1))
    sinks = draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    edges = sorted((u, v) for u, v in edges if u != v and u not in sinks)
    assume(edges)
    s = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    s_r = s & np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    assume(s_r.any() and (s & ~s_r).any())
    phi = draw(st.floats(0.01, 0.99))
    kind = draw(st.sampled_from(KINDS))
    return from_edges(n, edges, red), s, s_r, phi, kind


@settings(max_examples=150, deadline=None)
@given(split_cases())
def test_row_split_is_targeted_fair_and_leaves_the_rest_alone(case):
    g, s_mask, sr_mask, phi, kind = case
    p_o = pagerank(standard_transition(g))
    model = build_residual_model(g, phi, make_policy(kind, g, p_o, s_mask, sr_mask), s_mask, sr_mask)
    validate(model)
    # the merged builder is the earlier targeted builder bit for bit
    want = targeted_model_reference(g, s_mask, sr_mask, phi, kind, p_o=p_o)
    assert np.array_equal(model.base.data, want.base.data)
    assert len(model.residuals) == len(want.residuals)
    for (d_a, t_a), (d_b, t_b) in zip(model.residuals, want.residuals):
        assert np.array_equal(d_a, d_b) and np.array_equal(t_a, t_b)
    np.testing.assert_allclose(
        model.apply_right(sr_mask.astype(float)), phi * model.apply_right(s_mask.astype(float)),
        rtol=0.0, atol=1e-12,
    )
    nonsink = ~g.sinks
    dense = model.to_dense()[nonsink][:, ~s_mask]
    std = standard_transition(g).to_dense()[nonsink][:, ~s_mask]
    np.testing.assert_array_equal(dense, std)
