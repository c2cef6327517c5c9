import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_products, random_colored_graph
from fairpr.errors import ConvergenceError
from fairpr.graph import from_edges
from fairpr.lfpr import build_fair_jump, build_residual_model, lfpr_pagerank, make_policy
from fairpr.pagerank import (
    DEFAULT_TOL,
    INNER_TOL,
    TransitionModel,
    absorption_vector,
    check_distribution,
    dense_q,
    from_dense,
    pagerank,
    personalized_pagerank,
    red_absorption_vector,
    solve_left,
    solve_right,
    standard_transition,
)
from fairpr.synth import SynthConfig, generate
from oracles import effective_row, plain_fixed_point, row_sums, validate

GAMMA = 0.15


def dense_pagerank(m, v, gamma=GAMMA):
    # closed form p' = gamma v' [I - (1-gamma) M]^{-1}
    a = np.eye(m.n) - (1.0 - gamma) * m.to_dense()
    return gamma * np.linalg.solve(a.T, v)


def test_standard_transition_rows_are_stochastic():
    rng = np.random.default_rng(0)
    g = random_colored_graph(rng, 30, sink_frac=0.25)
    m = standard_transition(g)
    validate(m)
    np.testing.assert_allclose(row_sums(m), 1.0, atol=1e-12)
    # sink rows jump uniformly
    sink = int(np.nonzero(g.sinks)[0][0])
    np.testing.assert_allclose(effective_row(m, sink), 1.0 / g.n, atol=0)


def test_transition_model_products_match_dense():
    rng = np.random.default_rng(1)
    g = random_colored_graph(rng, 25, sink_frac=0.2)
    m = standard_transition(g)
    dense = m.to_dense()
    p = rng.dirichlet(np.ones(g.n))
    q = rng.uniform(size=g.n)
    np.testing.assert_allclose(m.apply_left(p), p @ dense, atol=1e-14)
    np.testing.assert_allclose(m.apply_right(q), dense @ q, atol=1e-14)
    for i in (0, g.n - 1):
        np.testing.assert_allclose(effective_row(m, i), dense[i], atol=1e-15)


def test_sparse_products_equal_a_scipy_csr_matvec_bit_for_bit():
    # the same terms summed in the same order: each column of p' A in row
    # order, as a CSR matvec of A' adds them, and each row of A q in storage order
    sparse = pytest.importorskip("scipy.sparse")
    rng = np.random.default_rng(4)
    for n in (30, 1000):
        base = standard_transition(random_colored_graph(rng, n, sink_frac=0.2)).base
        csr = sparse.csr_matrix((base.data, base.indices, base.indptr), shape=(n, n))
        p, q = rng.dirichlet(np.ones(n)), rng.uniform(size=n)
        np.testing.assert_array_equal(base.left(p), csr.T.tocsr() @ p)
        np.testing.assert_array_equal(base.right(q), csr @ q)
    mat = rng.uniform(size=(7, 7)) * (rng.uniform(size=(7, 7)) < 0.4)
    base, csr = from_dense(mat).base, sparse.csr_matrix(mat)
    for mine, theirs in ((base.data, csr.data), (base.indices, csr.indices), (base.indptr, csr.indptr)):
        np.testing.assert_array_equal(mine, theirs)


def test_products_of_an_edge_free_graph_are_float():
    # np.bincount over no entries returns int64 zeros
    m = standard_transition(from_edges(2, [], [True, False]))
    for product in (m.base.left, m.base.right, m.apply_left, m.apply_right):
        assert product(np.array([0.25, 0.75])).dtype == np.float64
    np.testing.assert_array_equal(pagerank(m), [0.5, 0.5])


def test_from_dense_round_trip():
    rng = np.random.default_rng(2)
    mat = rng.dirichlet(np.ones(6), size=6)
    m = from_dense(mat)
    validate(m)
    np.testing.assert_allclose(m.to_dense(), mat, atol=0)


def test_validate_rejects_non_stochastic_rows():
    mat = np.full((3, 3), 1 / 3)
    mat[0, 0] += 1e-6
    with pytest.raises(ValueError):
        validate(from_dense(mat))


@pytest.mark.parametrize("sink_frac", [0.0, 0.3])
def test_pagerank_matches_dense_solve(sink_frac):
    rng = np.random.default_rng(10)
    for _ in range(5):
        g = random_colored_graph(rng, int(rng.integers(10, 50)), sink_frac=sink_frac)
        m = standard_transition(g)
        p = pagerank(m)
        assert p.sum() == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(p, dense_pagerank(m, np.full(g.n, 1 / g.n)), atol=1e-11)


def test_personalized_pagerank_matches_resolvent_row():
    rng = np.random.default_rng(11)
    g = random_colored_graph(rng, 20, sink_frac=0.1)
    m = standard_transition(g)
    q = dense_q(m)
    for i in (0, 7, 19):
        np.testing.assert_allclose(personalized_pagerank(m, i), q[i], atol=1e-11)


def test_absorption_vector_is_resolvent_column_sum():
    rng = np.random.default_rng(12)
    g = random_colored_graph(rng, 35, sink_frac=0.2)
    m = standard_transition(g)
    q = dense_q(m)
    np.testing.assert_allclose(red_absorption_vector(m, g), q @ g.red, atol=1e-12)
    w = rng.uniform(size=g.n)
    np.testing.assert_allclose(absorption_vector(m, w), q @ w, atol=1e-12)


def test_solver_warm_start_changes_nothing():
    rng = np.random.default_rng(13)
    g = random_colored_graph(rng, 15)
    m = standard_transition(g)
    v = rng.dirichlet(np.ones(g.n))
    cold = solve_left(m, v, GAMMA, tol=1e-13)
    warm = solve_left(m, v, GAMMA, tol=1e-13, start=cold)
    np.testing.assert_allclose(cold, warm, atol=1e-12)
    r = rng.uniform(size=g.n)
    cold_r = solve_right(m, r, GAMMA, tol=1e-14)
    warm_r = solve_right(m, r, GAMMA, tol=1e-14, start=cold_r)
    np.testing.assert_allclose(cold_r, warm_r, atol=1e-13)


def test_budget_exhaustion_names_the_last_step():
    g = from_edges(3, [(0, 1), (1, 2), (2, 0)], [True, False, False])
    m = standard_transition(g)
    with pytest.raises(ConvergenceError, match=r"^left fixed point not within 1e-12 after 2 iterations "
                                               r"\(last step \d\.\d{3}e-\d\d\)$"):
        solve_left(m, np.array([0.7, 0.2, 0.1]), GAMMA, tol=1e-12, max_iters=2)
    with pytest.raises(ConvergenceError, match=r"^right fixed point not within 1e-14 after 3 iterations "
                                               r"\(last step \d\.\d{3}e-\d\d\)$"):
        solve_right(m, np.array([1.0, 0.0, 0.0]), GAMMA, tol=1e-14, max_iters=3)


@pytest.mark.parametrize("solve", [solve_left, solve_right])
def test_solves_add_their_products_to_the_counts(monkeypatch, solve):
    g = random_colored_graph(np.random.default_rng(14), 25, sink_frac=0.2)
    m = standard_transition(g)
    calls = count_products(monkeypatch)
    v = np.random.default_rng(15).dirichlet(np.ones(g.n))
    counts = {"matvecs": 5}
    first = solve(m, v, GAMMA, tol=1e-13, counts=counts)
    assert counts["matvecs"] == 5 + len(calls) and len(calls) > 10
    solve(m, v, GAMMA, tol=1e-13, start=first, counts=counts)
    assert counts["matvecs"] == 5 + len(calls)
    with pytest.raises(ConvergenceError):
        solve(m, v, GAMMA, tol=1e-13, max_iters=4, counts=counts)
    assert counts["matvecs"] == 5 + len(calls)


def test_check_distribution_accepts_valid():
    v = check_distribution(np.array([0.25, 0.75]))
    assert v.dtype == float


def test_check_distribution_rejects_bad_jump_vectors():
    with pytest.raises(ValueError, match="sums to"):
        check_distribution(np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError, match="negative"):
        check_distribution(np.array([1.5, -0.5, 0.0]))
    with pytest.raises(ValueError, match="1-D"):
        check_distribution(np.eye(3))


def test_dense_q_rows_are_personalized_distributions():
    rng = np.random.default_rng(14)
    g = random_colored_graph(rng, 12, sink_frac=0.1)
    m = standard_transition(g)
    q = dense_q(m)
    np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)
    assert q.min() >= 0.0
    # gamma self-restart floor on the diagonal
    assert q.diagonal().min() >= GAMMA


def test_dense_q_refuses_large_models():
    base = from_dense(np.full((3, 3), 1 / 3))
    with pytest.raises(ValueError):
        dense_q(base, cap=2)


def test_rank_one_residual_model_matches_dense():
    # base missing 0.3 of row mass, restored by two rank-one terms
    rng = np.random.default_rng(15)
    n = 8
    base = rng.dirichlet(np.ones(n), size=n) * 0.7
    t1 = rng.dirichlet(np.ones(n))
    t2 = rng.dirichlet(np.ones(n))
    # split the withheld 0.3 between the two terms, rows stay stochastic
    d1 = rng.uniform(0.0, 0.3, size=n)
    d2 = 0.3 - d1
    m = TransitionModel(base=from_dense(base).base, residuals=((d1, t1), (d2, t2)))
    validate(m)
    dense = m.to_dense()
    v = rng.dirichlet(np.ones(n))
    np.testing.assert_allclose(pagerank(m), dense_pagerank(from_dense(dense), np.full(n, 1 / n)), atol=1e-11)
    np.testing.assert_allclose(solve_left(m, v, GAMMA), dense_pagerank(from_dense(dense), v), atol=1e-11)


def test_write_scores_csv_full_precision(tmp_path):
    from fairpr.pagerank import write_scores_csv

    scores = np.array([1 / 3, 2 / 3])
    write_scores_csv(tmp_path / "s.csv", scores)
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[0] == "node,score"
    assert float(lines[1].split(",")[1]) == scores[0]


@pytest.mark.parametrize("gamma", [1.5, 1.0, 0.0, -0.2, float("nan")])
def test_fixed_point_engine_rejects_gamma_outside_unit_interval(gamma):
    m = standard_transition(from_edges(3, [(0, 1), (1, 2), (2, 0)], [True, False, False]))
    v = np.full(3, 1.0 / 3.0)
    for solve in (solve_left, solve_right):
        with pytest.raises(ValueError, match="gamma"):
            solve(m, v, gamma)
    with pytest.raises(ValueError, match="gamma"):
        dense_q(m, gamma)
    with pytest.raises(ValueError, match="gamma"):
        pagerank(m, gamma)


@pytest.mark.parametrize("gamma", [0.15, 0.4])
def test_pagerank_agrees_with_networkx(gamma):
    # an independent implementation: dangling rows jump uniformly in both
    rng = np.random.default_rng(31)
    for n in (5, 40, 300):
        g = random_colored_graph(rng, n, sink_frac=0.2)
        assert g.sinks.any()
        digraph = nx.DiGraph()
        digraph.add_nodes_from(range(n))
        digraph.add_edges_from((u, int(v)) for u in range(n) for v in g.indices[g.indptr[u]:g.indptr[u + 1]])
        oracle = nx.pagerank(digraph, alpha=1.0 - gamma, tol=1e-16, max_iter=10_000)
        expected = np.array([oracle[i] for i in range(n)])
        p = pagerank(standard_transition(g), gamma, tol=1e-14)
        np.testing.assert_allclose(p, expected, rtol=0.0, atol=1e-9)
        assert np.abs(p - expected).sum() <= 1e-9


# The extrapolating engine against the plain loop and the dense resolvent.

SIDES = {
    "left": (solve_left, "apply_left", np.add.reduce),
    "right": (solve_right, "apply_right", np.maximum.reduce),
}


def _draw_vector(rng, n, kind):
    if kind == "indicator":
        return np.eye(n)[rng.integers(n)]
    if kind == "distribution":
        return rng.dirichlet(np.ones(n))
    if kind == "nonnegative":
        return rng.uniform(size=n) * (rng.uniform(size=n) < 0.5)
    return rng.normal(size=n)


@st.composite
def fixed_point_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_colored_graph(rng, draw(st.integers(2, 60)), sink_frac=draw(st.sampled_from([0.1, 0.3])))
    side = draw(st.sampled_from(sorted(SIDES)))
    kind = draw(st.sampled_from(["indicator", "distribution", "nonnegative", "signed"]))
    r = _draw_vector(rng, g.n, kind)
    start = draw(st.sampled_from([None, "indicator" if kind == "distribution" else kind]))
    if start is not None:
        start = _draw_vector(rng, g.n, start)
    tol = 10.0 ** -draw(st.floats(8.0, 14.0))
    return standard_transition(g), side, kind, r, start, tol


@settings(max_examples=300, deadline=None)
@given(fixed_point_cases())
def test_extrapolated_solves_keep_the_plain_loops_guarantees(case):
    m, side, kind, r, start, tol = case
    solve, apply, reduce = SIDES[side]
    x = solve(m, r, GAMMA, tol=tol, start=start)
    np.testing.assert_array_equal(x, solve(m, r, GAMMA, tol=tol, start=start))
    q = dense_q(m)
    exact = r @ q if side == "left" else q @ r
    # the contraction bound, plus rounding of the products and of the dense inverse
    assert reduce(np.abs(x - exact)) <= tol * (1.0 - GAMMA) / GAMMA + 1e-14 * reduce(np.abs(r)) * m.n
    if kind != "signed":
        assert x.min() >= 0.0
    if kind != "signed" and start is None:
        # Started at r, the plain loop's zeros are the nodes r's walks have
        # not reached.  A start of other support can leave a zero that is
        # only the parity of a cycle, which no mix of two parities keeps.
        plain = plain_fixed_point(getattr(m, apply), r, GAMMA, reduce, tol, 10_000, None, side, None)
        np.testing.assert_array_equal(x[plain == 0.0], 0.0)
    if side == "left" and kind in ("indicator", "distribution"):
        assert abs(x.sum() - 1.0) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 60),
    phi=st.floats(0.05, 0.95),
    policy=st.sampled_from(["neighborhood", "uniform"]),
    warm=st.booleans(),
    tol=st.floats(8.0, 14.0).map(lambda e: 10.0**-e),
)
def test_extrapolated_solves_keep_the_sum_and_the_red_share(seed, n, phi, policy, warm, tol):
    # every row of a locally fair model sends phi to red, so every image of a
    # distribution has red mass phi, and so has every affine mix of them
    rng = np.random.default_rng(seed)
    g = random_colored_graph(rng, n, sink_frac=0.2)
    model = build_residual_model(g, phi, make_policy(policy, g))
    start = rng.dirichlet(np.ones(n)) if warm else None
    p = solve_left(model, build_fair_jump(g, phi), GAMMA, tol=tol, start=start)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert abs(p[g.red].sum() - phi) <= 1e-12


@pytest.mark.parametrize("side", sorted(SIDES))
@pytest.mark.parametrize("scale, tol", [(0.0, 1e-12), (0.0, 1e-300), (1e-160, 1e-172), (1e-300, 1e-310)])
def test_extrapolation_at_zero_and_underflow_warns_of_nothing(side, scale, tol):
    # residuals this small square to zero or to subnormals in the Gram matrix
    rng = np.random.default_rng(16)
    m = standard_transition(random_colored_graph(rng, 40, sink_frac=0.2))
    solve, _, reduce = SIDES[side]
    r = scale * rng.dirichlet(np.ones(m.n))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = solve(m, r, GAMMA, tol=tol, start=rng.dirichlet(np.ones(m.n)))
    exact = r @ dense_q(m) if side == "left" else dense_q(m) @ r
    assert x.min() >= 0.0
    assert reduce(np.abs(x - exact)) <= tol * (1.0 - GAMMA) / GAMMA + 1e-14 * scale * m.n


def test_extrapolation_needs_at_most_60_percent_of_the_plain_products(monkeypatch):
    # plain loop / extrapolated: 73 / 34, 84 / 40 and 74 / 37 products
    g = generate(SynthConfig(2000, 0.3, 0.8, 0.5, seed=4242, edges_per_node=2))
    m, fair = standard_transition(g), build_residual_model(g, 0.3, make_policy("neighborhood", g))
    uniform, red = np.full(g.n, 1.0 / g.n), g.red.astype(float)
    solves = [
        (lambda: pagerank(m), m.apply_left, uniform, np.add.reduce, DEFAULT_TOL),
        (lambda: red_absorption_vector(m, g), m.apply_right, red, np.maximum.reduce, INNER_TOL),
        (lambda: lfpr_pagerank(g, 0.3, make_policy("neighborhood", g)), fair.apply_left,
         build_fair_jump(g, 0.3), np.add.reduce, DEFAULT_TOL),
    ]
    for solve, apply, r, reduce, tol in solves:
        plain = {"matvecs": 0}
        plain_fixed_point(apply, r, GAMMA, reduce, tol, 10_000, None, "", plain)
        calls = count_products(monkeypatch)
        solve()
        assert 0 < len(calls) <= 0.6 * plain["matvecs"]
        monkeypatch.undo()
