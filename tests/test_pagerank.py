import networkx as nx
import numpy as np
import pytest

from conftest import count_products, random_colored_graph
from fairpr.errors import ConvergenceError
from fairpr.graph import from_edges
from fairpr.pagerank import (
    TransitionModel,
    absorption_vector,
    check_distribution,
    dense_q,
    from_dense,
    pagerank,
    personalized_pagerank,
    power_iterate,
    red_absorption_vector,
    solve_left,
    solve_right,
    standard_transition,
)
from oracles import effective_row, row_sums, validate

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
    np.testing.assert_allclose(m.row_masses(g.red), dense[:, g.red].sum(axis=1), atol=1e-14)
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


def test_power_iterate_validates_jump_vector():
    g = from_edges(3, [(0, 1), (1, 2), (2, 0)], [True, False, False])
    m = standard_transition(g)
    with pytest.raises(ValueError):
        power_iterate(m, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        power_iterate(m, np.array([1.5, -0.5, 0.0]))
    with pytest.raises(ValueError):
        power_iterate(m, np.eye(3))


def test_power_iterate_raises_on_budget_exhaustion():
    g = from_edges(3, [(0, 1), (1, 2), (2, 0)], [True, False, False])
    m = standard_transition(g)
    with pytest.raises(ConvergenceError):
        power_iterate(m, np.array([0.7, 0.2, 0.1]), tol=1e-12, max_iters=2)


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
    np.testing.assert_allclose(power_iterate(m, v), dense_pagerank(from_dense(dense), v), atol=1e-11)


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
