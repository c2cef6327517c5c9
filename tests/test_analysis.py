import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import clipped_lower_bound_oracle, random_colored_graph, row_fair_matrix
from fairpr import analysis
from fairpr.analysis import (
    converse_check,
    lower_bound_loss,
    lower_bound_vector,
    make_report,
    personalized_audit,
    red_mass,
    targeted_lower_bound_loss,
    utility_loss,
    write_audit_csv,
    write_histogram_csv,
    write_json,
)
from fairpr.graph import from_edges
from fairpr.fspr import Feasibility, feasibility_check, fspr_problem, solve_fspr, targeted_fspr_problem
from fairpr.lfpr import (
    build_residual_model,
    lfpr_pagerank,
    make_policy,
    optimize_residuals,
    targeted_lfpr,
)
from fairpr.pagerank import from_dense, pagerank, standard_transition

GAMMA = 0.15


def test_red_mass_and_utility_loss():
    g = from_edges(3, [(0, 1), (1, 0)], [True, False, True])
    p = np.array([0.2, 0.5, 0.3])
    assert red_mass(p, g) == pytest.approx(0.5)
    assert utility_loss(p, np.array([0.2, 0.3, 0.5])) == pytest.approx(0.08)


def test_lower_bound_three_node_hand_case():
    # moving 0.18 to red: blue donor drops, red gains uniformly
    g = from_edges(3, [(0, 1), (1, 2), (2, 0)], [True, False, False])
    p_o = np.array([0.3, 0.68, 0.02])
    w = lower_bound_vector(p_o, g, 0.5)
    np.testing.assert_allclose(w, [0.5, 0.5, 0.0], atol=1e-15)


def test_lower_bound_feasibility_and_optimality():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(5, 30))
        g = random_colored_graph(rng, n)
        p_o = rng.dirichlet(np.ones(n) * rng.uniform(0.2, 3.0))
        phi = float(rng.uniform(0.05, 0.95))
        w = lower_bound_vector(p_o, g, phi)
        assert w.min() >= 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert red_mass(w, g) == pytest.approx(phi, abs=1e-12)
        oracle = clipped_lower_bound_oracle(p_o, g.red, phi)
        assert utility_loss(w, p_o) == pytest.approx(utility_loss(oracle, p_o), abs=1e-11)


def test_lower_bound_noop_when_already_fair():
    g = from_edges(2, [(0, 1), (1, 0)], [True, False])
    p_o = np.array([0.3, 0.7])
    np.testing.assert_array_equal(lower_bound_vector(p_o, g, 0.3), p_o)
    assert lower_bound_loss(p_o, g, 0.3) == 0.0


def test_converse_check_detects_row_fairness():
    rng = np.random.default_rng(1)
    red = np.zeros(10, dtype=bool)
    red[:4] = True
    phi = 0.35
    mat = row_fair_matrix(rng, red, phi)
    g = from_edges(10, [(0, 1)], red)  # only colors matter here
    assert converse_check(from_dense(mat), g, phi)
    bad = mat.copy()
    bad[3, red] *= (phi + 0.01) / phi
    bad[3, ~red] *= (1 - phi - 0.01) / (1 - phi)
    assert not converse_check(from_dense(bad), g, phi)


def test_audit_flags_locally_fair_model_for_every_node():
    rng = np.random.default_rng(2)
    g = random_colored_graph(rng, 40, sink_frac=0.1)
    phi = 0.55
    model = build_residual_model(g, phi, make_policy("uniform", g))
    audit = personalized_audit(model, g, phi=phi)
    assert audit.all_fair
    assert audit.nodes.size == g.n
    target = phi * (1 - GAMMA)
    assert audit.red_mean == pytest.approx(target, abs=1e-9)
    assert audit.blue_mean == pytest.approx(target, abs=1e-9)
    # histograms count every audited node of each color
    assert audit.red_hist.sum() == g.n_red
    assert audit.blue_hist.sum() == g.n_blue


def test_audit_flags_standard_walk_as_unfair():
    # a graph where red hoards: red nodes only link to red
    edges = [(0, 1), (1, 0), (2, 3), (3, 2), (0, 2)]
    g = from_edges(4, edges, [True, True, False, False])
    audit = personalized_audit(standard_transition(g), g, phi=0.5)
    assert not audit.all_fair


def test_audit_agrees_with_converse_on_row_fair_matrices():
    rng = np.random.default_rng(3)
    red = np.zeros(12, dtype=bool)
    red[:5] = True
    g = from_edges(12, [(0, 1)], red)
    phi = 0.4
    m = from_dense(row_fair_matrix(rng, red, phi))
    assert converse_check(m, g, phi) == personalized_audit(m, g, phi=phi).all_fair


def test_audit_sampling_is_seeded_and_stratified():
    rng = np.random.default_rng(4)
    g = random_colored_graph(rng, 60, red_frac=0.25)
    m = standard_transition(g)
    a1 = personalized_audit(m, g, sample=20, seed=9)
    a2 = personalized_audit(m, g, sample=20, seed=9)
    np.testing.assert_array_equal(a1.nodes, a2.nodes)
    assert a1.nodes.size == 20
    assert 1 <= a1.red.sum() < 20
    a3 = personalized_audit(m, g, sample=20, seed=10)
    assert not np.array_equal(a1.nodes, a3.nodes)


def test_audit_full_threshold_triggers_sampling(monkeypatch):
    rng = np.random.default_rng(5)
    g = random_colored_graph(rng, 50)
    m = standard_transition(g)
    monkeypatch.setattr(analysis, "AUDIT_FULL_NODES", 10)
    monkeypatch.setattr(analysis, "AUDIT_SAMPLE_SIZE", 15)
    audit = personalized_audit(m, g)
    assert audit.nodes.size == 15


def test_audit_explicit_sample_and_range_check():
    rng = np.random.default_rng(6)
    g = random_colored_graph(rng, 20)
    m = standard_transition(g)
    audit = personalized_audit(m, g, sample=np.array([3, 1, 3]))
    np.testing.assert_array_equal(audit.nodes, [1, 3])
    with pytest.raises(ValueError):
        personalized_audit(m, g, sample=np.array([50]))


def test_audit_matches_per_node_personalized_runs():
    # the one-backward-solve audit equals literal per-node forward solves
    from fairpr.pagerank import personalized_pagerank

    rng = np.random.default_rng(7)
    g = random_colored_graph(rng, 15, sink_frac=0.2)
    m = standard_transition(g)
    audit = personalized_audit(m, g, phi=0.5)
    for i in (0, 7, 14):
        ppr = personalized_pagerank(m, i)
        expected = ppr @ g.red - GAMMA * g.red[i]
        assert audit.adjusted[i] == pytest.approx(expected, abs=1e-10)


def test_report_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    g = random_colored_graph(rng, 25)
    p_o = pagerank(standard_transition(g))
    report = make_report(p_o, p_o, g, phi=red_mass(p_o, g))
    assert report.fair and report.loss == 0.0
    write_json(tmp_path / "r.json", {**asdict(report), "algorithm": "opr"})
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["algorithm"] == "opr"
    assert payload["red_mass"] == report.red_mass
    assert list(payload) == sorted(payload)


def test_audit_csv_outputs(tmp_path):
    rng = np.random.default_rng(9)
    g = random_colored_graph(rng, 10)
    audit = personalized_audit(standard_transition(g), g, phi=0.5)
    write_audit_csv(audit, tmp_path / "a.csv")
    write_histogram_csv(audit, tmp_path / "h.csv")
    a_lines = (tmp_path / "a.csv").read_text().splitlines()
    assert a_lines[0] == "node,color,adjusted_red_mass,fair"
    assert len(a_lines) == g.n + 1
    # the digits str.format writes, full precision
    fields = zip(audit.nodes.tolist(), audit.red.tolist(), audit.adjusted.tolist(), audit.fair.tolist())
    assert a_lines[1:] == ["{},{:d},{:.17g},{:d}".format(*row) for row in fields]
    h_lines = (tmp_path / "h.csv").read_text().splitlines()
    assert h_lines[0] == "bin_lo,bin_hi,red_count,blue_count"
    assert len(h_lines) == 21


def test_targeted_lower_bound_sits_below_every_targeted_loss():
    # w = projection of p_o onto {w >= 0, sum w = 1, w(S_R) = phi w(S)}
    # bounds the loss of every targeted-fair ranking, for both solvers
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(12):
        g = random_colored_graph(rng, int(rng.integers(40, 90)), sink_frac=0.1)
        m = standard_transition(g)
        p_o = pagerank(m)
        s = rng.choice(g.n, size=g.n // 5, replace=False)
        s_r = s[g.red[s]]
        if s_r.size == 0 or s_r.size == s.size:
            continue
        s_mask = np.isin(np.arange(g.n), s)
        sr_mask = np.isin(np.arange(g.n), s_r)
        phi = 0.5
        bound = targeted_lower_bound_loss(p_o, s_mask, sr_mask, phi)
        assert bound > 0.0
        losses = [
            utility_loss(targeted_lfpr(g, s, s_r, phi, kind=kind, p_o=p_o), p_o)
            for kind in ("neighborhood", "uniform", "proportional")
        ]
        problem = targeted_fspr_problem(m, g, s, s_r, phi, p_o=p_o)
        if problem.constraint.min() <= 0.0 <= problem.constraint.max():
            losses.append(solve_fspr(problem).loss)
        assert min(losses) >= bound - 1e-15
        checked += 1
    assert checked >= 8


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 30),
    red_frac=st.floats(0.1, 0.9),
    sink_frac=st.sampled_from([0.0, 0.1, 0.3]),
    phi=st.floats(0.05, 0.95),
)
# lfpr-o where the uniform and proportional policies coincide (equal red p_o)
@example(seed=545203649, n=4, red_frac=0.75, sink_frac=0.3, phi=0.75)
# the fspr dual steps along a zero direction (d'd = 0), which has no curvature to measure
@example(seed=71590, n=4, red_frac=0.5, sink_frac=0.0, phi=0.3828125)
def test_lower_bound_sits_below_the_loss_of_every_algorithm(seed, n, red_frac, sink_frac, phi):
    # small random graphs with sinks; fspr only where phi is attainable
    g = random_colored_graph(np.random.default_rng(seed), n, red_frac=red_frac, sink_frac=sink_frac)
    m = standard_transition(g)
    p_o = pagerank(m)
    bound = lower_bound_loss(p_o, g, phi)
    losses = {
        kind: utility_loss(lfpr_pagerank(g, phi, make_policy(kind, g, p_o=p_o)), p_o)
        for kind in ("neighborhood", "uniform", "proportional")
    }
    losses["optimized"] = optimize_residuals(g, phi, p_o=p_o, iterations=20).loss
    problem = fspr_problem(m, g, phi, p_o=p_o)
    if feasibility_check(problem.q_r, phi) is Feasibility.FEASIBLE:
        losses["fspr"] = solve_fspr(problem).loss
    for name, loss in losses.items():
        assert loss >= bound * (1.0 - 1e-9) - 1e-15, name
