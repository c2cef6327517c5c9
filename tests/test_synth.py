import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairpr.synth import SynthConfig, _draws, child_seed, generate
from oracles import generate_reference


def same_color_edge_fraction(g):
    src = np.repeat(np.arange(g.n), g.out_degree)
    return float((g.red[src] == g.red[g.indices]).mean())


def test_generate_shape_and_edge_count():
    cfg = SynthConfig(n=200, red_fraction=0.3, alpha_red=0.6, alpha_blue=0.6, seed=1, n0=10, edges_per_node=3)
    g = generate(cfg)
    assert g.n == 200
    # ring of n0 undirected links plus edges_per_node per arrival, doubled
    assert g.n_edges == 2 * (10 + 190 * 3)
    assert 0 < g.n_red < g.n
    # endpoint draws use replace-free retries, so no duplicate edges survive
    assert len({tuple(e) for e in g.edges().tolist()}) == g.n_edges


def test_generate_is_deterministic():
    cfg = SynthConfig(n=80, red_fraction=0.4, alpha_red=0.3, alpha_blue=0.7, seed=42)
    g1, g2 = generate(cfg), generate(cfg)
    assert np.array_equal(g1.indices, g2.indices)
    assert np.array_equal(g1.indptr, g2.indptr)
    assert np.array_equal(g1.red, g2.red)
    g3 = generate(SynthConfig(n=80, red_fraction=0.4, alpha_red=0.3, alpha_blue=0.7, seed=43))
    assert not np.array_equal(g1.indices, g3.indices)


def test_seed_colors_spread_matches_fraction():
    cfg = SynthConfig(n=3000, red_fraction=0.3, alpha_red=0.5, alpha_blue=0.5, seed=7)
    g = generate(cfg)
    assert g.n_red / g.n == pytest.approx(0.3, abs=0.05)


def test_homophily_parameter_shifts_edge_mix():
    base = dict(n=1500, red_fraction=0.5, seed=3)
    homo = generate(SynthConfig(alpha_red=0.9, alpha_blue=0.9, **base))
    hetero = generate(SynthConfig(alpha_red=0.1, alpha_blue=0.1, **base))
    assert same_color_edge_fraction(homo) > 0.7
    assert same_color_edge_fraction(hetero) < 0.3


def test_config_validation():
    good = dict(red_fraction=0.3, alpha_red=0.5, alpha_blue=0.5)
    with pytest.raises(ValueError):
        SynthConfig(n=5, n0=10, **good)
    with pytest.raises(ValueError):
        SynthConfig(n=20, n0=2, **good)
    with pytest.raises(ValueError):
        SynthConfig(n=20, red_fraction=0.0, alpha_red=0.5, alpha_blue=0.5)
    with pytest.raises(ValueError):
        SynthConfig(n=20, red_fraction=0.3, alpha_red=1.0, alpha_blue=0.5)
    with pytest.raises(ValueError):
        SynthConfig(n=20, edges_per_node=0, **good)
    with pytest.raises(ValueError):
        SynthConfig(n=20, n0=4, edges_per_node=4, **good)
    # generate's 32-bit bounded draw needs fewer than 2**32 endpoints
    with pytest.raises(ValueError, match=r"2\*\(n0 \+ \(n - n0\)\*edges_per_node\) = 4294967296 must stay below 2\*\*32"):
        SynthConfig(n=2**31, n0=10, **good)
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        SynthConfig(n=2**30 + 6, n0=10, edges_per_node=2, **good)
    SynthConfig(n=2**31 - 1, n0=10, **good)


def test_child_seed_streams_are_distinct():
    a = np.random.default_rng(child_seed(1, 0)).random(4)
    b = np.random.default_rng(child_seed(1, 1)).random(4)
    c = np.random.default_rng(child_seed(1, 0)).random(4)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, c)


def test_tiny_extreme_fraction_still_returns_both_colors(caplog):
    # an all-red seed ring and red_fraction near one force the retry path
    cfg = SynthConfig(n=12, n0=3, red_fraction=0.9, alpha_red=0.5, alpha_blue=0.5, seed=3)
    with caplog.at_level("WARNING", logger="fairpr.synth"):
        g = generate(cfg)
    assert 0 < g.n_red < g.n
    assert "regenerated graph 4 time(s)" in caplog.text


def test_draws_match_the_generators_scalar_calls():
    # 2**31 + 1 rejects about half its 32-bit words in Lemire's draw, 3 * 2**30 + 1
    # a quarter; 2**32 takes a word half as is, and 1 takes none.
    special = [1, 2, 3, 6, 2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 5, 2**32 - 1, 2**32]
    plan = np.random.default_rng(5)
    calls = 10**5
    is_random = plan.random(calls) < 0.4
    highs = np.where(
        plan.random(calls) < 0.3,
        plan.choice(special, size=calls),
        np.maximum(np.exp2(plan.uniform(0.0, 32.0, size=calls)).astype(np.int64), 1),
    ).tolist()
    reference = np.random.default_rng(child_seed(11, 0))
    random, integers = _draws(np.random.default_rng(child_seed(11, 0)).bit_generator)
    want = [reference.random() if r else int(reference.integers(h)) for r, h in zip(is_random, highs)]
    got = [random() if r else integers(h) for r, h in zip(is_random, highs)]
    assert got == want


def _unit(edge):
    """Values strictly inside (0, 1), with some within ``edge`` of each end."""
    return st.one_of(
        st.floats(edge, 1.0 - edge),
        st.sampled_from([edge, edge / 2, 1.0 - edge, 1.0 - edge / 2]),
    )


@st.composite
def _configs(draw):
    n0 = draw(st.integers(3, 12))
    m = draw(st.integers(1, n0 - 1))
    alpha_red, alpha_blue = draw(_unit(1e-3)), draw(_unit(1e-3))
    # An edge that needs a link accepted with probability a takes ~1/a draws:
    # n shrinks so that n * m / a stays near 1e5 and the reference stays quick.
    hardest = min(alpha_red, 1.0 - alpha_red, alpha_blue, 1.0 - alpha_blue)
    return SynthConfig(
        n=draw(st.integers(n0, max(n0, min(400, int(1e5 * hardest / m))))),
        red_fraction=draw(_unit(1e-3)),
        alpha_red=alpha_red,
        alpha_blue=alpha_blue,
        seed=draw(st.integers(0, 2**32)),
        n0=n0,
        edges_per_node=m,
    )


def _generate_or_error(generator, cfg):
    try:
        return generator(cfg)
    except (ValueError, RuntimeError) as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(cfg=_configs())
# all-red seed ring: four regenerations, then both colors
@example(cfg=SynthConfig(n=12, n0=3, red_fraction=0.9, alpha_red=0.5, alpha_blue=0.5, seed=3))
# ten all-red attempts: ValueError (RuntimeError in the reference)
@example(cfg=SynthConfig(n=12, n0=3, red_fraction=0.999, alpha_red=0.5, alpha_blue=0.5, seed=0))
def test_generate_equals_the_scalar_draw_reference(cfg):
    got, want = _generate_or_error(generate, cfg), _generate_or_error(generate_reference, cfg)
    if isinstance(want, str):
        assert got == want
        return
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.red, want.red)
