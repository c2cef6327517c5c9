import inspect
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fairpr import simplex
from fairpr.errors import ConvergenceError, InfeasibleError
from fairpr.simplex import project_fair_simplex, project_polyhedron, project_simplex


def fit_multipliers(z, a, x):
    """Recover (mu, nu) from KKT stationarity on the support, least squares.

    The ``a`` column is fitted at unit scale: beside the ones column, a column
    of scale ~1e-14 falls under ``lstsq``'s rank cutoff, which would fit nu = 0.
    """
    support = x > 0
    scale = np.abs(a[support]).max() or 1.0
    design = np.column_stack([np.ones(support.sum()), a[support] / scale])
    (mu, nu), *_ = np.linalg.lstsq(design, (x - z)[support], rcond=None)
    return np.array([mu, nu / scale]), support


def bisection_reference(z, a, c, steps=200):
    """Independent solve: bracket nu, then bisect h(nu) = a'P(z + nu a) - c.

    It works with ``a - c`` and target 0, which leaves P and h unchanged but
    keeps ``z + nu (a - c)`` accurate on the support when nu is large.
    """
    a = a - c

    def h(nu):
        return a @ project_simplex(z + nu * a)

    lo, hi = -1.0, 1.0
    for _ in range(200):
        if h(lo) <= 0.0:
            break
        lo *= 2.0
    for _ in range(200):
        if h(hi) >= 0.0:
            break
        hi *= 2.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return project_simplex(z + 0.5 * (lo + hi) * a)


def assert_kkt_certificate(z, a, x, atol):
    """The certificate of test_fair_projection_kkt_certificate, atol scaled by (mu, nu).

    Where ``a`` is constant on the support (to 1e-12 of max |a|: a spread that
    small leaves the fitted nu meaningless), stationarity there fixes only
    ``mu + nu a``, not nu; the certificate then takes the nu that keeps the
    excluded coordinates lowest, found among the breakpoints.
    """
    (mu, nu), support = fit_multipliers(z, a, x)
    off = ~support
    if np.ptp(a[support]) <= 1e-12 * np.abs(a).max() and off.any():
        a0 = a[support][0]
        level = mu + nu * a0
        slope = a[off] - a0
        breaks = [-(zj + level) / d for zj, d in zip(z[off], slope) if d != 0.0] or [nu]
        nu = min(breaks, key=lambda t: (z[off] + level + t * slope).max())
        mu = level - nu * a0
    scale = 1.0 + abs(mu) + abs(nu) * np.abs(a).max()
    np.testing.assert_allclose((x - z)[support], mu + nu * a[support], atol=atol * scale)
    if off.any():
        assert (z[off] + mu + nu * a[off]).max() <= atol * scale


def spike(n, i, height=1.0):
    z = np.zeros(n)
    z[i] = height
    return z


def near_end(a, frac):
    return float(a.min() + frac * np.ptp(a))


@st.composite
def fair_projection_cases(draw):
    """Random z with random or tied a, or a spike z with mostly-zero a; c near min a or max a."""
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        z = spike(n, draw(st.integers(0, n - 1)), draw(st.floats(-3.0, 3.0)))
        a = np.zeros(n)  # mostly zero
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
            a[i] = draw(st.floats(-1.0, 1.0))
    else:
        z = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
        if draw(st.booleans()):
            levels = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=4, unique=True))
            a = np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
        else:
            a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    assume(np.ptp(a) >= 1e-6)
    near_ends = st.sampled_from([1e-9, 1e-6, 1e-3, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9])
    frac = draw(st.one_of(near_ends, st.floats(1e-3, 1.0 - 1e-3)))
    return z, a, near_end(a, frac)


# The multipliers are large or the solution sits next to a face of the simplex.
_a0 = np.array([0.4, -0.74, -0.7401, -0.74])
_a1 = -0.4 * spike(6, 2)
_a2 = np.array([0.0, 0.6, 1.0, 0.4])


@settings(max_examples=300, deadline=None)
@given(fair_projection_cases())
@example((np.array([2.0, 2.0, 0.0]), np.array([0.0, 1.0, -1.0]), 0.0))  # a constant on the support
@example((np.array([-1.46, -2.56, -1.45, 1.58]), _a0, near_end(_a0, 1e-9)))
@example((spike(6, 1), _a1, near_end(_a1, 1.0 - 1e-9)))
@example((spike(4, 0), _a2, near_end(_a2, 1e-9)))
@example((spike(21, 19), 0.0625 * spike(21, 19) - spike(21, 20), 0.06249893750000002))
@example((np.zeros(19), 1e-6 * spike(19, 0) - 1.72418751e-14 * spike(19, 1), -1.6241875035280433e-14))
def test_fair_projection_is_feasible_optimal_and_no_farther_than_bisection(case):
    z, a, c = case
    x = project_fair_simplex(z, a, c)
    assert x.min() >= 0.0
    assert abs(x.sum() - 1.0) <= 1e-10
    assert abs(a @ x - c) <= 1e-10
    assert_kkt_certificate(z, a, x, atol=1e-8)
    ref = bisection_reference(z, a, c)
    d, d_ref = np.sum((x - z) ** 2), np.sum((ref - z) ** 2)
    assert d <= d_ref + 1e-9 * (1.0 + d_ref)


def test_project_simplex_known_points():
    np.testing.assert_allclose(project_simplex(np.array([0.5, 0.5])), [0.5, 0.5], atol=0)
    np.testing.assert_allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0], atol=0)
    np.testing.assert_allclose(
        project_simplex(np.array([1.0, 1.0])), [0.5, 0.5], atol=1e-15
    )
    np.testing.assert_allclose(
        project_simplex(np.array([-1.0, -2.0])), [1.0, 0.0], atol=1e-15
    )


def test_project_simplex_variational_inequality():
    # x* is the projection iff (z - x*)'(y - x*) <= 0 for all feasible y
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        z = rng.normal(scale=2.0, size=n)
        x = project_simplex(z)
        assert x.min() >= 0.0
        assert x.sum() == pytest.approx(1.0, abs=1e-12)
        ys = rng.dirichlet(np.ones(n), size=20)
        gaps = (ys - x) @ (z - x)
        assert gaps.max() <= 1e-10


def test_project_simplex_idempotent():
    rng = np.random.default_rng(1)
    z = rng.normal(size=10)
    x = project_simplex(z)
    np.testing.assert_allclose(project_simplex(x), x, atol=1e-13)


def test_fair_projection_satisfies_both_constraints():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        z = rng.normal(scale=1.5, size=n)
        a = rng.uniform(size=n)
        c = float(rng.uniform(a.min(), a.max()))
        x = project_fair_simplex(z, a, c)
        assert x.min() >= -1e-15
        assert x.sum() == pytest.approx(1.0, abs=1e-10)
        assert a @ x == pytest.approx(c, abs=1e-10)


def test_fair_projection_kkt_certificate():
    # stationarity x = z + mu + nu a on the support, dual feasibility off it
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(3, 30))
        z = rng.normal(size=n)
        a = rng.uniform(size=n)
        c = float(rng.uniform(a.min() + 0.05 * np.ptp(a), a.max() - 0.05 * np.ptp(a)))
        x = project_fair_simplex(z, a, c)
        (mu, nu), support = fit_multipliers(z, a, x)
        np.testing.assert_allclose((x - z)[support], mu + nu * a[support], atol=1e-8)
        off = ~support
        if off.any():
            assert (z[off] + mu + nu * a[off]).max() <= 1e-8


def test_fair_projection_interior_point_is_fixed():
    # already-feasible interior points project to themselves
    z = np.array([0.25, 0.25, 0.25, 0.25])
    a = np.array([1.0, 1.0, 0.0, 0.0])
    x = project_fair_simplex(z, a, 0.5)
    np.testing.assert_allclose(x, z, atol=1e-12)


def test_fair_projection_boundary_targets_pick_extreme_faces():
    a = np.array([0.9, 0.1, 0.5])
    z = np.array([0.2, 0.5, 0.3])
    x_hi = project_fair_simplex(z, a, 0.9)
    np.testing.assert_allclose(x_hi, [1.0, 0.0, 0.0], atol=1e-9)
    x_lo = project_fair_simplex(z, a, 0.1)
    np.testing.assert_allclose(x_lo, [0.0, 1.0, 0.0], atol=1e-9)


def test_fair_projection_vacuous_constraint():
    a = np.full(4, 0.3)
    z = np.array([0.5, 0.4, 0.1, 0.0])
    x = project_fair_simplex(z, a, 0.3)
    np.testing.assert_allclose(x, project_simplex(z), atol=0)


def test_fair_projection_infeasible_target_raises():
    a = np.array([0.2, 0.6])
    with pytest.raises(InfeasibleError):
        project_fair_simplex(np.array([0.5, 0.5]), a, 0.7)
    with pytest.raises(InfeasibleError):
        project_fair_simplex(np.array([0.5, 0.5]), a, 0.1)


def test_polyhedron_projection_that_stalls_short_of_its_set_raises():
    # no x >= 0 sums to -1: the support empties, no step moves the multiplier,
    # and B x = c still misses by 1 / sqrt(3) on the unit row
    with pytest.raises(ConvergenceError, match=r"^polyhedron projection stalled with \|Bx - c\| = 5\.774e-01$"):
        project_polyhedron(np.zeros(3), np.array([[1.0, 1.0, 1.0]]), np.array([-1.0]))


def test_a_line_search_that_exhausts_its_bracket_still_ends_on_the_vertex():
    # The third Newton step's line minimum sits on the breakpoint where x_2 leaves
    # the support.  Newton steps from beside it overshoot, and the derivative there
    # is ~1e-15 of its scale, so the search bisects to two adjacent floats and
    # returns the lower one.
    lines = []
    code = simplex._line_minimum.__code__
    exhausted = code.co_firstlineno + next(
        i for i, line in enumerate(inspect.getsource(code).splitlines()) if "bracket exhausted" in line
    )

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        lines.append(frame.f_lineno)
        return trace

    z, a = np.array([1e6, -1.2e7, 3e6, -8e6, 4e6]), np.array([1.0, -4.0, 1.0, 1.0, 0.0])
    old = sys.gettrace()
    sys.settrace(trace)
    try:
        x = project_fair_simplex(z, a, 0.0)
    finally:
        sys.settrace(old)
    assert exhausted in lines
    assert x.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]


def test_fair_projection_beats_other_feasible_points():
    # distance to z is minimal among random feasible candidates
    rng = np.random.default_rng(4)
    n = 12
    z = rng.normal(size=n)
    a = rng.uniform(size=n)
    c = 0.5 * float(a.min() + a.max())
    x = project_fair_simplex(z, a, c)
    d_star = np.sum((x - z) ** 2)
    for _ in range(200):
        y = project_fair_simplex(rng.normal(scale=3.0, size=n), a, c)
        assert np.sum((y - z) ** 2) >= d_star - 1e-9


@st.composite
def polyhedra(draw, fair=False):
    """``(z, B, c)`` of a set ``{x >= 0, B x = c}`` holding a point with x > 0.

    ``fair`` draws ``B = [1; a]`` with ``c = (1, rhs)``, rhs strictly
    inside the range of a; otherwise 1 to 3 rows with scales apart by up
    to 1e4.
    """
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=n) * 10.0 ** draw(st.integers(-3, 3))
    if fair:
        a = rng.normal(size=n) * 10.0 ** draw(st.integers(-2, 2))
        rhs = a.min() + draw(st.floats(0.01, 0.99)) * np.ptp(a)
        return z, np.vstack([np.ones(n), a]), np.array([1.0, rhs])
    k = draw(st.integers(1, min(3, n - 2)))
    b = rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-2, 2, size=(k, 1))
    return z, b, b @ rng.uniform(0.01, 1.0, size=n)


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(polyhedra(), polyhedra(fair=True)))
def test_polyhedron_projection_kkt_certificate(case):
    z, b, c = case
    x, lam = simplex.project_polyhedron(z, b, c)
    y = z + lam @ b
    scale = 1.0 + np.abs(z) + np.abs(lam) @ np.abs(b)  # the rounding scale of y
    support = x > 0
    assert x.min() >= 0.0
    # B x = c, to 1e-12 of the size of the terms it sums
    assert np.all(np.abs(b @ x - c) <= 1e-12 * (np.abs(b) @ (scale * support) + np.abs(c)))
    # stationarity: x - z = B'lam + mu with mu >= 0 zero on the support
    assert np.all(np.abs(x - y)[support] <= 1e-12 * scale[support])
    assert np.all(y[~support] <= 1e-12 * scale[~support])
    # warm-started at its own multipliers, the search stays put
    assert np.all(np.abs(simplex.project_polyhedron(z, b, c, lam)[0] - x) <= 1e-12 * scale)


@settings(max_examples=300, deadline=None)
@given(case=polyhedra(fair=True))
def test_polyhedron_projection_matches_the_fair_simplex_projection(case):
    z, b, c = case
    x, _ = simplex.project_polyhedron(z, b, c)
    expected = bisection_reference(z, b[1], c[1])
    assert np.abs(x - expected).max() <= 1e-12 * (1.0 + np.abs(z).max())
