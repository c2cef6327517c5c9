r"""Locally fair transition models and their PageRank fixed points.

Local fairness is a per-row property: every node hands a ``phi`` share of
its outgoing probability to the red group and ``1 - phi`` to the blue
group, and the jump vector is split the same way.  The resulting PageRank
then gives the red group exactly ``phi`` mass at every step of its solve,
and the solve's extrapolation, an affine mix, keeps it to rounding.

Each row is decomposed into a neutral part ``P_L`` (what the node can
serve from its own out-neighbors without exceeding its group quota) plus
a residual ``delta`` that must be redistributed inside the short group.
How the residual is spread is the policy: over the node's own neighbors,
uniformly over the group, proportionally to the original PageRank, or
optimized to minimize utility loss.  The scores are affine in the mass
``u = (1 - gamma) / gamma * [(p' delta_R) x + (p' delta_B) y]`` that the
optimized policy (x, y) pays out, so its utility loss is a convex QP in u,
which ``optimize_residuals`` solves with :func:`fairpr.fspr.solve_fspr`;
its ``kkt_residual`` is measured in u.

The global model is the targeted model at S = all nodes and S_R = red:
targeted fairness splits only the mass a row sends into a target set S,
giving the protected part S_R a ``phi`` share of it.  One routine,
``_split_rows``, does this split for both, and :func:`residual_decompose`
is its split at S = all nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fspr import KKT_TOL, MAX_DUAL_STEPS, FsprProblem, solve_fspr
from .graph import ColoredGraph, _check_target_sets
from .pagerank import (
    DEFAULT_GAMMA,
    DEFAULT_TOL,
    INNER_TOL,
    SparseRows,
    TransitionModel,
    _check_phi,
    check_distribution,
    pagerank,
    solve_left,
    solve_right,
    standard_transition,
)


class PolicyKind(str, Enum):
    NEIGHBORHOOD = "neighborhood"
    UNIFORM = "uniform"
    PROPORTIONAL = "proportional"
    OPTIMIZED = "optimized"


@dataclass(frozen=True)
class ResidualDecomposition:
    """A ``phi``-fair split of the rows into a per-edge ``base`` plus owed mass.

    ``delta_red[i]`` is what row ``i`` still owes S_R, ``delta_blue[i]`` what
    it owes S_B = S - S_R, and ``rest`` the sinks' jump outside S.  The
    decomposition split keeps, in row ``i``, the largest per-edge share
    ``rho[i]`` within both quotas; ``short`` marks the rows whose neighbors in
    S_R fall short of a ``phi`` share, which owe S_R; the neighborhood split
    leaves both ``None``.  Sinks owe everything.  At S = all nodes, ``base``
    red mass + ``delta_red`` is ``phi`` in every row.
    """

    base: SparseRows
    delta_red: np.ndarray
    delta_blue: np.ndarray
    rest: tuple
    rho: np.ndarray | None = None
    short: np.ndarray | None = None

    @property
    def rho_red(self) -> np.ndarray:
        return np.where(self.short, self.rho, 0.0)

    def model(self, x: np.ndarray, y: np.ndarray) -> TransitionModel:
        """The transitions with the owed mass spread by ``x`` over S_R and ``y`` over S_B."""
        owed = tuple((d, t) for d, t in ((self.delta_red, x), (self.delta_blue, y)) if d.any())
        return TransitionModel(self.base, owed + self.rest)


def residual_decompose(g: ColoredGraph, phi: float) -> ResidualDecomposition:
    """The decomposition split at S = all nodes and S_R = red."""
    return _split_rows(g, np.ones(g.n, dtype=bool), g.red, _check_phi(phi), neighborhood=False)


def build_fair_jump(g: ColoredGraph, phi: float) -> np.ndarray:
    """Jump vector splitting ``phi`` uniformly over red, rest over blue."""
    phi = _check_phi(phi)
    v = np.empty(g.n)
    v[g.red] = phi / g.n_red
    v[~g.red] = (1.0 - phi) / g.n_blue
    return v


@dataclass(frozen=True)
class ResidualPolicy:
    """How residual probability is redistributed inside each group.

    For the distribution-valued kinds, ``x`` is supported on red nodes and
    ``y`` on blue nodes, each summing to one.  The neighborhood kind keeps
    residuals on each source's own neighbors and carries no shared vectors.
    """

    kind: PolicyKind
    x: np.ndarray | None = None
    y: np.ndarray | None = None


def _fixed_policy_vectors(kind: PolicyKind, red_part, blue_part, p_o) -> tuple[np.ndarray, np.ndarray]:
    """The uniform or proportional (x, y) pair over the two parts of a split."""
    if kind is PolicyKind.UNIFORM:
        return red_part / red_part.sum(), blue_part / blue_part.sum()
    if p_o is None:
        raise ValueError("proportional policy needs the original scores p_o")
    p_o = np.asarray(p_o, dtype=float)
    xv = np.where(red_part, np.maximum(p_o, 0.0), 0.0)
    yv = np.where(blue_part, np.maximum(p_o, 0.0), 0.0)
    if xv.sum() <= 0 or yv.sum() <= 0:
        raise ValueError("proportional policy undefined: a group has zero score mass")
    return xv / xv.sum(), yv / yv.sum()


def make_policy(kind: PolicyKind | str, g: ColoredGraph, p_o: np.ndarray | None = None) -> ResidualPolicy:
    """One of the fixed redistribution policies.

    ``proportional`` weights each node by its original PageRank ``p_o``.
    The optimized policy is the result of :func:`optimize_residuals`.
    """
    kind = PolicyKind(kind)
    if kind is PolicyKind.OPTIMIZED:
        raise ValueError("the optimized policy comes from optimize_residuals, not make_policy")
    if kind is PolicyKind.NEIGHBORHOOD:
        return ResidualPolicy(kind=kind)
    x, y = _fixed_policy_vectors(kind, g.red, ~g.red, p_o)
    return ResidualPolicy(kind=kind, x=x, y=y)


def build_residual_model(g: ColoredGraph, phi: float, policy: ResidualPolicy) -> TransitionModel:
    """Locally fair transition model ``P_L + delta_R x' + delta_B y'``.

    The neighborhood kind has no x and y; it is the targeted model at S = all
    nodes: row ``i`` spends ``phi`` uniformly over its red out-neighbors and
    ``1 - phi`` over its blue ones, and a node missing one side (every sink)
    spreads that share uniformly over the whole group.
    """
    if policy.kind is PolicyKind.NEIGHBORHOOD:
        return build_targeted_model(g, np.ones(g.n, dtype=bool), g.red, phi, policy.kind)
    if policy.x is None or policy.y is None:
        raise ValueError(f"{policy.kind.value} policy is missing its x/y vectors")
    return residual_decompose(g, phi).model(policy.x, policy.y)


def lfpr_pagerank(
    g: ColoredGraph,
    phi: float,
    policy: ResidualPolicy,
    gamma: float = DEFAULT_GAMMA,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """PageRank of the locally fair model under the group-split jump."""
    model = build_residual_model(g, phi, policy)
    v = build_fair_jump(g, phi)
    return solve_left(model, check_distribution(v), gamma, tol=tol)


@dataclass(frozen=True)
class OptimizedSearchResult:
    """The optimized policy, its diagnostics, and its work (``iterations``: dual steps;
    ``evaluations``: forward solves; ``matvecs``: transition products), the last two
    counting the problem's own solves too."""

    policy: ResidualPolicy
    loss: float
    converged: bool
    kkt_residual: float
    iterations: int
    evaluations: int
    matvecs: int


def _residual_problem(
    g: ColoredGraph, phi: float, gamma: float, p_o: np.ndarray, counts: dict | None = None
) -> FsprProblem:
    r"""The lfpr-o program as an :class:`FsprProblem` in ``u``.

    With ``u = (1 - gamma) / gamma * [(p' delta_R) x + (p' delta_B) y]`` the
    locally fair fixed point becomes ``p' = (u + v)' Q`` for the fair jump
    ``v`` and the resolvent ``Q`` of ``P_L`` alone.  Summing u over each group
    and writing ``p' delta = (u + v)' Q delta`` gives its two equalities.  Its
    ``start`` is the better of the uniform and proportional policies, with its
    scores.  Its four solves add their products to ``counts["matvecs"]`` as in
    :func:`fairpr.pagerank.solve_left`.
    """
    split = residual_decompose(g, phi)
    jump = build_fair_jump(g, phi)
    scale = (1.0 - gamma) / gamma
    owed = np.vstack([split.delta_red, split.delta_blue])
    bare = TransitionModel(split.base)
    q = np.vstack([solve_right(bare, d, gamma, tol=INNER_TOL, counts=counts) for d in owed])

    def policy_point(kind):
        """``(loss, u, p)`` of a fixed policy, from one forward solve."""
        x, y = _fixed_policy_vectors(kind, g.red, ~g.red, p_o)
        p = solve_left(split.model(x, y), jump, gamma, tol=INNER_TOL, counts=counts)
        paid = scale * (owed @ p)
        return float((p - p_o) @ (p - p_o)), paid[0] * x + paid[1] * y, p

    starts = [policy_point(kind) for kind in (PolicyKind.UNIFORM, PolicyKind.PROPORTIONAL)]
    _, start, start_scores = min(starts, key=lambda point: point[0])
    return FsprProblem(
        model=bare,
        gamma=gamma,
        p_o=p_o,
        constraint=np.vstack([g.red, ~g.red]) - scale * q,
        rhs=scale * (q @ jump),
        shift=jump,
        start=start,
        start_scores=start_scores,
    )


def _normalized(u: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``u`` on ``mask`` scaled to sum 1; uniform on ``mask`` where its sum is
    0 to rounding of u's total, as a projection leaves a group owed nothing."""
    part = np.where(mask, u, 0.0)
    return part / part.sum() if part.sum() > 1e-12 * u.sum() else mask / mask.sum()


def optimize_residuals(
    g: ColoredGraph,
    phi: float,
    gamma: float = DEFAULT_GAMMA,
    p_o: np.ndarray | None = None,
    *,
    iterations: int = MAX_DUAL_STEPS,
    tol: float = KKT_TOL,
) -> OptimizedSearchResult:
    """Redistribution vectors minimizing the utility loss, as a convex QP.

    ``||p(x, y) - p_o||^2`` is a convex quadratic in the owed mass ``u``
    that the policy pays out (see :func:`_residual_problem`), so
    :func:`fairpr.fspr.solve_fspr` minimizes it, in at most ``iterations``
    dual steps and to a KKT residual of ``tol``, measured in u.  A search
    that runs out of steps returns the better of the uniform and
    proportional policies where that has the lower loss, so it is never
    worse than either fixed policy.  The policy is u normalized per group:
    ``x = u_R / sum u_R``, uniform where a group is owed nothing, and
    likewise y.
    """
    phi = _check_phi(phi)
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    if p_o is None:
        p_o = pagerank(standard_transition(g), gamma)
    counts = {"matvecs": 0}
    sol = solve_fspr(_residual_problem(g, phi, gamma, p_o, counts), tol=tol, max_iters=iterations)
    return OptimizedSearchResult(
        policy=ResidualPolicy(PolicyKind.OPTIMIZED, x=_normalized(sol.x, g.red), y=_normalized(sol.x, ~g.red)),
        loss=sol.loss,
        converged=sol.converged,
        kkt_residual=sol.kkt_residual,
        iterations=sol.iterations,
        evaluations=sol.certificates + 2,  # with the problem's own solves
        matvecs=sol.matvecs + counts["matvecs"],
    )


def targeted_jump(g: ColoredGraph, s_mask: np.ndarray, sr_mask: np.ndarray, phi: float) -> np.ndarray:
    """Uniform jump with its in-target share split ``phi`` to the protected part."""
    phi = _check_phi(phi)
    n = g.n
    size_s = int(s_mask.sum())
    sb_mask = s_mask & ~sr_mask
    v = np.full(n, 1.0 / n)
    v[sr_mask] = phi * size_s / (n * sr_mask.sum())
    v[sb_mask] = (1.0 - phi) * size_s / (n * sb_mask.sum())
    return v


def _split_rows(
    g: ColoredGraph, s_mask: np.ndarray, sr_mask: np.ndarray, phi: float, neighborhood: bool
) -> ResidualDecomposition:
    """The one place where rows are split ``phi``-fairly.

    Each row keeps its out-of-target entries and reallocates the mass it
    sends into S so that S_R receives a ``phi`` share of it; a sink's
    uniform row sends ``|S| / n`` into S.  The neighborhood split spreads
    each share over the row's own neighbors in that part and owes a part
    with no such neighbor in full.  The decomposition split keeps the
    largest per-edge share ``rho`` within both quotas and owes the rest.
    """
    n = g.n
    out = g.out_degree.astype(float)
    sink = g.sinks
    d_s, d_sr = g.out_count(s_mask), g.out_count(sr_mask)
    d_sb = d_s - d_sr
    # Per-row probability currently entering the target set.
    s_mass = np.divide(d_s, out, out=np.full(n, s_mask.sum() / n), where=~sink)
    rho = short = None

    if neighborhood:
        shares = [np.divide(q * s_mass, d, out=np.zeros(n), where=d > 0)
                  for q, d in ((1.0 - phi, d_sb), (phi, d_sr))]  # into S_B, into S_R
        delta_r = phi * s_mass * (d_sr == 0)
        delta_b = (1.0 - phi) * s_mass * (d_sb == 0)
    else:
        # The side that fills its quota first keeps rho per edge; the other side owes the gap.
        short = (d_s > 0) & (d_sr < phi * d_s)
        kept_q, kept_d = np.where(short, 1.0 - phi, phi), np.where(short, d_sb, d_sr)
        owed_q, owed_d = np.where(short, phi, 1.0 - phi), np.where(short, d_sr, d_sb)
        rho = np.divide(kept_q * s_mass, kept_d, out=np.zeros(n), where=d_s > 0)
        owed = s_mass * (owed_q - np.divide(kept_q * owed_d, kept_d, out=np.zeros(n), where=d_s > 0))
        delta_r = np.where(short, owed, phi * s_mass * sink)  # a sink owes both quotas in full
        delta_b = np.where(short, 0.0, owed)
        shares = [rho, rho]

    rest = ()
    if sink.any() and s_mask.sum() < n:
        rest = ((sink.astype(float), np.where(s_mask, 0.0, 1.0 / n)),)

    # Per-row share of an edge out of S, into S_B and into S_R, gathered by the edge's column class.
    table = np.vstack([1.0 / np.maximum(out, 1.0), *shares])
    column = s_mask.astype(np.intp) + sr_mask
    base = SparseRows(table[column[g.indices], np.repeat(np.arange(n), g.out_degree)], g.indices, g.indptr)
    return ResidualDecomposition(base, delta_r, delta_b, rest, rho, short)


def build_targeted_model(
    g: ColoredGraph,
    s_mask: np.ndarray,
    sr_mask: np.ndarray,
    phi: float,
    kind: PolicyKind | str,
    p_o: np.ndarray | None = None,
) -> TransitionModel:
    """Transitions whose in-target mass is split ``phi``-fairly per row.

    Out-of-target entries are untouched; whatever probability a row sends
    into the target set is reallocated so the protected part receives a
    ``phi`` share of it, using the same policy choices as the global
    models.  Sinks split their uniform row the same way, so every
    effective row is targeted-fair and the fixed point satisfies
    ``PR(S_R) = phi * PR(S)`` exactly.
    """
    phi = _check_phi(phi)
    kind = PolicyKind(kind)
    if kind is PolicyKind.OPTIMIZED:
        raise ValueError("optimized residual policy is not supported for targeted runs")
    sb_mask = s_mask & ~sr_mask
    neighborhood = kind is PolicyKind.NEIGHBORHOOD
    # The neighborhood split owes a missing part in full, spread uniformly.
    x, y = _fixed_policy_vectors(PolicyKind.UNIFORM if neighborhood else kind, sr_mask, sb_mask, p_o)
    return _split_rows(g, s_mask, sr_mask, phi, neighborhood).model(x, y)


def targeted_lfpr(
    g: ColoredGraph,
    s,
    s_r,
    phi: float,
    kind: PolicyKind | str = PolicyKind.NEIGHBORHOOD,
    gamma: float = DEFAULT_GAMMA,
    p_o: np.ndarray | None = None,
) -> np.ndarray:
    """PageRank giving the protected part a ``phi`` share of the target set's mass.

    The solve returns an image ``(1 - gamma) x'M + gamma v'`` of a nonnegative
    ``x``, so ``p >= gamma v`` for the jump ``v`` of :func:`targeted_jump`, which
    is positive on S: the target set always receives mass.
    """
    s_mask, sr_mask = _check_target_sets(g, s, s_r)
    if PolicyKind(kind) is PolicyKind.PROPORTIONAL and p_o is None:
        p_o = pagerank(standard_transition(g), gamma)
    model = build_targeted_model(g, s_mask, sr_mask, phi, kind, p_o=p_o)
    v = targeted_jump(g, s_mask, sr_mask, phi)
    return solve_left(model, check_distribution(v), gamma)
