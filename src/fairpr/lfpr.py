r"""Locally fair transition models and their PageRank fixed points.

Local fairness is a per-row property: every node hands a ``phi`` share of
its outgoing probability to the red group and ``1 - phi`` to the blue
group, and the jump vector is split the same way.  The resulting PageRank
then gives the red group exactly ``phi`` mass at every step of its solve,
and the solve's extrapolation, an affine mix, keeps it to rounding.

Each row is decomposed into a neutral part ``P_L`` (what the node can
serve from its own out-neighbors without exceeding its group quota) plus
a residual ``delta`` that must be redistributed inside the short part.
How it is spread is the policy (x, y), x on S_R and y on S_B: over the
node's own neighbors, uniformly over the part, proportionally to the
original PageRank, or optimized to minimize utility loss.  The scores are
affine in the mass ``u = (1 - gamma) / gamma * [(p' delta_R) x + (p' delta_B) y]``
that the optimized policy pays out, so its utility loss is a convex QP in u,
which ``optimize_residuals`` solves with :func:`fairpr.fspr.solve_fspr`;
its ``kkt_residual`` is measured in u.

The global model is the targeted model at S = all nodes and S_R = red:
targeted fairness splits only the mass a row sends into a target set S,
giving the protected part S_R a ``phi`` share of it and S_B = S - S_R the
rest.  :func:`build_residual_model` builds both on one row split,
``_split_rows``, its masks defaulting to the global ones.
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
    """How residual probability is redistributed inside each part of the split.

    For the distribution-valued kinds, ``x`` is supported on S_R and ``y`` on
    S_B = S - S_R, each summing to one.  The neighborhood kind keeps residuals
    on each source's own neighbors and carries no shared vectors.
    """

    kind: PolicyKind
    x: np.ndarray | None = None
    y: np.ndarray | None = None


def make_policy(
    kind: PolicyKind | str, g: ColoredGraph, p_o: np.ndarray | None = None,
    s_mask: np.ndarray | None = None, sr_mask: np.ndarray | None = None,
) -> ResidualPolicy:
    """One of the fixed redistribution policies, over S_R and S_B = S - S_R.

    The masks default to S = all nodes and S_R = red.  ``uniform`` weights
    every node of a part alike, ``proportional`` by its original PageRank
    ``p_o``.  The optimized policy is the result of :func:`optimize_residuals`.
    """
    kind = PolicyKind(kind)
    if kind is PolicyKind.OPTIMIZED:
        raise ValueError("the optimized policy comes from optimize_residuals, not make_policy")
    if kind is PolicyKind.NEIGHBORHOOD:
        return ResidualPolicy(kind=kind)
    if kind is PolicyKind.PROPORTIONAL and p_o is None:
        raise ValueError("proportional policy needs the original scores p_o")
    sr_mask = g.red if sr_mask is None else sr_mask
    sb_mask = ~sr_mask if s_mask is None else s_mask & ~sr_mask
    weight = 1.0 if kind is PolicyKind.UNIFORM else np.maximum(np.asarray(p_o, dtype=float), 0.0)
    xv, yv = np.where(sr_mask, weight, 0.0), np.where(sb_mask, weight, 0.0)
    if xv.sum() <= 0 or yv.sum() <= 0:
        raise ValueError("proportional policy undefined: a group has zero score mass")
    return ResidualPolicy(kind, xv / xv.sum(), yv / yv.sum())


def build_residual_model(
    g: ColoredGraph, phi: float, policy: ResidualPolicy,
    s_mask: np.ndarray | None = None, sr_mask: np.ndarray | None = None,
) -> TransitionModel:
    """Locally fair transition model ``P_L + delta_R x' + delta_B y'``.

    Every row, a sink's uniform row too, keeps its entries outside S and
    gives S_R a ``phi`` share of what it sends into S, so the fixed point has
    ``PR(S_R) = phi * PR(S)``; S defaults to all nodes and S_R to red.  The
    neighborhood kind has no x and y: row ``i`` spreads each share over its
    own out-neighbors in that part, or uniformly over the part if it has none.
    """
    s_mask = np.ones(g.n, dtype=bool) if s_mask is None else s_mask
    sr_mask = g.red if sr_mask is None else sr_mask
    neighborhood = policy.kind is PolicyKind.NEIGHBORHOOD
    if neighborhood:
        policy = make_policy(PolicyKind.UNIFORM, g, None, s_mask, sr_mask)
    elif policy.x is None or policy.y is None:
        raise ValueError(f"{policy.kind.value} policy is missing its x/y vectors")
    return _split_rows(g, s_mask, sr_mask, _check_phi(phi), neighborhood).model(policy.x, policy.y)


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
    ``evaluations``: forward solves, the fixed policies' too where the search ran out
    of steps; ``matvecs``: transition products, the problem's own solves too)."""

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
    two adjoint solves add their products to ``counts["matvecs"]`` as in
    :func:`fairpr.pagerank.solve_left`.
    """
    split = residual_decompose(g, phi)
    jump = build_fair_jump(g, phi)
    scale = (1.0 - gamma) / gamma
    owed = np.vstack([split.delta_red, split.delta_blue])
    bare = TransitionModel(split.base)
    q = np.vstack([solve_right(bare, d, gamma, tol=INNER_TOL, counts=counts) for d in owed])
    return FsprProblem(
        model=bare,
        gamma=gamma,
        p_o=p_o,
        constraint=np.vstack([g.red, ~g.red]) - scale * q,
        rhs=scale * (q @ jump),
        shift=jump,
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
    dual steps and to a KKT residual of ``tol``, measured in u.  The policy
    is u normalized per group: ``x = u_R / sum u_R``, uniform where a group
    is owed nothing, and likewise y.  Only a search that runs out of steps
    solves the uniform and proportional policies; it returns the better one's
    x, y and loss where that loss is the lower, so it is never worse than
    either fixed policy, still flagged non-converged with the dual's
    ``kkt_residual``.
    """
    phi = _check_phi(phi)
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    if p_o is None:
        p_o = pagerank(standard_transition(g), gamma)
    counts = {"matvecs": 0}
    sol = solve_fspr(_residual_problem(g, phi, gamma, p_o, counts), tol=tol, max_iters=iterations)
    x, y, loss, evaluations = _normalized(sol.x, g.red), _normalized(sol.x, ~g.red), sol.loss, sol.certificates
    if not sol.converged:  # out of steps: the better fixed policy, where its loss is the lower
        jump = build_fair_jump(g, phi)
        for kind in (PolicyKind.UNIFORM, PolicyKind.PROPORTIONAL):
            policy = make_policy(kind, g, p_o)
            p = solve_left(build_residual_model(g, phi, policy), jump, gamma, tol=INNER_TOL, counts=counts)
            fixed, evaluations = float((p - p_o) @ (p - p_o)), evaluations + 1
            if fixed < loss:
                x, y, loss = policy.x, policy.y, fixed
    return OptimizedSearchResult(
        policy=ResidualPolicy(PolicyKind.OPTIMIZED, x=x, y=y),
        loss=loss,
        converged=sol.converged,
        kkt_residual=sol.kkt_residual,
        iterations=sol.iterations,
        evaluations=evaluations,
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
    kind = PolicyKind(kind)
    if kind is PolicyKind.OPTIMIZED:
        raise ValueError("optimized residual policy is not supported for targeted runs")
    if kind is PolicyKind.PROPORTIONAL and p_o is None:
        p_o = pagerank(standard_transition(g), gamma)
    model = build_residual_model(g, phi, make_policy(kind, g, p_o, s_mask, sr_mask), s_mask, sr_mask)
    v = targeted_jump(g, s_mask, sr_mask, phi)
    return solve_left(model, check_distribution(v), gamma)
