r"""Locally fair transition models and their PageRank fixed points.

Local fairness is a per-row property: every node hands a ``phi`` share of
its outgoing probability to the red group and ``1 - phi`` to the blue
group, and the jump vector is split the same way.  The resulting PageRank
then gives the red group exactly ``phi`` mass, and this holds at every
step of the power iteration, not just in the limit.

Each row is decomposed into a neutral part ``P_L`` (what the node can
serve from its own out-neighbors without exceeding its group quota) plus
a residual ``delta`` that must be redistributed inside the short group.
How the residual is spread is the policy: over the node's own neighbors,
uniformly over the group, proportionally to the original PageRank, or
optimized to minimize utility loss.  The scores are affine in the mass
``u = (1 - gamma) / gamma * [(p' delta_R) x + (p' delta_B) y]`` that the
optimized policy (x, y) pays out, so its utility loss is a convex QP in u,
which ``optimize_residuals`` solves on the loop of
:func:`fairpr.fspr.solve_fspr`; its ``kkt_residual`` is measured in u.

The global model is the targeted model at S = all nodes and S_R = red:
targeted fairness splits only the mass a row sends into a target set S,
giving the protected part S_R a ``phi`` share of it.  One routine,
``_split_rows``, does this split for both; the global builders call it
with S = all nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateTargetError
from .fspr import FsprProblem, solve_fspr
from .graph import ColoredGraph, _check_target_sets
from .pagerank import (
    DEFAULT_GAMMA,
    DEFAULT_TOL,
    INNER_TOL,
    SparseRows,
    TransitionModel,
    _check_phi,
    pagerank,
    power_iterate,
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
    """Split of the standard transitions into neutral part plus residuals.

    ``base`` keeps, for each non-sink node, the largest per-edge share that
    stays within the node's group quotas; ``delta_red[i]`` is the leftover
    probability node ``i`` owes the red group (positive exactly when the
    red share of its out-neighbors falls short of ``phi``), and
    symmetrically for ``delta_blue``.  Sinks owe everything: ``phi`` to
    red and ``1 - phi`` to blue, with an empty base row.  For every row,
    ``base`` red mass + ``delta_red`` equals ``phi`` exactly.
    """

    phi: float
    base: SparseRows
    delta_red: np.ndarray
    delta_blue: np.ndarray
    rho_red: np.ndarray
    rho_blue: np.ndarray
    short_red: np.ndarray
    short_blue: np.ndarray


def residual_decompose(g: ColoredGraph, phi: float) -> ResidualDecomposition:
    phi = _check_phi(phi)
    split = _split_rows(g, _everyone(g), g.red, phi, neighborhood=False)
    return ResidualDecomposition(
        phi=phi,
        base=split.base,
        delta_red=split.delta_r,
        delta_blue=split.delta_b,
        rho_red=np.where(split.short, split.rho, 0.0),
        rho_blue=np.where(split.short, 0.0, split.rho),
        short_red=split.short | g.sinks,
        short_blue=~split.short,
    )


def build_fair_jump(g: ColoredGraph, phi: float) -> np.ndarray:
    """Jump vector splitting ``phi`` uniformly over red, rest over blue."""
    phi = _check_phi(phi)
    v = np.empty(g.n)
    v[g.red] = phi / g.n_red
    v[~g.red] = (1.0 - phi) / g.n_blue
    return v


def _everyone(g: ColoredGraph) -> np.ndarray:
    return np.ones(g.n, dtype=bool)


def build_neighborhood_model(g: ColoredGraph, phi: float) -> TransitionModel:
    """Locally fair transitions that stay on each node's own neighbors.

    Row ``i`` spends ``phi`` uniformly over its red out-neighbors and
    ``1 - phi`` over its blue ones.  A node missing one side (including
    every sink) spreads that share uniformly over the whole group.
    """
    return build_targeted_model(g, _everyone(g), g.red, phi, PolicyKind.NEIGHBORHOOD)


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


def _check_group_distribution(vec, mask, name):
    vec = np.asarray(vec, dtype=float)
    if vec.shape != mask.shape:
        raise ValueError(f"{name} must have one entry per node")
    if vec.min() < 0:
        raise ValueError(f"{name} has negative entries")
    if np.abs(vec[~mask]).max(initial=0.0) > 1e-12:
        raise ValueError(f"{name} must be supported on its own group")
    if abs(vec.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} must sum to 1")
    return vec


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


def make_policy(
    kind: PolicyKind | str,
    g: ColoredGraph,
    p_o: np.ndarray | None = None,
    x: np.ndarray | None = None,
    y: np.ndarray | None = None,
) -> ResidualPolicy:
    """Construct a redistribution policy.

    ``proportional`` weights each node by its original PageRank ``p_o``;
    ``optimized`` wraps caller-supplied vectors (see
    :func:`optimize_residuals` for the search that produces them).
    """
    kind = PolicyKind(kind)
    if kind is PolicyKind.NEIGHBORHOOD:
        return ResidualPolicy(kind=kind)
    if kind is not PolicyKind.OPTIMIZED:
        x, y = _fixed_policy_vectors(kind, g.red, ~g.red, p_o)
        return ResidualPolicy(kind=kind, x=x, y=y)
    if x is None or y is None:
        raise ValueError("optimized policy needs explicit x and y vectors")
    return ResidualPolicy(
        kind=kind,
        x=_check_group_distribution(x, g.red, "x"),
        y=_check_group_distribution(y, ~g.red, "y"),
    )


def build_residual_model(g: ColoredGraph, phi: float, policy: ResidualPolicy) -> TransitionModel:
    """Locally fair transition model ``P_L + delta_R x' + delta_B y'``."""
    if policy.kind is PolicyKind.NEIGHBORHOOD:
        return build_neighborhood_model(g, phi)
    if policy.x is None or policy.y is None:
        raise ValueError(f"{policy.kind.value} policy is missing its x/y vectors")
    split = _split_rows(g, _everyone(g), g.red, _check_phi(phi), neighborhood=False)
    return split.model(policy.x, policy.y)


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
    return power_iterate(model, v, gamma, tol=tol)


@dataclass(frozen=True)
class OptimizedSearchResult:
    """The optimized policy, its diagnostics, and its work (``evaluations``: forward solves)."""

    policy: ResidualPolicy
    loss: float
    converged: bool
    kkt_residual: float
    iterations: int
    evaluations: int
    adjoint_solves: int
    backtracks: int


def _residual_problem(g: ColoredGraph, phi: float, gamma: float, p_o: np.ndarray) -> FsprProblem:
    r"""The lfpr-o program as an :class:`FsprProblem` in ``u``.

    With ``u = (1 - gamma) / gamma * [(p' delta_R) x + (p' delta_B) y]`` the
    locally fair fixed point becomes ``p' = (u + v)' Q`` for the fair jump
    ``v`` and the resolvent ``Q`` of ``P_L`` alone.  Summing u over each group
    and writing ``p' delta = (u + v)' Q delta`` gives its two equalities.  It
    starts at the better of the uniform and proportional policies.
    """
    split = _split_rows(g, _everyone(g), g.red, phi, neighborhood=False)
    jump = build_fair_jump(g, phi)
    scale = (1.0 - gamma) / gamma
    owed = np.vstack([split.delta_r, split.delta_b])
    bare = TransitionModel(split.base)
    q = np.vstack([solve_right(bare, d, gamma, tol=INNER_TOL) for d in owed])

    def policy_point(kind):
        """``(loss, u, p)`` of a fixed policy, from one forward solve."""
        x, y = _fixed_policy_vectors(kind, g.red, ~g.red, p_o)
        p = solve_left(split.model(x, y), jump, gamma, tol=INNER_TOL)
        paid = scale * (owed @ p)
        return float((p - p_o) @ (p - p_o)), paid[0] * x + paid[1] * y, p

    starts = [policy_point(kind) for kind in (PolicyKind.UNIFORM, PolicyKind.PROPORTIONAL)]
    # The secant between the starts estimates the curvature 2 ||du' Q||^2 / ||du||^2;
    # above the solver's default of 1 it is no better a guess.  Coinciding policies,
    # whose u differ by rounding alone, give 0, which says nothing: 1 stands then too.
    du = np.linalg.norm(starts[0][1] - starts[1][1])
    curvature = 2.0 * (np.linalg.norm(starts[0][2] - starts[1][2]) / du) ** 2 if du > 0.0 else np.inf
    return FsprProblem(
        model=bare,
        gamma=gamma,
        p_o=p_o,
        constraint=np.vstack([g.red, ~g.red]) - scale * q,
        rhs=scale * (q @ jump),
        shift=jump,
        start=min(starts, key=lambda point: point[0])[1],
        lipschitz=curvature if 0.0 < curvature < 1.0 else 1.0,
    )


def _normalized(u: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``u`` on ``mask`` scaled to sum 1; uniform on ``mask`` where it sums to 0."""
    part = np.where(mask, u, 0.0)
    return part / part.sum() if part.sum() > 0.0 else mask / mask.sum()


def optimize_residuals(
    g: ColoredGraph,
    phi: float,
    gamma: float = DEFAULT_GAMMA,
    p_o: np.ndarray | None = None,
    *,
    iterations: int = 200,
    tol: float = 1e-8,
) -> OptimizedSearchResult:
    """Redistribution vectors minimizing the utility loss, as a convex QP.

    ``||p(x, y) - p_o||^2`` is a convex quadratic in the owed mass ``u``
    that the policy pays out (see :func:`_residual_problem`), so
    :func:`fairpr.fspr.solve_fspr` minimizes it, from the better of the
    uniform and proportional policies, for at most ``iterations`` steps and
    to a KKT residual of ``tol``, measured in u.  The policy is u
    normalized per group: ``x = u_R / sum u_R``, uniform where a group is
    owed nothing, and likewise y.  It is never worse than either fixed
    policy.
    """
    phi = _check_phi(phi)
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    if p_o is None:
        p_o = pagerank(standard_transition(g), gamma)
    sol = solve_fspr(_residual_problem(g, phi, gamma, p_o), tol=tol, max_iters=iterations)
    return OptimizedSearchResult(
        policy=ResidualPolicy(PolicyKind.OPTIMIZED, x=_normalized(sol.x, g.red), y=_normalized(sol.x, ~g.red)),
        loss=sol.loss,
        converged=sol.converged,
        kkt_residual=sol.kkt_residual,
        iterations=sol.iterations,
        evaluations=sol.forward_solves + 2,  # with the problem's own solves
        adjoint_solves=sol.adjoint_solves + 2,
        backtracks=sol.backtracks,
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


@dataclass(frozen=True)
class _RowSplit:
    """Per-edge ``base``, the mass each row still owes S_R and S_B = S - S_R,
    and the sinks' jump outside S; only the decomposition sets ``rho``/``short``."""

    base: SparseRows
    delta_r: np.ndarray
    delta_b: np.ndarray
    rest: tuple
    rho: np.ndarray | None = None
    short: np.ndarray | None = None

    def model(self, x: np.ndarray, y: np.ndarray) -> TransitionModel:
        """The transitions with the owed mass spread by ``x`` over S_R and ``y`` over S_B."""
        owed = tuple((d, t) for d, t in ((self.delta_r, x), (self.delta_b, y)) if d.any())
        return TransitionModel(self.base, owed + self.rest)


def _split_rows(
    g: ColoredGraph, s_mask: np.ndarray, sr_mask: np.ndarray, phi: float, neighborhood: bool
) -> _RowSplit:
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
    nonsink = out > 0
    sink = ~nonsink

    in_s = s_mask[g.indices]
    in_sr = sr_mask[g.indices]
    edge_row = np.repeat(np.arange(n), g.out_degree)
    d_s = np.bincount(edge_row, weights=in_s, minlength=n)
    d_sr = np.bincount(edge_row, weights=in_sr, minlength=n)
    d_sb = d_s - d_sr

    # Per-row probability currently entering the target set.
    s_mass = np.zeros(n)
    s_mass[nonsink] = d_s[nonsink] / out[nonsink]
    s_mass[sink] = s_mask.sum() / n

    row_out = np.repeat(np.where(nonsink, 1.0 / np.maximum(out, 1.0), 0.0), g.out_degree)
    rho = short = None

    if neighborhood:
        share_sr = np.repeat(
            np.where(d_sr > 0, phi * s_mass / np.maximum(d_sr, 1.0), 0.0), g.out_degree
        )
        share_sb = np.repeat(
            np.where(d_sb > 0, (1.0 - phi) * s_mass / np.maximum(d_sb, 1.0), 0.0), g.out_degree
        )
        data = np.where(in_sr, share_sr, np.where(in_s, share_sb, row_out))
        delta_r = phi * s_mass * (d_sr == 0)
        delta_b = (1.0 - phi) * s_mass * (d_sb == 0)
    else:
        short = (d_s > 0) & (d_sr < phi * d_s)
        rich = (d_s > 0) & ~short
        rho = np.zeros(n)
        rho[short] = (1.0 - phi) * s_mass[short] / d_sb[short]
        rho[rich] = phi * s_mass[rich] / d_sr[rich]
        delta_r = np.zeros(n)
        delta_b = np.zeros(n)
        delta_r[short] = s_mass[short] * (phi - (1.0 - phi) * d_sr[short] / d_sb[short])
        delta_b[rich] = s_mass[rich] * ((1.0 - phi) - phi * d_sb[rich] / d_sr[rich])
        delta_r[sink] = phi * s_mass[sink]
        delta_b[sink] = (1.0 - phi) * s_mass[sink]
        data = np.where(in_s, np.repeat(rho, g.out_degree), row_out)

    rest = ()
    if sink.any() and s_mask.sum() < n:
        outside = np.zeros(n)
        outside[~s_mask] = 1.0 / n
        rest = ((sink.astype(float), outside),)

    base = SparseRows(data, g.indices, g.indptr)
    return _RowSplit(base=base, delta_r=delta_r, delta_b=delta_b, rest=rest, rho=rho, short=short)


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
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """PageRank giving the protected part a ``phi`` share of the target set's mass."""
    s_mask, sr_mask = _check_target_sets(g, s, s_r)
    if PolicyKind(kind) is PolicyKind.PROPORTIONAL and p_o is None:
        p_o = pagerank(standard_transition(g), gamma, tol=tol)
    model = build_targeted_model(g, s_mask, sr_mask, phi, kind, p_o=p_o)
    v = targeted_jump(g, s_mask, sr_mask, phi)
    p = power_iterate(model, v, gamma, tol=tol)
    if p[s_mask].sum() <= 0.0:
        raise DegenerateTargetError("target set receives no mass")
    return p
