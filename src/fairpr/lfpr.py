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
optimized to minimize utility loss.

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
from scipy import sparse

from .errors import DegenerateTargetError
from .graph import ColoredGraph
from .pagerank import (
    DEFAULT_GAMMA,
    DEFAULT_TOL,
    TransitionModel,
    pagerank,
    power_iterate,
    standard_transition,
)
from .simplex import project_simplex


class PolicyKind(str, Enum):
    NEIGHBORHOOD = "neighborhood"
    UNIFORM = "uniform"
    PROPORTIONAL = "proportional"
    OPTIMIZED = "optimized"


def _check_phi(phi: float) -> float:
    phi = float(phi)
    if not 0.0 < phi < 1.0:
        raise ValueError(f"phi must lie strictly between 0 and 1, got {phi}")
    return phi


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
    base: sparse.csr_matrix
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


class _RankTwoResolvent:
    """Fast exact evaluator for the locally fair fixed point.

    The transition matrix is ``P_L + delta_R x' + delta_B y'`` where only
    the rank-one parts depend on the search variables, so with
    ``B = [I - (1 - gamma) P_L]^{-1}`` precomputed once, each candidate
    score vector follows from the rank-2 Woodbury identity at the cost of
    two (K, n) x (n, n) products per batch of K candidates.
    """

    def __init__(self, dec: ResidualDecomposition, jump, gamma, p_o):
        n = dec.base.shape[0]
        a_mat = np.eye(n) - (1.0 - gamma) * dec.base.toarray()
        self.b = np.linalg.inv(a_mat)
        self.u = (1.0 - gamma) * np.column_stack([dec.delta_red, dec.delta_blue])
        self.w = self.b @ self.u
        self.a_row = gamma * (jump @ self.b)
        self.c2 = self.a_row @ self.u
        self.p_o = p_o

    def scores_batch(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Score vectors for K candidate (x, y) pairs; also returns validity."""
        xw = xs @ self.w
        yw = ys @ self.w
        m11 = 1.0 - xw[:, 0]
        m12 = -xw[:, 1]
        m21 = -yw[:, 0]
        m22 = 1.0 - yw[:, 1]
        det = m11 * m22 - m12 * m21
        ok = np.abs(det) > 1e-12
        safe = np.where(ok, det, 1.0)
        alpha = (self.c2[0] * m22 - self.c2[1] * m21) / safe
        beta = (-self.c2[0] * m12 + self.c2[1] * m11) / safe
        scores = self.a_row[None, :] + alpha[:, None] * (xs @ self.b) + beta[:, None] * (ys @ self.b)
        return scores, ok

    def loss_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        scores, ok = self.scores_batch(xs, ys)
        diff = scores - self.p_o[None, :]
        loss = np.einsum("ij,ij->i", diff, diff)
        return np.where(ok, loss, np.inf)


def _golden_batch(f_of_t, t_hi, n_evals):
    """Vectorized golden-section search on [0, t_hi] per coordinate.

    Returns the best (t, f) seen among all evaluated points; the objective
    need not be unimodal, in which case this is a best-effort sampler.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    lo = np.zeros_like(t_hi)
    hi = t_hi.astype(float).copy()
    m1 = hi - invphi * (hi - lo)
    m2 = lo + invphi * (hi - lo)
    f1 = f_of_t(m1)
    f2 = f_of_t(m2)
    best_t = np.where(f1 <= f2, m1, m2)
    best_f = np.minimum(f1, f2)
    for _ in range(max(0, n_evals - 2)):
        take = f1 < f2
        lo = np.where(take, lo, m1)
        hi = np.where(take, m2, hi)
        surv_m = np.where(take, m1, m2)
        surv_f = np.where(take, f1, f2)
        new_m = np.where(take, hi - invphi * (hi - lo), lo + invphi * (hi - lo))
        new_f = f_of_t(new_m)
        m1 = np.where(take, new_m, surv_m)
        f1 = np.where(take, new_f, surv_f)
        m2 = np.where(take, surv_m, new_m)
        f2 = np.where(take, surv_f, new_f)
        upd = new_f < best_f
        best_t = np.where(upd, new_m, best_t)
        best_f = np.where(upd, new_f, best_f)
    return best_t, best_f


@dataclass(frozen=True)
class OptimizedSearchResult:
    policy: ResidualPolicy
    loss: float
    penalty_residual: float
    iterations: int
    evaluations: int


def optimize_residuals(
    g: ColoredGraph,
    phi: float,
    gamma: float = DEFAULT_GAMMA,
    p_o: np.ndarray | None = None,
    *,
    iterations: int = 200,
    directions: int = 64,
    penalty: float = 10.0,
    line_search_evals: int = 16,
    seed: int = 0,
    rel_tol: float = 1e-9,
    dense_cap: int = 4000,
    tol: float = DEFAULT_TOL,
) -> OptimizedSearchResult:
    """Search for redistribution vectors minimizing the utility loss.

    Stochastic direction search: each round samples ``directions`` random
    unit directions over the stacked (x, y) coordinates, line-searches each
    by golden section, and takes the best improvement.  Iterates keep all
    coordinates nonnegative and cap each sum slightly above one so the
    fixed point stays well defined; deviation from the simplex is charged
    ``penalty * ((sum x - 1)^2 + (sum y - 1)^2)``.  The final vectors are
    projected back onto their group simplices, and the returned policy is
    the best of {search result, uniform, proportional} under the exact
    fixed-point loss, so it never trails those baselines.

    Deterministic for a fixed seed.  Requires a dense factorization of the
    neutral part, hence the ``dense_cap`` guard.
    """
    phi = _check_phi(phi)
    if g.n > dense_cap:
        raise ValueError(f"optimized search uses a dense solve, limited to {dense_cap} nodes")
    if p_o is None:
        p_o = pagerank(standard_transition(g), gamma, tol=tol)

    dec = residual_decompose(g, phi)
    jump = build_fair_jump(g, phi)
    engine = _RankTwoResolvent(dec, jump, gamma, p_o)
    red_idx = g.red_nodes()
    blue_idx = g.blue_nodes()
    nr, nb = red_idx.size, blue_idx.size
    # Row sums may reach 1 + margin during the search; keep the spectral
    # radius of (1 - gamma) * M below 1.
    margin = 0.5 * gamma / (1.0 - gamma)

    def objective(xs, ys):
        pen = penalty * ((xs.sum(axis=1) - 1.0) ** 2 + (ys.sum(axis=1) - 1.0) ** 2)
        return engine.loss_batch(xs, ys) + pen

    x, y = _fixed_policy_vectors(PolicyKind.UNIFORM, g.red, ~g.red, p_o)
    f_cur = float(objective(x[None, :], y[None, :])[0])
    evaluations = 1
    rng = np.random.default_rng(seed)
    rounds = 0
    for _ in range(iterations):
        rounds += 1
        d = rng.standard_normal((directions, nr + nb))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        dx = np.zeros((directions, g.n))
        dx[:, red_idx] = d[:, :nr]
        dy = np.zeros((directions, g.n))
        dy[:, blue_idx] = d[:, nr:]

        t_hi = np.full(directions, 2.0)
        for vec, dv in ((x, dx), (y, dy)):
            neg = dv < 0
            ratio = np.where(neg, vec[None, :] / np.where(neg, -dv, 1.0), np.inf)
            t_hi = np.minimum(t_hi, ratio.min(axis=1))
            dsum = dv.sum(axis=1)
            head = (1.0 + margin) - vec.sum()
            pos = dsum > 0
            t_hi = np.minimum(t_hi, np.where(pos, head / np.where(pos, dsum, 1.0), np.inf))
        t_hi = np.maximum(t_hi, 0.0)

        def along(t):
            xs = x[None, :] + t[:, None] * dx
            ys = y[None, :] + t[:, None] * dy
            return objective(np.maximum(xs, 0.0), np.maximum(ys, 0.0))

        best_t, best_f = _golden_batch(along, t_hi, line_search_evals)
        evaluations += line_search_evals * directions
        k = int(np.argmin(best_f))
        if not best_f[k] < f_cur - rel_tol * max(1.0, abs(f_cur)):
            break
        x = np.maximum(x + best_t[k] * dx[k], 0.0)
        y = np.maximum(y + best_t[k] * dy[k], 0.0)
        f_cur = float(objective(x[None, :], y[None, :])[0])
        evaluations += 1

    penalty_residual = float((x.sum() - 1.0) ** 2 + (y.sum() - 1.0) ** 2)
    x_fin = np.zeros(g.n)
    x_fin[red_idx] = project_simplex(x[red_idx])
    y_fin = np.zeros(g.n)
    y_fin[blue_idx] = project_simplex(y[blue_idx])

    candidates = [
        make_policy(PolicyKind.OPTIMIZED, g, x=x_fin, y=y_fin),
        make_policy(PolicyKind.UNIFORM, g),
        make_policy(PolicyKind.PROPORTIONAL, g, p_o=p_o),
    ]
    losses = []
    for cand in candidates:
        p = lfpr_pagerank(g, phi, cand, gamma, tol=tol)
        diff = p - p_o
        losses.append(float(diff @ diff))
    best = int(np.argmin(losses))
    chosen = candidates[best]
    policy = ResidualPolicy(kind=PolicyKind.OPTIMIZED, x=chosen.x, y=chosen.y)
    return OptimizedSearchResult(
        policy=policy,
        loss=losses[best],
        penalty_residual=penalty_residual,
        iterations=rounds,
        evaluations=evaluations,
    )


def _check_target_sets(g: ColoredGraph, s, s_r) -> tuple[np.ndarray, np.ndarray]:
    masks = []
    for ids, name in ((s, "target set"), (s_r, "protected target subset")):
        ids = np.unique(np.asarray(ids, dtype=np.int64))
        if ids.size == 0:
            raise ValueError(f"{name} is empty")
        if ids.min() < 0 or ids.max() >= g.n:
            raise ValueError(f"{name} contains out-of-range node ids")
        mask = np.zeros(g.n, dtype=bool)
        mask[ids] = True
        masks.append(mask)
    s_mask, sr_mask = masks
    if not s_mask[sr_mask].all():
        raise ValueError("protected target subset must lie inside the target set")
    if not (s_mask & ~sr_mask).any():
        raise ValueError("target set must contain nodes outside the protected subset")
    return s_mask, sr_mask


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

    base: sparse.csr_matrix
    delta_r: np.ndarray
    delta_b: np.ndarray
    rest: tuple
    rho: np.ndarray | None = None
    short: np.ndarray | None = None

    def model(self, x: np.ndarray, y: np.ndarray) -> TransitionModel:
        """The transitions with the owed mass spread by ``x`` over S_R and ``y`` over S_B."""
        owed = tuple((d, t) for d, t in ((self.delta_r, x), (self.delta_b, y)) if d.any())
        return TransitionModel(base=self.base, residuals=owed + self.rest)


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

    base = sparse.csr_matrix((data, g.indices.copy(), g.indptr.copy()), shape=(n, n))
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
