"""Test-only oracles: row checks of transition models, dense solvers of the
optimizers' QPs, exact but quadratic in memory, the plain fixed-point loop,
the synthetic generator on the Generator's scalar draws, the locally fair
row split in its earlier, mask-assignment form, and the targeted model
builder as it stood before the global and targeted builders merged."""

import numpy as np

from fairpr.errors import ConvergenceError, InfeasibleError
from fairpr.graph import ColoredGraph, from_edges
from fairpr.lfpr import PolicyKind, ResidualDecomposition, _split_rows
from fairpr.pagerank import (
    DEFAULT_GAMMA, INNER_TOL, SparseRows, TransitionModel, _check_gamma, _check_phi, solve_left,
)
from fairpr.synth import _seed_colors, child_seed


def row_sums(m) -> np.ndarray:
    """Row sums of the effective matrix of a ``TransitionModel``."""
    sums = m.base.to_dense().sum(axis=1)
    for delta, target in m.residuals:
        sums = sums + delta * target.sum()
    return sums


def effective_row(m, i: int) -> np.ndarray:
    """Row ``i`` of the effective matrix, dense."""
    row = m.base.to_dense()[i]
    for delta, target in m.residuals:
        row = row + delta[i] * target
    return row


def validate(m, tol: float = 1e-9) -> None:
    """Raise ``ValueError`` unless the model is row-stochastic within ``tol``."""
    if m.base.data.size and m.base.data.min() < 0:
        raise ValueError("negative entry in transition base")
    for delta, target in m.residuals:
        if delta.min() < -tol or target.min() < -tol:
            raise ValueError("negative rank-one residual term")
    err = np.abs(row_sums(m) - 1.0).max()
    if err > tol:
        raise ValueError(f"row sums deviate from 1 by {err:.3e}")


def two_point_jump(values: np.ndarray, target: float) -> np.ndarray:
    """Feasible jump vector mixing the extreme coordinates of ``values``."""
    values = np.asarray(values, dtype=float)
    i = int(np.argmin(values))
    j = int(np.argmax(values))
    x = np.zeros(values.shape[0])
    if i == j or values[j] == values[i]:
        x[i] = 1.0
        return x
    if not values[i] <= target <= values[j]:
        raise InfeasibleError(f"target {target:.6g} outside [{values[i]:.6g}, {values[j]:.6g}]")
    pi = (values[j] - target) / (values[j] - values[i])
    x[i] = pi
    x[j] += 1.0 - pi
    return x


def fair_pagerank_from_jump(model, x, gamma: float = DEFAULT_GAMMA, tol: float = INNER_TOL) -> np.ndarray:
    """Scores induced by jump vector ``x``: the product ``x' Q``."""
    return solve_left(model, np.asarray(x, dtype=float), gamma, tol=tol)


def plain_fixed_point(apply, r, gamma, reduce, tol, max_iters, start, side, counts):
    """Iterate ``x <- (1 - gamma) apply(x) + gamma r`` until ``reduce(|step|) <= tol``.

    Power iteration with no extrapolation, the engine's arguments and stop
    test: the reference for ``pagerank._fixed_point``.
    """
    gamma = _check_gamma(gamma)
    r = np.asarray(r, dtype=float)
    x = r.copy() if start is None else np.asarray(start, dtype=float).copy()
    jump, diff = gamma * r, np.empty_like(x)
    step, steps = np.inf, 0
    while steps < max_iters:
        x_next = apply(x)
        x_next *= 1.0 - gamma
        x_next += jump
        step = reduce(np.abs(np.subtract(x_next, x, out=diff), out=diff))
        x = x_next
        steps += 1
        if step <= tol:
            break
    if counts is not None:
        counts["matvecs"] += steps
    if step <= tol:
        return x
    raise ConvergenceError(
        f"{side} fixed point not within {tol} after {max_iters} iterations (last step {step:.3e})"
    )


def solve_fspr_dense(q_matrix, p_o, a, rhs, shift=None, start=None, max_pivots=None) -> np.ndarray:
    """Active-set solve of ``min ||(x + shift)' Q - p_o||^2`` over ``{x >= 0, E x = d}``.

    A 1-D ``a`` stands for ``E = [1; a]`` and ``d = (1, rhs)``, started at
    the two-point jump; a 2-D ``a`` is ``E`` itself, with ``d = rhs`` and a
    feasible ``start``.  Normal equations on the free coordinates, pivoting
    on the most violated bound multiplier: exact up to linear-algebra
    precision.
    """
    q_matrix = np.asarray(q_matrix, dtype=float)
    n = q_matrix.shape[0]
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        e, d, x = np.vstack([np.ones(n), a]), np.array([1.0, float(rhs)]), two_point_jump(a, rhs)
    else:
        e, d, x = a, np.asarray(rhs, dtype=float), np.asarray(start, dtype=float).copy()
    target = p_o if shift is None else p_o - shift @ q_matrix
    h = 2.0 * (q_matrix @ q_matrix.T)
    c = -2.0 * (q_matrix @ target)
    k_rows = e.shape[0]
    free = x > 0
    if max_pivots is None:
        max_pivots = 3 * n + 10

    for _ in range(max_pivots):
        idx = np.nonzero(free)[0]
        k = idx.size
        kkt = np.zeros((k + k_rows, k + k_rows))
        kkt[:k, :k] = h[np.ix_(idx, idx)]
        kkt[:k, k:] = e[:, idx].T
        kkt[k:, :k] = e[:, idx]
        rhs_vec = np.concatenate([-c[idx], d])
        try:
            sol = np.linalg.solve(kkt, rhs_vec)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, rhs_vec, rcond=None)
        x_free = sol[:k]
        lam = sol[k:]

        if x_free.min() >= -1e-12:
            x = np.zeros(n)
            x[idx] = np.maximum(x_free, 0.0)
            slack = h @ x + c + e.T @ lam
            bound = np.nonzero(~free)[0]
            if bound.size == 0 or slack[bound].min() >= -1e-9:
                return x
            free[bound[np.argmin(slack[bound])]] = True
        else:
            x_target = np.zeros(n)
            x_target[idx] = x_free
            moving = x_target < x - 1e-15
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(moving, x / np.where(moving, x - x_target, 1.0), np.inf)
            blocker = int(np.argmin(steps))
            alpha = min(1.0, steps[blocker])
            x = x + alpha * (x_target - x)
            x[blocker] = 0.0
            free[blocker] = False
    raise RuntimeError("active-set solve did not settle within the pivot budget")


def generate_reference(cfg):
    """``synth.generate`` with one scalar ``Generator`` call per draw and no
    bound on the draws per edge: the graph the block-read stream must equal."""
    for attempt in range(10):
        rng = np.random.default_rng(child_seed(cfg.seed, attempt))
        red = np.zeros(cfg.n, dtype=bool)
        red[: cfg.n0] = _seed_colors(cfg.n0, cfg.red_fraction)

        undirected = [(i, (i + 1) % cfg.n0) for i in range(cfg.n0)]
        endpoints = [v for e in undirected for v in e]

        for v in range(cfg.n0, cfg.n):
            is_red = rng.random() < cfg.red_fraction
            red[v] = is_red
            alpha = cfg.alpha_red if is_red else cfg.alpha_blue
            chosen: set[int] = set()
            for _ in range(cfg.edges_per_node):
                while True:
                    u = endpoints[rng.integers(len(endpoints))]
                    if u == v or u in chosen:
                        continue
                    accept = alpha if red[u] == is_red else 1.0 - alpha
                    if rng.random() < accept:
                        break
                chosen.add(u)
                undirected.append((v, u))
                endpoints.append(v)
                endpoints.append(u)

        if red.any() and not red.all():
            edges = [(a, b) for a, b in undirected] + [(b, a) for a, b in undirected]
            return from_edges(cfg.n, edges, red)
    raise RuntimeError("could not generate a graph with both color groups")


def split_rows_reference(
    g: ColoredGraph, s_mask: np.ndarray, sr_mask: np.ndarray, phi: float, neighborhood: bool
) -> ResidualDecomposition:
    """``lfpr._split_rows`` as it stood before ``ColoredGraph.out_count``: weighted
    ``bincount`` row counts and boolean-mask assignments into zero-filled arrays."""
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
    return ResidualDecomposition(base, delta_r, delta_b, rest, rho, short)


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


def targeted_model_reference(
    g: ColoredGraph,
    s_mask: np.ndarray,
    sr_mask: np.ndarray,
    phi: float,
    kind: PolicyKind | str,
    p_o: np.ndarray | None = None,
) -> TransitionModel:
    """``lfpr.build_targeted_model`` as it stood beside ``build_residual_model``:
    its own copy of the uniform and proportional (x, y) vectors on S_R and S_B."""
    phi = _check_phi(phi)
    kind = PolicyKind(kind)
    if kind is PolicyKind.OPTIMIZED:
        raise ValueError("optimized residual policy is not supported for targeted runs")
    sb_mask = s_mask & ~sr_mask
    neighborhood = kind is PolicyKind.NEIGHBORHOOD
    # The neighborhood split owes a missing part in full, spread uniformly.
    x, y = _fixed_policy_vectors(PolicyKind.UNIFORM if neighborhood else kind, sr_mask, sb_mask, p_o)
    return _split_rows(g, s_mask, sr_mask, phi, neighborhood).model(x, y)
