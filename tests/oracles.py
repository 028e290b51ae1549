"""Independent oracles the tests check the library against.

Everything here is deliberately primitive: finite differences instead of the
library's analytic gradients, exact characteristic polynomials instead of
LAPACK, dense grid search instead of solver output, per-edge multipliers
instead of the solver's compact w-recursion. Slow and dumb on purpose. It
also holds the seminorm the convergence analysis contracts in, which only the
tests measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp

from nashadmm import init_state


def central_diff(f, x: np.ndarray, i: int, h: float = 1e-5) -> float:
    """Two-sided difference quotient of f along coordinate i."""
    xp = np.array(x, dtype=float)
    xm = np.array(x, dtype=float)
    xp[i] += h
    xm[i] -= h
    return (f(xp) - f(xm)) / (2.0 * h)


def second_diff(f, x: np.ndarray, i: int, h: float = 1e-4) -> float:
    """Second difference along coordinate i; >= 0 (up to noise) for convex f."""
    xp = np.array(x, dtype=float)
    xm = np.array(x, dtype=float)
    xp[i] += h
    xm[i] -= h
    return (f(xp) + f(xm) - 2.0 * f(np.array(x, dtype=float))) / h**2


def grid_best_response(game, i: int, profile: np.ndarray, points: int = 2001) -> float:
    """Argmin of J_i over a uniform grid on player i's interval, others fixed."""
    lo = game.action_box.lower[i]
    hi = game.action_box.upper[i]
    grid = np.linspace(lo, hi, points)
    x = np.array(profile, dtype=float)
    best_t, best_v = grid[0], np.inf
    for t in grid:
        x[i] = t
        v = game.cost(i, x)
        if v < best_v:
            best_t, best_v = t, v
    return float(best_t)


def charpoly_eigs(M) -> np.ndarray:
    """Eigenvalues via the exact characteristic polynomial (sympy, no LAPACK).

    M must have entries representable exactly (ints or Fractions/Rationals).
    Returns the ascending real parts; intended for symmetric M where all roots
    are real.
    """
    S = sp.Matrix([[sp.nsimplify(v, rational=True) for v in row] for row in M])
    lam = sp.Symbol("lam")
    poly = sp.Poly(S.charpoly(lam).as_expr(), lam)
    roots = poly.real_roots()  # exact isolation, multiplicities repeated
    return np.array(sorted(float(r.evalf(25)) for r in roots))


def link_loads(game, x: np.ndarray) -> np.ndarray:
    """Total flow on each link of a WanetGame at profile x, read off game.routes."""
    loads = np.zeros(game.n_links)
    for u, route in enumerate(game.routes):
        loads[list(route)] += x[u]
    return loads


def random_graph_edges(n: int, extra_edges: int, seed: int) -> frozenset:
    """Edges of random_connected_graph(n, extra_edges, seed), built from a sorted
    list of every non-ring vertex pair: the ring plus the pairs rng.choice picks."""
    ring = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    pool = sorted((i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in ring)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pool), size=extra_edges, replace=False) if extra_edges else []
    return frozenset(ring | {pool[int(p)] for p in picks})


def neighbors(graph, i: int) -> list[int]:
    """Sorted neighbors of node i, read off the edge set alone."""
    return sorted(b if a == i else a for a, b in graph.edges if i in (a, b))


def neighbor_sums_loop(X: np.ndarray, graph) -> np.ndarray:
    """Row i = X[N_i].sum(axis=0), one node at a time."""
    return np.stack([X[neighbors(graph, i)].sum(axis=0) for i in range(graph.n)])


@dataclass
class DualState:
    """Explicit-form state: one (u, v) multiplier pair per directed edge.

    u and v map a directed edge (i, j) with j a neighbor of i to a vector in
    R^N. For all k >= 0 the identity u[(i, j)] + v[(i, j)] = 0 holds exactly,
    because both sides of an edge receive negated copies of the same update.
    """

    u: dict
    v: dict
    X: np.ndarray
    k: int = 0


def init_dual_state(game, graph, x0=None) -> DualState:
    """Explicit-form state at k = 0 with all multipliers zero."""
    X = init_state(game, graph, x0).X
    n = graph.n
    u, v = {}, {}
    for i in range(n):
        for j in neighbors(graph, i):
            u[(i, j)] = np.zeros(n)
            v[(i, j)] = np.zeros(n)
    return DualState(u=u, v=v, X=X, k=0)


def unsimplified_step(dstate: DualState, game, graph, cfg) -> DualState:
    """One iteration of the explicit multiplier form.

    Order of operations: both multipliers of every directed edge move by
    +-(c/2)(x^i - x^j); the off-diagonal estimate coordinates average the old
    row with the neighborhood mean and subtract the refreshed multiplier
    aggregate; the own coordinate applies the same proximal projection as
    the solver's step (`nashadmm.admm._admm_plan`), expressed through
    sum_j (u^{ij} + v^{ji}).
    """
    n = graph.n
    X = dstate.X
    deg = graph.degrees().astype(float)
    half_c = 0.5 * cfg.c

    u_new, v_new = {}, {}
    for (i, j), uij in dstate.u.items():
        d = X[i] - X[j]
        u_new[(i, j)] = uij + half_c * d
        v_new[(i, j)] = dstate.v[(i, j)] - half_c * d

    # w^i reconstructed from the refreshed multipliers
    msum = np.stack([
        sum(u_new[(i, j)] + v_new[(j, i)] for j in neighbors(graph, i))
        for i in range(n)
    ])

    S = neighbor_sums_loop(X, graph)
    avg = S / deg[:, None]
    X_new = 0.5 * (X + avg) - msum / (2.0 * cfg.c * deg[:, None])

    beta = cfg.beta_vector(n)
    alpha = beta + 2.0 * cfg.c * deg
    # row by row through the pseudo-gradient, not the solver's batched call
    grads = np.array([game.pseudo_gradient(X[i])[i] for i in range(n)])
    own_num = (beta + cfg.c * deg) * np.diagonal(X) - np.diagonal(msum) - grads \
        + cfg.c * np.diagonal(S)
    box = game.action_box
    idx = np.arange(n)
    X_new[idx, idx] = np.clip(own_num / alpha, box.lower, box.upper)
    return DualState(u=u_new, v=v_new, X=X_new, k=dstate.k + 1)


def seeded_states(m: int, n: int, seed: int, nan_member: int | None = None):
    """m random (n, n) estimate and penalty matrices with -0.0 entries in both,
    and one NaN in member nan_member's X: inputs for the reference steps."""
    rng = np.random.default_rng(seed)
    X, W = rng.uniform(0.0, 2.0, (m, n, n)), rng.normal(0.0, 0.1, (m, n, n))
    X[:, ::3, 1::4] = -0.0
    W[:, 1::4, ::3] = -0.0
    if nan_member is not None:
        X[nan_member, 1, 0] = np.nan
    return X, W


def reference_admm_step(X, W, grads, game, graph, cfg):
    """One step of the solver's compact recursion (`nashadmm.admm._admm_plan`) on
    a stack, in plain form: a fresh array per operation and the per-row
    constants as (n, 1) columns, in the solver's operation order, so the two
    agree bit for bit. Returns the new X and W; neither input is written."""
    c, n = cfg.c, graph.n
    deg, beta = graph.degrees().astype(float), cfg.beta_vector(n)
    S = graph.neighbor_sums(X, np.empty_like(X), np.empty_like(X))
    W_new = W + (deg[:, None] * X - S) * c
    X_new = S / deg[:, None] - W / (2.0 * c * deg)[:, None]
    own = (beta + c * deg) * X.diagonal(0, -2, -1) - W_new.diagonal(0, -2, -1) - grads \
        + c * S.diagonal(0, -2, -1)
    idx = np.arange(n)
    X_new[..., idx, idx] = np.clip(own / (beta + 2.0 * c * deg), game.action_box.lower,
                                   game.action_box.upper)
    return X_new, W_new


def reference_baseline_step(X, grads, game, graph, gammas):
    """One step of the baseline (`nashadmm.baseline._baseline_plan`) on a stack,
    member g stepping by gammas[g], in the same plain form."""
    deg, idx = graph.degrees().astype(float), np.arange(graph.n)
    X_new = (graph.neighbor_sums(X, np.empty_like(X), np.empty_like(X)) + X) \
        / (deg[:, None] + 1.0)
    own = X.diagonal(0, -2, -1) - np.asarray(gammas, dtype=float)[:, None] * grads
    X_new[..., idx, idx] = np.clip(own, game.action_box.lower, game.action_box.upper)
    return X_new


def dual_w_matrix(dstate: DualState, graph) -> np.ndarray:
    """Aggregate w^i = sum_{j in N_i} (u^{ij} + v^{ji}) as an n-by-n matrix."""
    return np.stack([
        sum(dstate.u[(i, j)] + dstate.v[(j, i)] for j in neighbors(graph, i))
        for i in range(graph.n)
    ])


def m2_seminorm_distance(X: np.ndarray, x_star: np.ndarray, cfg, graph) -> float:
    """Squared seminorm distance of the estimate matrix from consensus at x_star.

    With E = X - 1 x_star^T and per-player proximal weights beta_i and penalty
    c taken from cfg,

        (1/2) [ sum_i beta_i E_ii^2  +  c * sum_ij (D + A)_ij <E_i, E_j> ]

    where D + A is the degree-plus-adjacency matrix of the communication
    graph, applied blockwise (the n^2 x n^2 form is never materialized).
    Nonnegative whenever the graph is connected.
    """
    X = np.asarray(X, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    if X.shape != (graph.n, graph.n):
        raise ValueError("X must be n-by-n")
    beta = np.broadcast_to(np.asarray(cfg.beta, dtype=float), (graph.n,))
    E = X - x_star[None, :]
    diag_part = float(np.sum(beta * np.diagonal(E) ** 2))
    mixing = graph.d_plus_a()
    graph_part = float(cfg.c * np.sum(mixing * (E @ E.T)))
    return 0.5 * (diag_part + graph_part)
