"""Consensus-ADMM Nash equilibrium seeking over a communication graph.

Each player i keeps a local estimate row x^i of the *full* action profile;
its own coordinate X[i, i] is the action the player actually plays. Consensus
constraints x^i = x^j on every communication edge tie the copies together,
and an augmented-Lagrangian splitting yields a per-player recursion whose
only dual memory is the aggregate penalty vector w^i.

All updates are synchronous: every player reads iteration-k state and the new
state is assembled in fresh arrays. tests/oracles.py keeps the explicit form,
one multiplier pair per directed edge, as the reference for this recursion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .games import GameModel
from .graph import CommGraph
from .metrics import IterationRecord, consensus_error, ne_residual

__all__ = [
    "AdmmConfig",
    "SolverState",
    "RunResult",
    "init_state",
    "admm_step",
    "run",
    "check_condition",
    "condition_threshold",
]


@dataclass(frozen=True)
class AdmmConfig:
    """Solver parameters.

    c is the consensus penalty coefficient (also the dual step scale); beta is
    the per-player proximal weight, accepted as a scalar (broadcast) or a
    per-player sequence. Iteration stops once consensus error and equilibrium
    residual are both below their tolerances, or at max_iter.
    """

    c: float = 1.0
    beta: float | tuple = 1.0
    max_iter: int = 5000
    tol_consensus: float = 1e-8
    tol_residual: float = 1e-6
    record_every: int = 1

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("penalty coefficient c must be positive")
        b = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if np.any(b <= 0) or not np.all(np.isfinite(b)):
            raise ValueError("proximal weights beta must be positive")
        beta = float(b[0]) if np.ndim(self.beta) == 0 else tuple(float(x) for x in b)
        object.__setattr__(self, "beta", beta)
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if not (self.tol_consensus > 0 and self.tol_residual > 0):
            raise ValueError("tolerances must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")

    def beta_vector(self, n: int) -> np.ndarray:
        b = np.asarray(self.beta, dtype=float)
        if b.ndim == 0:
            return np.full(n, float(b))
        if b.shape != (n,):
            raise ValueError(f"beta has {b.shape[0]} entries for {n} players")
        return b


@dataclass
class SolverState:
    """Estimate matrix X (row i = x^i), penalty matrix W (row i = w^i), counter k.

    Invariants maintained by the step functions: diag(X) stays inside the
    action box for every k >= 1, and the columns of W sum to zero up to
    rounding (each edge feeds antisymmetric increments into the two incident
    rows).
    """

    X: np.ndarray
    W: np.ndarray
    k: int = 0


@dataclass
class RunResult:
    """Terminal state plus the sampled trace and why iteration stopped.

    reason is one of "converged", "iteration budget", "diverged"; diverged_at
    carries the iteration index that first produced a non-finite value.
    """

    state: SolverState
    records: list = field(default_factory=list)
    reason: str = "converged"
    diverged_at: int | None = None


def init_state(game: GameModel, graph: CommGraph, x0=None) -> SolverState:
    """Fresh solver state at k = 0: rows broadcast from x0 (default 0), W = 0."""
    n = graph.n
    if game.n_players != n:
        raise ValueError(f"game has {game.n_players} players but graph has {n} nodes")
    if n < 2:
        raise ValueError("solver needs n >= 2 (single-player games are plain minimization)")
    if not graph.is_connected():
        raise ValueError("communication graph must be connected")
    if x0 is None:
        x0 = np.zeros(n)
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        if x0.shape != (n,):
            raise ValueError(f"x0 must have {n} coordinates")
        X = np.tile(x0, (n, 1))
    elif x0.shape == (n, n):
        X = x0.copy()
    else:
        raise ValueError("x0 must be a profile of length n or an n-by-n estimate matrix")
    box = game.action_box
    for i in range(n):
        if not box.contains(X[i]):
            raise ValueError(f"initial estimate row {i} is outside the action box")
    return SolverState(X=X, W=np.zeros_like(X), k=0)


def _player_gradients(game: GameModel, X: np.ndarray) -> np.ndarray:
    """grad_i of each player's own cost at their own estimate row."""
    return np.array([game.grad_i(i, X[i]) for i in range(X.shape[0])])


def admm_step(state: SolverState, game: GameModel, graph: CommGraph,
              cfg: AdmmConfig) -> SolverState:
    """One synchronous iteration of the compact per-player recursion.

    With all quantities on the right-hand side read from iteration k:

    1. w^i <- w^i + c * sum_{j in N_i} (x^i - x^j)
    2. off-diagonal coordinates of the estimate:
       x^i_{-i} <- (1/|N_i|) sum_j x^j_{-i} - w^i_{-i} / (2 c |N_i|),
       consuming the *pre-update* w^i
    3. own coordinate, with alpha_i = beta_i + 2 c |N_i|:
       x^i_i <- Proj_i[ ((beta_i + c |N_i|) x^i_i - w^i_i,new
                          - grad_i(x^i) + c sum_j x^j_i) / alpha_i ],
       consuming the *post-update* w^i and the gradient at the old row.

    The staggered w indices are what make this recursion match the explicit
    multiplier form step for step.
    """
    n = graph.n
    X, W = state.X, state.W
    deg = graph.degrees().astype(float)
    if np.any(deg == 0):
        raise ValueError("every player needs at least one neighbor")

    S = graph.neighbor_sums(X)
    W_new = W + cfg.c * (deg[:, None] * X - S)

    beta = cfg.beta_vector(n)
    alpha = beta + 2.0 * cfg.c * deg
    X_new = S / deg[:, None] - W / (2.0 * cfg.c * deg[:, None])

    grads = _player_gradients(game, X)
    own_num = (beta + cfg.c * deg) * np.diagonal(X) - np.diagonal(W_new) - grads \
        + cfg.c * np.diagonal(S)
    box = game.action_box
    idx = np.arange(n)
    X_new[idx, idx] = np.clip(own_num / alpha, box.lower, box.upper)
    return SolverState(X=X_new, W=W_new, k=state.k + 1)


def _make_record(state: SolverState, game: GameModel, graph: CommGraph,
                 ce: float, nr: float, t0: float) -> IterationRecord:
    actions = np.diagonal(state.X).copy()
    guards = sum(game.clamped_terms(i, state.X[i]) for i in range(graph.n))
    return IterationRecord(
        k=state.k,
        actions=actions,
        consensus_error=ce,
        ne_residual=nr,
        guard_activations=guards,
        elapsed=time.perf_counter() - t0,
    )


def _drive(state: SolverState, step, game: GameModel, graph: CommGraph,
           max_iter: int, tol_consensus: float, tol_residual: float,
           record_every: int) -> RunResult:
    """Shared iteration loop: step, measure, record, stop.

    Records iteration 0, every record_every-th iteration, and always the final
    one. Non-finite values abort with reason "diverged".
    """
    t0 = time.perf_counter()
    ce = consensus_error(state.X, graph)
    nr = ne_residual(np.diagonal(state.X).copy(), game)
    records = [_make_record(state, game, graph, ce, nr, t0)]
    if max_iter == 0:
        return RunResult(state=state, records=records, reason="iteration budget")

    while True:
        state = step(state)
        finite = bool(np.all(np.isfinite(state.X)) and np.all(np.isfinite(state.W)))
        ce = consensus_error(state.X, graph)
        nr = ne_residual(np.diagonal(state.X).copy(), game)
        converged = finite and ce <= tol_consensus and nr <= tol_residual
        last = (not finite) or converged or state.k >= max_iter
        if last or state.k % record_every == 0:
            records.append(_make_record(state, game, graph, ce, nr, t0))
        if not finite:
            return RunResult(state=state, records=records, reason="diverged",
                             diverged_at=state.k)
        if converged:
            return RunResult(state=state, records=records, reason="converged")
        if state.k >= max_iter:
            return RunResult(state=state, records=records, reason="iteration budget")


def run(game: GameModel, graph: CommGraph, cfg: AdmmConfig, x0=None) -> RunResult:
    """Iterate `admm_step` from x0 until both tolerances hold or the budget ends."""
    state = init_state(game, graph, x0)
    step = lambda s: admm_step(s, game, graph, cfg)
    return _drive(state, step, game, graph, cfg.max_iter,
                  cfg.tol_consensus, cfg.tol_residual, cfg.record_every)


def condition_threshold(cfg: AdmmConfig, graph: CommGraph) -> float:
    """1 / (2 (beta_min + c * lambda_min(D + A))), the cocoercivity level to beat."""
    beta_min = float(np.min(cfg.beta_vector(graph.n)))
    lam = graph.lambda_min_d_plus_a()
    return 1.0 / (2.0 * (beta_min + cfg.c * lam))


def check_condition(sigma_f: float, cfg: AdmmConfig, graph: CommGraph) -> tuple[bool, float]:
    """Sufficient-condition check: sigma_F must strictly exceed the threshold.

    Returns (satisfied, margin) with margin = sigma_f - threshold. Equality
    counts as violated. Advisory only: the solver runs regardless, since the
    condition is sufficient rather than necessary.
    """
    if not sigma_f > 0:
        raise ValueError("sigma_f must be positive")
    margin = sigma_f - condition_threshold(cfg, graph)
    return margin > 0, margin
