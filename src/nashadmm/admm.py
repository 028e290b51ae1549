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

from dataclasses import dataclass

import numpy as np

from .games import GameModel
from .graph import CommGraph
from .loop import (RunResult, SettingError, SolverState, StopRule, _check, _drive, check_graph,
                   init_state)

__all__ = [
    "AdmmConfig",
    "SolverState",
    "RunResult",
    "init_state",
    "run",
    "condition_threshold",
]


@dataclass(frozen=True)
class AdmmConfig(StopRule):
    """Solver parameters.

    c is the consensus penalty coefficient (also the dual step scale); beta is
    the per-player proximal weight, accepted as a scalar (broadcast) or a
    per-player sequence.
    """

    c: float = 1.0
    beta: float | tuple = 1.0

    def __post_init__(self):
        super().__post_init__()
        _check(self.c > 0, "c", "must be positive")
        b = np.atleast_1d(np.asarray(self.beta, dtype=float))
        _check(b.size > 0 and np.all(b > 0) and np.all(np.isfinite(b)), "beta",
               "must be a positive number or a nonempty list of them")
        beta = float(b[0]) if np.ndim(self.beta) == 0 else tuple(float(x) for x in b)
        object.__setattr__(self, "beta", beta)

    def beta_vector(self, n: int) -> np.ndarray:
        b = np.asarray(self.beta, dtype=float)
        if b.ndim == 0:
            return np.full(n, float(b))
        if b.shape != (n,):
            raise SettingError("beta", f"has {b.shape[0]} entries for {n} players")
        return b


def _admm_plan(game: GameModel, graph: CommGraph, cfg: AdmmConfig):
    """The step: one synchronous iteration of the compact per-player recursion
    on a stack of states, its per-run constants computed once and shared by
    every member (so the step has no use for `live`).

    With all quantities on the right-hand side read from iteration k:

    1. w^i <- w^i + c * sum_{j in N_i} (x^i - x^j)
    2. off-diagonal coordinates of the estimate:
       x^i_{-i} <- (1/|N_i|) sum_j x^j_{-i} - w^i_{-i} / (2 c |N_i|),
       consuming the *pre-update* w^i
    3. own coordinate, with alpha_i = beta_i + 2 c |N_i|:
       x^i_i <- Proj_i[ ((beta_i + c |N_i|) x^i_i - w^i_i,new
                          - F_i(x^i) + c sum_j x^j_i) / alpha_i ],
       consuming the *post-update* w^i and `game.own_gradients` at the old rows.

    The staggered w indices are what make this recursion match the explicit
    multiplier form step for step. The input gate has passed game and graph,
    so every player has a neighbor.
    """
    deg = graph.degrees().astype(float)
    c, beta = cfg.c, cfg.beta_vector(graph.n)
    two_c_deg = 2.0 * c * deg
    alpha, keep = beta + two_c_deg, beta + c * deg
    deg_col, two_c_col = deg[:, None], two_c_deg[:, None]

    def step(X: np.ndarray, W: np.ndarray, live) -> tuple[np.ndarray, np.ndarray]:
        # in place, in the operation order of W + c (deg X - S) and S / deg - W / (2c deg)
        S = graph.neighbor_sums(X)
        W_new = deg_col * X
        W_new -= S
        W_new *= c
        W_new += W
        own_num = keep * X.diagonal(0, -2, -1) - W_new.diagonal(0, -2, -1) \
            - game.own_gradients(X) + c * S.diagonal(0, -2, -1)
        X_new = S / deg_col
        X_new -= np.divide(W, two_c_col, out=S)
        # the projection writes through a view of each diagonal
        game.action_box.project(own_num / alpha, out=np.einsum("...ii->...i", X_new))
        return X_new, W_new

    return step


def run(game: GameModel, graph: CommGraph, cfg: AdmmConfig, x0=None) -> RunResult:
    """Iterate the step from x0 until both tolerances hold or the budget ends."""
    state, step = init_state(game, graph, x0), _admm_plan(game, graph, cfg)
    return _drive(state.X[None], state.W[None], step, game, graph, cfg)[0]


def condition_threshold(cfg: AdmmConfig, graph: CommGraph) -> float:
    """1 / (2 (beta_min + c * lambda_min(D + A))) on a graph the input gate accepts.

    The convergence condition holds when sigma_F is strictly above it, so never
    for sigma_F <= 0. It is advisory: sufficient, not necessary.
    """
    check_graph(graph)
    beta_min = float(np.min(cfg.beta_vector(graph.n)))
    return 1.0 / (2.0 * (beta_min + cfg.c * graph.lambda_min_d_plus_a()))
