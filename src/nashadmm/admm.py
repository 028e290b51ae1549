"""Consensus-ADMM Nash equilibrium seeking over a communication graph.

Each player i keeps a local estimate row x^i of the *full* action profile;
its own coordinate X[i, i] is the action the player actually plays. Consensus
constraints x^i = x^j on every communication edge tie the copies together,
and an augmented-Lagrangian splitting yields a per-player recursion whose
only dual memory is the aggregate penalty vector w^i.

All updates are synchronous: every player reads iteration-k state. The step
writes the new estimates over the old and updates the penalty vectors in place,
each once nothing reads its old values. tests/oracles.py keeps the explicit
form, one multiplier pair per directed edge, as the reference for this
recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import GameModel
from .graph import CommGraph
from .loop import (RunResult, SettingError, SolverState, StopRule, _check, _drive, _floats,
                   check_graph, check_problem, init_state)

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
        object.__setattr__(self, "c", float(_floats(self.c, "c", "must be a number")))
        _check(self.c > 0, "c", "must be positive")
        reason = "must be a positive number or a nonempty list of them"
        b = _floats(self.beta, "beta", reason, (0, 1))
        _check(b.size > 0 and np.all(b > 0) and np.all(np.isfinite(b)), "beta", reason)
        object.__setattr__(self, "beta", float(b) if b.ndim == 0 else tuple(b.tolist()))

    def beta_vector(self, n: int) -> np.ndarray:
        b = np.asarray(self.beta, dtype=float)
        if b.ndim == 0:
            return np.full(n, float(b))
        if b.shape != (n,):
            raise SettingError("beta", f"has {b.shape[0]} entries for {n} players")
        return b


def _step_weights(cfg: AdmmConfig, graph: CommGraph):
    """The step's per-player constants on graph: beta + c|N_i| and alpha = beta +
    2c|N_i|. A beta of the wrong length, or a c so large that alpha is not
    finite, raises SettingError before any step."""
    deg, beta = graph.degrees().astype(float), cfg.beta_vector(graph.n)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = beta + 2.0 * cfg.c * deg
    _check(np.isfinite(alpha).all(), "c", "must keep beta + 2c * degree finite")
    return beta + cfg.c * deg, alpha


def _divisor(d):
    """(op, operand) with op(x, operand, out=...) giving the bits of x / d for
    every x: (np.multiply, 1 / d) when every value of d (a scalar or an (n, 1)
    column) is a power of two whose reciprocal is finite, since 1 / d is then
    exact and both round the same real number; else (np.divide, d)."""
    with np.errstate(over="ignore", divide="ignore"):
        inv = np.divide(1.0, d)
    exact = np.all(np.frexp(d)[0] == 0.5) and np.all(np.isfinite(inv))
    return (np.multiply, inv) if exact else (np.divide, d)


def _admm_plan(game: GameModel, graph: CommGraph, cfg: AdmmConfig):
    """The step: one synchronous iteration of the compact per-player recursion
    on a stack of states, its per-run constants computed once and shared by
    every member (so the step has no use for `live`). It does not evaluate the
    game: `grads` holds F_i(x^i) at the rows of X, from the loop's one
    evaluation of this iteration.

    The step allocates no matrix: the loop hands it S and T, two scratch arrays
    of X's shape, for the neighbor sums and the W increment. It writes the new
    estimates over X and updates W in place.

    With all quantities on the right-hand side read from iteration k:

    1. w^i <- w^i + c * sum_{j in N_i} (x^i - x^j)
    2. off-diagonal coordinates of the estimate:
       x^i_{-i} <- (1/|N_i|) sum_j x^j_{-i} - w^i_{-i} / (2 c |N_i|),
       consuming the *pre-update* w^i
    3. own coordinate, with alpha_i = beta_i + 2 c |N_i|:
       x^i_i <- Proj_i[ ((beta_i + c |N_i|) x^i_i - w^i_i,new
                          - F_i(x^i) + c sum_j x^j_i) / alpha_i ],
       consuming the *post-update* w^i and the gradients at the old rows.

    The staggered w indices are what make this recursion match the explicit
    multiplier form step for step. The input gate has passed game and graph,
    so every player has a neighbor. A division by a power of two is a
    multiplication by its exact reciprocal, and the scaling by c is skipped
    at c = 1, both with the same bits. It makes every value with numpy float
    arithmetic, so it states `signals` for the loop's finite check.
    """
    c, deg_col, n = cfg.c, graph.row_degrees(), graph.n
    keep, alpha = _step_weights(cfg, graph)
    div_deg, deg_arg = _divisor(deg_col)
    div_two_c_deg, two_c_deg_arg = _divisor(2.0 * c * deg_col)  # finite, as alpha is

    def step(X: np.ndarray, W: np.ndarray, S: np.ndarray, T: np.ndarray, live, grads) -> None:
        # in the operation order of W + c (deg X - S) and S / deg - W / (2c deg);
        # W += T is bitwise T + W, so W is updated once the new X has read it
        graph.neighbor_sums(X, out=S, work=T)
        np.multiply(deg_col, X, out=T)
        T -= S
        if c != 1.0:
            T *= c
        c_own_sums = c * S.diagonal(0, -2, -1)
        keep_own = keep * X.diagonal(0, -2, -1)
        div_deg(S, deg_arg, out=X)
        X -= div_two_c_deg(W, two_c_deg_arg, out=S)
        W += T
        own_num = keep_own - W.diagonal(0, -2, -1) - grads + c_own_sums
        # the projection writes through a view of each diagonal (X is contiguous)
        game.action_box.project(own_num / alpha,
                                out=X.reshape(*X.shape[:-2], -1)[..., ::n + 1])

    step.signals = True
    return step


def run(game: GameModel, graph: CommGraph, cfg: AdmmConfig, x0=None) -> RunResult:
    """Iterate the step from x0 until both tolerances hold or the budget ends."""
    x0 = check_problem(game, graph, x0)  # the gate's checks come before the plan's
    return _drive(x0, 1, _admm_plan(game, graph, cfg), game, graph, cfg)[0]


def condition_threshold(cfg: AdmmConfig, graph: CommGraph) -> float:
    """1 / (2 (beta_min + c * lambda_min(D + A))) on a graph the input gate accepts.

    The convergence condition holds when sigma_F is strictly above it, so never
    for sigma_F <= 0. It is advisory: sufficient, not necessary.
    """
    check_graph(graph)
    beta_min = float(np.min(cfg.beta_vector(graph.n)))
    return 1.0 / (2.0 * (beta_min + cfg.c * graph.lambda_min_d_plus_a()))
