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

from .games import ActionBox, GameModel
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


class SettingError(ValueError):
    """A solver setting outside its range; `field` names the setting."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field} {reason}")
        self.field, self.reason = field, reason


def _check(ok: bool, field: str, reason: str) -> None:
    if not ok:
        raise SettingError(field, reason)


@dataclass(frozen=True, kw_only=True)
class StopRule:
    """Both solvers stop once consensus error (the primal residual of Boyd et
    al. 2011, section 3.3) and equilibrium residual are within tolerance, or at
    max_iter; they record iteration 0, every record_every-th and the last."""

    max_iter: int = 5000
    tol_consensus: float = 1e-8
    tol_residual: float = 1e-6
    record_every: int = 1

    def __post_init__(self):
        _check(self.max_iter >= 0, "max_iter", "must be nonnegative")
        _check(self.tol_consensus > 0, "tol_consensus", "must be positive")
        _check(self.tol_residual > 0, "tol_residual", "must be positive")
        _check(self.record_every >= 1, "record_every", "must be at least 1")


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


def estimate_rows(x0, n: int, box: ActionBox) -> np.ndarray:
    """x0 as an n-by-n estimate matrix inside the box: a profile (default 0)
    copied to every row, or an n-by-n matrix taken as is."""
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape not in ((n,), (n, n)):
        raise SettingError("x0", f"must have {n} coordinates" if x0.ndim == 1 else
                           "must be a profile of length n or an n-by-n estimate matrix")
    rows = np.atleast_2d(x0)  # a profile is checked once, before it is copied
    outside = ~np.all((rows >= box.lower) & (rows <= box.upper), axis=1)  # NaN is outside
    if outside.any():
        raise SettingError("x0", f"has row {np.flatnonzero(outside)[0]} outside the action box")
    return rows.repeat(n, axis=0) if x0.ndim == 1 else x0.copy()


def init_state(game: GameModel, graph: CommGraph, x0=None) -> SolverState:
    """Fresh solver state at k = 0: rows broadcast from x0 (default 0), W = 0."""
    n = graph.n
    if game.n_players != n:
        raise ValueError(f"game has {game.n_players} players but graph has {n} nodes")
    if n < 2:
        raise ValueError("solver needs n >= 2 (single-player games are plain minimization)")
    if not graph.is_connected():
        raise ValueError("communication graph must be connected")
    X = estimate_rows(x0, n, game.action_box)
    return SolverState(X=X, W=np.zeros_like(X), k=0)


def _admm_plan(game: GameModel, graph: CommGraph, cfg: AdmmConfig):
    """`admm_step` as a one-argument step, its per-run constants computed once."""
    deg = graph.degrees().astype(float)
    if np.any(deg == 0):
        raise ValueError("every player needs at least one neighbor")
    c, beta = cfg.c, cfg.beta_vector(graph.n)
    two_c_deg = 2.0 * c * deg
    alpha, keep = beta + two_c_deg, beta + c * deg
    deg_col, two_c_col = deg[:, None], two_c_deg[:, None]

    def step(state: SolverState) -> SolverState:
        # in place, in the operation order of W + c (deg X - S) and S / deg - W / (2c deg)
        X, W = state.X, state.W
        S = graph.neighbor_sums(X)
        W_new = deg_col * X
        W_new -= S
        W_new *= c
        W_new += W
        own_num = keep * np.diagonal(X) - np.diagonal(W_new) - game.own_gradients(X) \
            + c * np.diagonal(S)
        X_new = S / deg_col
        X_new -= np.divide(W, two_c_col, out=S)
        np.fill_diagonal(X_new, game.action_box.project(own_num / alpha))
        return SolverState(X=X_new, W=W_new, k=state.k + 1)

    return step


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
                          - F_i(x^i) + c sum_j x^j_i) / alpha_i ],
       consuming the *post-update* w^i and `game.own_gradients` at the old rows.

    The staggered w indices are what make this recursion match the explicit
    multiplier form step for step.
    """
    return _admm_plan(game, graph, cfg)(state)


def _make_record(state: SolverState, game: GameModel, ce: float, nr: float,
                 t0: float) -> IterationRecord:
    return IterationRecord(k=state.k, actions=np.diagonal(state.X).copy(), consensus_error=ce,
                           ne_residual=nr, guard_activations=game.guard_activations(state.X),
                           elapsed=time.perf_counter() - t0)


def _drive(state: SolverState, step, game: GameModel, graph: CommGraph,
           stop: StopRule) -> RunResult:
    """Shared iteration loop: step, measure, record, stop.

    Non-finite values abort with reason "diverged".
    """
    t0 = time.perf_counter()
    ce = consensus_error(state.X, graph)
    nr = ne_residual(np.diagonal(state.X).copy(), game)
    records = [_make_record(state, game, ce, nr, t0)]
    if stop.max_iter == 0:
        return RunResult(state=state, records=records, reason="iteration budget")

    while True:
        state = step(state)
        finite = bool(np.all(np.isfinite(state.X)) and np.all(np.isfinite(state.W)))
        ce = consensus_error(state.X, graph)
        nr = ne_residual(np.diagonal(state.X).copy(), game)
        converged = finite and ce <= stop.tol_consensus and nr <= stop.tol_residual
        last = (not finite) or converged or state.k >= stop.max_iter
        if last or state.k % stop.record_every == 0:
            records.append(_make_record(state, game, ce, nr, t0))
        if not finite:
            return RunResult(state=state, records=records, reason="diverged",
                             diverged_at=state.k)
        if converged:
            return RunResult(state=state, records=records, reason="converged")
        if state.k >= stop.max_iter:
            return RunResult(state=state, records=records, reason="iteration budget")


def run(game: GameModel, graph: CommGraph, cfg: AdmmConfig, x0=None) -> RunResult:
    """Iterate `admm_step` from x0 until both tolerances hold or the budget ends."""
    state = init_state(game, graph, x0)
    return _drive(state, _admm_plan(game, graph, cfg), game, graph, cfg)


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
