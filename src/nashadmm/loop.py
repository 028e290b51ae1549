"""The input gate, the solver state, the stopping rule and the iteration loop
both solvers share: the loop steps a stack of independent runs at once, and a
single run is a stack of one."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .games import GameModel
from .graph import CommGraph
from .metrics import IterationRecord, consensus_error, ne_residual


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
    k: int


@dataclass
class RunResult:
    """Terminal state plus the sampled trace and why iteration stopped.

    reason is one of "converged", "iteration budget", "diverged"; a diverged
    run's state.k is the iteration that first produced a non-finite value.
    """

    state: SolverState
    records: list
    reason: str


def check_graph(graph: CommGraph) -> None:
    """The graph rule of the input gate: connected, with at least 2 nodes."""
    _check(graph.n >= 2, "graph",
           "needs at least 2 nodes (a single-player game is plain minimization)")
    _check(graph.is_connected(), "graph",
           "connectivity assumption violated (communication graph is not connected)")


def check_problem(game: GameModel, graph: CommGraph, x0=None) -> np.ndarray:
    """The start x0 (default 0) for game on graph, after the checks both solvers
    rely on: one player per node of a connected graph of at least 2 nodes, and
    x0 a profile inside the action box. A failed check raises SettingError with
    field "game", "graph" or "x0"."""
    n = graph.n
    _check(game.n_players == n, "game", "player count disagrees with graph size")
    check_graph(graph)
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    _check(x0.shape == (n,), "x0", f"must have {n} coordinates")
    box = game.action_box
    outside = np.flatnonzero(~((x0 >= box.lower) & (x0 <= box.upper)))  # NaN is outside
    if outside.size:
        raise SettingError("x0", f"has coordinate {outside[0]} outside the action box")
    return x0


def init_state(game: GameModel, graph: CommGraph, x0=None) -> SolverState:
    """Fresh solver state at k = 0: every row a copy of the profile x0 (default 0), W = 0."""
    X = check_problem(game, graph, x0)[None].repeat(graph.n, axis=0)
    return SolverState(X=X, W=np.zeros_like(X), k=0)


def _drive(X: np.ndarray, W: np.ndarray | None, step, game: GameModel, graph: CommGraph,
           stop: StopRule) -> list[RunResult]:
    """Step, measure, record and stop each member of a stack on its own.

    X and W (None for a solver without duals) hold one state per member on
    axis 0, and `step(X, W, live)` advances them all, `live` giving each row's
    index in the original stack. A member whose step produced a non-finite
    value stops as "diverged". A stopped member leaves the stack; the others
    go on as if they ran alone, and each keeps its own records. A record's
    `elapsed` is the whole stack's wall clock.
    """
    t0 = time.perf_counter()
    k, live, finite = 0, list(range(X.shape[0])), [True] * X.shape[0]
    records, results = [[] for _ in live], [None] * len(live)
    while True:
        actions = X.diagonal(0, -2, -1)
        ce, nr = consensus_error(X, graph).tolist(), ne_residual(actions.copy(), game).tolist()
        guards, done, elapsed = None, [], time.perf_counter() - t0
        for g, m in enumerate(live):
            ok = finite[g]
            converged = k > 0 and ok and ce[g] <= stop.tol_consensus and nr[g] <= stop.tol_residual
            last = not ok or converged or k >= stop.max_iter
            if last or k % stop.record_every == 0:
                if guards is None:
                    guards = game.guard_activations(X).tolist()
                records[m].append(IterationRecord(
                    k, actions[g].copy(), ce[g], nr[g], guards[g], elapsed))
            if last:
                state = SolverState(X[g], np.zeros_like(X[g]) if W is None else W[g], k)
                reason = "converged" if converged else "iteration budget" if ok else "diverged"
                results[m] = RunResult(state, records[m], reason)
                done.append(g)
        if len(done) == len(live):
            return results
        if done:
            rest = [g for g in range(len(live)) if g not in done]
            live, X, W = [live[g] for g in rest], X[rest], None if W is None else W[rest]
        X, W = step(X, W, live)
        k += 1
        finite = np.isfinite(X).all(axis=(-2, -1))
        finite = (finite if W is None else finite & np.isfinite(W).all(axis=(-2, -1))).tolist()
