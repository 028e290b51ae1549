"""The solver state, the stopping rule and the iteration loop both solvers share:
the loop steps a stack of independent runs at once, and a single run is a stack of one."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .games import ActionBox, GameModel
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


def check_x0(x0, n: int, box: ActionBox) -> np.ndarray:
    """x0 (default 0) as a profile or an n-by-n estimate matrix whose rows lie in the box."""
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape not in ((n,), (n, n)):
        raise SettingError("x0", f"must have {n} coordinates" if x0.ndim == 1 else
                           "must be a profile of length n or an n-by-n estimate matrix")
    rows = np.atleast_2d(x0)  # a profile is checked once, not once per copy
    outside = ~np.all((rows >= box.lower) & (rows <= box.upper), axis=1)  # NaN is outside
    if outside.any():
        raise SettingError("x0", f"has row {np.flatnonzero(outside)[0]} outside the action box")
    return x0


def init_state(game: GameModel, graph: CommGraph, x0=None) -> SolverState:
    """Fresh solver state at k = 0: rows broadcast from x0 (default 0), W = 0."""
    n = graph.n
    if game.n_players != n:
        raise ValueError(f"game has {game.n_players} players but graph has {n} nodes")
    if n < 2:
        raise ValueError("solver needs n >= 2 (single-player games are plain minimization)")
    if not graph.is_connected():
        raise ValueError("communication graph must be connected")
    x0 = check_x0(x0, n, game.action_box)
    X = x0[None].repeat(n, axis=0) if x0.ndim == 1 else x0.copy()
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
                results[m] = RunResult(state, records[m], reason, None if ok else k)
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
