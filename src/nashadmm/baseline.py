"""Projected pseudo-gradient + consensus-averaging comparator.

One iteration spends exactly one synchronous communication round, like the
ADMM solver, so iterations-to-tolerance are directly comparable. Each player
replaces the non-own coordinates of their estimate row with the neighborhood
average (self included) and takes a projected gradient step on their own
coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .admm import AdmmConfig, RunResult, SolverState, _drive, _player_gradients, init_state
from .games import GameModel
from .graph import CommGraph

__all__ = [
    "BaselineConfig",
    "ComparisonReport",
    "neighbor_average",
    "baseline_step",
    "run_baseline",
    "compare",
]

DEFAULT_SWEEP = (0.2, 0.1, 0.05, 0.02, 0.01)


@dataclass(frozen=True)
class BaselineConfig:
    gamma: float = 0.05
    sweep: tuple = DEFAULT_SWEEP
    max_iter: int = 5000
    tol_consensus: float = 1e-8
    tol_residual: float = 1e-6
    record_every: int = 1

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("step size gamma must be positive")
        if self.sweep is not None:
            sweep = tuple(float(g) for g in self.sweep)
            if any(g <= 0 for g in sweep):
                raise ValueError("swept step sizes must be positive")
            object.__setattr__(self, "sweep", sweep)
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if not (self.tol_consensus > 0 and self.tol_residual > 0):
            raise ValueError("tolerances must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


def neighbor_average(X: np.ndarray, graph: CommGraph) -> np.ndarray:
    """Row i of the result = mean of {x^j : j in N_i union {i}}.

    The mixing matrix (I + A) / (deg + 1) is row-stochastic always and doubly
    stochastic on regular graphs, where it therefore preserves the column sums
    of X.
    """
    deg = graph.degrees().astype(float)
    return (graph.neighbor_sums(X) + X) / (deg[:, None] + 1.0)


def baseline_step(state: SolverState, game: GameModel, graph: CommGraph,
                  cfg: BaselineConfig) -> SolverState:
    """Averaging on the non-own coordinates, projected gradient on the own one."""
    X = state.X
    n = graph.n
    X_new = neighbor_average(X, graph)
    grads = _player_gradients(game, X)
    box = game.action_box
    idx = np.arange(n)
    X_new[idx, idx] = np.clip(np.diagonal(X) - cfg.gamma * grads, box.lower, box.upper)
    return SolverState(X=X_new, W=state.W, k=state.k + 1)


def run_baseline(game: GameModel, graph: CommGraph, cfg: BaselineConfig,
                 x0=None) -> RunResult:
    """Iterate `baseline_step` under the same stopping rule as the ADMM run."""
    state = init_state(game, graph, x0)
    step = lambda s: baseline_step(s, game, graph, cfg)
    return _drive(state, step, game, graph, cfg.max_iter,
                  cfg.tol_consensus, cfg.tol_residual, cfg.record_every)


@dataclass
class ComparisonReport:
    """Iterations-to-tolerance for both solvers at a common residual tolerance.

    ratio = baseline_iterations / admm_iterations when both converged; +inf
    when only the ADMM run converged; None when the ADMM run did not. A
    baseline that converges at no swept step size is flagged via
    baseline_reason, never raised.
    """

    tol: float
    admm_reason: str
    admm_iterations: int | None
    baseline_reason: str
    baseline_iterations: int | None
    baseline_gamma: float | None
    sweep_results: tuple
    ratio: float | None
    admm_result: RunResult
    baseline_result: RunResult


def compare(game: GameModel, graph: CommGraph, admm_cfg: AdmmConfig,
            baseline_cfg: BaselineConfig, tol: float, x0=None) -> ComparisonReport:
    """Run both solvers from the same start to the same tolerance and report.

    Both stopping thresholds are set to `tol`. The baseline is swept over
    baseline_cfg.sweep (falling back to its single gamma) and the best
    convergent step size represents it, so the comparison is not decided by a
    badly tuned gamma.
    """
    from .admm import run as admm_run

    a_cfg = replace(admm_cfg, tol_consensus=tol, tol_residual=tol)
    admm_result = admm_run(game, graph, a_cfg, x0=x0)
    admm_iters = admm_result.state.k if admm_result.reason == "converged" else None

    gammas = baseline_cfg.sweep if baseline_cfg.sweep else (baseline_cfg.gamma,)
    sweep_results = []
    best: RunResult | None = None
    best_gamma = None
    last: RunResult | None = None
    for g in gammas:
        cfg_g = replace(baseline_cfg, gamma=g, tol_consensus=tol, tol_residual=tol)
        res = run_baseline(game, graph, cfg_g, x0=x0)
        last = res
        iters = res.state.k if res.reason == "converged" else None
        sweep_results.append((float(g), res.reason, iters))
        if iters is not None and (best is None or iters < best.state.k):
            best, best_gamma = res, float(g)

    if best is not None:
        base_res, base_iters, base_reason = best, best.state.k, "converged"
    else:
        base_res, base_iters = last, None
        reasons = {r for _, r, _ in sweep_results}
        base_reason = "diverged" if "diverged" in reasons else "iteration budget"

    if admm_iters is None:
        ratio = None
    elif base_iters is None:
        ratio = float("inf")
    else:
        ratio = base_iters / admm_iters

    return ComparisonReport(
        tol=tol, admm_reason=admm_result.reason, admm_iterations=admm_iters,
        baseline_reason=base_reason, baseline_iterations=base_iters,
        baseline_gamma=best_gamma, sweep_results=tuple(sweep_results), ratio=ratio,
        admm_result=admm_result, baseline_result=base_res,
    )
