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

from .admm import AdmmConfig, RunResult, SolverState, StopRule, _check, _drive, init_state
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


@dataclass(frozen=True)
class BaselineConfig(StopRule):
    """Step size gamma, or the step sizes `compare` sweeps (None: gamma alone)."""

    gamma: float = 0.05
    sweep: tuple = (0.2, 0.1, 0.05, 0.02, 0.01)

    def __post_init__(self):
        super().__post_init__()
        _check(self.gamma > 0, "gamma", "must be positive")
        if self.sweep is not None:
            sweep = tuple(float(g) for g in self.sweep)
            _check(all(g > 0 for g in sweep), "sweep", "step sizes must be positive")
            object.__setattr__(self, "sweep", sweep)


def _mixing(graph: CommGraph):
    """`neighbor_average` on this graph, its (deg + 1) column computed once."""
    deg_plus_1 = graph.degrees().astype(float)[:, None] + 1.0

    def average(X: np.ndarray) -> np.ndarray:
        S = graph.neighbor_sums(X)
        return np.divide(np.add(S, X, out=S), deg_plus_1, out=S)

    return average


def neighbor_average(X: np.ndarray, graph: CommGraph) -> np.ndarray:
    """Row i of the result = mean of {x^j : j in N_i union {i}}.

    The mixing matrix (I + A) / (deg + 1) is row-stochastic always and doubly
    stochastic on regular graphs, where it therefore preserves the column sums
    of X.
    """
    return _mixing(graph)(X)


def _baseline_plan(game: GameModel, graph: CommGraph, cfg: BaselineConfig):
    """`baseline_step` as a one-argument step, with the mixing column computed once."""
    average = _mixing(graph)

    def step(state: SolverState) -> SolverState:
        X = state.X
        X_new = average(X)
        own = np.diagonal(X) - cfg.gamma * game.own_gradients(X)
        np.fill_diagonal(X_new, game.action_box.project(own))
        return SolverState(X=X_new, W=state.W, k=state.k + 1)

    return step


def baseline_step(state: SolverState, game: GameModel, graph: CommGraph,
                  cfg: BaselineConfig) -> SolverState:
    """Averaging on the non-own coordinates, projected gradient on the own one."""
    return _baseline_plan(game, graph, cfg)(state)


def run_baseline(game: GameModel, graph: CommGraph, cfg: BaselineConfig,
                 x0=None) -> RunResult:
    """Iterate `baseline_step` under the same stopping rule as the ADMM run."""
    state = init_state(game, graph, x0)
    return _drive(state, _baseline_plan(game, graph, cfg), game, graph, cfg)


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
