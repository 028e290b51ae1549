"""Projected pseudo-gradient + consensus-averaging comparator.

One iteration spends exactly one synchronous communication round, like the
ADMM solver, so iterations-to-tolerance are directly comparable. Each player
replaces the non-own coordinates of their estimate row with the neighborhood
average (self included) and takes a projected gradient step on their own
coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .admm import AdmmConfig, _divisor, _step_weights, run as admm_run
from .games import GameModel
from .graph import CommGraph
from .loop import Records, RunResult, StopRule, _check, _drive, _floats, check_problem

__all__ = [
    "BaselineConfig",
    "ComparisonReport",
    "run_baseline",
    "compare",
]


@dataclass(frozen=True)
class BaselineConfig(StopRule):
    """The step sizes a baseline run sweeps, one run per step size."""

    sweep: tuple = (0.2, 0.1, 0.05, 0.02, 0.01)

    def __post_init__(self):
        super().__post_init__()
        sweep = tuple(_floats(self.sweep, "sweep", "must be a list of step sizes", (1,)).tolist())
        _check(len(sweep) > 0, "sweep", "must list at least one step size")
        _check(all(0 < g < np.inf for g in sweep), "sweep",
               "step sizes must be positive and finite")
        object.__setattr__(self, "sweep", sweep)


def _baseline_plan(game: GameModel, graph: CommGraph, gammas):
    """The step on a stack of estimate matrices, member g stepping by gammas[g]:
    averaging on the non-own coordinates, projected gradient on the own one,
    along `grads`, the rows' own gradients from the loop's evaluation of X.
    It keeps no duals, so it leaves W at zero, and it writes the new estimates
    over X, with S and T, the loop's two scratch arrays, holding the neighbor sums.
    Its growth G = 1 tells the loop's finite check that no value grows.

    Row i of the average is the mean of {x^j : j in N_i union {i}}. The mixing
    matrix (I + A) / (deg + 1) is row-stochastic always and doubly stochastic
    on regular graphs, where it therefore preserves the column sums of X.
    """
    div_deg_plus_1, deg_plus_1_arg = _divisor(graph.row_degrees() + 1.0)
    gamma_col, n = np.asarray(gammas, dtype=float)[:, None], graph.n

    def step(X: np.ndarray, W: np.ndarray, S: np.ndarray, T: np.ndarray, live, grads) -> None:
        own = X.diagonal(0, -2, -1) - gamma_col[live] * grads
        graph.neighbor_sums(X, out=S, work=T)
        div_deg_plus_1(np.add(S, X, out=S), deg_plus_1_arg, out=X)
        # the projection writes through a view of each diagonal (X is contiguous)
        game.action_box.project(own, out=X.reshape(*X.shape[:-2], -1)[..., ::n + 1])

    step.growth = 1.0  # an average of rows passes no |value| of X, and W stays 0
    return step


def run_baseline(game: GameModel, graph: CommGraph, cfg: BaselineConfig,
                 x0=None) -> list[RunResult]:
    """One run per step size in cfg.sweep, all from x0 under the same stopping
    rule as the ADMM run, stepped as one stack."""
    return _drive(check_problem(game, graph, x0), len(cfg.sweep),
                  _baseline_plan(game, graph, cfg.sweep), game, graph, cfg)


@dataclass
class ComparisonReport:
    """Iterations-to-tolerance for both solvers at a common residual tolerance.

    ratio = baseline_iterations / admm_iterations when both converged; +inf
    when only the ADMM run converged; None when the ADMM run did not. A
    baseline that converges at no swept step size is flagged via
    baseline_reason, never raised.
    """

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
    baseline_cfg.sweep and the best convergent step size represents it, so
    the comparison is not decided by a badly tuned gamma.
    """
    a_cfg = replace(admm_cfg, tol_consensus=tol, tol_residual=tol)
    _step_weights(a_cfg, graph)  # a bad beta or c is reported before the sweep runs
    b_cfg = replace(baseline_cfg, tol_consensus=tol, tol_residual=tol)
    gammas, runs = b_cfg.sweep, run_baseline(game, graph, b_cfg, x0)
    sweep_results = [(g, r.reason, r.state.k if r.reason == "converged" else None)
                     for g, r in zip(gammas, runs)]
    done = [(k, b) for b, (_, _, k) in enumerate(sweep_results) if k is not None]
    b = min(done)[1] if done else -1  # the fewest iterations; ties go to the earlier step size
    best, base_iters, reasons = runs[b], sweep_results[b][2], {r.reason for r in runs}
    base_reason = "converged" if done else "diverged" if "diverged" in reasons \
        else "iteration budget"
    # the reported rows get columns of their own, so the sweep's record block
    # and the unreported runs' states go before the ADMM run adds its own
    base_res = replace(best, records=Records(*(getattr(best.records, f.name).copy()
                                               for f in fields(Records))))
    del runs, best
    admm_result = admm_run(game, graph, a_cfg, x0=x0)
    admm_iters = admm_result.state.k if admm_result.reason == "converged" else None
    ratio = None if admm_iters is None else float("inf") if base_iters is None \
        else base_iters / admm_iters
    return ComparisonReport(
        admm_reason=admm_result.reason, admm_iterations=admm_iters,
        baseline_reason=base_reason, baseline_iterations=base_iters,
        baseline_gamma=gammas[b] if done else None, sweep_results=tuple(sweep_results),
        ratio=ratio, admm_result=admm_result, baseline_result=base_res,
    )
