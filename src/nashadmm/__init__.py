"""Distributed Nash equilibrium seeking via consensus ADMM.

Players of a convex game, each knowing only their own cost, exchange local
copies of the full action profile over a communication graph. The solver
drives the copies to consensus and the profile to a Nash equilibrium; a
projected pseudo-gradient baseline, a convergence-condition checker, and a
congestion-game testbed round out the package.
"""

from .admm import (
    AdmmConfig,
    RunResult,
    SolverState,
    admm_step,
    check_condition,
    condition_threshold,
    init_state,
    run,
)
from .baseline import (
    BaselineConfig,
    ComparisonReport,
    baseline_step,
    compare,
    neighbor_average,
    run_baseline,
)
from .games import (
    ActionBox,
    GameModel,
    QuadraticGame,
    SigmaEstimationError,
    WanetGame,
    default_wanet_instance,
    estimate_sigma_f,
    quadratic_ne,
    random_quadratic_game,
)
from .graph import (
    CommGraph,
    complete,
    path,
    random_connected_graph,
    ring,
)
from .metrics import (
    IterationRecord,
    consensus_error,
    m2_seminorm_distance,
    ne_residual,
)

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig", "RunResult", "SolverState", "admm_step",
    "check_condition", "condition_threshold", "init_state", "run",
    "BaselineConfig", "ComparisonReport", "baseline_step", "compare",
    "neighbor_average", "run_baseline",
    "ActionBox", "GameModel", "QuadraticGame", "SigmaEstimationError",
    "WanetGame", "default_wanet_instance", "estimate_sigma_f",
    "quadratic_ne", "random_quadratic_game",
    "CommGraph", "complete", "path",
    "random_connected_graph", "ring",
    "IterationRecord", "consensus_error", "m2_seminorm_distance", "ne_residual",
]
