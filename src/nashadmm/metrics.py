"""Convergence metrics shared by the solver, the baseline, and diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import GameModel
from .graph import CommGraph

__all__ = [
    "IterationRecord",
    "consensus_error",
    "ne_residual",
]


@dataclass(frozen=True)
class IterationRecord:
    """One sampled iteration: actions plus the two stopping metrics.

    `guard_activations` counts clamped congestion terms summed over players
    (always 0 for games without guards). `elapsed` is wall-clock seconds spent
    in the solver up to and including this iteration.
    """

    k: int
    actions: np.ndarray
    consensus_error: float
    ne_residual: float
    guard_activations: int
    elapsed: float


def consensus_error(X: np.ndarray, graph: CommGraph) -> float:
    """max over communication edges (i, j) of ||x^i - x^j||_inf.

    X holds one local profile estimate per row. Zero for n = 1 or an edgeless
    graph (vacuous maximum); NaN when an edge's difference is NaN.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] != graph.n:
        raise ValueError("row count disagrees with graph size")
    i, j = graph.edge_index()
    # about 2^20 differences at a time, so dense graphs stay in bounded memory
    block = max(1, (1 << 20) // max(1, X.shape[1]))
    peaks = [np.max(np.abs(X[i[s:s + block]] - X[j[s:s + block]]))
             for s in range(0, i.size, block)]
    return float(np.max(peaks)) if peaks else 0.0


def ne_residual(x: np.ndarray, game: GameModel) -> float:
    """||x - Proj_box(x - F(x))||_inf, a fixed-point gap at profile x.

    Zero exactly at an equilibrium: the projection absorbs the pseudo-gradient
    at active bounds, while interior coordinates need F_i(x) = 0.
    """
    x = np.asarray(x, dtype=float)
    step = game.action_box.project(x - game.pseudo_gradient(x))
    return float(np.max(np.abs(x - step)))
