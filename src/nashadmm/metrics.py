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


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """One sampled iteration: actions plus the two stopping metrics, a row of
    a run's records (`loop.Records`), whose actions are a view of its column.

    `guard_activations` counts clamped congestion terms summed over players
    (always 0 for games without guards). `elapsed` is wall-clock seconds spent
    in the solver, or in the stack of runs it belongs to, up to this iteration.
    """

    k: int
    actions: np.ndarray
    consensus_error: float
    ne_residual: float
    guard_activations: int
    elapsed: float


def consensus_error(X: np.ndarray, graph: CommGraph):
    """max over communication edges (i, j) of ||x^i - x^j||_inf.

    X holds one local profile estimate per row: a float for one matrix, one
    value per matrix for a stack (..., n, n). Zero for n = 1 or an edgeless
    graph (vacuous maximum); NaN when an edge's difference is NaN.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim < 2:
        raise ValueError(f"X must have shape (..., {graph.n}, N), one row per node; got {X.shape}")
    if X.shape[-2] != graph.n:
        raise ValueError("row count disagrees with graph size")
    i, j = graph.edge_index()
    # about 2^20 differences at a time, so dense graphs stay in bounded memory
    block = max(1, (1 << 20) // max(1, X[..., 0, :].size))
    peak = _edge_peak(X, i[:block], j[:block])
    for s in range(block, i.size, block):
        peak = np.maximum(peak, _edge_peak(X, i[s:s + block], j[s:s + block]))
    return float(peak) if X.ndim == 2 else peak


def _edge_peak(X: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """max over the edges (i[e], j[e]) of ||x^i - x^j||_inf, one value per matrix
    of X; 0 for no edges."""
    return np.maximum.reduce(np.abs(X.take(i, axis=-2) - X.take(j, axis=-2)), axis=(-2, -1),
                             initial=0.0)


def ne_residual(x: np.ndarray, game: GameModel):
    """||x - Proj_box(x - F(x))||_inf, a fixed-point gap at profile x: a float
    for one profile, one value per profile for a stack (..., n).

    Zero exactly at an equilibrium: the projection absorbs the pseudo-gradient
    at active bounds, while interior coordinates need F_i(x) = 0.
    """
    x = np.asarray(x, dtype=float)
    n = game.n_players
    if x.shape[-1:] != (n,):
        raise ValueError(f"x must have shape (..., {n}), one action per player; got {x.shape}")
    gap = _fixed_point_gap(x, game.pseudo_gradient(x), game.action_box)
    return float(gap) if x.ndim == 1 else gap


def _fixed_point_gap(x: np.ndarray, F: np.ndarray, box) -> np.ndarray:
    """||x - Proj_box(x - F)||_inf along the last axis, F the pseudo-gradient at x."""
    # np.max's own reduction, without its Python layers
    return np.maximum.reduce(np.abs(x - box.project(x - F)), axis=-1)
