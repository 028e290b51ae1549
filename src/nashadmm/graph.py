"""Undirected communication graphs and their spectral quantities.

The solvers in this package exchange estimates over an undirected graph.
Everything they need from the topology lives here: neighbor sums,
connectivity, and lambda_min(D + A), the spectral number in the penalty
condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

__all__ = [
    "CommGraph",
    "ring",
    "complete",
    "path",
    "random_connected_graph",
]


def _normalize_edges(n: int, edges: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    out = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"self-loop ({i},{i}) not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        out.add((min(i, j), max(i, j)))
    return frozenset(out)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CommGraph:
    """Undirected simple graph on nodes 0..n-1, immutable after construction.

    Neighbor lists and the index arrays the solvers gather with are derived
    from the edges once, on first use, as tuples and read-only arrays.
    """

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        object.__setattr__(self, "edges", _normalize_edges(self.n, self.edges))

    @cached_property
    def _nbrs(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return tuple(tuple(sorted(l)) for l in nbrs)

    @cached_property
    def _lambda_min_d_plus_a(self) -> float:
        return float(np.linalg.eigvalsh(self.d_plus_a())[0])

    @cached_property
    def _slots(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(rows, cols) for each slot s >= 0: nodes of degree > s, their s-th neighbors."""
        index = lambda l: _frozen(np.array(l, dtype=np.intp))
        rows = [[i for i, l in enumerate(self._nbrs) if len(l) > s]
                for s in range(max(1, *map(len, self._nbrs)))]
        return tuple((index(r), index([self._nbrs[i][s] for i in r])) for s, r in enumerate(rows))

    @cached_property
    def _ends(self) -> tuple[np.ndarray, np.ndarray]:
        ends = _frozen(np.array(sorted(self.edges), dtype=np.intp).reshape(-1, 2).T.copy())
        return ends[0], ends[1]

    def degrees(self) -> np.ndarray:
        """Vector of node degrees |N_i|."""
        return np.array([len(l) for l in self._nbrs], dtype=np.int64)

    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only endpoint arrays (i, j), i < j, one entry per edge."""
        return self._ends

    def neighbor_sums(self, X: np.ndarray) -> np.ndarray:
        """Row i = sum of the rows X[..., j, :], j in N_i, added in ascending j
        (a fixed order, so repeated runs are bit-identical); X may be a stack."""
        (rows, cols), *rest = self._slots
        if rows.size == self.n:
            S = X.take(cols, axis=-2)
        else:
            S = np.zeros_like(X)  # degree-0 rows
            S[..., rows, :] = X.take(cols, axis=-2)
        # A sum starts from +0.0, so all -0.0 neighbors sum to +0.0; adding +0.0
        # to the first term gives that sign and leaves every other value as it is.
        S += 0.0
        for rows, cols in rest:
            if rows.size == self.n:
                S += X.take(cols, axis=-2)
            else:
                S[..., rows, :] += X.take(cols, axis=-2)
        return S

    def d_plus_a(self) -> np.ndarray:
        """D + A, the degree matrix plus the symmetric 0/1 adjacency matrix."""
        M = np.diag(self.degrees().astype(float))
        i, j = self._ends
        M[i, j] = M[j, i] = 1.0
        return M

    def is_connected(self) -> bool:
        """True iff every node is reachable from node 0."""
        nbrs = self._nbrs
        seen = [False] * self.n
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for v in nbrs[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return all(seen)

    def lambda_min_d_plus_a(self) -> float:
        """Smallest eigenvalue of D + A, computed once: D + A is positive
        semidefinite, and singular exactly when some component is bipartite."""
        return self._lambda_min_d_plus_a


def ring(n: int) -> CommGraph:
    """Cycle over 0..n-1 (a single edge for n = 2)."""
    if n < 2:
        raise ValueError("ring needs n >= 2")
    return CommGraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> CommGraph:
    """Complete graph on n nodes."""
    return CommGraph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def path(n: int) -> CommGraph:
    """Path 0-1-...-(n-1)."""
    return CommGraph(n, frozenset((i, i + 1) for i in range(n - 1)))


def random_connected_graph(n: int, extra_edges: int, seed: int) -> CommGraph:
    """Ring over 0..n-1 plus `extra_edges` distinct random chords.

    Connected by construction and fully determined by (n, extra_edges, seed).
    """
    if n < 2:
        raise ValueError("random connected graph needs n >= 2")
    if extra_edges < 0:
        raise ValueError("extra_edges must be nonnegative")
    # Chord pool in lexicographic order, never built: row i holds (i, i + 2), ...,
    # (i, n - 1), less the ring's (0, n - 1); a drawn index maps to its row's chord.
    counts = np.maximum(n - 2 - np.arange(n), 0)
    counts[0] = max(n - 3, 0)
    ends = np.cumsum(counts)
    if extra_edges > ends[-1]:
        raise ValueError(f"extra_edges={extra_edges} exceeds the {ends[-1]} available chords"
                         f" for n={n}")
    picks = np.random.default_rng(seed).choice(ends[-1], size=extra_edges, replace=False)
    i = np.searchsorted(ends, picks, side="right")
    j = i + 2 + picks - (ends[i] - counts[i])
    return CommGraph(n, ring(n).edges | set(zip(i.tolist(), j.tolist())))
