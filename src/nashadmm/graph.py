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


# A slot adds through strided views, one np.add per contiguous run of rows,
# when its runs average at least this many cells of an (n, n) matrix; with
# fewer, the calls cost more than the gather pass they save. On ring(n), three
# runs a slot, one 2-vCPU host measured the gather against the views (min of 7)
# at 8.8 against 9.1 us for n = 80 and 10.1 against 9.3 us for n = 90.
_RUN_CELLS = 2400
# and when it has at most this many runs: the views were measured on rings and
# paths, whose slots have up to three
_MAX_RUNS = 3


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
    def _slots(self) -> tuple[tuple[np.ndarray, np.ndarray | None, tuple | None], ...]:
        """(cols, mask, runs) for each slot s >= 0: cols holds node i's s-th
        neighbor (i itself past its degree); mask is None if every node has
        one, else an (n, 1) mask of those that do; runs is None where the slot
        gathers, else the (destination, source) index pairs of its contiguous
        row runs, destination rows [a, b) reading source rows [c, c + b - a)."""
        nbrs, n, slots = self._nbrs, self.n, []
        for s in range(max(1, *map(len, nbrs))):
            has = np.array([len(l) > s for l in nbrs])
            cols = np.array([l[s] if h else i for i, (l, h) in enumerate(zip(nbrs, has))],
                            dtype=np.intp)
            rows = np.flatnonzero(has)
            src = cols[rows]
            # a run starts where its destination row or its source row skips one
            starts = np.flatnonzero((np.diff(rows, prepend=-2) != 1)
                                    | (np.diff(src, prepend=-2) != 1))
            runs = None
            # a first slot that leaves rows out keeps the gather, which zeroes them
            fits = starts.size <= _MAX_RUNS and starts.size * _RUN_CELLS <= n * n
            if fits and (s or has.all()):
                ends = np.append(starts[1:], rows.size) - 1
                runs = tuple(((..., slice(a, b + 1), slice(None)),
                              (..., slice(c, c + b + 1 - a), slice(None)))
                             for a, b, c in zip(rows[starts].tolist(), rows[ends].tolist(),
                                                src[starts].tolist()))
            mask = None if has.all() else _frozen(has[:, None])
            slots.append((_frozen(cols), mask, runs))
        return tuple(slots)

    @cached_property
    def _ends(self) -> tuple[np.ndarray, np.ndarray]:
        ends = _frozen(np.array(sorted(self.edges), dtype=np.intp).reshape(-1, 2).T.copy())
        return ends[0], ends[1]

    def degrees(self) -> np.ndarray:
        """Vector of node degrees |N_i|."""
        return np.array([len(l) for l in self._nbrs], dtype=np.int64)

    def row_degrees(self) -> np.ndarray | np.float64:
        """The degrees as floats that scale the rows of an (n, n) matrix: an (n, 1)
        column, which numpy runs as one inner loop per row, or one double if all
        are equal, which gives the same bits."""
        d = self.degrees().astype(float)
        return d[0] if (d == d[0]).all() else d[:, None]

    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only endpoint arrays (i, j), i < j, one entry per edge."""
        return self._ends

    def neighbor_sums(self, X: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
        """`out` with row i = sum of the rows X[..., j, :], j in N_i, added in
        ascending j (a fixed order, so repeated runs are bit-identical); X may be
        a stack.

        Slot s adds every node's s-th neighbor row, the first into `out` and the
        rest onto it, so the sums allocate nothing; `out` and `work` have X's
        shape and neither may overlap X. A slot whose rows read a few contiguous
        runs of X's rows (a ring or a path, at the sizes where that pays) adds
        each run straight through strided views; any other slot gathers its rows
        into `work` first. Where a node has fewer than s + 1 neighbors, the
        slot's runs leave out its row, or the slot's row mask keeps its sum as it
        was (+0.0 for a node of degree 0).
        """
        # A sum starts from +0.0, so all -0.0 neighbors sum to +0.0; adding +0.0
        # to the first term gives that sign and leaves every other value as it is.
        (cols, mask, runs), *rest = self._slots
        if runs is None:
            # mode="clip" writes straight into `out`; the default "raise" gathers
            # into a temporary first. Every index is in range, so nothing is clipped.
            S = X.take(cols, axis=-2, out=out, mode="clip")
            if mask is not None:
                np.copyto(S, 0.0, where=~mask)
            S += 0.0
        else:
            S = out
            for dst, src in runs:
                np.add(X[src], 0.0, out=S[dst])
        for cols, mask, runs in rest:
            if runs is not None:
                for dst, src in runs:
                    rows = S[dst]
                    np.add(rows, X[src], out=rows)
                continue
            G = X.take(cols, axis=-2, out=work, mode="clip")
            if mask is None:
                S += G
            else:
                np.add(S, G, out=S, where=mask)
        return S

    def d_plus_a(self) -> np.ndarray:
        """D + A, the degree matrix plus the symmetric 0/1 adjacency matrix."""
        M = np.diag(self.degrees().astype(float))
        i, j = self._ends
        M[i, j] = M[j, i] = 1.0
        return M

    def is_connected(self) -> bool:
        """True iff every node is reachable from node 0."""
        seen, stack = {0}, [0]
        while stack:
            for v in self._nbrs[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n

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
