"""The input gate, the solver state, the stopping rule and the iteration loop
both solvers share: the loop steps a stack of independent runs at once, and a
single run is a stack of one."""

from __future__ import annotations

import numbers
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .games import GameModel
from .graph import CommGraph
from .metrics import IterationRecord, _fixed_point_gap, consensus_error


class SettingError(ValueError):
    """A solver setting outside its range; `field` names the setting."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field} {reason}")
        self.field, self.reason = field, reason


def _check(ok: bool, field: str, reason: str) -> None:
    if not ok:
        raise SettingError(field, reason)


def _floats(value, field: str, reason: str, ndims: tuple = (0,)) -> np.ndarray:
    """A float setting as an array of one of `ndims` dimensions: a Python or
    numpy real number, or a regular nest of lists of them. A bool, a string,
    None, a ragged list or a number beyond float raises SettingError(field, reason)."""
    a = np.asarray(value, dtype=object)
    try:
        if a.ndim in ndims and all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                                   for x in a.flat):
            return a.astype(float)
    except OverflowError:
        pass
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
        for f in ("max_iter", "record_every"):  # Python or numpy ints; numpy's bool is no integer
            _check(np.issubdtype(type(getattr(self, f)), np.integer), f, "must be an integer")
        _check(self.max_iter >= 0, "max_iter", "must be nonnegative")
        for f in ("tol_consensus", "tol_residual"):
            object.__setattr__(self, f, float(_floats(getattr(self, f), f, "must be a number")))
            _check(getattr(self, f) > 0, f, "must be positive")
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


@dataclass(eq=False, slots=True)
class Records(Sequence):
    """A table of recorded iterations: six columns named as IterationRecord's
    fields, row i of each holding the i-th record, `actions` (rows, n) and the
    others (rows,). `records[i]` (a negative i too) reads row i as an
    IterationRecord whose actions are a view of the column."""

    k: np.ndarray
    actions: np.ndarray
    consensus_error: np.ndarray
    ne_residual: np.ndarray
    guard_activations: np.ndarray
    elapsed: np.ndarray

    def __len__(self) -> int:
        return len(self.k)

    def __getitem__(self, i) -> IterationRecord:
        return IterationRecord(int(self.k[i]), self.actions[i], float(self.consensus_error[i]),
                               float(self.ne_residual[i]), int(self.guard_activations[i]),
                               float(self.elapsed[i]))


@dataclass
class RunResult:
    """Terminal state plus the sampled trace and why iteration stopped.

    records is a Records table whose columns are views of the rows the loop
    wrote for this run. reason is one of "converged", "iteration budget",
    "diverged"; a diverged run's state.k is the iteration that first produced
    a non-finite value.
    """

    state: SolverState
    records: Records
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


# bytes of record columns allocated up front at most; a longer run grows them
_RECORD_BUDGET = 1 << 23


def _record_block(members: int, rows: int, n: int) -> list[np.ndarray]:
    """Empty record columns in IterationRecord's field order, (members, rows)
    each and (members, rows, n) for the actions."""
    shape = (members, rows)
    return [np.empty(shape, int), np.empty((*shape, n)), np.empty(shape), np.empty(shape),
            np.empty(shape, int), np.empty(shape)]


# The loop trusts a bound on max|Z| below this to prove Z finite. A plan
# states its growth G: if every |value| of Z_k is at most M, a step makes
# every value of Z_{k+1} but the own coordinates at most G M, and every value
# on the way at most 2 deg_max G M, in exact arithmetic; the own coordinates
# are projected into the box, or NaN. The bound starts at the box's largest
# |bound| (at least 1, so rounding stays relative) and grows by G a step. The
# 2^24 of headroom below overflow takes the degree factor (2 deg_max < 2^21:
# n > 2^21 rows would make X alone 32 TiB) and the rounding: each value
# carries at most (deg_max + 12) roundings a step, so j steps since the last
# exact pass leave the bound short by under (1 + 2^-53)^((deg_max + 12) j) < 8
# while (deg_max + 12) j < 2^54. ADMM's G is at least 3, so j < 1310; the
# baseline's G = 1 leaves j the run's length, and at the loop's microsecond or
# more an iteration 2^54 / (deg_max + 12) iterations take decades.
_TRUSTED = 2.0 ** 1000


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _drive(x0: np.ndarray, members: int, step, game: GameModel, graph: CommGraph,
           stop: StopRule) -> list[RunResult]:
    """Step, measure, record and stop each of `members` runs from x0 on its own.

    The loop builds the state, a (2, members, n, n) array Z: X = Z[0] has x0
    (a profile `check_problem` passed) in every row and W = Z[1] is zero, so
    every member has a W. `step(X, W, S, T, live, grads)` advances both in
    place, with S and T scratch of X's shape, `live` the list of each row's
    index in the original stack and `grads` the rows' own gradients at X. The
    loop owns them all: a result holds copies of its X and W, and a stopped
    member leaves the stack, which keeps the others' states and the scratch's
    leading rows. A member with a non-finite value in X or W stops as
    "diverged", with no floating-point warning: an overflow ends as a clipped
    step or as that stop. The others go on as if they ran alone. A record's
    `elapsed` is the whole stack's wall clock.

    The finite check reads the diagonals alone while a bound on max|Z| stays
    below _TRUSTED: `step.growth`, the factor G the plan states, proves every
    other value finite. A bound at or past it, a diagonal sum that is not
    finite, or a step that states no G takes a max and a min of Z per member,
    which decide exactly and reset the bound.

    The records go into one block of six columns for the stack, member m's
    row r at [m, r]: `actions` is (members, rows, n), the others (members,
    rows). There is a row for each iteration of the record grid up to
    max_iter and for an off-grid max_iter, up to _RECORD_BUDGET bytes at
    first and grown past them if a run gets there. A recorded iteration
    writes a row for every live member, through basic slices while none has
    left; a member that stops off the grid writes its last record into its
    own next row. A result's records are views of its member's rows.

    The game is evaluated once per iteration, for the whole stack
    (`game.evaluate(X)`): the step's gradients, the equilibrium residual (the
    gap of `ne_residual`, at the pseudo-gradient of the played profiles) and the
    records' guard counts all come from that call. The consensus error is
    computed, in one call for the whole stack, only on an iteration where some
    member reads it: a recorded one, or one where a member is non-finite or
    has its residual within tolerance, since convergence needs both. The stop
    decision is taken on the whole stack at once; Python runs per member only
    for a member that stops.
    """
    t0, n = time.perf_counter(), x0.size
    X, W = Z = np.zeros((2, members, n, n))
    X[:] = x0
    actions = X.reshape(members, -1)[:, ::n + 1]  # the diagonals: X is contiguous, so a view
    box = game.action_box
    floor = bound = max(1.0, float(np.abs(box.lower).max()), float(np.abs(box.upper).max()))
    growth = getattr(step, "growth", np.inf)
    S, T = np.empty_like(X), np.empty_like(X)
    every, last_k = stop.record_every, stop.max_iter
    rows = last_k // every + 1 + (last_k % every > 0)  # the grid and an off-grid max_iter
    block = _record_block(members, min(rows, max(1, _RECORD_BUDGET // (members * (n + 5) * 8))), n)
    k, r, ids, finite = 0, 0, np.arange(members), np.ones(members, bool)
    live, ends = ids.tolist(), [None] * members
    while True:
        grads, pseudo, guards = game.evaluate(X)
        nr = _fixed_point_gap(actions, pseudo, box)
        del pseudo  # the residual's input only: not held to the run's end, where memory peaks
        recorded = k % every == 0 or k >= last_k
        close, stops = nr <= stop.tol_residual, []
        # only a member out of budget, non-finite or close (after k = 0) can stop;
        # Python's any and all read a list of a few bools faster than numpy's
        can_stop = k >= last_k or not all(finite.tolist()) or k > 0 and any(close.tolist())
        if recorded or can_stop:
            ce = consensus_error(X, graph)
        if can_stop:
            converged = close & finite & (ce <= stop.tol_consensus) & (k > 0)
            last = converged | ~finite | (k >= last_k)
            stops = last.nonzero()[0].tolist()
        if recorded or stops:
            if r == block[0].shape[1]:
                grown = _record_block(members, min(rows, 2 * r), n)
                for new, old in zip(grown, block):
                    new[:, :r] = old
                block = grown
            sel = slice(None) if recorded else last
            at = slice(None) if recorded and len(live) == members else ids[sel]
            for column, value in zip(block, (k, actions[sel], ce[sel], nr[sel], guards[sel],
                                             time.perf_counter() - t0)):
                column[at, r] = value
        if stops:
            for g in stops:
                reason = "converged" if converged[g] else \
                    "iteration budget" if finite[g] else "diverged"
                ends[live[g]] = SolverState(X[g].copy(), W[g].copy(), k), r + 1, reason
            if len(stops) == len(live):
                return [RunResult(state, Records(*(c[m, :count] for c in block)), reason)
                        for m, (state, count, reason) in enumerate(ends)]
            keep = ~last
            ids, Z, grads = ids[keep], Z[:, keep], grads[keep]
            live, (X, W), S, T = ids.tolist(), Z, S[:len(ids)], T[:len(ids)]
            actions = X.reshape(len(live), -1)[:, ::n + 1]
        r += recorded
        step(X, W, S, T, live, grads)
        k += 1
        bound *= growth
        finite = np.isfinite(actions.sum(axis=1))
        if not (bound < _TRUSTED and all(finite.tolist())):
            top, low = Z.max(axis=(0, 2, 3)), Z.min(axis=(0, 2, 3))  # NaN and infinities carry
            finite = np.isfinite(top) & np.isfinite(low)
            bound = max(floor, float(np.maximum(top, -low).max(initial=0.0, where=finite)))
