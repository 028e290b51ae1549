"""Game definitions: action boxes, the player-cost interface, and two games.

Two concrete games are provided. `QuadraticGame` has an affine pseudo-gradient,
a closed-form equilibrium and an exact cocoercivity constant, which makes it
the test oracle of choice.
`WanetGame` is a wireless ad-hoc network congestion game: users push flow over
capacity-limited links, paying a hyperbolic congestion price per link minus a
logarithmic utility for their own throughput.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .graph import CommGraph, random_connected_graph

__all__ = [
    "ActionBox",
    "GameModel",
    "QuadraticGame",
    "WanetGame",
    "quadratic_ne",
    "quadratic_sigma_f",
    "random_quadratic_game",
    "default_wanet_instance",
]


@dataclass(frozen=True)
class ActionBox:
    """Per-player closed intervals [lower_i, upper_i], one scalar action each."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float)).copy()
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float)).copy()
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("action intervals must be bounded")
        if np.any(lo > hi):
            raise ValueError("every interval needs lower <= upper")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def project(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Euclidean projection onto the box (componentwise clip), into `out` if given."""
        # the method reaches np.clip's ufunc through fewer Python layers
        return np.asarray(x).clip(self.lower, self.upper, out=out)

    @staticmethod
    def cube(n: int, lower: float, upper: float) -> "ActionBox":
        return ActionBox(np.full(n, float(lower)), np.full(n, float(upper)))


class GameModel(abc.ABC):
    """Interface every game exposes to the solvers.

    A game has `n_players` scalar-action players, a rectangular joint action
    set `action_box` and a per-player cost `cost(i, x)` evaluated at a full
    profile x in R^N. `own_gradients(X)` takes one profile per player, row i
    for player i, and returns F_i(X[i]): the partial derivative of player i's
    cost with respect to their own coordinate, at their own row. X may be a
    stack of such matrices, shaped (..., n, n); the result is then (..., n),
    each matrix's gradients exactly as a call on that matrix alone gives them.
    The solvers read the game once per iteration, through `evaluate(X)`, whose
    default needs only `own_gradients`; a game may override `evaluate` and
    answer `own_gradients` from it.
    """

    n_players: int
    action_box: ActionBox

    @abc.abstractmethod
    def cost(self, i: int, x: np.ndarray) -> float: ...

    @abc.abstractmethod
    def own_gradients(self, X: np.ndarray) -> np.ndarray: ...

    def pseudo_gradient(self, x: np.ndarray) -> np.ndarray:
        """Stacked map F(x) = (F_i(x))_i at a common profile x, or at each profile of x."""
        x = np.asarray(x, dtype=float)
        return self.own_gradients(np.broadcast_to(x[..., None, :], (
            *x.shape[:-1], self.n_players, x.shape[-1])))

    def evaluate(self, X: np.ndarray):
        """All the solvers read of the game at estimate matrices X, in one call:
        (own_gradients(X), the pseudo-gradient at each played profile diag(X),
        the guarded cost terms clamped over all players, player i at row
        X[..., i, :]). The count is an int for one matrix and one per matrix
        for a stack; this default has no guards, so it is 0. A game may
        override it to share work between the three."""
        X = np.asarray(X, dtype=float)
        guards = 0 if X.ndim == 2 else np.zeros(X.shape[:-2], dtype=int)
        return self.own_gradients(X), self.pseudo_gradient(X.diagonal(0, -2, -1).copy()), guards

    def _check_index(self, i: int):
        if not (0 <= i < self.n_players):
            raise IndexError(f"player {i} out of range for n={self.n_players}")


class QuadraticGame(GameModel):
    """Coupled quadratic game with affine pseudo-gradient.

    Player i's cost is (1/2) a_i x_i^2 + x_i (sum_j B_ij x_j) + d_i x_i with
    zero-diagonal coupling B, so F(x) = (diag(a) + B) x + d.
    """

    def __init__(self, a, B, d, action_box: ActionBox):
        self.a = np.asarray(a, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self.d = np.asarray(d, dtype=float)
        if self.a.ndim != 1:
            raise ValueError("a must be a 1-d array of own-curvatures")
        n = self.a.shape[0]
        if self.B.shape != (n, n) or self.d.shape != (n,):
            raise ValueError("a, B, d dimensions disagree")
        if not all(np.isfinite(v).all() for v in (self.a, self.B, self.d)):
            raise ValueError("a, B and d must be finite")
        if np.any(self.a <= 0):
            raise ValueError("own-curvatures a_i must be positive")
        if np.any(np.diagonal(self.B) != 0.0):
            raise ValueError("coupling matrix must have zero diagonal")
        if action_box.n != n:
            raise ValueError("action box size disagrees with player count")
        self.n_players = n
        self.action_box = action_box

    def cost(self, i: int, x: np.ndarray) -> float:
        self._check_index(i)
        x = np.asarray(x, dtype=float)
        return float(0.5 * self.a[i] * x[i] ** 2 + x[i] * (self.B[i] @ x) + self.d[i] * x[i])

    def own_gradients(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        # row-wise B[i] @ X[..., i, :], summed exactly as that dot product sums it
        coupling = np.matmul(self.B[:, None, :], X[..., None])[..., 0, 0]
        return self.a * X.diagonal(0, -2, -1) + coupling + self.d

    def pseudo_gradient(self, x: np.ndarray) -> np.ndarray:
        """The base class's F(x) bit for bit, without its n copies of x: the same
        row-wise B[i] @ x products on the same kernel as `own_gradients`."""
        x = np.asarray(x, dtype=float)
        coupling = np.matmul(self.B[:, None, :], x[..., None, :, None])[..., 0, 0]
        return self.a * x + coupling + self.d


def quadratic_ne(game: QuadraticGame) -> np.ndarray:
    """Closed-form interior equilibrium of a quadratic game.

    Solves (diag(a) + B) x = -d directly. Only valid when the solution is
    strictly inside the action box; boundary solutions are rejected because
    the stationarity system no longer characterizes the equilibrium there.
    """
    M = np.diag(game.a) + game.B
    x = np.linalg.solve(M, -game.d)
    box = game.action_box
    if np.any(x <= box.lower) or np.any(x >= box.upper):
        raise ValueError("equilibrium not interior to the action box")
    resid = np.max(np.abs(M @ x + game.d))
    if resid > 1e-10 * max(1.0, float(np.max(np.abs(game.d)))):
        raise np.linalg.LinAlgError(f"stationarity residual {resid:.2e} too large")
    return x


def quadratic_sigma_f(game: QuadraticGame) -> float | None:
    """Cocoercivity constant of a quadratic game's pseudo-gradient.

    For F(x) = M x + d with M = diag(a) + B (B may be nonsymmetric), sigma_F
    is lambda_min of the symmetric part of M^{-1} (Facchinei & Pang, 2003);
    None when M is singular. The value holds on all of R^n, so it is exact on
    a box where every interval has lower < upper and a valid lower bound
    otherwise.
    """
    try:
        Minv = np.linalg.inv(np.diag(game.a) + game.B)
    except np.linalg.LinAlgError:
        return None
    return float(np.linalg.eigvalsh(0.5 * (Minv + Minv.T))[0])


def random_quadratic_game(n: int, seed: int) -> QuadraticGame:
    """Seeded diagonally dominant quadratic game on [-10, 10]^n with an interior equilibrium.

    The symmetric coupling is scaled so each row satisfies
    sum_j |B_ij| < a_i, making diag(a) + B positive definite; d is chosen to
    place the equilibrium at a point drawn from the inner half of the box.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(2.0, 4.0, size=n)
    B = rng.uniform(-1.0, 1.0, size=(n, n))
    B = 0.5 * (B + B.T)
    np.fill_diagonal(B, 0.0)
    row = np.abs(B).sum(axis=1)
    scale = 0.8 * a.min() / max(row.max(), 1e-12)
    B *= min(1.0, scale)
    box = ActionBox.cube(n, -10.0, 10.0)
    target = rng.uniform(-5.0, 5.0, size=n)
    d = -(np.diag(a) + B) @ target
    return QuadraticGame(a, B, d, box)


class WanetGame(GameModel):
    """Congestion game over capacity-limited links.

    User i routes flow x_i over every link in their path R_i. The cost is

        sum_{j in R_i} kappa / (C_j - load_j(x))  -  chi_i * log(x_i + 1)

    with load_j(x) the total flow of users whose path contains link j. A
    denominator falling below `eps_guard` is clamped there, which keeps cost
    and gradient total even when a profile transiently oversubscribes a link;
    clamping events are counted by `evaluate`. `evaluate` holds the gradient
    code: `own_gradients` is its first part, and the pseudo-gradient of a
    profile is the base class's, at n copies of it.
    """

    def __init__(self, capacities, routes, kappa=1.0, chi=10.0,
                 eps_guard=1e-6, action_box: ActionBox | None = None):
        self.capacities = np.asarray(capacities, dtype=float)
        if self.capacities.ndim != 1:
            raise ValueError("capacities must be a 1-d array, one per link")
        self.n_links = self.capacities.shape[0]
        self.routes = tuple(tuple(sorted(set(int(j) for j in r))) for r in routes)
        self.n_players = len(self.routes)
        self.kappa = float(kappa)
        chi = np.asarray(chi, dtype=float)
        self.chi = np.full(self.n_players, float(chi)) if chi.ndim == 0 else chi.copy()
        self.eps_guard = float(eps_guard)

        if not (np.isfinite(self.capacities).all() and np.isfinite(self.chi).all()
                and math.isfinite(self.kappa) and math.isfinite(self.eps_guard)):
            raise ValueError("capacities, kappa, chi and eps_guard must be finite")
        if np.any(self.capacities <= 0):
            raise ValueError("link capacities must be positive")
        if self.kappa <= 0 or self.eps_guard <= 0:
            raise ValueError("kappa and eps_guard must be positive")
        if self.chi.shape != (self.n_players,) or np.any(self.chi < 0):
            raise ValueError("chi must be a nonnegative scalar or per-user vector")
        users = [[] for _ in range(self.n_links)]  # link j's users, ascending
        for i, r in enumerate(self.routes):
            if not r:
                raise ValueError(f"route of user {i} is empty")
            if r[0] < 0 or r[-1] >= self.n_links:
                raise ValueError(f"route of user {i} references an invalid link")
            for j in r:
                users[j].append(i)

        self.action_box = action_box or ActionBox.cube(self.n_players, 0.0, 10.0)
        if self.action_box.n != self.n_players:
            raise ValueError("action box size disagrees with user count")

        # route entries (user i, link j) by user and link; a load adds link j's users in
        # order, first from row i of X flattened to (..., n * n), then from the played
        # profile, whose X[u, u] is entry u * (n + 1)
        n = self.n_players
        entries = [(i, users[j]) for i, r in enumerate(self.routes) for j in r]
        self._index = np.array([i * n + u for i, us in entries for u in us]
                               + [u * (n + 1) for _, us in entries for u in us], dtype=int)
        sizes = np.array([len(us) for _, us in entries] * 2, dtype=int)
        self._starts = sizes.cumsum() - sizes
        self._entry_caps = self.capacities[[j for r in self.routes for j in r]]
        lengths = np.array([len(r) for r in self.routes], dtype=int)
        depth = np.arange(lengths.max(initial=0))[:, None]
        self._filled = depth < lengths
        self._entries = np.where(self._filled, lengths.cumsum() - lengths + depth, 0)

    def _residuals(self, X: np.ndarray) -> np.ndarray:
        """Unguarded C_j - load_j per route entry, shaped (..., 2, entries): of the
        rows X[..., i, :], then of the played profile diag(X), in one gather."""
        loads = np.add.reduceat(X.reshape(*X.shape[:-2], -1).take(self._index, axis=-1),
                                self._starts, axis=-1)
        # the entry count, not -1: a game without users has none
        return self._entry_caps - loads.reshape(*X.shape[:-2], 2, self._entry_caps.size)

    def _prices(self, residual: np.ndarray) -> np.ndarray:
        """User i: kappa / den^2 (den guarded) summed down column i of `_entries` in
        link order; np.add.reduceat would add t0 + (t1 + t2) and change the bytes."""
        terms = self.kappa / np.maximum(residual, self.eps_guard)**2
        return np.where(self._filled, terms.take(self._entries, axis=-1), 0.0).sum(axis=-2)

    def cost(self, i: int, x: np.ndarray) -> float:
        self._check_index(i)
        x = np.asarray(x, dtype=float)
        route = self._entries[:len(self.routes[i]), i]
        # profile x's loads are those of the played profile of diag(x)
        den = np.maximum(self._residuals(np.diag(x))[1, route], self.eps_guard)
        return float(np.sum(self.kappa / den) - self.chi[i] * np.log(x[i] + 1.0))

    def own_gradients(self, X: np.ndarray) -> np.ndarray:
        return self.evaluate(X)[0]

    def evaluate(self, X: np.ndarray):
        """The rows' and the played profiles' loads from one `_residuals` call,
        and all their prices from one `_prices` call."""
        X = np.asarray(X, dtype=float)
        residual = self._residuals(X)
        utility = self.chi / (X.diagonal(0, -2, -1) + 1.0)
        grads = self._prices(residual) - utility[..., None, :]
        counts = (residual[..., 0, :] < self.eps_guard).sum(axis=-1)  # NaN is never clamped
        return grads[..., 0, :], grads[..., 1, :], int(counts) if X.ndim == 2 else counts


def default_wanet_instance(seed: int) -> tuple[WanetGame, CommGraph]:
    """Seeded 15-user / 16-link congestion instance plus its communication graph.

    Every user gets a path of 1 to 3 links, every link carries at least one
    user, and no link carries more than two; capacities are 10, chi_i = 10,
    kappa = 1, flows live in [0, 10]. The communication graph is a 15-node
    ring with 5 random chords. Identical seeds give identical instances.

    The two-users-per-link cap bounds the equilibrium congestion: with the
    utility weight chi = 10 pulling every flow up, k users sharing a link
    settle at a residual capacity that shrinks (and a barrier curvature that
    grows like its inverse cube) as k grows. At three or more sharers the
    curvature leaves the range the proximal solver handles at the default
    penalties, so heavily shared instances stop being a fair default testbed.
    """
    n_users, n_links = 15, 16
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 4, size=n_users)
    routes: list[set[int]] = [set() for _ in range(n_users)]
    sharers = np.zeros(n_links, dtype=int)
    # deal every link out first so none goes unused
    perm = rng.permutation(n_links)
    for t in range(n_users):
        routes[t].add(int(perm[t]))
        sharers[perm[t]] += 1
    extra_user = int(rng.integers(0, n_users))
    routes[extra_user].add(int(perm[n_users]))
    sharers[perm[n_users]] += 1
    # grow routes toward their target sizes where slots remain
    for i in range(n_users):
        tries = 0
        while len(routes[i]) < sizes[i] and tries < 64:
            j = int(rng.integers(0, n_links))
            tries += 1
            if sharers[j] < 2 and j not in routes[i]:
                routes[i].add(j)
                sharers[j] += 1
    game = WanetGame(
        capacities=np.full(n_links, 10.0),
        routes=[sorted(r) for r in routes],
        kappa=1.0,
        chi=10.0,
        eps_guard=1e-6,
        action_box=ActionBox.cube(n_users, 0.0, 10.0),
    )
    return game, random_connected_graph(n_users, 5, seed)
