import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nashadmm import (
    ActionBox,
    GameModel,
    QuadraticGame,
    WanetGame,
    default_wanet_instance,
    quadratic_ne,
    quadratic_sigma_f,
    random_connected_graph,
    random_quadratic_game,
)

from oracles import central_diff, charpoly_eigs, link_loads, second_diff


# ---------------------------------------------------------------- ActionBox

def test_box_validation():
    with pytest.raises(ValueError):
        ActionBox([0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        ActionBox([2.0], [1.0])
    with pytest.raises(ValueError):
        ActionBox([0.0], [np.inf])


def test_box_project_and_contains():
    box = ActionBox([0.0, -1.0], [1.0, 1.0])
    assert np.array_equal(box.project([2.0, -3.0]), [1.0, -1.0])
    # a point inside the box is its own projection
    x = np.array([0.5, 0.0])
    assert np.all(box.lower <= x) and np.all(x <= box.upper)
    assert np.array_equal(box.project(x), x)


def test_box_arrays_read_only():
    box = ActionBox.cube(3, 0.0, 1.0)
    with pytest.raises(ValueError):
        box.lower[0] = 5.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
       st.lists(st.floats(0, 50), min_size=1, max_size=6),
       st.integers(0, 2**31 - 1))
def test_box_projection_properties(lo, width, seed):
    n = min(len(lo), len(width))
    box = ActionBox(np.array(lo[:n]), np.array(lo[:n]) + np.array(width[:n]))
    rng = np.random.default_rng(seed)
    x = rng.uniform(-100, 100, size=n)
    p = box.project(x)
    assert np.all(box.lower <= p) and np.all(p <= box.upper)
    assert np.array_equal(box.project(p), p)
    s = rng.uniform(box.lower, box.upper)
    assert np.all(box.lower <= s) and np.all(s <= box.upper)


# ----------------------------------------------------------- QuadraticGame

def test_quadratic_cost_and_grad_formula():
    g = QuadraticGame([2.0, 3.0], [[0.0, 1.0], [1.0, 0.0]], [0.5, -1.0],
                      ActionBox.cube(2, -10, 10))
    x = np.array([1.5, -2.0])
    # J_0 = 0.5*2*1.5^2 + 1.5*(1*-2) + 0.5*1.5
    assert math.isclose(g.cost(0, x), 0.5 * 2 * 1.5**2 + 1.5 * -2.0 + 0.5 * 1.5)
    assert math.isclose(g.own_gradients(np.stack([x, x]))[0], 2 * 1.5 + (-2.0) + 0.5)
    F = g.pseudo_gradient(x)
    M = np.diag([2.0, 3.0]) + np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(F, M @ x + np.array([0.5, -1.0]), atol=1e-14)
    # the per-player loop form, bit for bit, at a size where summation order shows
    big = random_quadratic_game(200, seed=1)
    X = np.random.default_rng(2).uniform(-10, 10, size=(200, 200))
    rows = [big.a[i] * X[i, i] + big.B[i] @ X[i] + big.d[i] for i in range(200)]
    assert np.array_equal(big.own_gradients(X), rows)


@pytest.mark.parametrize("n", [2, 15, 200])
@pytest.mark.parametrize("shape", [(), (4,), (2, 3)])
def test_quadratic_pseudo_gradient_is_the_base_class_path_bit_for_bit(n, shape):
    """The override gives the bytes of the base class's n copies of each profile."""
    game = random_quadratic_game(n, seed=n)
    x = np.random.default_rng(len(shape)).uniform(-10, 10, size=(*shape, n))
    x[..., ::3] = -0.0
    F = game.pseudo_gradient(x)
    assert F.shape == x.shape
    assert F.tobytes() == GameModel.pseudo_gradient(game, x).tobytes()


def test_quadratic_validation():
    box = ActionBox.cube(2, -1, 1)
    with pytest.raises(ValueError):
        QuadraticGame([0.0, 1.0], np.zeros((2, 2)), [0.0, 0.0], box)
    with pytest.raises(ValueError):
        QuadraticGame([1.0, 1.0], np.eye(2), [0.0, 0.0], box)
    with pytest.raises(ValueError):
        QuadraticGame([1.0, 1.0], np.zeros((3, 3)), [0.0, 0.0], box)
    with pytest.raises(ValueError):
        QuadraticGame(2.0, np.zeros((1, 1)), [0.0], ActionBox.cube(1, -1, 1))
    with pytest.raises(ValueError):
        QuadraticGame([1.0, 1.0], np.zeros((2, 2)), [0.0, np.nan], box)
    with pytest.raises(ValueError, match="action box size disagrees with player count"):
        QuadraticGame([1.0, 1.0], np.zeros((2, 2)), [0.0, 0.0], ActionBox.cube(3, -1, 1))


def test_quadratic_ne_decoupled():
    for t1, t2 in [(0.3, -0.7), (2.0, 1.0)]:
        g = QuadraticGame([1.0, 1.0], np.zeros((2, 2)), [-t1, -t2],
                          ActionBox.cube(2, -10, 10))
        assert np.allclose(quadratic_ne(g), [t1, t2], atol=1e-12)


def test_quadratic_ne_coupled_hand_case():
    # 2x + y = 3, x + 2y = 3 -> (1, 1)
    g = QuadraticGame([2.0, 2.0], [[0.0, 1.0], [1.0, 0.0]], [-3.0, -3.0],
                      ActionBox.cube(2, -10, 10))
    assert np.allclose(quadratic_ne(g), [1.0, 1.0], atol=1e-12)


def test_quadratic_ne_stationarity_n5():
    g = random_quadratic_game(5, seed=11)
    x = quadratic_ne(g)
    assert np.all(np.abs(g.pseudo_gradient(x)) < 1e-10)


def test_quadratic_ne_rejects_boundary():
    # unconstrained solution (1, 1) sits outside the box
    g = QuadraticGame([2.0, 2.0], [[0.0, 1.0], [1.0, 0.0]], [-3.0, -3.0],
                      ActionBox.cube(2, 0.0, 0.5))
    with pytest.raises(ValueError):
        quadratic_ne(g)


def test_quadratic_ne_rejects_singular():
    g = QuadraticGame([1.0, 1.0], [[0.0, -1.0], [-1.0, 0.0]], [1.0, 1.0],
                      ActionBox.cube(2, -10, 10))
    with pytest.raises(np.linalg.LinAlgError):
        quadratic_ne(g)


def test_quadratic_ne_rejects_a_solve_that_misses_stationarity():
    # diag(a) + B is near-singular but not singular: the solve returns an x of
    # about 1e14 without raising, and M x + d is far from zero in floats
    a = [0.1907300039130906, 0.2603627571358676, 0.5253574942099839]
    B = [[0.0, 0.31127629385299876, 0.5282737517109699],
         [0.12914772210353204, 0.0, -0.6496416062093204],
         [0.12651220439946664, 0.19785860409625095, 0.0]]
    d = [0.00021770323368909507, 0.0004097294911294851, 0.0008856073582583343]
    g = QuadraticGame(a, B, d, ActionBox.cube(3, -1e15, 1e15))
    M = np.diag(g.a) + g.B
    x = np.linalg.solve(M, -g.d)
    assert np.all(np.abs(x) < 1e15)  # interior, so the residual check is what rejects it
    assert np.max(np.abs(M @ x + g.d)) >= 100 * 1e-10  # its threshold, as max |d| < 1
    with pytest.raises(np.linalg.LinAlgError, match="stationarity residual .* too large"):
        quadratic_ne(g)


@pytest.mark.parametrize("game", [random_quadratic_game(4, 0), default_wanet_instance(0)[0]],
                         ids=["quadratic", "wanet"])
@pytest.mark.parametrize("i", [-1, "n"])
def test_cost_rejects_a_player_out_of_range(game, i):
    i = game.n_players if i == "n" else i
    with pytest.raises(IndexError, match=f"player {i} out of range for n={game.n_players}"):
        game.cost(i, np.zeros(game.n_players))


def test_random_quadratic_game_interior_and_monotone():
    for seed in range(6):
        g = random_quadratic_game(6, seed=seed)
        x = quadratic_ne(g)
        assert np.all(x > g.action_box.lower) and np.all(x < g.action_box.upper)
        M = np.diag(g.a) + g.B
        assert np.allclose(M, M.T)
        assert np.linalg.eigvalsh(M)[0] > 0
    g = random_quadratic_game(6, seed=99)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.uniform(g.action_box.lower, g.action_box.upper)
        y = rng.uniform(g.action_box.lower, g.action_box.upper)
        if np.array_equal(x, y):
            continue
        gap = float((g.pseudo_gradient(x) - g.pseudo_gradient(y)) @ (x - y))
        assert gap > 0


# --------------------------------------------------------------- WanetGame

def test_wanet_cost_hand_value():
    # two links, kappa=1, C=10, chi=10, x=0: 2*(1/10) - 10*log(1) = 0.2
    g = WanetGame([10.0, 10.0], [[0, 1]], kappa=1.0, chi=10.0)
    assert math.isclose(g.cost(0, np.zeros(1)), 0.2, abs_tol=1e-15)


def test_wanet_cost_zero_chi():
    g = WanetGame([10.0, 8.0, 4.0], [[0, 1, 2]], kappa=1.0, chi=0.0)
    assert math.isclose(g.cost(0, np.zeros(1)), 1 / 10 + 1 / 8 + 1 / 4)


def test_wanet_cost_log_term_vanishes_at_zero():
    g = WanetGame([10.0], [[0], [0]], kappa=1.0, chi=10.0)
    x = np.array([0.0, 3.0])
    assert math.isclose(g.cost(0, x), 1.0 / (10.0 - 3.0))


def test_wanet_grad_hand_value():
    g = WanetGame([10.0, 10.0], [[0, 1]], kappa=1.0, chi=10.0)
    assert math.isclose(g.own_gradients(np.zeros((1, 1)))[0], 2 / 100 - 10.0, abs_tol=1e-15)


def test_wanet_grad_zero_chi_uncongested():
    g = WanetGame([10.0, 10.0, 10.0], [[0, 1, 2]], kappa=1.0, chi=0.0)
    assert math.isclose(g.own_gradients(np.zeros((1, 1)))[0], 3 * 1.0 / 100.0)


def _wanet_loop_grad(game, x, i):
    """Player i's own partial at x, route terms summed in ascending link order;
    at most two users share a link, so the loads are exact."""
    r = list(game.routes[i])
    loads = [sum(x[k] for k in range(game.n_players) if j in game.routes[k]) for j in r]
    den = np.maximum(game.capacities[r] - loads, game.eps_guard)
    return np.sum(game.kappa / den**2) - game.chi[i] / (x[i] + 1.0)


def test_wanet_grad_matches_central_difference_at_ones(wanet_default):
    game, _ = wanet_default
    n = game.n_players
    # one profile per player: row 0 is all ones, the others tilt away from it
    X = 1.0 + 0.1 * np.arange(n)[:, None] * np.linspace(-1.0, 1.0, n)
    grads = game.own_gradients(X)
    for i in range(n):
        fd = central_diff(lambda y: game.cost(i, y), X[i], i)
        an = grads[i]
        assert abs(an - fd) / max(1.0, abs(an)) < 1e-6
        assert an == _wanet_loop_grad(game, X[i], i)
        assert an == game.pseudo_gradient(X[i])[i]
    # bit for bit over the whole box too, where guarded terms dwarf the rest
    rng = np.random.default_rng(3)
    for _ in range(20):
        X = rng.uniform(0.0, 10.0, size=(n, n))
        assert list(game.own_gradients(X)) == [_wanet_loop_grad(game, X[i], i) for i in range(n)]


def _clamped(game, X):
    """The guard count of one evaluation: an int for a matrix, an array for a stack."""
    return game.evaluate(X)[2]


def test_wanet_guard_keeps_cost_total():
    # two users oversubscribe a unit-capacity link
    g = WanetGame([1.0], [[0], [0]], kappa=1.0, chi=10.0, eps_guard=1e-6)
    x = np.array([0.6, 0.6])
    assert math.isclose(g.cost(0, x), 1e6 - 10 * math.log(1.6), rel_tol=1e-12)
    assert _clamped(g, np.array([x, x])) == 2
    assert _clamped(g, np.array([x, [0.1, 0.1]])) == 1
    assert _clamped(g, np.full((2, 2), 0.1)) == 0
    # derivative taken at the clamped denominator value
    assert math.isclose(g.own_gradients(np.array([x, x]))[0], 1e12 - 10 / 1.6, rel_tol=1e-12)
    # rows 0 and 2 oversubscribe link 0, row 2 also link 1; only on-route
    # links count: user 0 (link 0) once, user 1 (links 0, 1) none, user 2 (link 1) once
    g3 = WanetGame([1.0, 1.0], [[0], [0, 1], [1]], kappa=1.0, chi=10.0, eps_guard=1e-6)
    X = np.array([[0.6, 0.6, 0.0], [0.1, 0.1, 0.1], [0.6, 0.6, 0.6]])
    assert _clamped(g3, X) == 2


@pytest.mark.parametrize("game, lo, hi", [
    (default_wanet_instance(7)[0], 0.0, 6.0),
    (random_quadratic_game(15, 4), -10.0, 10.0),
    (random_quadratic_game(200, 0), -10.0, 10.0),
], ids=["wanet15", "quad15", "quad200"])
def test_stacked_gradients_bitwise(game, lo, hi):
    n = game.n_players
    rng = np.random.default_rng(1)
    X = rng.uniform(lo, hi, size=(2, 3, n, n))
    X[rng.random(X.shape) < 0.2] = -0.0
    # each matrix of the stack gives the bytes a call on that matrix alone gives
    grads, guards = game.own_gradients(X), _clamped(game, X)
    assert grads.shape == (2, 3, n) and guards.shape == (2, 3)
    profiles = X[:, :, 0, :]
    pseudo = game.pseudo_gradient(profiles)
    for a in range(2):
        for b in range(3):
            assert grads[a, b].tobytes() == game.own_gradients(X[a, b]).tobytes()
            assert guards[a, b] == _clamped(game, X[a, b])
            assert pseudo[a, b].tobytes() == game.pseudo_gradient(profiles[a, b]).tobytes()
    assert type(_clamped(game, X[0, 0])) is int
    if isinstance(game, WanetGame):  # loads up to 12 on capacity-10 links: guards fire
        assert guards.sum() > 0


def _played_and_rows(game, profiles):
    """`evaluate`'s played-profile half and rows half at n copies of each profile."""
    grads, pseudo, _ = game.evaluate(np.repeat(profiles[..., None, :], game.n_players, axis=-2))
    return pseudo, grads


@pytest.mark.parametrize("seed", range(16))
def test_wanet_pseudo_gradient_is_the_rows_path_bit_for_bit(seed):
    """The loads gathered from the played profile give what the loads of n rows
    holding it give, on every default instance, with -0.0 entries and clamped
    terms; the base class's pseudo_gradient is that rows path."""
    game, _ = default_wanet_instance(seed)
    n = game.n_players
    rng = np.random.default_rng(seed)
    profiles = rng.uniform(0.0, 10.0, size=(5, n)) * np.array([[1.0], [1.0], [0.3], [0.05], [0]])
    profiles[rng.random(profiles.shape) < 0.2] = -0.0
    pseudo, rows = _played_and_rows(game, profiles)
    assert pseudo.tobytes() == rows.tobytes() == game.pseudo_gradient(profiles).tobytes()
    for x, expected in zip(profiles, rows):
        assert _played_and_rows(game, x)[0].tobytes() == expected.tobytes()
        assert game.pseudo_gradient(x).tobytes() == expected.tobytes()
    assert _clamped(game, profiles[:2, None, :].repeat(n, axis=1)).sum() > 0


def _three_sharer_games():
    """600 random games in which users 0, 1 and 2 share link 0, each with a profile."""
    rng = np.random.default_rng(0)
    for _ in range(600):
        n, links = int(rng.integers(4, 9)), int(rng.integers(2, 6))
        routes = [set(rng.integers(0, links, size=int(rng.integers(1, links + 1))).tolist())
                  for _ in range(n)]
        routes = [sorted(r | {0}) if i < 3 else sorted(r) for i, r in enumerate(routes)]
        game = WanetGame(np.full(links, 10.0), routes, kappa=1.0, chi=10.0)
        yield game, rng.uniform(0.0, 10.0, size=n) * rng.choice([1.0, 0.3, 0.1])


def test_wanet_pseudo_gradient_is_the_rows_path_where_three_share_a_link():
    """With 3 or more users on a link a load's sum order matters; both halves
    add a link's flows in the same order, so they still agree bit for bit."""
    stacks = np.random.default_rng(1)
    for game, x in _three_sharer_games():
        n = game.n_players
        stack = stacks.uniform(0.0, 10.0, size=(2, 3, n)) * np.array([[[1.0]], [[0.3]]])
        for profiles in (x, stack):
            pseudo, rows = _played_and_rows(game, profiles)
            assert pseudo.tobytes() == rows.tobytes()


def _assert_evaluate_is_the_separate_calls(game, X):
    """evaluate(X) gives the bytes of pseudo_gradient at each diag(X) copied,
    which reads the rows of n copies, and of the per-link guard count."""
    _, pseudo, guards = game.evaluate(X)
    assert pseudo.tobytes() == game.pseudo_gradient(X.diagonal(0, -2, -1).copy()).tobytes()
    matrices = X.reshape(-1, *X.shape[-2:])
    assert np.ravel(guards).tolist() == [_guard_count_oracle(game, M) for M in matrices]
    if X.ndim == 2:
        assert type(guards) is int
    return guards


@pytest.mark.parametrize("seed", range(16))
def test_wanet_evaluate_is_the_separate_calls_bit_for_bit(seed):
    """One gather for the rows and the played profiles, one price call for both:
    the bytes of the three calls it replaces, with -0.0 entries, clamped terms
    and a NaN off the diagonal."""
    game, _ = default_wanet_instance(seed)
    n = game.n_players
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 10.0, size=(4, n, n)) * np.array([1.0, 1.0, 0.3, 0.05])[:, None, None]
    X[rng.random(X.shape) < 0.2] = -0.0
    X[1, 4, 7] = np.nan
    guards = _assert_evaluate_is_the_separate_calls(game, X)
    assert guards[0] > 0 and guards[3] == 0
    for M in X:
        _assert_evaluate_is_the_separate_calls(game, M)


def test_wanet_evaluate_is_the_separate_calls_where_three_share_a_link():
    stacks = np.random.default_rng(2)
    for game, x in _three_sharer_games():
        n = game.n_players
        X = stacks.uniform(0.0, 10.0, size=(2, n, n)) * np.array([[[1.0]], [[0.3]]])
        np.einsum("ii->i", X[0])[:] = x  # the profile plays
        _assert_evaluate_is_the_separate_calls(game, X)


def test_evaluate_default_is_the_separate_calls():
    game = random_quadratic_game(7, 2)
    X = np.random.default_rng(2).uniform(-10.0, 10.0, size=(3, 7, 7))
    grads, pseudo, guards = game.evaluate(X)
    assert grads.tobytes() == game.own_gradients(X).tobytes()
    assert pseudo.tobytes() == game.pseudo_gradient(X.diagonal(0, -2, -1).copy()).tobytes()
    assert guards.tolist() == [0, 0, 0] and game.evaluate(X[0])[2] == 0


def _guard_count_oracle(game, X):
    """Clamped route terms over all players, one player and one link at a time.
    A load adds only the flows of the link's users, so a NaN at X[i, u] reaches
    only row i's loads on links that u uses, and NaN is never clamped."""
    count = 0
    for i, x in enumerate(X):
        for j in game.routes[i]:
            load = sum(x[k] for k in range(game.n_players) if j in game.routes[k])
            count += bool(game.capacities[j] - load < game.eps_guard)
    return count


def test_wanet_guard_count_where_links_are_oversubscribed_or_nan():
    game, _ = default_wanet_instance(7)
    n = game.n_players
    rng = np.random.default_rng(5)
    X = rng.uniform(0.0, 10.0, size=(3, n, n))
    X[1] *= 0.05  # nothing clamped
    X[2, 4, 7] = np.nan  # user 7's one link, 0, is not on user 4's route (1, 13)
    counts = _clamped(game, X)
    expected = [_guard_count_oracle(game, M) for M in X]
    assert counts.tolist() == expected and expected[0] > 0 and expected[1] == 0
    assert np.isfinite(game.own_gradients(X[2])).all()
    assert [_clamped(game, M) for M in X] == expected
    nan_profile = np.full((n, n), np.nan)
    assert _clamped(game, nan_profile) == 0 == _guard_count_oracle(game, nan_profile)
    # a residual capacity at the guard is not clamped, one just below it is (all exact)
    edge = WanetGame([1.0], [[0], [0]], eps_guard=2.0**-20)
    for gap, count in ((2.0**-20, 0), (2.0**-21, 2)):
        X = np.array([[0.25, 0.75 - gap]] * 2)
        assert _clamped(edge, X) == count == _guard_count_oracle(edge, X)


def _cost_oracle(game, i, x):
    """kappa / max(C_j - load_j, eps) summed over user i's links in link order,
    minus chi_i log(1 + x_i); load_j adds link j's users' flows in user order."""
    price = 0.0
    for j in game.routes[i]:
        load = sum(x[k] for k in range(game.n_players) if j in game.routes[k])
        price += game.kappa / max(game.capacities[j] - load, game.eps_guard)
    return price - game.chi[i] * np.log(1.0 + x[i])


@pytest.mark.parametrize("seed", range(16))
def test_wanet_cost_is_the_oracle_bit_for_bit(seed):
    """At most two users share a link on a default instance, so every load is
    exact, oversubscribed links and -0.0 entries too."""
    game, _ = default_wanet_instance(seed)
    n = game.n_players
    rng = np.random.default_rng(seed)
    profiles = rng.uniform(0.0, 10.0, size=(4, n)) * np.array([[1.0], [1.0], [0.3], [0.05]])
    profiles[rng.random(profiles.shape) < 0.2] = -0.0
    assert (link_loads(game, profiles[0]) > game.capacities).any()
    for x in profiles:
        assert [game.cost(i, x) for i in range(n)] == [_cost_oracle(game, i, x) for i in range(n)]


def test_wanet_cost_is_the_oracle_where_three_share_a_link():
    for game, x in _three_sharer_games():
        for i in range(game.n_players):
            assert math.isclose(game.cost(i, x), _cost_oracle(game, i, x), rel_tol=1e-12)


def test_wanet_without_users_has_empty_gradients():
    g = WanetGame([1.0], [])
    assert g.own_gradients(np.zeros((0, 0))).shape == (0,)
    assert g.pseudo_gradient(np.zeros(0)).shape == (0,)
    assert _clamped(g, np.zeros((0, 0))) == 0
    grads, pseudo, guards = g.evaluate(np.zeros((0, 0)))
    assert grads.shape == pseudo.shape == (0,) and guards == 0


def test_wanet_validation():
    with pytest.raises(ValueError):
        WanetGame([0.0], [[0]])
    with pytest.raises(ValueError):
        WanetGame([1.0], [[]])
    with pytest.raises(ValueError):
        WanetGame([1.0], [[1]])
    with pytest.raises(ValueError):
        WanetGame([1.0], [[0]], kappa=0.0)
    with pytest.raises(ValueError):
        WanetGame([1.0], [[0]], chi=-1.0)
    for caps in (None, 10.0, [np.nan]):
        with pytest.raises(ValueError):
            WanetGame(caps, [[0]])
    with pytest.raises(ValueError):
        WanetGame([1.0], [[0]], kappa=np.inf)
    with pytest.raises(ValueError, match="action box size disagrees with user count"):
        WanetGame([1.0], [[0]], action_box=ActionBox.cube(2, 0.0, 1.0))


def test_wanet_convex_along_own_coordinate(wanet_default):
    game, _ = wanet_default
    rng = np.random.default_rng(21)
    for _ in range(50):
        x = rng.uniform(0.2, 1.8, size=game.n_players)
        assert np.all(game.capacities - link_loads(game, x) > 0.5)
        i = int(rng.integers(0, game.n_players))
        assert second_diff(lambda y: game.cost(i, y), x, i) >= -1e-9


# -------------------------------------------------- default_wanet_instance

def test_default_instance_deterministic():
    g1, gr1 = default_wanet_instance(7)
    g2, gr2 = default_wanet_instance(7)
    assert g1.routes == g2.routes
    assert gr1.edges == gr2.edges
    g3, _ = default_wanet_instance(8)
    assert g3.routes != g1.routes


def test_default_instance_shape():
    for seed in [0, 7, 31]:
        game, graph = default_wanet_instance(seed)
        assert game.n_players == 15 and game.n_links == 16
        assert np.all(game.capacities == 10.0)
        assert np.all(game.chi == 10.0)
        assert np.array_equal(game.action_box.lower, np.zeros(15))
        assert np.array_equal(game.action_box.upper, np.full(15, 10.0))
        sharers = link_loads(game, np.ones(15))
        assert np.all(sharers >= 1), "every link must be used"
        assert np.all(sharers <= 2), "sharing is capped to keep the testbed tame"
        assert all(1 <= len(r) <= 3 for r in game.routes)
        assert graph.edges == random_connected_graph(15, 5, seed).edges


# ------------------------------------------------- sigma_F of a quadratic game

# nonsymmetric coupling; the symmetric part of M^{-1} is still positive definite
NONSYM = QuadraticGame([3.0, 2.5, 4.0, 3.5],
                       [[0.0, 1.0, -0.5, 0.25], [-1.0, 0.0, 0.5, 0.0],
                        [0.75, 0.0, 0.0, -1.0], [0.0, 0.5, 1.0, 0.0]],
                       [1.0, -2.0, 0.5, 0.0], ActionBox.cube(4, -5, 5))


def _sym_inverse_eigs_exact(game) -> np.ndarray:
    """Spectrum of sym(M^{-1}) from M's exact binary values, in rational arithmetic."""
    M = np.diag(game.a) + game.B
    Minv = sp.Matrix(M.shape[0], M.shape[1], lambda i, j: sp.Rational(float(M[i, j]))).inv()
    return charpoly_eigs(((Minv + Minv.T) / 2).tolist())


def test_sigma_estimate_scaled_identity():
    g = QuadraticGame([2.0, 2.0], np.zeros((2, 2)), [0.0, 0.0],
                      ActionBox.cube(2, -5, 5))
    assert abs(quadratic_sigma_f(g) - 0.5) <= 1e-15


def test_sigma_estimate_spd_bound():
    B = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.2], [0.5, 0.2, 0.0]])
    g = QuadraticGame([3.0, 3.0, 3.0], B, [0.0, 0.0, 0.0], ActionBox.cube(3, -5, 5))
    w = np.linalg.eigvalsh(np.diag(g.a) + B)
    sigma = quadratic_sigma_f(g)
    # a symmetric M has sym(M^{-1}) = M^{-1}, so sigma_F = 1/lambda_max(M)
    assert math.isclose(sigma, 1.0 / w[-1], rel_tol=1e-12)
    assert sigma >= w[0] / w[-1] ** 2


@pytest.mark.parametrize("game", [
    QuadraticGame([2.0] * 3, np.zeros((3, 3)), [-2.0] * 3, ActionBox.cube(3, -10, 10)),
    NONSYM,
    random_quadratic_game(5, seed=2),
], ids=["quad", "nonsymmetric", "random5"])
def test_quadratic_sigma_f_matches_exact_oracle(game):
    exact = _sym_inverse_eigs_exact(game)[0]
    assert abs(quadratic_sigma_f(game) - exact) <= 1e-10


@pytest.mark.parametrize("game", [NONSYM, random_quadratic_game(15, seed=1)],
                         ids=["nonsymmetric", "random15"])
def test_quadratic_sigma_f_bounds_sampled_ratios(game):
    """sigma_F is the infimum of <F(x) - F(y), x - y> / ||F(x) - F(y)||^2, so no pair is below it."""
    sigma = quadratic_sigma_f(game)
    assert sigma > 0
    rng, box = np.random.default_rng(11), game.action_box
    x = rng.uniform(box.lower, box.upper, size=(1000, game.n_players))
    y = rng.uniform(box.lower, box.upper, size=(1000, game.n_players))
    dF = game.pseudo_gradient(x) - game.pseudo_gradient(y)
    ratios = np.sum(dF * (x - y), axis=1) / np.sum(dF * dF, axis=1)
    assert ratios.min() >= sigma * (1 - 1e-12)


def test_quadratic_sigma_f_singular_is_none():
    g = QuadraticGame([1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0],
                      ActionBox.cube(2, -1, 1))
    assert quadratic_sigma_f(g) is None
