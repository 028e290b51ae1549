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

from oracles import central_diff, charpoly_eigs, second_diff


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


def test_wanet_guard_keeps_cost_total():
    # two users oversubscribe a unit-capacity link
    g = WanetGame([1.0], [[0], [0]], kappa=1.0, chi=10.0, eps_guard=1e-6)
    x = np.array([0.6, 0.6])
    assert math.isclose(g.cost(0, x), 1e6 - 10 * math.log(1.6), rel_tol=1e-12)
    assert g.guard_activations(np.array([x, x])) == 2
    assert g.guard_activations(np.array([x, [0.1, 0.1]])) == 1
    assert g.guard_activations(np.full((2, 2), 0.1)) == 0
    # derivative taken at the clamped denominator value
    assert math.isclose(g.own_gradients(np.array([x, x]))[0], 1e12 - 10 / 1.6, rel_tol=1e-12)
    # rows 0 and 2 oversubscribe link 0, row 2 also link 1; only on-route
    # links count: user 0 (link 0) once, user 1 (links 0, 1) none, user 2 (link 1) once
    g3 = WanetGame([1.0, 1.0], [[0], [0, 1], [1]], kappa=1.0, chi=10.0, eps_guard=1e-6)
    X = np.array([[0.6, 0.6, 0.0], [0.1, 0.1, 0.1], [0.6, 0.6, 0.6]])
    assert g3.guard_activations(X) == 2


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
    grads, guards = game.own_gradients(X), game.guard_activations(X)
    assert grads.shape == (2, 3, n) and guards.shape == (2, 3)
    profiles = X[:, :, 0, :]
    pseudo = game.pseudo_gradient(profiles)
    for a in range(2):
        for b in range(3):
            assert grads[a, b].tobytes() == game.own_gradients(X[a, b]).tobytes()
            assert guards[a, b] == game.guard_activations(X[a, b])
            assert pseudo[a, b].tobytes() == game.pseudo_gradient(profiles[a, b]).tobytes()
    assert type(game.guard_activations(X[0, 0])) is int
    if isinstance(game, WanetGame):  # loads up to 12 on capacity-10 links: guards fire
        assert guards.sum() > 0


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


def test_wanet_convex_along_own_coordinate(wanet_default):
    game, _ = wanet_default
    rng = np.random.default_rng(21)
    for _ in range(50):
        x = rng.uniform(0.2, 1.8, size=game.n_players)
        assert np.all(game.residual_capacities(x) > 0.5)
        i = int(rng.integers(0, game.n_players))
        assert second_diff(lambda y: game.cost(i, y), x, i) >= -1e-9


def test_wanet_link_loads():
    # residual capacity = C_j - load_j, links on axis 0 for a profile, axis -2 for rows
    g = WanetGame([10.0, 10.0], [[0], [0, 1]], kappa=1.0, chi=10.0)
    assert np.array_equal(g.residual_capacities(np.array([2.0, 3.0])), [5.0, 7.0])
    stacked = g.residual_capacities(np.array([[2.0, 3.0], [1.0, 0.0]]))
    assert np.array_equal(stacked, [[5.0, 9.0], [7.0, 10.0]])
    rows = np.array([[[2.0, 3.0], [1.0, 0.0]]] * 3)
    assert np.array_equal(g.residual_capacities(rows), np.stack([stacked] * 3))


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
        sharers = game._usage.sum(axis=1)
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
