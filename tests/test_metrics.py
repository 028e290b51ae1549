import math
import re

import numpy as np
import pytest

from nashadmm import (
    ActionBox,
    AdmmConfig,
    CommGraph,
    QuadraticGame,
    consensus_error,
    default_wanet_instance,
    init_state,
    ne_residual,
    path,
    quadratic_ne,
    random_connected_graph,
    random_quadratic_game,
    ring,
    run,
)

from oracles import m2_seminorm_distance


def test_consensus_error_zero_on_agreement():
    X = np.tile(np.array([1.0, -2.0, 3.0]), (3, 1))
    assert consensus_error(X, ring(3)) == 0.0
    # vacuous maximum: a single node, and a graph without edges
    assert consensus_error(X[:1], CommGraph(1)) == 0.0
    assert consensus_error(X, CommGraph(3)) == 0.0


def test_consensus_error_single_edge_difference():
    X = np.zeros((2, 2))
    X[1, 0] = 0.5
    assert consensus_error(X, path(2)) == 0.5


def test_consensus_error_max_over_edges():
    X = np.zeros((3, 3))
    X[0, 1] = 0.25   # edge (0,1) differs by 0.25
    X[2, 2] = -1.0   # edge (1,2) differs by 1.0
    assert consensus_error(X, path(3)) == 1.0
    X[1, 0] = np.nan  # a non-finite estimate is reported, not skipped
    assert math.isnan(consensus_error(X, path(3)))


def test_consensus_error_shape_check():
    with pytest.raises(ValueError):
        consensus_error(np.zeros((2, 3)), ring(3))


@pytest.mark.parametrize("call, shape", [
    (lambda: consensus_error(np.zeros(4), ring(4)), "(..., 4, N)"),
    (lambda: ne_residual(np.zeros(14), default_wanet_instance(0)[0]), "(..., 15)"),
    (lambda: ne_residual(np.zeros(3), random_quadratic_game(4, 0)), "(..., 4)"),
], ids=["consensus-1d", "wanet-14-of-15", "quadratic-3-of-4"])
def test_metrics_name_the_shape_they_expect(call, shape):
    with pytest.raises(ValueError, match=re.escape(f"must have shape {shape}")):
        call()


def test_consensus_error_permutation_invariant():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = 6
        g = random_connected_graph(n, 3, int(rng.integers(1 << 16)))
        X = rng.normal(size=(n, n))
        perm = rng.permutation(n)
        Xp = np.empty_like(X)
        Xp[perm] = X  # row i moves to perm[i]
        gp = CommGraph(n, frozenset((int(perm[i]), int(perm[j])) for i, j in g.edges))
        assert math.isclose(consensus_error(X, g), consensus_error(Xp, gp), rel_tol=1e-12)


def _consensus_oracle(X, graph):
    """max over edges of max |x^i - x^j|, one edge at a time (NaN if any is NaN)."""
    peaks = [np.max(np.abs(X[..., i, :] - X[..., j, :]), axis=-1) for i, j in sorted(graph.edges)]
    return np.max(peaks, axis=0)


@pytest.mark.parametrize("graph, stack", [
    (path(1100), ()),  # 1099 edges of 1100 differences: two blocks of 953 edges
    (path(2), (3,)), (ring(5), (2, 2)), (random_connected_graph(9, 6, 1), ()),
    (random_connected_graph(12, 20, 2), (4,)),
], ids=["path1100", "path2", "ring5", "random9", "random12"])
def test_consensus_error_is_the_edge_by_edge_maximum(graph, stack):
    rng = np.random.default_rng(graph.n)
    X = rng.normal(size=(*stack, graph.n, graph.n))
    X[..., -1, 0] = 50.0  # the peak is on the edges of the last node: on path(1100), block 2
    if stack:
        X[(0,) * len(stack)] = X[(0,) * len(stack) + (0,)]  # a member at consensus
        X[(-1,) * len(stack) + (1, 0)] = np.nan
    ce = consensus_error(X, graph)
    assert np.array_equal(ce, _consensus_oracle(X, graph), equal_nan=True)
    assert (type(ce) is float) if not stack else ce.shape == stack


def test_metrics_of_a_stack_are_those_of_each_member():
    g, graph = random_quadratic_game(6, seed=2), random_connected_graph(6, 2, 5)
    rng = np.random.default_rng(6)
    X = rng.uniform(-10.0, 10.0, size=(4, 6, 6))
    X[1] = X[1, 0]  # a member at consensus
    X[2, 3, 1] = np.nan  # and one with a NaN estimate
    ce, nr = consensus_error(X, graph), ne_residual(X[:, :, 0], g)
    assert ce.shape == nr.shape == (4,)
    assert ce[1] == 0.0 and math.isnan(ce[2])
    for m in range(4):
        assert type(consensus_error(X[m], graph)) is float
        assert type(ne_residual(X[m, :, 0], g)) is float
        assert np.array_equal(ce[m], consensus_error(X[m], graph), equal_nan=True)
        assert nr[m] == ne_residual(X[m, :, 0], g)


def test_ne_residual_zero_at_oracle_ne():
    g = random_quadratic_game(4, seed=2)
    assert ne_residual(quadratic_ne(g), g) <= 1e-10


def test_ne_residual_boundary_equilibrium():
    # one player, J = x^2/2 - 2x on [0, 1]: equilibrium pinned at x = 1
    g = QuadraticGame([1.0], np.zeros((1, 1)), [-2.0], ActionBox([0.0], [1.0]))
    assert ne_residual(np.array([1.0]), g) == 0.0
    assert ne_residual(np.array([0.0]), g) == 1.0


def test_ne_residual_positive_off_equilibrium():
    g = random_quadratic_game(4, seed=5)
    star = quadratic_ne(g)
    rng = np.random.default_rng(9)
    count = 0
    while count < 100:
        x = rng.uniform(g.action_box.lower, g.action_box.upper)
        if np.max(np.abs(x - star)) < 1e-6:
            continue
        assert ne_residual(x, g) > 0.0
        count += 1


def test_m2_zero_at_consensus_on_star_point():
    g = random_quadratic_game(5, seed=3)
    star = quadratic_ne(g)
    X = np.tile(star, (5, 1))
    cfg = AdmmConfig(c=1.7, beta=0.9)
    assert m2_seminorm_distance(X, star, cfg, ring(5)) == 0.0


def test_m2_single_coordinate_perturbation():
    graph = path(3)
    cfg = AdmmConfig(c=1.3, beta=(2.0, 1.0, 0.5))
    star = np.array([0.4, -0.2, 1.0])
    delta = 0.37
    for i in range(3):
        X = np.tile(star, (3, 1))
        X[i, i] += delta
        want = 0.5 * (cfg.beta[i] + cfg.c * graph.degrees()[i]) * delta**2
        got = m2_seminorm_distance(X, star, cfg, graph)
        assert math.isclose(got, want, rel_tol=1e-12)


def test_m2_nonnegative_on_random_perturbations():
    rng = np.random.default_rng(12)
    cfg = AdmmConfig(c=0.8, beta=1.1)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        extra = min(int(rng.integers(0, 3)), max(0, n * (n - 3) // 2))
        g = random_connected_graph(n, extra, trial)
        star = rng.normal(size=n)
        X = np.tile(star, (n, 1)) + rng.normal(scale=2.0, size=(n, n))
        assert m2_seminorm_distance(X, star, cfg, g) >= 0.0


def test_m2_terminal_not_above_initial_on_converged_run():
    g = random_quadratic_game(5, seed=8)
    graph = ring(5)
    cfg = AdmmConfig(c=1.0, beta=1.0)
    star = quadratic_ne(g)
    res = run(g, graph, cfg)
    assert res.reason == "converged"
    x0_state = init_state(g, graph)
    start = m2_seminorm_distance(x0_state.X, star, cfg, graph)
    end = m2_seminorm_distance(res.state.X, star, cfg, graph)
    assert end <= start
    assert end < 1e-10
