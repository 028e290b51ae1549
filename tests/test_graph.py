import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashadmm import CommGraph, complete, path, random_connected_graph, ring
from nashadmm.cli import ConfigError, build_graph

from oracles import charpoly_eigs, neighbor_sums_loop, neighbors, random_graph_edges


def test_neighbors_ring():
    assert neighbors(ring(4), 0) == [1, 3]


def test_neighbors_complete():
    assert neighbors(complete(3), 1) == [0, 2]


def test_neighbors_path_interior():
    assert neighbors(path(3), 1) == [0, 2]


def test_no_self_loops():
    with pytest.raises(ValueError):
        CommGraph(3, frozenset({(1, 1)}))


def test_edge_normalization():
    g = CommGraph(3, frozenset({(2, 0), (0, 2), (1, 0)}))
    assert g.edges == frozenset({(0, 2), (0, 1)})


def test_is_connected_path():
    assert path(5).is_connected()


def test_is_connected_disjoint_edges():
    g = CommGraph(4, frozenset({(0, 1), (2, 3)}))
    assert not g.is_connected()


def test_is_connected_single_node():
    assert CommGraph(1, frozenset()).is_connected()


def test_lambda_min_complete2():
    # D+A = [[1,1],[1,1]], eigenvalues {0, 2}
    assert math.isclose(complete(2).lambda_min_d_plus_a(), 0.0, abs_tol=1e-10)


def test_lambda_min_complete3():
    # A of K3 has eigenvalues {2, -1, -1}; with D = 2I the spectrum is {4, 1, 1}
    assert math.isclose(complete(3).lambda_min_d_plus_a(), 1.0, abs_tol=1e-10)


def test_lambda_min_path3():
    # characteristic polynomial (1-l) l (l-3): bipartite graphs hit 0
    assert math.isclose(path(3).lambda_min_d_plus_a(), 0.0, abs_tol=1e-10)


def test_lambda_min_of_any_graph():
    # D + A is positive semidefinite on any graph, singular iff a component is bipartite
    for g, expected in [(CommGraph(4, frozenset({(0, 1), (2, 3)})), 0.0),
                        (CommGraph(6, frozenset({(0, 1), (1, 2), (0, 2),
                                                 (3, 4), (4, 5), (3, 5)})), 1.0),
                        (CommGraph(1), 0.0)]:
        exact = charpoly_eigs(g.d_plus_a().astype(int))[0]
        assert math.isclose(exact, expected, abs_tol=1e-12)
        assert math.isclose(g.lambda_min_d_plus_a(), exact, abs_tol=1e-10)


def test_random_graph_zero_chords_is_ring():
    assert random_connected_graph(4, 0, 123).edges == ring(4).edges


def test_random_graph_deterministic():
    a = random_connected_graph(16, 5, 7)
    b = random_connected_graph(16, 5, 7)
    assert a.edges == b.edges
    assert len(a.edges) == 16 + 5


def test_random_graph_two_nodes():
    assert random_connected_graph(2, 0, 0).edges == frozenset({(0, 1)})


def test_random_graph_too_many_chords():
    # 4 nodes: ring has 4 edges, K4 has 6, so only 2 chords exist
    with pytest.raises(ValueError):
        random_connected_graph(4, 3, 0)


def test_random_graph_matches_pair_list_construction():
    # the chord picked for each drawn index keeps the sorted pair list's order,
    # so rng.choice picks the same chords; n = 2 and 3 have no chords at all
    chords = {n: max(0, n * (n - 3) // 2) for n in range(2, 40)}
    cases = [(n, extra, seed) for n, top in chords.items() for seed in range(4)
             for extra in sorted({0, min(1, top), top // 2, top})]
    cases += [(200, 50, 3), (1000, 333, 0), (15, 5, 7)]
    for n, extra, seed in cases:
        assert random_connected_graph(n, extra, seed).edges == random_graph_edges(n, extra, seed)


def test_random_graph_draws_chords_without_a_pair_pool():
    # a pool of every vertex pair, built to draw from, peaks at 148 MB here
    n, extra, seed = 3000, 100, 0
    tracemalloc.start()
    try:
        edges = random_connected_graph(n, extra, seed).edges
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    i, j = np.triu_indices(n, 1)
    chord = (j - i > 1) & (j - i < n - 1)
    i, j = i[chord], j[chord]
    picks = np.random.default_rng(seed).choice(i.size, size=extra, replace=False)
    assert edges == ring(n).edges | set(zip(i[picks].tolist(), j[picks].tolist()))


def test_random_graph_always_connected():
    for seed in range(20):
        n = 2 + seed
        extra = min(seed % 4, max(0, n * (n - 3) // 2))
        g = random_connected_graph(n, extra, seed)
        assert g.is_connected()


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12), st.integers(0, 10), st.integers(0, 2**32 - 1))
def test_neighbor_symmetry(n, extra, seed):
    g = random_connected_graph(n, min(extra, max(0, n * (n - 3) // 2)), seed)
    for i in range(n):
        for j in neighbors(g, i):
            assert i in neighbors(g, j)


@pytest.mark.parametrize("graph", [
    ring(200), random_connected_graph(200, 400, 1), random_connected_graph(15, 5, 7),
    CommGraph(12, frozenset((0, j) for j in range(1, 12))), complete(30), CommGraph(3),
], ids=["ring200", "random200", "random15", "star12", "complete30", "edgeless3"])
def test_neighbor_sums_bitwise(graph):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((graph.n, graph.n))
    X[rng.random(X.shape) < 0.2] = -0.0
    # bytes, not values: -0.0 == 0.0, and the loop's sums of -0.0 alone are +0.0
    assert graph.neighbor_sums(X).tobytes() == neighbor_sums_loop(X, graph).tobytes()


@pytest.mark.parametrize("graph", [
    ring(200), random_connected_graph(15, 5, 7),
    CommGraph(12, frozenset((0, j) for j in range(1, 12))),
], ids=["ring200", "random15", "star12"])
def test_stacked_neighbor_sums_bitwise(graph):
    rng = np.random.default_rng(1)
    X = rng.standard_normal((3, graph.n, graph.n))
    X[rng.random(X.shape) < 0.2] = -0.0
    S = graph.neighbor_sums(X)
    assert S.shape == X.shape
    for g in range(3):
        assert S[g].tobytes() == neighbor_sums_loop(X[g], graph).tobytes()


def test_degree_adjacency_consistency():
    g = random_connected_graph(9, 4, 3)
    M = g.d_plus_a()
    assert np.array_equal(np.diagonal(M), g.degrees())
    indicator = [[float((min(i, j), max(i, j)) in g.edges) for j in range(9)] for i in range(9)]
    assert np.array_equal(M - np.diag(np.diagonal(M)), indicator)


def test_spectral_bounds_on_corpus():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(2, 31))
        max_extra = max(0, n * (n - 3) // 2)
        extra = int(rng.integers(0, max_extra + 1))
        g = random_connected_graph(n, extra, trial)
        assert g.lambda_min_d_plus_a() >= -1e-12


def test_eigs_match_charpoly_small_graphs():
    graphs = [complete(2), complete(3), path(3), ring(4), path(5), ring(6),
              random_connected_graph(5, 2, 1), random_connected_graph(6, 3, 2),
              random_connected_graph(4, 1, 9), random_connected_graph(6, 5, 4)]
    for g in graphs:
        lapack = np.sort(np.linalg.eigvalsh(g.d_plus_a()))
        exact = charpoly_eigs(g.d_plus_a().astype(int))
        assert np.max(np.abs(lapack - exact)) < 1e-8
        assert g.lambda_min_d_plus_a() == lapack[0]


def test_graph_from_config_forms():
    assert build_graph({"type": "ring", "n": 5}, 0, 5).edges == ring(5).edges
    assert build_graph({"type": "complete", "n": 4}, 0, 4).edges == complete(4).edges
    assert build_graph({"type": "path", "n": 3}, 0, 3).edges == path(3).edges
    r = build_graph({"type": "random", "n": 10, "extra_edges": 3, "seed": 5}, 0, 10)
    assert r.edges == random_connected_graph(10, 3, 5).edges
    assert build_graph({"type": "random", "n": 10, "extra_edges": 3}, 5, 10).edges == r.edges
    e = build_graph({"type": "explicit", "n": 3, "edges": [[0, 1], [1, 2]]}, 0, 3)
    assert e.edges == path(3).edges
    with pytest.raises(ConfigError):
        build_graph({"type": "torus", "n": 3}, 0, 3)
