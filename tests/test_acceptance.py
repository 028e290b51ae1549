"""Acceptance gate: one test per release criterion, run with pytest -v.

Each criterion is a standalone test function so the suite prints one pass/fail
line per criterion. Shared expensive artifacts (the converged congestion run,
the solver-vs-baseline race) are module or session fixtures.
"""

import copy
import json
import time

import numpy as np
import pytest

from nashadmm import (
    ActionBox,
    AdmmConfig,
    BaselineConfig,
    WanetGame,
    compare,
    complete,
    consensus_error,
    init_state,
    ne_residual,
    path,
    quadratic_ne,
    random_connected_graph,
    random_quadratic_game,
    ring,
    run,
)
from nashadmm import cli
from nashadmm.admm import _admm_plan

from oracles import (central_diff, charpoly_eigs, dual_w_matrix, grid_best_response,
                     init_dual_state, unsimplified_step)


# ------------------------------------------------------------------ fixtures

@pytest.fixture(scope="module")
def oracle_runs():
    """Five seeded 5-player quadratic runs with their linear-solve solutions."""
    graphs = [ring(5), complete(5), path(5),
              random_connected_graph(5, 2, 31), random_connected_graph(5, 4, 32)]
    out = []
    t0 = time.perf_counter()
    for s, graph in enumerate(graphs):
        game = random_quadratic_game(5, seed=100 + s)
        result = run(game, graph, AdmmConfig())
        out.append((game, graph, result, quadratic_ne(game)))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def wanet_forms(wanet_default):
    """Both algorithm forms run side by side for 1000 iterations."""
    game, graph = wanet_default
    cfg = AdmmConfig()
    s, step = init_state(game, graph), _admm_plan(game, graph, cfg)
    X, W = s.X[None], s.W[None]
    ds = init_dual_state(game, graph)
    dev200 = 0.0
    identity_max = 0.0
    for k in range(1, 1001):
        X, W = step(X, W, [0])
        ds = unsimplified_step(ds, game, graph, cfg)
        if k <= 200:
            dev200 = max(dev200, float(np.max(np.abs(X[0] - ds.X))))
        for e, u in ds.u.items():
            identity_max = max(identity_max, float(np.max(np.abs(u + ds.v[e]))))
    return dev200, identity_max


def _w_colsum_worst(game, graph, iters, stop_tol=None):
    s, step = init_state(game, graph), _admm_plan(game, graph, AdmmConfig())
    X, W = s.X[None], s.W[None]
    worst = float(np.max(np.abs(W[0].sum(axis=0))))
    for _ in range(iters):
        X, W = step(X, W, [0])
        worst = max(worst, float(np.max(np.abs(W[0].sum(axis=0)))))
        if stop_tol is not None:
            if (consensus_error(X[0], graph) <= stop_tol[0]
                    and ne_residual(np.diagonal(X[0]).copy(), game) <= stop_tol[1]):
                break
    return worst


@pytest.fixture(scope="module")
def two_player_runs():
    """Converged 2-player runs used for the grid best-response check."""
    quad = random_quadratic_game(2, seed=42)
    quad_res = run(quad, path(2), AdmmConfig())
    cong = WanetGame(capacities=np.array([10.0]), routes=[[0], [0]],
                     kappa=1.0, chi=2.0, eps_guard=1e-6)
    cong_res = run(cong, path(2), AdmmConfig())
    return [(quad, quad_res), (cong, cong_res)]


@pytest.fixture(scope="module")
def race(wanet_default):
    game, graph = wanet_default
    return compare(game, graph, AdmmConfig(), BaselineConfig(), tol=1e-4)


# ----------------------------------------------------------------- criteria

def test_criterion_01_oracle_convergence(oracle_runs):
    runs, elapsed = oracle_runs
    for game, graph, result, x_star in runs:
        assert result.reason == "converged"
        assert result.state.k <= 5000
        gap = float(np.max(np.abs(np.diagonal(result.state.X) - x_star)))
        assert gap <= 1e-6, f"oracle gap {gap} on graph {sorted(graph.edges)}"
    assert elapsed < 5.0, f"five runs took {elapsed:.2f}s"


def test_criterion_02_form_equivalence(wanet_forms):
    legs = [(random_quadratic_game(2, seed=42), path(2)),
            (random_quadratic_game(5, seed=17), ring(5))]
    cfg = AdmmConfig()
    for game, graph in legs:
        s, step = init_state(game, graph), _admm_plan(game, graph, cfg)
        X, W = s.X[None], s.W[None]
        ds = init_dual_state(game, graph)
        for _ in range(200):
            X, W = step(X, W, [0])
            ds = unsimplified_step(ds, game, graph, cfg)
            assert np.max(np.abs(X[0] - ds.X)) <= 1e-9
            assert np.max(np.abs(W[0] - dual_w_matrix(ds, graph))) <= 1e-9
    dev200, _ = wanet_forms
    assert dev200 <= 1e-9, f"congestion-instance form gap {dev200}"


def test_criterion_03_dual_identity(wanet_forms):
    _, identity_max = wanet_forms
    assert identity_max <= 1e-12, f"max |u+v| = {identity_max}"


def test_criterion_04_w_conservation(oracle_runs, wanet_default):
    runs, _ = oracle_runs
    for game, graph, result, _x in runs:
        assert _w_colsum_worst(game, graph, result.state.k) <= 1e-9
    game, graph = wanet_default
    worst = _w_colsum_worst(game, graph, 5000, stop_tol=(1e-8, 1e-6))
    assert worst <= 1e-9, f"congestion run W column-sum drift {worst}"
    for g, gr in [(random_quadratic_game(2, seed=42), path(2)),
                  (random_quadratic_game(5, seed=17), ring(5))]:
        assert _w_colsum_worst(g, gr, 200) <= 1e-9


def test_criterion_05_consensus_and_kkt(oracle_runs, wanet_run, two_player_runs):
    runs, _ = oracle_runs
    converged = [(game, graph, res) for game, graph, res, _x in runs]
    wres, wcfg = wanet_run
    for game, res in two_player_runs:
        converged.append((game, path(2), res))
    for game, graph, res in converged:
        assert res.reason == "converged"
        final = res.records[-1]
        assert final.consensus_error <= 1e-8
        assert final.ne_residual <= 1e-6
    assert wres.records[-1].consensus_error <= wcfg.tol_consensus
    assert wres.records[-1].ne_residual <= wcfg.tol_residual

    # terminal profiles of 2-player games beat every grid alternative
    for game, res in two_player_runs:
        prof = np.diagonal(res.state.X).copy()
        box = game.action_box
        for i in range(2):
            step = (box.upper[i] - box.lower[i]) / 2000.0
            best = grid_best_response(game, i, prof, points=2001)
            assert abs(prof[i] - best) <= step + 1e-12


def test_criterion_06_spectral_bounds():
    rng = np.random.default_rng(60)
    checked = small = 0
    for _ in range(100):
        n = int(rng.integers(2, 31))
        extra = min(int(rng.integers(0, 4)), max(0, n * (n - 3) // 2))
        g = random_connected_graph(n, extra, int(rng.integers(10_000)))
        assert g.lambda_min_d_plus_a() >= -1e-12
        checked += 1
        if n <= 6:
            exact_da = charpoly_eigs(g.d_plus_a())
            da = np.sort(np.linalg.eigvalsh(g.d_plus_a()))
            assert np.max(np.abs(da - exact_da)) <= 1e-8
            small += 1
    assert checked == 100 and small >= 5


def _check_own_gradients(game, X):
    """Row i of own_gradients(X) against a central difference of J_i and
    against the pseudo-gradient, both taken at player i's own row X[i]."""
    for i, g in enumerate(game.own_gradients(X)):
        fd = central_diff(lambda y: game.cost(i, y), X[i], i)
        assert abs(g - fd) <= 1e-6 * max(1.0, abs(g))
        assert abs(g - game.pseudo_gradient(X[i])[i]) <= 1e-12 * max(1.0, abs(g))


def test_criterion_07_gradient_validation(wanet_default):
    quad = random_quadratic_game(5, seed=123)
    rng = np.random.default_rng(124)
    for _ in range(100):
        # one independent profile per player
        X = rng.uniform(quad.action_box.lower * 0.8, quad.action_box.upper * 0.8, size=(5, 5))
        _check_own_gradients(quad, X)

    game, _ = wanet_default
    n = game.n_players
    rng = np.random.default_rng(125)
    count = 0
    while count < 100:
        X = rng.uniform(0.2, 1.8, size=(n, n))
        if float(np.min(game.residual_capacities(X))) < 0.5:
            continue
        count += 1
        _check_own_gradients(game, X)


def test_criterion_08_ordering_vs_baseline(race):
    assert race.admm_reason == "converged"
    assert race.ratio is not None
    assert race.ratio > 1.0, (
        f"ratio {race.ratio} (admm {race.admm_iterations}, "
        f"baseline {race.baseline_iterations} at gamma {race.baseline_gamma})")


def test_readme_figures(wanet_default, race):
    """The iteration counts the README quotes for the seed-7 instance, exactly."""
    game, graph = wanet_default
    result = run(game, graph, AdmmConfig())
    assert (result.reason, result.state.k) == ("converged", 2978)
    assert race.admm_iterations == 2004
    assert (race.baseline_gamma, race.baseline_iterations) == (0.02, 4723)


def test_criterion_09_congestion_trajectories(wanet_run):
    result, _cfg = wanet_run
    flows = np.stack([r.actions for r in result.records])
    assert float(flows.min()) >= 0.0 and float(flows.max()) <= 10.0
    last = flows[-100:]
    drift = float(np.max(np.abs(last - flows[-1])))
    assert drift <= 1e-6, f"tail drift {drift}"
    assert result.records[-1].guard_activations == 0


def test_criterion_10_determinism(tmp_path, capsys):
    cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
    cfg["admm"] = {"max_iter": 400, "record_every": 50}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    dirs = [tmp_path / s for s in ("a", "b")]
    rc1 = cli.main(["run", str(p), "--output-dir", str(dirs[0])])
    rc2 = cli.main(["run", str(p), "--output-dir", str(dirs[1])])
    capsys.readouterr()
    assert rc1 == rc2
    assert (dirs[0] / "trace.csv").read_bytes() == (dirs[1] / "trace.csv").read_bytes()
