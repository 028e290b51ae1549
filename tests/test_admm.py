import json
import math

import numpy as np
import pytest

from nashadmm import (
    ActionBox,
    AdmmConfig,
    CommGraph,
    GameModel,
    QuadraticGame,
    complete,
    condition_threshold,
    consensus_error,
    init_state,
    path,
    quadratic_ne,
    random_connected_graph,
    random_quadratic_game,
    ring,
    run,
)
from nashadmm import cli
from nashadmm.admm import _admm_plan
from nashadmm.loop import SettingError

from oracles import dual_w_matrix, init_dual_state, unsimplified_step


def make_pair(n=2):
    g = QuadraticGame([2.0] * n, np.zeros((n, n)), [-2.0] * n, ActionBox.cube(n, -10, 10))
    return g, path(n)


# ------------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(ValueError):
        AdmmConfig(c=0.0)
    with pytest.raises(ValueError):
        AdmmConfig(beta=(1.0, -1.0))
    with pytest.raises(ValueError):
        AdmmConfig(max_iter=-1)
    with pytest.raises(ValueError):
        AdmmConfig(tol_consensus=0.0)
    with pytest.raises(ValueError):
        AdmmConfig(record_every=0)


def test_config_beta_vector():
    assert np.array_equal(AdmmConfig(beta=2.0).beta_vector(3), [2.0, 2.0, 2.0])
    assert np.array_equal(AdmmConfig(beta=[1.0, 2.0]).beta_vector(2), [1.0, 2.0])
    with pytest.raises(ValueError):
        AdmmConfig(beta=[1.0, 2.0]).beta_vector(3)


# ------------------------------------------------------------- init_state

def test_init_state_broadcast():
    g, gr = make_pair()
    s = init_state(g, gr, np.array([0.5, -0.5]))
    assert np.array_equal(s.X, [[0.5, -0.5], [0.5, -0.5]])
    assert np.all(s.W == 0.0) and s.k == 0


def test_init_state_default_zeros():
    g, gr = make_pair()
    s = init_state(g, gr)
    assert np.all(s.X == 0.0)


def test_init_state_rows_verbatim():
    # every row holds the profile's bits (the sign of -0.0 too), in its own copy
    g, gr = make_pair()
    x0 = np.array([0.1, -0.0])
    s = init_state(g, gr, x0)
    assert s.X.tobytes() == np.stack([x0, x0]).tobytes()
    x0[0] = 99.0
    s.X[1, 0] = 7.0
    assert s.X[0, 0] == 0.1


def test_init_state_rejects_infeasible_x0():
    g, gr = make_pair()
    for bad in (100.0, np.nan):
        with pytest.raises(ValueError, match="coordinate 0 outside"):
            init_state(g, gr, np.array([bad, 0.0]))
        # the first bad coordinate is named
        with pytest.raises(ValueError, match="coordinate 1 outside"):
            init_state(g, gr, np.array([0.0, bad]))
    # a start is a profile: an n-by-n matrix is a wrong length, not a set of rows
    for shape in ((2, 2), (3,), (1,), ()):
        with pytest.raises(ValueError, match="must have 2 coordinates"):
            init_state(g, gr, np.zeros(shape))


def test_init_state_rejects_disconnected():
    g = QuadraticGame([1.0] * 4, np.zeros((4, 4)), [0.0] * 4, ActionBox.cube(4, -1, 1))
    gr = CommGraph(4, frozenset({(0, 1), (2, 3)}))
    with pytest.raises(ValueError):
        init_state(g, gr)


def test_init_state_rejects_single_player():
    g = QuadraticGame([1.0], np.zeros((1, 1)), [0.0], ActionBox.cube(1, -1, 1))
    with pytest.raises(ValueError):
        init_state(g, CommGraph(1, frozenset()))


def test_init_state_rejects_size_mismatch():
    g, _ = make_pair(2)
    with pytest.raises(ValueError):
        init_state(g, ring(3))


# ------------------------------------------------------------ the step
# The step advances a stack of states; each test steps a stack of one.

def test_step_fixed_point_at_consensus_ne():
    g = QuadraticGame([1.0, 1.0], np.zeros((2, 2)), [0.0, 0.0], ActionBox.cube(2, -1, 1))
    gr = path(2)
    s = init_state(g, gr)
    X, W = _admm_plan(g, gr, AdmmConfig())(s.X[None], s.W[None], [0])
    assert np.all(X == 0.0) and np.all(W == 0.0)


def test_step_consensus_rows_leave_w_unchanged():
    g = QuadraticGame([1.0] * 4, np.zeros((4, 4)), [0.0] * 4, ActionBox.cube(4, -5, 5))
    gr = ring(4)
    x = np.array([0.3, -0.2, 0.9, 0.1])
    s = init_state(g, gr, x)
    W0 = np.arange(16.0).reshape(1, 4, 4) / 10.0
    _, W = _admm_plan(g, gr, AdmmConfig(c=1.25))(s.X[None], W0, [0])
    assert np.array_equal(W, W0)


def test_step_hand_computed_two_player():
    g, gr = make_pair()
    s = init_state(g, gr)
    (X,), W = _admm_plan(g, gr, AdmmConfig(c=1.0, beta=1.0))(s.X[None], s.W[None], [0])
    # alpha = 3, proj[(2*0 - 0 - (-2) + 0)/3] = 2/3 on both diagonals
    assert X[0, 0] == 2.0 / 3.0 and X[1, 1] == 2.0 / 3.0
    assert np.all(W == 0.0)
    # off-diagonals pull to the neighbor's old estimate
    assert X[0, 1] == 0.0 and X[1, 0] == 0.0


def test_step_keeps_actions_in_box():
    g = QuadraticGame([1.0, 1.0], np.zeros((2, 2)), [-50.0, 50.0], ActionBox.cube(2, -1, 1))
    gr = path(2)
    s, step = init_state(g, gr), _admm_plan(g, gr, AdmmConfig())
    X, W = s.X[None], s.W[None]
    for _ in range(10):
        X, W = step(X, W, [0])
        d = np.diagonal(X[0])
        assert np.all(d >= -1.0) and np.all(d <= 1.0)
    # gradients with opposite signs pin the two actions at opposite bounds
    assert X[0, 0, 0] == 1.0 and X[0, 1, 1] == -1.0


def test_w_column_sums_stay_near_zero():
    g = random_quadratic_game(6, seed=4)
    gr = random_connected_graph(6, 3, 4)
    s, step = init_state(g, gr, np.linspace(-1, 1, 6)), _admm_plan(g, gr, AdmmConfig())
    X, W = s.X[None], s.W[None]
    for _ in range(300):
        X, W = step(X, W, [0])
        assert np.max(np.abs(W[0].sum(axis=0))) <= 1e-9


# ------------------------------------------------------- unsimplified form

def test_dual_identity_exact():
    g = random_quadratic_game(5, seed=1)
    gr = ring(5)
    ds = init_dual_state(g, gr, np.linspace(-2, 2, 5))
    cfg = AdmmConfig(c=0.7, beta=1.3)
    for _ in range(200):
        ds = unsimplified_step(ds, g, gr, cfg)
        for e, u in ds.u.items():
            assert np.all(u + ds.v[e] == 0.0)


def test_duals_stay_zero_from_consensus_start():
    g = QuadraticGame([1.0, 1.0], np.zeros((2, 2)), [0.0, 0.0], ActionBox.cube(2, -1, 1))
    gr = path(2)
    ds = init_dual_state(g, gr)
    for _ in range(5):
        ds = unsimplified_step(ds, g, gr, AdmmConfig())
        assert all(np.all(u == 0.0) for u in ds.u.values())


def test_forms_agree_and_w_reconstructs():
    g = random_quadratic_game(5, seed=6)
    gr = ring(5)
    cfg = AdmmConfig(c=1.4, beta=(0.5, 1.0, 2.0, 1.5, 0.8))
    s, step = init_state(g, gr, np.linspace(-1, 1, 5)), _admm_plan(g, gr, cfg)
    X, W = s.X[None], s.W[None]
    ds = init_dual_state(g, gr, np.linspace(-1, 1, 5))
    for k in range(200):
        X, W = step(X, W, [0])
        ds = unsimplified_step(ds, g, gr, cfg)
        assert np.max(np.abs(X[0] - ds.X)) <= 1e-9
        assert np.max(np.abs(W[0] - dual_w_matrix(ds, gr))) <= 1e-9


# -------------------------------------------------------------------- run

def test_run_zero_budget_returns_initial_state():
    g, gr = make_pair()
    res = run(g, gr, AdmmConfig(max_iter=0))
    assert res.reason == "iteration budget"
    assert res.state.k == 0
    assert len(res.records) == 1 and res.records[0].k == 0


def test_run_reaches_oracle_ne():
    g = QuadraticGame([2.0, 2.0], [[0.0, 1.0], [1.0, 0.0]], [-3.0, -3.0],
                      ActionBox.cube(2, -10, 10))
    gr = path(2)
    res = run(g, gr, AdmmConfig())
    assert res.reason == "converged"
    assert np.max(np.abs(np.diagonal(res.state.X) - quadratic_ne(g))) <= 1e-6


def test_run_divergence_reported_with_iteration():
    class PoisonGame(GameModel):
        n_players = 2
        action_box = ActionBox.cube(2, -10, 10)

        def cost(self, i, x):
            return 0.0

        def own_gradients(self, X):
            return np.where(np.diagonal(X, axis1=-2, axis2=-1) > 0.25, np.nan, -1.0)

    res = run(PoisonGame(), path(2), AdmmConfig(max_iter=50), x0=np.zeros(2))
    # state.k is the first iteration that went non-finite, and the last record's
    assert res.reason == "diverged"
    assert res.state.k >= 1 and res.records[-1].k == res.state.k
    assert not np.isfinite(res.state.X).all()
    assert res.records[-2].k == res.state.k - 1 and np.isfinite(res.records[-2].actions).all()


def test_run_record_schedule():
    g, gr = make_pair()
    # tolerance nobody reaches: runs the full budget
    cfg = AdmmConfig(max_iter=40, record_every=10, tol_consensus=1e-30, tol_residual=1e-30)
    res = run(g, gr, cfg)
    assert res.reason == "iteration budget"
    assert [r.k for r in res.records] == [0, 10, 20, 30, 40]
    assert len(res.records) == 40 // 10 + 1
    # a final iteration off the sampling grid is still recorded
    cfg2 = AdmmConfig(max_iter=45, record_every=10, tol_consensus=1e-30, tol_residual=1e-30)
    assert [r.k for r in run(g, gr, cfg2).records] == [0, 10, 20, 30, 40, 45]


def test_converged_run_collapses_consensus_all_pairs():
    g = random_quadratic_game(6, seed=13)
    gr = random_connected_graph(6, 2, 13)
    cfg = AdmmConfig()
    res = run(g, gr, cfg)
    assert res.reason == "converged"
    assert consensus_error(res.state.X, gr) <= cfg.tol_consensus
    worst = max(np.max(np.abs(res.state.X[i] - res.state.X[j]))
                for i in range(6) for j in range(6))
    assert worst <= 6 * cfg.tol_consensus


def test_run_deterministic_repeat():
    g = random_quadratic_game(5, seed=21)
    gr = ring(5)
    a = run(g, gr, AdmmConfig(max_iter=150))
    b = run(g, gr, AdmmConfig(max_iter=150))
    assert np.array_equal(a.state.X, b.state.X)
    assert np.array_equal(a.state.W, b.state.W)
    assert [r.k for r in a.records] == [r.k for r in b.records]
    assert all(np.array_equal(ra.actions, rb.actions)
               for ra, rb in zip(a.records, b.records))


# ----------------------------------------------- convergence-condition check

def test_check_condition_complete3():
    # complete(3) at c = beta = 1: lambda_min(D + A) = 1, so 1 / (2 (1 + 1))
    th = condition_threshold(AdmmConfig(c=1.0, beta=1.0), complete(3))
    assert math.isclose(th, 0.25, abs_tol=1e-12)
    assert math.isclose(0.3 - th, 0.05, abs_tol=1e-12)


def test_check_condition_path3_threshold_ignores_c():
    for c in (0.1, 1.0, 7.0):
        th = condition_threshold(AdmmConfig(c=c, beta=1.0), path(3))
        assert math.isclose(th, 0.5, abs_tol=1e-12)


def test_check_condition_strict_at_equality(tmp_path, capsys):
    # check judges sigma_F = threshold, read back from its own report, as violated
    cfg = {"seed": 0, "graph": {"type": "complete", "n": 3},
           "game": {"type": "quadratic", "a": [2.0] * 3, "B": np.zeros((3, 3)).tolist(),
                    "d": [0.0] * 3, "box": {"lower": -1, "upper": 1}}}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    assert cli.main(["check", str(config)]) == 0
    th = dict(l.split("=") for l in capsys.readouterr().out.splitlines())["threshold"]
    assert abs(float(th) - 0.25) <= 1e-12
    assert cli.main(["check", str(config), "--sigma-f", th]) == 0
    out = capsys.readouterr().out
    assert "condition_satisfied=false\nmargin=0.0\n" in out


def test_check_condition_requires_positive_sigma():
    # the threshold is positive and finite on every graph the gate accepts, bipartite
    # ones included, so a sigma_F <= 0 never satisfies the condition
    for graph in (complete(3), path(3), ring(4), ring(5), random_connected_graph(8, 3, 1)):
        for c in (0.1, 1.0, 7.0):
            assert 0.0 < condition_threshold(AdmmConfig(c=c, beta=0.5), graph) < np.inf


def test_check_condition_rejects_disconnected():
    # condition_threshold applies the input gate's graph rule, with its reasons
    for graph, reason in [
        (CommGraph(4, frozenset({(0, 1), (2, 3)})),
         "connectivity assumption violated (communication graph is not connected)"),
        (CommGraph(1), "needs at least 2 nodes (a single-player game is plain minimization)"),
    ]:
        with pytest.raises(SettingError) as exc:
            condition_threshold(AdmmConfig(), graph)
        assert (exc.value.field, exc.value.reason) == ("graph", reason)
