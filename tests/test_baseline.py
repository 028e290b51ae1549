from dataclasses import replace

import numpy as np
import pytest

from nashadmm import (
    ActionBox,
    AdmmConfig,
    BaselineConfig,
    QuadraticGame,
    compare,
    complete,
    default_wanet_instance,
    init_state,
    path,
    quadratic_ne,
    random_connected_graph,
    random_quadratic_game,
    ring,
    run_baseline,
)
from nashadmm.baseline import _baseline_plan
from nashadmm.loop import SettingError

from oracles import neighbor_sums_loop, reference_baseline_step, seeded_states


def decoupled(n=2, a=1.0, d=-1.0, half=10.0):
    return QuadraticGame([a] * n, np.zeros((n, n)), [d] * n, ActionBox.cube(n, -half, half))


def test_config_validation():
    with pytest.raises(ValueError):
        BaselineConfig(sweep=(0.0,))
    with pytest.raises(ValueError):
        BaselineConfig(sweep=(0.1, -0.2))
    with pytest.raises(ValueError, match="at least one step size"):
        BaselineConfig(sweep=())
    with pytest.raises(ValueError):
        BaselineConfig(record_every=0)
    with pytest.raises(TypeError):
        BaselineConfig(gamma=0.1)  # the sweep is the one step-size setting
    for sweep in (0.1, [[0.1, 0.2]]):
        with pytest.raises(SettingError) as exc:
            BaselineConfig(sweep=sweep)
        assert (exc.value.field, exc.value.reason) == ("sweep", "must be a list of step sizes")
    for field in ("max_iter", "record_every"):
        with pytest.raises(SettingError, match=f"^{field} must be an integer"):
            BaselineConfig(**{field: 2.5})
    assert BaselineConfig(sweep=[1, 0.5]).sweep == (1.0, 0.5)
    for sweep in ([True], ["0.1"], [None], [0.1, [0.2]]):
        with pytest.raises(SettingError) as exc:
            BaselineConfig(sweep=sweep)
        assert (exc.value.field, exc.value.reason) == ("sweep", "must be a list of step sizes")
    assert BaselineConfig(sweep=np.array([0.2, 0.1]), tol_consensus=1).sweep == (0.2, 0.1)


@pytest.mark.parametrize("gamma", [float("inf"), float("nan")])
def test_config_rejects_a_non_finite_step_size(gamma):
    with pytest.raises(SettingError, match="sweep step sizes must be positive and finite"):
        BaselineConfig(sweep=(0.1, gamma))


# ------------------------------------------------------------ the step
# The step advances a stack of estimate matrices in place; each test steps a
# stack of one.

def step_once(X, game, graph, gamma):
    X_new = X[None].copy()
    S, T = np.empty_like(X_new), np.empty_like(X_new)
    _baseline_plan(game, graph, (gamma,))(X_new, None, S, T, [0], game.own_gradients(X_new))
    return X_new[0]


def averaged(X, graph):
    """The step's off-diagonal entries, and the average (self included) built
    from the per-node neighbour sums, whose off-diagonal entries they must be."""
    off = ~np.eye(graph.n, dtype=bool)
    avg = (neighbor_sums_loop(X, graph) + X) / (graph.degrees()[:, None] + 1.0)
    return step_once(X, decoupled(graph.n), graph, 0.1)[off], avg, off


def test_neighbor_average_hand_example():
    X = np.array([[0.0, 3.0], [6.0, 9.0]])
    step_off, avg, off = averaged(X, path(2))
    assert np.array_equal(avg, [[3.0, 6.0], [3.0, 6.0]])
    assert np.array_equal(step_off, avg[off])


def test_neighbor_average_preserves_column_sums_on_regular_graph():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(4, 4))
    step_off, avg, off = averaged(X, ring(4))
    assert np.array_equal(step_off, avg[off])
    assert np.max(np.abs(avg.sum(axis=0) - X.sum(axis=0))) <= 1e-12


def test_neighbor_average_is_convex_combination():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        extra = min(int(rng.integers(0, 3)), max(0, n * (n - 3) // 2))
        g = random_connected_graph(n, extra, int(rng.integers(1000)))
        X = rng.normal(size=(n, n))
        step_off, avg, off = averaged(X, g)
        assert np.array_equal(step_off, avg[off])
        assert np.all(step_off <= X.max() + 1e-12) and np.all(step_off >= X.min() - 1e-12)


def test_step_fixed_point_at_consensus_ne():
    game = decoupled()
    g = path(2)
    X = init_state(game, g, np.ones(2)).X
    assert np.array_equal(step_once(X, game, g, 0.05), X)


def test_step_exact_gradient_move_from_consensus():
    game = decoupled()
    g = path(2)
    X1 = step_once(init_state(game, g).X, game, g, 0.5)
    # own coordinate: 0 - 0.5 * (0 - 1) = 0.5, exact in floats
    assert X1[0, 0] == 0.5 and X1[1, 1] == 0.5
    assert X1[0, 1] == 0.0 and X1[1, 0] == 0.0


def test_step_projects_into_box():
    game = QuadraticGame([1.0, 1.0], np.zeros((2, 2)), [-50.0, 50.0],
                         ActionBox.cube(2, -1, 1))
    g = path(2)
    X = init_state(game, g).X
    for _ in range(5):
        X = step_once(X, game, g, 0.2)
        d = np.diagonal(X)
        assert np.all(d >= -1.0) and np.all(d <= 1.0)
    assert X[0, 0] == 1.0 and X[1, 1] == -1.0


# the scalar path (every degree equal) and the column path, and a stack that
# loses a member, as the loop drops a diverged one
_REFERENCE_CASES = {
    "ring200": lambda: (random_quadratic_game(200, 0), ring(200), (0.05,)),
    "wanet7": lambda: (*default_wanet_instance(7), (0.1,)),
    "path9-stack-drop": lambda: (random_quadratic_game(9, 4), path(9), (0.2, 0.6, 0.05)),
    # deg + 1 = 4, a power of two: multiplied by its reciprocal
    "complete4": lambda: (random_quadratic_game(4, 6), complete(4), (0.1,)),
}


@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
def test_step_is_the_reference_step_bit_for_bit(case):
    game, graph, gammas = _REFERENCE_CASES[case]()
    m = len(gammas)
    X = seeded_states(m, graph.n, seed=len(case), nan_member=1 if m > 1 else None)[0]
    Xr = X.copy()
    step, live = _baseline_plan(game, graph, gammas), list(range(m))
    S, T = np.empty_like(X), np.empty_like(X)
    for k in range(300):
        if k == 150 and m > 1:  # member 1, whose NaN has spread, leaves the stack
            live = [0, 2]
            X, Xr, S, T = X[live], Xr[live], S[:2], T[:2]
        step(X, None, S, T, live, game.evaluate(X)[0])
        Xr = reference_baseline_step(Xr, game.evaluate(Xr)[0], game, graph,
                                     [gammas[g] for g in live])
        assert X.tobytes() == Xr.tobytes(), k
    assert np.isfinite(X).all()


def test_run_baseline_reaches_oracle_ne():
    game = QuadraticGame([2.0, 2.0], [[0.0, 1.0], [1.0, 0.0]], [-3.0, -3.0],
                         ActionBox.cube(2, -10, 10))
    (res,) = run_baseline(game, path(2), BaselineConfig(sweep=(0.1,)))
    assert res.reason == "converged"
    assert np.max(np.abs(np.diagonal(res.state.X) - quadratic_ne(game))) <= 1e-5


def test_run_baseline_flags_unstable_step_size():
    # gamma=1.0 with curvature 30 oscillates between the box faces forever
    game = decoupled(a=30.0, d=-30.0)
    (res,) = run_baseline(game, path(2), BaselineConfig(sweep=(1.0,), max_iter=200))
    assert res.reason == "iteration budget"


def test_compare_on_quadratic_game():
    game = random_quadratic_game(5, seed=11)
    graph = ring(5)
    rep = compare(game, graph, AdmmConfig(), BaselineConfig(), tol=1e-5)
    assert rep.admm_reason == "converged" and rep.baseline_reason == "converged"
    assert rep.baseline_gamma in BaselineConfig().sweep
    assert len(rep.sweep_results) == len(BaselineConfig().sweep)
    converged = [(g, it) for g, r, it in rep.sweep_results if r == "converged"]
    assert converged
    assert rep.baseline_iterations == min(it for _, it in converged)
    assert rep.ratio == rep.baseline_iterations / rep.admm_iterations


def test_compare_infinite_ratio_when_baseline_never_converges():
    game = decoupled(a=2.0, d=-2.0)
    base = BaselineConfig(sweep=(1.0,), max_iter=300)
    rep = compare(game, path(2), AdmmConfig(), base, tol=1e-6)
    assert rep.admm_reason == "converged"
    assert rep.baseline_reason == "iteration budget"
    assert rep.ratio == float("inf")
    assert rep.baseline_iterations is None and rep.baseline_gamma is None


class CappedGame(QuadraticGame):
    """A quadratic game whose gradient turns NaN once an own action passes 9.5,
    so a step size that overshoots diverges instead of bouncing off the box."""

    def own_gradients(self, X):
        X = np.asarray(X, dtype=float)
        return np.where(np.abs(X.diagonal(0, -2, -1)) > 9.5, np.nan, super().own_gradients(X))


def _capped_problem():
    q = random_quadratic_game(6, seed=4)
    cfg = BaselineConfig(max_iter=1500, tol_consensus=1e-6, tol_residual=1e-6)
    return CappedGame(q.a, q.B, q.d, q.action_box), random_connected_graph(6, 2, 13), cfg


def _bits(result):
    """Everything a run reports, as bytes where it is an array or a float."""
    records = [(r.k, r.actions.tobytes(), np.array([r.consensus_error, r.ne_residual]).tobytes(),
                r.guard_activations) for r in result.records]
    return records, result.state.X.tobytes(), result.state.k, result.reason


def test_stacked_sweep_matches_separate_runs():
    game, graph, cfg = _capped_problem()
    gammas = (0.2, 0.6, 0.05, 0.002, 0.1)
    runs = run_baseline(game, graph, replace(cfg, sweep=gammas))
    assert [r.reason for r in runs] == ["converged", "diverged", "converged",
                                        "iteration budget", "converged"]
    for g, stacked in zip(gammas, runs):
        alone = run_baseline(game, graph, replace(cfg, sweep=(g,)))[0]
        assert _bits(stacked) == _bits(alone)
        # and record 3 is three steps of the plan, applied to this member alone
        X = init_state(game, graph).X
        for _ in range(3):
            X = step_once(X, game, graph, g)
        assert stacked.records[3].actions.tobytes() == np.diagonal(X).tobytes()


def test_dropping_a_member_keeps_the_others_bits():
    game, graph, cfg = _capped_problem()
    runs = run_baseline(game, graph, replace(cfg, sweep=(0.2, 0.6, 0.05)))
    # the diverging member leaves the stack at iteration 4, the others go on
    assert runs[1].reason == "diverged" and runs[1].state.k == 4 < runs[0].state.k
    without = run_baseline(game, graph, replace(cfg, sweep=(0.2, 0.05)))
    assert [_bits(r) for r in without] == [_bits(runs[0]), _bits(runs[2])]


def test_run_baseline_result_keeps_a_zero_dual():
    game = decoupled()
    (res,) = run_baseline(game, path(2), BaselineConfig(sweep=(0.1,)))
    assert res.state.W.shape == (2, 2) and not res.state.W.any()


def test_compare_rejects_a_bad_beta_before_sweeping():
    game = random_quadratic_game(5, seed=11)
    base = BaselineConfig(sweep=(0.1,), max_iter=10**9)  # a sweep that would not end soon
    with pytest.raises(ValueError, match="beta has 2 entries for 5 players"):
        compare(game, ring(5), AdmmConfig(beta=(1.0, 2.0)), base, tol=1e-30)


def test_compare_rejects_an_overflowing_c_before_sweeping():
    game = random_quadratic_game(5, seed=11)
    base = BaselineConfig(sweep=(0.1,), max_iter=10**9)
    with pytest.raises(SettingError) as exc:
        compare(game, ring(5), AdmmConfig(c=1e308), base, tol=1e-30)
    assert exc.value.field == "c"


@pytest.mark.parametrize("tol, reason", [(0.0, "must be positive"), (-1e-4, "must be positive"),
                                         (float("nan"), "must be positive"),
                                         (float("inf"), "must be finite"),
                                         ("1e-4", "must be a number")])
def test_compare_names_its_own_tolerance_before_sweeping(tol, reason):
    game = random_quadratic_game(5, seed=11)
    base = BaselineConfig(sweep=(0.1,), max_iter=10**9)  # a sweep that would not end soon
    with pytest.raises(SettingError) as exc:
        compare(game, ring(5), AdmmConfig(), base, tol=tol)
    assert (exc.value.field, exc.value.reason) == ("tol", reason)


@pytest.mark.parametrize("config", [AdmmConfig, BaselineConfig])
@pytest.mark.parametrize("field", ["tol_consensus", "tol_residual"])
def test_a_tolerance_must_be_finite(config, field):
    # an infinite tolerance would report "converged" at k = 1; zero, negative
    # and NaN keep the positivity reason
    for value, reason in [(float("inf"), "must be finite"), (0.0, "must be positive"),
                          (-1.0, "must be positive"), (float("nan"), "must be positive")]:
        with pytest.raises(SettingError) as exc:
            config(**{field: value})
        assert (exc.value.field, exc.value.reason) == (field, reason)
