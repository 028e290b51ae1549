import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    default_wanet_instance,
    init_state,
    path,
    quadratic_ne,
    random_connected_graph,
    random_quadratic_game,
    ring,
    run,
)
from nashadmm import cli
from nashadmm.admm import _admm_plan, _divisor
from nashadmm.baseline import _baseline_plan
from nashadmm.loop import SettingError

from oracles import (dual_w_matrix, init_dual_state, reference_admm_step, seeded_states,
                     unsimplified_step)

ROOT = Path(__file__).resolve().parent.parent


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
    # a count is an integer: no fraction, no bool, no float however whole
    for field, value in [("max_iter", 2.5), ("max_iter", True), ("max_iter", 3.0),
                         ("record_every", 2.5), ("record_every", True), ("max_iter", "5")]:
        with pytest.raises(SettingError) as exc:
            AdmmConfig(**{field: value})
        assert (exc.value.field, exc.value.reason) == (field, "must be an integer")
    assert AdmmConfig(max_iter=np.int64(7), record_every=np.int32(2)).max_iter == 7
    for beta in ([[1.0]], [[1.0, 2.0]]):
        with pytest.raises(SettingError, match="^beta "):
            AdmmConfig(beta=beta)
    # a float setting is a real number: no bool, string, None or ragged list
    for field, value in [("c", True), ("beta", True), ("tol_residual", True), ("c", "1"),
                         ("tol_consensus", "x"), ("tol_consensus", None), ("beta", [1.0, [2.0]]),
                         ("beta", "abc"), ("beta", [1.0, True]), ("c", 10**400)]:
        with pytest.raises(SettingError) as exc:
            AdmmConfig(**{field: value})
        assert exc.value.field == field
    cfg = AdmmConfig(c=np.float32(0.5), beta=[1, np.int64(2)], tol_residual=np.float64(1e-3))
    assert (cfg.c, cfg.beta, cfg.tol_residual) == (0.5, (1.0, 2.0), 1e-3)


def test_config_beta_vector():
    assert np.array_equal(AdmmConfig(beta=2.0).beta_vector(3), [2.0, 2.0, 2.0])
    assert np.array_equal(AdmmConfig(beta=[1.0, 2.0]).beta_vector(2), [1.0, 2.0])
    with pytest.raises(ValueError):
        AdmmConfig(beta=[1.0, 2.0]).beta_vector(3)


@pytest.mark.parametrize("c, beta", [(1e308, 1.0), (0.6e308, 1.0), (1e307, 1.7e308)],
                         ids=["2c-overflows", "2c-deg-overflows", "alpha-overflows"])
def test_run_rejects_a_c_whose_step_weights_overflow(c, beta):
    # on ring(4) every degree is 2: 2c = 1.2e308 is finite, 2c * 2 is not
    game, graph = random_quadratic_game(4, seed=2), ring(4)
    with pytest.raises(SettingError) as exc:
        run(game, graph, AdmmConfig(c=c, beta=beta, max_iter=5))
    assert (exc.value.field, exc.value.reason) == ("c", "must keep beta + 2c * degree finite")
    assert run(game, graph, AdmmConfig(c=1e300, max_iter=5)).state.k == 5


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
# The step advances a stack of states in place; each test steps a stack of one.

def scratch(X):
    """The two scratch arrays the loop hands the step, for a stack shaped like X."""
    return np.empty_like(X), np.empty_like(X)


def test_step_fixed_point_at_consensus_ne():
    g = QuadraticGame([1.0, 1.0], np.zeros((2, 2)), [0.0, 0.0], ActionBox.cube(2, -1, 1))
    gr = path(2)
    s = init_state(g, gr)
    X, W = s.X[None], s.W[None]
    _admm_plan(g, gr, AdmmConfig())(X, W, *scratch(X), [0], g.own_gradients(s.X))
    assert np.all(X == 0.0) and np.all(W == 0.0)


def test_step_consensus_rows_leave_w_unchanged():
    g = QuadraticGame([1.0] * 4, np.zeros((4, 4)), [0.0] * 4, ActionBox.cube(4, -5, 5))
    gr = ring(4)
    x = np.array([0.3, -0.2, 0.9, 0.1])
    s = init_state(g, gr, x)
    W0 = np.arange(16.0).reshape(1, 4, 4) / 10.0
    step, X, W = _admm_plan(g, gr, AdmmConfig(c=1.25)), s.X[None], W0.copy()
    step(X, W, *scratch(X), [0], g.own_gradients(s.X))
    assert np.array_equal(W, W0)


def test_step_hand_computed_two_player():
    g, gr = make_pair()
    s = init_state(g, gr)
    X, W = s.X, s.W[None]  # the stack of one is a view of X
    _admm_plan(g, gr, AdmmConfig(c=1.0, beta=1.0))(
        X[None], W, *scratch(W), [0], g.own_gradients(s.X))
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
    S, T = scratch(X)
    for _ in range(10):
        step(X, W, S, T, [0], g.own_gradients(X))
        d = np.diagonal(X[0])
        assert np.all(d >= -1.0) and np.all(d <= 1.0)
    # gradients with opposite signs pin the two actions at opposite bounds
    assert X[0, 0, 0] == 1.0 and X[0, 1, 1] == -1.0


def test_w_column_sums_stay_near_zero():
    g = random_quadratic_game(6, seed=4)
    gr = random_connected_graph(6, 3, 4)
    s, step = init_state(g, gr, np.linspace(-1, 1, 6)), _admm_plan(g, gr, AdmmConfig())
    X, W = s.X[None], s.W[None]
    S, T = scratch(X)
    for _ in range(300):
        step(X, W, S, T, [0], g.own_gradients(X))
        assert np.max(np.abs(W[0].sum(axis=0))) <= 1e-9


def _both_steps(g, gr, s):
    """Each solver's step, a stack of one at state s (W None for the baseline) and scratch."""
    for step, W in ((_admm_plan(g, gr, AdmmConfig()), s.W[None].copy()),
                    (_baseline_plan(g, gr, (0.05,)), None)):
        X = s.X[None].copy()
        yield (step, X, W, *scratch(X))


def test_steady_state_step_allocates_no_matrix():
    n = 200
    g, gr = random_quadratic_game(n, seed=0), ring(n)
    s = init_state(g, gr, np.linspace(-1, 1, n))
    for step, X, W, S, T in _both_steps(g, gr, s):
        tracemalloc.start()
        try:
            for _ in range(2):  # the graph builds its gather indices on the first step
                step(X, W, S, T, [0], g.own_gradients(X))
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                step(X, W, S, T, [0], g.own_gradients(X))
            grown = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # fresh arrays per step would grow it by at least one n-by-n matrix
        assert grown < n * n * 8


def test_first_step_keeps_no_matrix():
    # the loop owns the scratch arrays, and the new X goes over the old
    n = 200
    g, gr = random_quadratic_game(n, seed=0), ring(n)
    s = init_state(g, gr, np.linspace(-1, 1, n))
    gr.neighbor_sums(s.X, *scratch(s.X))  # the graph builds its gather indices once
    for step, X, W, S, T in _both_steps(g, gr, s):
        grads = g.own_gradients(X)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            returned = step(X, W, S, T, [0], grads)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # a plan holding its own scratch would keep two n-by-n matrices; not even a row
        assert kept < n * 8
        assert returned is None


def test_run_peaks_at_six_matrices():
    # X, W, the loop's two scratch arrays and the result's copies of X and W:
    # measured at 6.048 n-by-n arrays
    n = 200
    game, graph = random_quadratic_game(n, 0), ring(n)
    cfg = AdmmConfig(max_iter=100, record_every=100, tol_consensus=1e-30, tol_residual=1e-30)
    run(game, graph, cfg)
    tracemalloc.start()
    try:
        run(game, graph, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.05 * n * n * 8


# the scalar path (every degree equal) and the column path, and a stack that
# loses a member, as the loop drops a diverged one; ring200-defaults and
# complete5 have every divisor a power of two, multiplied by its reciprocal,
# ring200-defaults at c = 1, where the scaling by c is skipped
_REFERENCE_CASES = {
    "ring200": lambda: (random_quadratic_game(200, 0), ring(200),
                        AdmmConfig(c=0.7, beta=tuple(np.linspace(0.5, 2.0, 200))), 1),
    "complete8": lambda: (random_quadratic_game(8, 3), complete(8),
                          AdmmConfig(c=1.3, beta=tuple(np.linspace(0.2, 3.0, 8))), 1),
    "wanet7": lambda: (*default_wanet_instance(7), AdmmConfig(), 1),
    "path9": lambda: (random_quadratic_game(9, 4), path(9), AdmmConfig(c=0.4, beta=2.5), 1),
    "stack-drop": lambda: (random_quadratic_game(10, 5), ring(10),
                           AdmmConfig(beta=tuple(np.linspace(0.5, 1.5, 10))), 3),
    "ring200-defaults": lambda: (random_quadratic_game(200, 0), ring(200), AdmmConfig(), 1),
    "complete5": lambda: (random_quadratic_game(5, 6), complete(5), AdmmConfig(c=0.5), 1),
}


@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
def test_step_is_the_reference_step_bit_for_bit(case):
    game, graph, cfg, m = _REFERENCE_CASES[case]()
    X, W = seeded_states(m, graph.n, seed=len(case), nan_member=1 if m > 1 else None)
    Xr, Wr = X.copy(), W.copy()
    step, live, (S, T) = _admm_plan(game, graph, cfg), list(range(m)), scratch(X)
    for k in range(300):
        if k == 150 and m > 1:  # member 1, whose NaN has spread, leaves the stack
            live = [0, 2]
            X, W, Xr, Wr, S, T = X[live], W[live], Xr[live], Wr[live], S[:2], T[:2]
        step(X, W, S, T, live, game.evaluate(X)[0])
        Xr, Wr = reference_admm_step(Xr, Wr, game.evaluate(Xr)[0], game, graph, cfg)
        assert (X.tobytes(), W.tobytes()) == (Xr.tobytes(), Wr.tobytes()), k
    assert np.isfinite(X).all() and np.isfinite(W).all()


_COLUMN = np.array([[1.0], [2.0**-3], [2.0**20]])


@pytest.mark.parametrize("d, exact", [
    (2.0, True), (4.0, True), (2.0**-3, True), (2.0**20, True), (1.0, True),
    (2.0**1023, True),  # its reciprocal is subnormal, and exact
    (3.0, False), (0.5 + 2.0**-53, False), (0.0, False), (np.inf, False), (np.nan, False),
    (2.0**-1074, False),  # its reciprocal overflows
    (_COLUMN, True), (2.0 * _COLUMN, True),
    (np.array([[2.0], [3.0], [4.0]]), False), (np.array([[4.0], [4.0], [6.0]]), False),
])
def test_divisor_multiplies_exactly_where_every_value_is_a_power_of_two(d, exact):
    op, arg = _divisor(d)
    assert op is (np.multiply if exact else np.divide)
    tiny, big = np.finfo(float).smallest_subnormal, np.finfo(float).max
    data = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, 2.0**-1022, np.inf, -np.inf, np.nan,
                     1.0, -3.0, 0.1, 7.3e-300, big, -big, np.pi])
    data = np.concatenate([data, np.random.default_rng(0).normal(0.0, 1e3, 16)])
    data = np.broadcast_to(data, (3, data.size))
    with np.errstate(all="ignore"):
        assert op(data, arg, out=np.empty_like(data)).tobytes() == np.divide(data, d).tobytes()


_FAULTS_PER_ITERATION = """
import resource, sys
import numpy as np
from nashadmm import AdmmConfig, random_quadratic_game, ring, run
game, graph = random_quadratic_game(200, 0), ring(200)
cfg = AdmmConfig(max_iter=300, record_every=300, tol_consensus=1e-30, tol_residual=1e-30)
run(game, graph, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
res = run(game, graph, cfg)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / res.state.k)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt is read on Linux")
def test_second_solve_takes_almost_no_page_faults():
    pytest.importorskip("resource")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _FAULTS_PER_ITERATION], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # fresh n-by-n arrays from malloc take about 60 faults an iteration; the
    # plan's first touch of its own two arrays costs about 1 an iteration here
    assert float(proc.stdout) < 5


# The peak resident set in KB. ru_maxrss would also carry the peak of the
# process that started this one (the test runner), which hides a few MB here;
# VmHWM belongs to this process image alone.
_PEAK_GROWTH = """
import gc
gc.disable()  # what a reference cycle holds stays held, however short the solve
from nashadmm import AdmmConfig, random_quadratic_game, ring, run
def peak():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
game, graph = random_quadratic_game(200, 0), ring(200)
cfg = AdmmConfig(max_iter=100, record_every=100, tol_consensus=1e-30, tol_residual=1e-30)
run(game, graph, cfg)
before = peak()
for _ in range(3):
    run(game, graph, cfg)
print(peak() - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM is read on Linux")
def test_back_to_back_solves_keep_peak_memory_flat():
    """A finished solve leaves nothing behind: a step caught in a reference
    cycle with the loop's two scratch arrays would hold them (640 KB at
    n = 200) until the garbage collector runs, and each solve would raise the
    peak by that."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _PEAK_GROWTH], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 640  # KB: one solve's scratch arrays, over three solves


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
    S, T = scratch(X)
    ds = init_dual_state(g, gr, np.linspace(-1, 1, 5))
    for k in range(200):
        step(X, W, S, T, [0], g.own_gradients(X))
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


class PoisonGame(GameModel):
    """Gradient -1 until an action passes 0.25, NaN from then on."""

    n_players = 2
    action_box = ActionBox.cube(2, -10, 10)

    def cost(self, i, x):
        return 0.0

    def own_gradients(self, X):
        return np.where(np.diagonal(X, axis1=-2, axis2=-1) > 0.25, np.nan, -1.0)


def test_run_divergence_reported_with_iteration():
    res = run(PoisonGame(), path(2), AdmmConfig(max_iter=50), x0=np.zeros(2))
    # state.k is the first iteration that went non-finite, and the last record's
    assert res.reason == "diverged"
    assert res.state.k >= 1 and res.records[-1].k == res.state.k
    assert not np.isfinite(res.state.X).all()
    assert res.records[-2].k == res.state.k - 1 and np.isfinite(res.records[-2].actions).all()


def test_diverged_run_records_its_consensus_error():
    # off the record grid, so only the non-finite member asks for the metric
    res = run(PoisonGame(), path(2), AdmmConfig(max_iter=50, record_every=1000))
    assert res.reason == "diverged" and [r.k for r in res.records] == [0, res.state.k]
    ce = res.records[-1].consensus_error
    assert np.array(ce).tobytes() == np.array(consensus_error(res.state.X, path(2))).tobytes()


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
