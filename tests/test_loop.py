"""What the loop may skip or reuse cannot be seen from outside: the consensus
error is computed only where it is read, the game is evaluated once per
iteration for the step, the residual and the records, the finite check stops a
member whose W alone is non-finite and decides from numpy's floating-point
signals exactly what a full pass decides, an iteration allocates no matrix, a
result holds its own arrays, records take about a row of columns each,
whatever the budget, and the caller's start and error state are left as they
were."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import nashadmm.loop as loop
import nashadmm.metrics as metrics
from nashadmm import (
    ActionBox,
    AdmmConfig,
    BaselineConfig,
    QuadraticGame,
    WanetGame,
    complete,
    compare,
    default_wanet_instance,
    path,
    random_quadratic_game,
    ring,
    run,
    run_baseline,
)
from nashadmm.admm import _admm_plan
from nashadmm.baseline import _baseline_plan


def _record_bits(r):
    """A record as bytes, all but its wall clock."""
    return (r.k, r.actions.tobytes(), np.array([r.consensus_error, r.ne_residual]).tobytes(),
            r.guard_activations)


def _state_bits(result):
    return result.state.X.tobytes(), result.state.W.tobytes(), result.state.k, result.reason


# the residual tolerance holds for 99 (quadratic) and 213 (wanet) iterations
# before the consensus tolerance does, so both reasons to compute it are taken
@pytest.mark.parametrize("problem, cfg", [
    ((random_quadratic_game(8, 1), ring(8)), AdmmConfig(tol_consensus=1e-8, tol_residual=1e-4)),
    (default_wanet_instance(7), AdmmConfig(tol_consensus=1e-6, tol_residual=1e-3)),
], ids=["quadratic", "wanet"])
def test_sparse_records_are_the_dense_records_at_their_iterations(problem, cfg):
    game, graph = problem
    dense = run(game, graph, replace(cfg, record_every=1))
    sparse = run(game, graph, replace(cfg, record_every=7))
    assert dense.reason == "converged" and dense.state.k % 7 != 0
    assert _state_bits(sparse) == _state_bits(dense)
    ks = [*range(0, dense.state.k + 1, 7), dense.state.k]
    assert [r.k for r in sparse.records] == ks
    assert [_record_bits(r) for r in sparse.records] \
        == [_record_bits(dense.records[k]) for k in ks]


def test_consensus_error_runs_only_where_it_is_read(monkeypatch):
    game, graph = random_quadratic_game(8, 1), ring(8)
    cfg = AdmmConfig(tol_consensus=1e-8, tol_residual=1e-4, record_every=50)
    residuals, calls = [], []
    gap, consensus_error = loop._fixed_point_gap, loop.consensus_error

    def residual(x, F, box):
        residuals.append(gap(x, F, box))
        return residuals[-1]

    def error(X, graph):
        calls.append((len(residuals) - 1, X.shape))  # the iteration the loop is judging
        return consensus_error(X, graph)

    monkeypatch.setattr(loop, "_fixed_point_gap", residual)
    monkeypatch.setattr(loop, "consensus_error", error)
    res = run(game, graph, cfg)
    end = res.state.k
    assert res.reason == "converged" and len(residuals) == end + 1
    close = {k for k in range(1, end + 1) if residuals[k][0] <= cfg.tol_residual}
    recorded = {*range(0, end + 1, cfg.record_every), end}
    assert len(close) == 99 and len(recorded) == 7
    assert calls == [(k, (1, 8, 8)) for k in sorted(close | recorded)]
    # a sweep whose members stop at different iterations: at most one call an
    # iteration, always on the whole live stack, off the record grid too
    residuals.clear()
    calls.clear()
    runs = run_baseline(game, graph, BaselineConfig(sweep=(0.2, 0.1, 0.05), **{
        f: getattr(cfg, f) for f in ("tol_consensus", "tol_residual", "record_every")}))
    ends = [r.state.k for r in runs]
    assert ends == [579, 603, 658] and {r.reason for r in runs} == {"converged"}
    ks = [k for k, _ in calls]
    assert ks == sorted(set(ks)) and sum(k % cfg.record_every != 0 for k in ks) == 348
    assert all(shape == (sum(e >= k for e in ends), 8, 8) for k, shape in calls)


@pytest.mark.parametrize("solver", ["run", "sweep"])
def test_wanet_loop_evaluates_the_game_once_per_iteration(monkeypatch, solver):
    """One `evaluate` of the live stack per iteration serves the step, the
    residual and the records; nothing else asks the game for a gradient."""
    game, graph = default_wanet_instance(7)
    evaluate, calls = WanetGame.evaluate, []

    def counted(self, X):
        calls.append(X.shape)
        return evaluate(self, X)

    def refused(*args, **kwargs):
        raise AssertionError("the game was evaluated outside `evaluate`")

    monkeypatch.setattr(WanetGame, "evaluate", counted)
    for name in ("own_gradients", "pseudo_gradient"):
        monkeypatch.setattr(WanetGame, name, refused)
    monkeypatch.setattr(metrics, "ne_residual", refused)
    if solver == "run":
        res = run(game, graph, AdmmConfig(max_iter=40, tol_consensus=1e-300,
                                          tol_residual=1e-300))
        ends = [res.state.k]
        assert res.reason == "iteration budget" and len(res.records) == 41
    else:  # members leave the stack at different iterations
        runs = run_baseline(game, graph, BaselineConfig(
            sweep=(0.2, 0.1, 0.05), max_iter=2100, tol_consensus=1e-2, tol_residual=1e-2))
        ends = [r.state.k for r in runs]
        assert ends == [2079, 2056, 2100]
    assert not hasattr(game, "guard_activations")
    assert calls == [(sum(end >= k for end in ends), 15, 15) for k in range(max(ends) + 1)]


def test_a_member_whose_w_alone_turns_non_finite_stops_as_diverged():
    # the finite check covers W as well as X; the other members run as if alone
    game, graph = random_quadratic_game(8, 1), ring(8)
    cfg = AdmmConfig(max_iter=60, record_every=10, tol_consensus=1e-30, tol_residual=1e-30)
    admm, steps = _admm_plan(game, graph, cfg), []

    def step(X, W, S, T, live, grads):
        admm(X, W, S, T, live, grads)
        steps.append(live)
        if len(steps) == 25:  # the step to k = 25
            W[live.index(1), 3, 5] = np.inf

    stack = loop._drive(np.zeros(8), 3, step, game, graph, cfg)
    alone = run(game, graph, cfg)
    bad = stack[1]
    assert (bad.reason, bad.state.k) == ("diverged", 25)
    assert np.isfinite(bad.state.X).all() and np.isinf(bad.state.W[3, 5])
    assert steps[24:26] == [[0, 1, 2], [0, 2]]
    for r in (stack[0], stack[2]):
        assert _state_bits(r) == _state_bits(alone)
        assert [_record_bits(x) for x in r.records] == [_record_bits(x) for x in alone.records]


class PoisonedGame(QuadraticGame):
    """random_quadratic_game(n, 3) on the box [-h, h]^n, with member 0's first
    own gradient set to `poison` from evaluation `at` + 1 on."""

    def __init__(self, n, h, poison, at=7):
        base = random_quadratic_game(n, 3)
        super().__init__(base.a, base.B, base.d, ActionBox.cube(n, -h, h))
        self.poison, self.at, self.calls = poison, at, 0

    def evaluate(self, X):
        grads, pseudo, guards = super().evaluate(X)
        self.calls += 1
        if self.poison is not None and self.calls > self.at:
            grads[0, 0] = self.poison
        return grads, pseudo, guards


def _result_bits(result):
    return (*_state_bits(result), *(np.ascontiguousarray(getattr(result.records, f)).tobytes()
                                    for f in ("k", "actions", "consensus_error", "ne_residual",
                                              "guard_activations")))


_POISONS = [None, np.nan, np.inf, -np.inf, 1e308, -1e308]
_SMALL_GRAPHS = {3: ring(5), 7: path(4), 20: complete(4)}  # by the poison's first evaluation
# graphs whose neighbor sums add strided views of X, by the poison's first evaluation
_STRIDED_GRAPHS = {5: ring(200), 12: path(120)}


def _watched(plan, finite):
    """plan as a step that states no signals, so that the loop checks every value
    of Z each iteration, and that appends to `finite` a dict {member: whether
    its X and W are finite} after each step."""
    def step(X, W, S, T, live, grads):
        plan(X, W, S, T, live, grads)
        ok = np.isfinite(X).all(axis=(1, 2)) & np.isfinite(W).all(axis=(1, 2))
        finite.append(dict(zip(live, ok.tolist())))
    return step


@pytest.mark.parametrize("solver", ["admm", "baseline"])
def test_the_signals_decide_what_a_full_pass_decides(solver):
    # c from 1e-300 to 1e300 and boxes up to 1e300 make values overflow, the
    # poisons put a NaN, an infinity or a huge value into an own step; the
    # full pass is checked in turn against the first non-finite step
    cs = [1e-300, 1e-3, 1.0, 1e3, 1e300] if solver == "admm" else [None]
    strided_cs = [1e-300, 1.0, 1e300] if solver == "admm" else [None]
    cases = itertools.chain(
        itertools.product(cs, [1.0, 1e150, 1e300], _POISONS, _SMALL_GRAPHS.items()),
        itertools.product(strided_cs, [1.0, 1e300], [None, np.nan, np.inf, 1e308],
                          _STRIDED_GRAPHS.items()))
    reasons = []
    for c, h, poison, (at, graph) in cases:
        n = graph.n
        x0 = h * np.linspace(-0.5, 0.5, n)
        stop = dict(max_iter=40, record_every=3, tol_consensus=1e-300, tol_residual=1e-300)
        game = PoisonedGame(n, h, poison, at)
        if solver == "admm":
            plan = _admm_plan(game, graph, AdmmConfig(c=c, **stop))
        else:
            plan = _baseline_plan(game, graph, (0.2, 1e300))
        assert plan.signals
        signalled = loop._drive(x0, 2, plan, game, graph, BaselineConfig(**stop))
        finite = []
        full = loop._drive(x0, 2, _watched(plan, finite), PoisonedGame(n, h, poison, at), graph,
                           BaselineConfig(**stop))
        case = (c, h, poison, graph.n, len(graph.edges))
        for g, (b, f) in enumerate(zip(signalled, full)):
            assert _result_bits(b) == _result_bits(f), case
            first_bad = next((k for k, ok in enumerate(finite, 1) if not ok.get(g, True)), None)
            assert (f.reason == "diverged", f.state.k) == (first_bad is not None,
                                                           first_bad or f.state.k), case
            reasons.append((poison is None, b.reason, b.state.k))
    # a NaN stops a member where it lands, and the second member at its own
    # first poisoned step; an overflow alone stops ADMM members at c = 1e300
    diverged = {(clean, k) for clean, reason, k in reasons if reason == "diverged"}
    assert {(False, k) for k in (4, 6, 8, 10, 21, 23)} <= diverged
    assert ((True, 2) in diverged) == (solver == "admm")
    assert any(reason == "iteration budget" for _, reason, _ in reasons)


@pytest.mark.parametrize("check", ["signals", "full pass"])
def test_an_iteration_allocates_no_matrix(check):
    # the parent's check allocated a bool array of Z, 2 n^2 bytes, each iteration
    n = 200
    game, graph = random_quadratic_game(n, 0), ring(n)
    cfg = AdmmConfig(max_iter=100, record_every=100, tol_consensus=1e-30, tol_residual=1e-30)
    plan = _admm_plan(game, graph, cfg)
    step = plan if check == "signals" else lambda *a: plan(*a)
    evaluate, calls, peaks = game.evaluate, [], []

    def measured(X):
        # the peak above what is held from the last evaluation to this one:
        # the step, the finite check, the metrics and the records
        calls.append(None)
        if 20 < len(calls) <= 80:
            current, peak = tracemalloc.get_traced_memory()
            peaks.append(peak - current)
        out = evaluate(X)
        tracemalloc.reset_peak()
        return out

    game.evaluate = measured
    loop._drive(np.zeros(n), 1, step, game, graph, cfg)
    calls.clear()
    peaks.clear()
    tracemalloc.start()
    try:
        loop._drive(np.zeros(n), 1, step, game, graph, cfg)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 60
    assert max(peaks) < 0.05 * n * n * 8


@pytest.mark.parametrize("c", [1e-300, 1e-3, 0.7, 1.0, 1e3, 1e300])
@pytest.mark.parametrize("graph", [ring(5), path(4), complete(4), default_wanet_instance(7)[1]],
                         ids=["ring5", "path4", "complete4", "wanet7"])
def test_a_step_that_leaves_a_non_finite_value_signals(graph, c):
    # from a finite X and W, each drawn at scales up to the largest float, one
    # step of either plan that leaves a non-finite value in W or off the own
    # coordinates has signalled under the loop's error state; at 1e307 and c
    # near 1, W += T is the one operation that overflows in some draws
    n, rng = graph.n, np.random.default_rng([graph.n, round(np.log2(c)) + 1100])
    game = PoisonedGame(n, 10.0, None)
    plans = {"admm": _admm_plan(game, graph, AdmmConfig(c=c)),
             "baseline": _baseline_plan(game, graph, (0.2, c))}
    off, overflowed = ~np.eye(n, dtype=bool), []
    scales = (10.0, 1e300, 1e307, 1e308, np.finfo(float).max)
    for name, plan in plans.items():
        for x_scale, w_scale in itertools.product(scales, scales if name == "admm" else [0.0]):
            X = x_scale * rng.uniform(-1.0, 1.0, (2, n, n))
            np.einsum("...ii->...i", X)[:] = rng.uniform(-10.0, 10.0, (2, n))
            W = w_scale * rng.uniform(-1.0, 1.0, (2, n, n))
            flags = []
            with loop._listening(flags):
                plan(X, W, np.empty_like(X), np.empty_like(X), [0, 1],
                     rng.standard_normal((2, n)))
            if not (np.isfinite(X[:, off]).all() and np.isfinite(W).all()):
                assert flags, (name, x_scale, w_scale)
                overflowed.append(name)
            assert np.abs(np.einsum("...ii->...i", X)).max() <= 10.0
    assert set(overflowed) == {"admm", "baseline"}


def _admm_overflow():
    """An ADMM run at c = 1e300 from rows of size 1e150, whose W overflows at k = 2."""
    h = 1e150
    return [run(PoisonedGame(6, h, None), ring(6), AdmmConfig(c=1e300, max_iter=50),
                x0=h * np.linspace(-0.5, 0.5, 6))]


def _baseline_overflow():
    """A baseline sweep from rows near the largest float, whose neighbor sums
    overflow at k = 1."""
    h = 1e308
    return run_baseline(PoisonedGame(6, h, None), ring(6), BaselineConfig(max_iter=50),
                        x0=h * np.linspace(-1.0, 1.0, 6))


def test_a_numpy_that_cannot_signal_gets_the_same_bits(monkeypatch):
    # without signals every step takes the exact pass, which decides the same
    solves = [
        lambda: [run(random_quadratic_game(8, 1), ring(8), AdmmConfig())],
        _admm_overflow,
        lambda: run_baseline(random_quadratic_game(8, 1), ring(8), BaselineConfig()),
        _baseline_overflow,
    ]
    assert loop._SIGNALS
    heard = [[_result_bits(r) for r in solve()] for solve in solves]
    monkeypatch.setattr(loop, "_SIGNALS", False)
    assert [[_result_bits(r) for r in solve()] for solve in solves] == heard
    reasons = [{bits[3] for bits in results} for results in heard]
    assert reasons == [{"converged"}, {"diverged"}, {"converged"}, {"diverged"}]


class RaisingGame(QuadraticGame):
    """random_quadratic_game(6, 0), whose evaluation raises at its 5th call."""

    def __init__(self):
        base = random_quadratic_game(6, 0)
        super().__init__(base.a, base.B, base.d, base.action_box)
        self.calls = 0

    def evaluate(self, X):
        self.calls += 1
        if self.calls == 5:
            raise RuntimeError("the game fails")
        return super().evaluate(X)


def test_a_callers_error_state_neither_interrupts_a_solve_nor_leaks_from_it():
    # a caller that raises on every floating-point error, underflow too: a
    # subnormal start underflows in the game's products, and the overflowing
    # runs overflow
    cfg = dict(max_iter=50)
    solves = [
        lambda: [run(random_quadratic_game(6, 0), ring(6), AdmmConfig(**cfg),
                     x0=np.full(6, 1e-310))],
        _admm_overflow,
        lambda: run_baseline(random_quadratic_game(6, 0), ring(6), BaselineConfig(**cfg),
                             x0=np.full(6, 1e-310)),
        _baseline_overflow,
        lambda: [run(RaisingGame(), ring(6), AdmmConfig(**cfg))],
        lambda: run_baseline(RaisingGame(), ring(6), BaselineConfig(**cfg)),
    ]

    def mine(kind, flag):
        pass

    with np.errstate(all="raise", call=mine):
        before = np.geterr(), np.geterrcall()
        ends = []
        for solve in solves:
            try:
                ends.append({r.reason for r in solve()})
            except RuntimeError as e:
                ends.append(str(e))
            assert (np.geterr(), np.geterrcall()) == before
    assert ends[:2] == [{"iteration budget"}, {"diverged"}]
    assert ends[2:] == [{"iteration budget"}, {"diverged"}, "the game fails", "the game fails"]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["X", "W", "own"])
def test_any_non_finite_value_stops_its_member_where_it_appears(value, where):
    # a step without the `signals` marker has all of Z checked, its own coordinates too
    game, graph = random_quadratic_game(8, 1), ring(8)
    cfg = AdmmConfig(max_iter=60, record_every=10, tol_consensus=1e-30, tol_residual=1e-30)
    admm, at = _admm_plan(game, graph, cfg), {"X": (2, 6), "W": (0, 7), "own": (4, 4)}
    calls = []

    def step(X, W, S, T, live, grads):
        admm(X, W, S, T, live, grads)
        calls.append(None)
        if len(calls) == 31:  # the step to k = 31
            Z = W if where == "W" else X
            Z[(live.index(2), *at[where])] = value

    stack = loop._drive(np.zeros(8), 3, step, game, graph, cfg)
    alone = run(game, graph, cfg)
    assert [(r.reason, r.state.k) for r in stack] == [("iteration budget", 60)] * 2 \
        + [("diverged", 31)]
    assert all(_state_bits(r) == _state_bits(alone) for r in stack[:2])


def test_sweep_results_share_no_memory():
    game, graph = random_quadratic_game(6, 4), ring(6)
    cfg = BaselineConfig(sweep=(0.2, 0.1, 0.05, 0.6), max_iter=300, record_every=50,
                         tol_consensus=1e-6, tol_residual=1e-6)
    runs = run_baseline(game, graph, cfg)
    assert len({r.state.k for r in runs}) > 1  # members leave the stack at different steps
    arrays = [a for r in runs for a in (r.state.X, r.state.W, *(rec.actions for rec in r.records))]
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))


def test_a_second_run_leaves_the_first_result_as_it_was():
    game, graph = random_quadratic_game(10, 2), ring(10)
    cfg = AdmmConfig(max_iter=120, record_every=10, tol_consensus=1e-30, tol_residual=1e-30)
    first = run(game, graph, cfg)
    before = _state_bits(first), [_record_bits(r) for r in first.records]
    second = run(game, graph, cfg)
    assert (_state_bits(first), [_record_bits(r) for r in first.records]) == before
    assert _state_bits(second) == before[0]
    for a, b in ((first.state.X, second.state.X), (first.state.W, second.state.W)):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("solver", ["run", "compare"])
def test_a_start_profile_is_left_as_it_was(solver):
    # the step writes over the loop's X and W, which are the loop's own
    game, graph = random_quadratic_game(10, 2), ring(10)
    x0 = np.linspace(-0.5, 0.5, 10)
    x0[3] = -0.0
    before = x0.tobytes()
    cfg = AdmmConfig(max_iter=120, record_every=10)
    if solver == "run":
        results = [run(game, graph, cfg, x0=x0)]
    else:
        rep = compare(game, graph, cfg, BaselineConfig(max_iter=120), tol=1e-30, x0=x0)
        results = [rep.admm_result, rep.baseline_result]
    assert x0.tobytes() == before
    for r in results:
        assert r.state.k == 120
        assert not np.shares_memory(r.state.X, x0) and not np.shares_memory(r.state.W, x0)


_NEVER = dict(tol_consensus=1e-300, tol_residual=1e-300)


@pytest.mark.parametrize("solver", ["sweep", "run"])
def test_results_hold_about_a_row_of_columns_per_record(solver):
    # a record is n actions and five 8-byte fields, (n + 5) * 8 = 160 bytes at
    # n = 15; measured 162.7 (sweep) and 163.2 (run) bytes per member-record,
    # the states included, against 380 and 421 with one object per record
    game, graph = default_wanet_instance(7)
    stop = dict(max_iter=2000, record_every=1, **_NEVER)
    solve = {"sweep": lambda: run_baseline(game, graph, BaselineConfig(**stop)),
             "run": lambda: [run(game, graph, AdmmConfig(**stop))]}[solver]
    solve()
    tracemalloc.start()
    try:
        results = solve()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [r.reason for r in results] == ["iteration budget"] * len(results)
    assert len(results) == (5 if solver == "sweep" else 1)
    assert [len(r.records) for r in results] == [2001] * len(results)
    assert held / (2001 * len(results)) <= 184


def test_a_race_report_holds_the_reported_baseline_rows_alone():
    game, graph = default_wanet_instance(7)
    compare(game, graph, AdmmConfig(), BaselineConfig(), 1e-4)
    tracemalloc.start()
    try:
        report = compare(game, graph, AdmmConfig(), BaselineConfig(), 1e-4)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (report.admm_iterations, report.baseline_iterations) == (2004, 4723)
    records = report.baseline_result.records
    assert len(records) == 4724 and records.base is None
    # measured 1.569 MB: the best run's 4724 rows (0.76 MB) and the ADMM run's
    # 5001-row block (0.80 MB); 4.81 MB with the sweep's 5 x 5001-row block
    assert held <= 1.65e6


def test_a_budget_far_past_the_stop_keeps_the_records_and_a_bounded_peak():
    game, graph = default_wanet_instance(7)
    cfg = AdmmConfig(record_every=1)
    near = run(game, graph, replace(cfg, max_iter=5000))
    tracemalloc.start()
    try:
        far = run(game, graph, replace(cfg, max_iter=10**12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (near.reason, near.state.k) == ("converged", 2978)
    assert _state_bits(far) == _state_bits(near)
    assert [_record_bits(r) for r in far.records] == [_record_bits(r) for r in near.records]
    # measured 8.02 MiB, the records' first allocation: a store sized by the
    # budget would ask for 10**12 rows
    assert peak <= 9 * 2**20


def test_records_that_outgrow_their_first_allocation_keep_their_bits(monkeypatch):
    # members stop off the record grid, at 579, 603 and 658, while the block grows
    game, graph = random_quadratic_game(8, 1), ring(8)
    cfg = BaselineConfig(sweep=(0.2, 0.1, 0.05), tol_consensus=1e-8, tol_residual=1e-4,
                         record_every=50)
    roomy = run_baseline(game, graph, cfg)
    monkeypatch.setattr(loop, "_RECORD_BUDGET", 3 * (8 + 5) * 8 * 2)  # two rows
    grown = run_baseline(game, graph, cfg)
    assert [r.state.k for r in grown] == [579, 603, 658]
    for a, b in zip(roomy, grown):
        assert _state_bits(a) == _state_bits(b)
        assert [_record_bits(r) for r in a.records] == [_record_bits(r) for r in b.records]
        assert len(b.records) == b.state.k // 50 + 2
    arrays = [rec.actions for r in grown for rec in r.records]
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))
