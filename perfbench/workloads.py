"""The three workloads: fixed inputs, set-up, one operation, and its checks.

Every input is fixed by the benchmark itself, so a change to the package's
instance generators cannot change what is measured. `--seed` picks a
relabelling of the players of that fixed input (and of the graph nodes with
them): the relabelled problem is the same game on an isomorphic graph, so it
takes the same number of iterations and the same calls, while the arrays the
program sees differ from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from time import perf_counter

import numpy as np

import nashadmm.admm as admm_mod
import nashadmm.baseline as baseline_mod
import nashadmm.cli as cli_mod
from nashadmm import ActionBox, AdmmConfig, BaselineConfig, CommGraph, QuadraticGame, WanetGame, ring

from checks import (CheckFailed, OpFailed, box, consensus, quad_equilibrium, w_column_sums,
                    wanet_guards, wanet_kkt, wanet_margins)

# default_wanet_instance(7): the README's instance (2978 iterations to
# 1e-8/1e-6, and a race of 2004 against 4723 at 1e-4)
WANET_ROUTES = ((6, 9, 11), (4, 5), (7, 11, 15), (2, 3, 13), (1, 13), (0, 8, 12),
                (10, 12, 14), (0,), (2,), (5,), (8,), (7, 10, 15), (1, 4, 6), (9,), (3, 14))
WANET_EDGES = ((0, 1), (0, 14), (1, 2), (2, 3), (3, 4), (4, 5), (4, 13), (5, 6), (5, 7),
               (5, 13), (6, 7), (7, 8), (8, 9), (8, 14), (9, 10), (9, 12), (10, 11),
               (11, 12), (12, 13), (13, 14))
WANET_PARAMS = {"capacities": [10.0] * 16, "kappa": 1.0, "chi": 10.0, "eps_guard": 1e-6,
                "lower": 0.0, "upper": 10.0}
ADMM_PARAMS = {"c": 1.0, "beta": 1.0, "max_iter": 5000}
SWEEP = (0.2, 0.1, 0.05, 0.02, 0.01)
RACE_TOL = 1e-4

QUAD_N = 200
QUAD_BASE_SEED = 0
QUAD_TOL_CONSENSUS = 1e-3
QUAD_TOL_RESIDUAL = 1e-2
QUAD_MAX_ITER = 10000


class _SetupDone(Exception):
    pass


@contextlib.contextmanager
def _replaced(owner, name, value):
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


def _add(key, index, delta):
    """Perturbation: add delta to output[key][index]."""
    return lambda o: o[key].__setitem__(index, o[key][index] + delta)


def _put(key, index, value):
    """Perturbation: overwrite output[key][index] with value."""
    return lambda o: o[key].__setitem__(index, value)


def _rng(seed: int):
    return np.random.default_rng(seed % 2**32)


def wanet_inputs(seed: int) -> dict:
    """The default instance with its users (and graph nodes) permuted."""
    p = _rng(seed).permutation(len(WANET_ROUTES))
    routes = [None] * len(WANET_ROUTES)
    for i, r in enumerate(WANET_ROUTES):
        routes[p[i]] = list(r)
    edges = sorted((min(p[a], p[b]), max(p[a], p[b])) for a, b in WANET_EDGES)
    return {"routes": routes, "edges": [(int(a), int(b)) for a, b in edges], **WANET_PARAMS}


def quad_inputs(seed: int) -> dict:
    """A diagonally dominant quadratic game on ring(200), rotated or
    reflected around the ring by the seed.

    The base game follows the recipe of `random_quadratic_game(200, 0)`:
    a_i in [2, 4], symmetric zero-diagonal coupling scaled to row sums of
    0.8 min(a), and d placing the equilibrium in the inner half of [-10, 10].
    """
    n = QUAD_N
    rng = _rng(QUAD_BASE_SEED)
    a = rng.uniform(2.0, 4.0, size=n)
    B = rng.uniform(-1.0, 1.0, size=(n, n))
    B = 0.5 * (B + B.T)
    np.fill_diagonal(B, 0.0)
    B *= min(1.0, 0.8 * a.min() / np.abs(B).sum(axis=1).max())
    target = rng.uniform(-5.0, 5.0, size=n)
    d = -(np.diag(a) + B) @ target
    # a dihedral symmetry of the ring maps ring edges onto ring edges
    sym = _rng(seed)
    shift, sign = int(sym.integers(n)), int(sym.choice([-1, 1]))
    p = (shift + sign * np.arange(n)) % n
    a2, d2, B2 = np.empty(n), np.empty(n), np.empty((n, n))
    a2[p], d2[p] = a, d
    B2[np.ix_(p, p)] = B
    return {"a": a2, "B": B2, "d": d2, "lower": -10.0, "upper": 10.0,
            "edges": [(i, (i + 1) % n) for i in range(n)]}


def _wanet_game(inp):
    return WanetGame(np.asarray(inp["capacities"]), inp["routes"], kappa=inp["kappa"],
                     chi=inp["chi"], eps_guard=inp["eps_guard"],
                     action_box=ActionBox.cube(len(inp["routes"]), inp["lower"], inp["upper"]))


def _solution(result) -> dict:
    return {"X": result.state.X.copy(), "W": result.state.W.copy(), "k": result.state.k}


class WanetCli:
    """`nashadmm run` on the default instance: config load through trace.csv."""

    name = "wanet-cli"
    tol_consensus, tol_residual = 1e-8, 1e-6

    def __init__(self, seed: int, outdir: Path):
        self.inp = wanet_inputs(seed)
        self.outdir = outdir
        outdir.mkdir(parents=True, exist_ok=True)
        config = {
            "seed": seed,
            "output_dir": str(outdir),
            "game": {"type": "wanet", "routes": self.inp["routes"],
                     **{k: self.inp[k] for k in ("capacities", "kappa", "chi", "eps_guard")}},
            "graph": {"type": "explicit", "n": len(self.inp["routes"]),
                      "edges": self.inp["edges"]},
            "admm": {**ADMM_PARAMS, "tol_consensus": self.tol_consensus,
                     "tol_residual": self.tol_residual, "record_every": 1, "x0": "zeros"},
        }
        self.config_path = outdir / "config.json"
        self.config_path.write_text(json.dumps(config))
        self.argv = ["run", str(self.config_path), "--output-dir", str(outdir)]

    def setup(self):
        """CLI argument parsing, config load, builds, and the solver state."""
        def stop(game, graph, cfg, x0=None, **_):
            admm_mod.init_state(game, graph, x0)
            raise _SetupDone

        with _replaced(cli_mod, "run", stop), contextlib.redirect_stdout(io.StringIO()):
            try:
                cli_mod.main(self.argv)
            except _SetupDone:
                return
        raise OpFailed("the cli returned before reaching the solver")

    def solve(self):
        seen = {}
        solver = cli_mod.run

        def entry(*args, **kwargs):
            seen["t0"] = perf_counter()
            seen["result"] = solver(*args, **kwargs)
            return seen["result"]

        out = io.StringIO()
        with _replaced(cli_mod, "run", entry), contextlib.redirect_stdout(out):
            code = cli_mod.main(self.argv)
        if code != 0 or "result" not in seen:
            raise OpFailed(f"nashadmm run exited {code}")
        solve_s = perf_counter() - seen["t0"]
        result = {**_solution(seen["result"]), "stdout": out.getvalue(),
                  "csv": self._read_trace()}
        return solve_s, result["k"], result["k"], result

    def _read_trace(self):
        path = self.outdir / "trace.csv"
        with open(path) as f:
            cols = f.readline().strip().split(",")
        names = ("k", "player", "action", "guard_activations")
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                           usecols=[cols.index(c) for c in names])
        return dict(zip(("k", "player", "action", "guards"), table.T))

    def checks(self):
        inp = self.inp
        n = len(inp["routes"])
        final = lambda o: np.diagonal(o["X"])

        def summary(o):
            lines = set(o["stdout"].splitlines())
            ok = "reason=converged" in lines and f"iterations={o['k']}" in lines
            if not ok:
                raise CheckFailed("summary", "stdout lacks reason=converged / the iteration count")

        def trace_csv(o):
            c = o["csv"]
            if len(c["k"]) != (o["k"] + 1) * n:
                raise CheckFailed("trace_csv", f"{len(c['k'])} rows for {o['k']} iterations")
            last = c["k"] == o["k"]
            if not np.array_equal(c["action"][last][np.argsort(c["player"][last])], final(o)):
                raise CheckFailed("trace_csv", "final rows disagree with the solver's actions")
            if np.any(c["guards"] != 0):
                raise CheckFailed("trace_csv", "a recorded guard activation")
            box(c["action"], inp)

        return {
            "summary": summary,
            "trace_csv": trace_csv,
            "wanet_kkt": lambda o: wanet_kkt(final(o), inp, self.tol_residual),
            "wanet_margins": lambda o: wanet_margins(final(o), inp),
            "wanet_guards": lambda o: wanet_guards(o["X"], inp),
            "consensus": lambda o: consensus(o["X"], inp, self.tol_consensus),
            "w_column_sums": lambda o: w_column_sums(o["W"]),
            "box": lambda o: box(final(o), inp),
        }

    perturbations = {
        "summary": lambda o: o.update(stdout=o["stdout"].replace("converged", "diverged")),
        "trace_csv": lambda o: o["csv"].update(k=o["csv"]["k"][:-1]),
        "wanet_kkt": _add("X", (3, 3), 1e-3),
        "wanet_margins": _put("X", (0, 0), 10.0),
        "wanet_guards": _put("X", (1, slice(None)), 10.0),
        "consensus": _add("X", (2, 5), 1e-6),
        "w_column_sums": _add("W", (4, 4), 1e-3),
        "box": _put("X", (6, 6), 10.5),
    }


class Quad200:
    """Library solve of the n=200 quadratic game on ring(200); records only
    at the start and the end, no CSV."""

    name = "quad-200"

    def __init__(self, seed: int, outdir: Path):
        self.inp = quad_inputs(seed)
        self.problem = None

    def setup(self):
        """Game, graph and config construction plus the solver state."""
        inp = self.inp
        game = QuadraticGame(inp["a"], inp["B"], inp["d"],
                             ActionBox.cube(QUAD_N, inp["lower"], inp["upper"]))
        graph = ring(QUAD_N)
        cfg = AdmmConfig(c=ADMM_PARAMS["c"], beta=ADMM_PARAMS["beta"], max_iter=QUAD_MAX_ITER,
                         tol_consensus=QUAD_TOL_CONSENSUS, tol_residual=QUAD_TOL_RESIDUAL,
                         record_every=QUAD_MAX_ITER)
        admm_mod.init_state(game, graph)
        self.problem = (game, graph, cfg)

    def solve(self):
        t0 = perf_counter()
        result = admm_mod.run(*self.problem)
        solve_s = perf_counter() - t0
        if result.reason != "converged":
            raise OpFailed(f"stopped on {result.reason} at iteration {result.state.k}")
        out = {**_solution(result), "record_ks": [r.k for r in result.records]}
        return solve_s, out["k"], out["k"], out

    def checks(self):
        inp = self.inp
        final = lambda o: np.diagonal(o["X"])

        def records(o):
            if o["record_ks"] != [0, o["k"]]:
                raise CheckFailed("records", f"recorded iterations {o['record_ks'][:4]}...")

        return {
            "records": records,
            "quad_equilibrium": lambda o: quad_equilibrium(final(o), inp, QUAD_TOL_RESIDUAL),
            "consensus": lambda o: consensus(o["X"], inp, QUAD_TOL_CONSENSUS),
            "w_column_sums": lambda o: w_column_sums(o["W"]),
            "box": lambda o: box(final(o), inp),
        }

    perturbations = {
        "records": lambda o: o.update(record_ks=o["record_ks"] + [o["k"]]),
        "quad_equilibrium": _add("X", (7, 7), 0.1),
        "consensus": _add("X", (8, 3), 0.01),
        "w_column_sums": _add("W", (9, 9), 1e-3),
        "box": _put("X", (10, 10), -10.5),
    }


class WanetRace:
    """`compare` on the default instance at tol 1e-4 against the five-step-size
    baseline sweep; no traces written."""

    name = "wanet-race"

    def __init__(self, seed: int, outdir: Path):
        self.inp = wanet_inputs(seed)
        self.problem = None

    def setup(self):
        """Game, graph and both configs, plus the solver state."""
        inp = self.inp
        game = _wanet_game(inp)
        graph = CommGraph(len(inp["routes"]), frozenset(map(tuple, inp["edges"])))
        admm_cfg = AdmmConfig(**ADMM_PARAMS)
        base_cfg = BaselineConfig(sweep=SWEEP, max_iter=ADMM_PARAMS["max_iter"])
        admm_mod.init_state(game, graph)
        self.problem = (game, graph, admm_cfg, base_cfg)

    def solve(self):
        t0 = perf_counter()
        report = baseline_mod.compare(*self.problem, RACE_TOL)
        solve_s = perf_counter() - t0
        if report.admm_reason != "converged" or report.baseline_iterations is None:
            raise OpFailed(f"admm {report.admm_reason}, baseline {report.baseline_reason}")
        base_steps = 0
        for _gamma, reason, iters in report.sweep_results:
            if reason == "converged":
                base_steps += iters
            elif reason == "iteration budget":
                base_steps += self.problem[3].max_iter
            else:
                raise OpFailed(f"baseline sweep run {reason}: its step count is unknown")
        out = {**_solution(report.admm_result),
               "baseline_X": report.baseline_result.state.X.copy(),
               "baseline_k": report.baseline_iterations,
               "actions": np.array([r.actions for r in report.admm_result.records]
                                   + [r.actions for r in report.baseline_result.records])}
        return solve_s, out["k"], out["k"] + base_steps, out

    def checks(self):
        inp = self.inp
        final = lambda o: np.diagonal(o["X"])
        base = lambda o: np.diagonal(o["baseline_X"])

        def ordering(o):
            if not o["k"] < o["baseline_k"]:
                raise CheckFailed("ordering", f"admm {o['k']} vs best baseline {o['baseline_k']}")

        return {
            "ordering": ordering,
            "wanet_kkt": lambda o: (wanet_kkt(final(o), inp, RACE_TOL),
                                    wanet_kkt(base(o), inp, RACE_TOL)),
            "wanet_margins": lambda o: (wanet_margins(final(o), inp),
                                        wanet_margins(base(o), inp)),
            "wanet_guards": lambda o: (wanet_guards(o["X"], inp),
                                       wanet_guards(o["baseline_X"], inp)),
            "consensus": lambda o: (consensus(o["X"], inp, RACE_TOL),
                                    consensus(o["baseline_X"], inp, RACE_TOL)),
            "w_column_sums": lambda o: w_column_sums(o["W"]),
            "box": lambda o: box(o["actions"], inp),
        }

    perturbations = {
        "ordering": lambda o: o.update(baseline_k=o["k"]),
        "wanet_kkt": _add("baseline_X", (3, 3), 0.1),
        "wanet_margins": _put("X", (0, 0), 10.0),
        "wanet_guards": _put("baseline_X", (1, slice(None)), 10.0),
        "consensus": _add("baseline_X", (2, 5), 1e-3),
        "w_column_sums": _add("W", (4, 4), 1e-3),
        "box": _put("actions", (100, 6), 10.5),
    }


WORKLOADS = {w.name: w for w in (WanetCli, Quad200, WanetRace)}
