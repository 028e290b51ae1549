import copy
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nashadmm import IterationRecord, cli, default_wanet_instance, random_quadratic_game
from nashadmm.loop import Records


QUAD = {
    "seed": 3,
    "game": {
        "type": "quadratic",
        "a": [2.0, 2.0, 2.0],
        "B": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        "d": [-2.0, -2.0, -2.0],
        "box": {"lower": -10, "upper": 10},
    },
    "graph": {"type": "complete", "n": 3},
    "admm": {"max_iter": 5000},
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def kv(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if "=" in line and not line.startswith("sweep "):
            k, _, v = line.partition("=")
            pairs[k] = v
    return pairs


# ---------------------------------------------------------------- run

def test_run_converges_exit_zero(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, QUAD)
    rc = cli.main(["run", cfgp, "--output-dir", str(tmp_path)])
    out = kv(capsys.readouterr().out)
    assert rc == 0
    assert out["reason"] == "converged"
    assert float(out["ne_residual"]) <= 1e-6
    assert float(out["consensus_error"]) <= 1e-8
    assert (tmp_path / "trace.csv").exists()


def test_run_budget_exit_two(tmp_path, capsys):
    cfg = copy.deepcopy(QUAD)
    cfg["admm"]["max_iter"] = 0
    rc = cli.main(["run", write_cfg(tmp_path, cfg), "--output-dir", str(tmp_path)])
    out = kv(capsys.readouterr().out)
    assert rc == 2
    assert out["reason"] == "iteration budget"
    assert out["iterations"] == "0"


def test_run_divergence_exit_one(tmp_path, capsys, monkeypatch):
    from nashadmm.admm import RunResult, SolverState

    rec = Records(k=np.array([3]), actions=np.zeros((1, 3)), consensus_error=np.array([np.nan]),
                  ne_residual=np.array([np.nan]), guard_activations=np.array([0]),
                  elapsed=np.array([0.0]))
    fake = RunResult(state=SolverState(np.zeros((3, 3)), np.zeros((3, 3)), 3),
                     records=rec, reason="diverged")
    monkeypatch.setattr(cli, "run", lambda *a, **k: fake)
    rc = cli.main(["run", write_cfg(tmp_path, QUAD), "--output-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "non-finite values at iteration 3" in captured.err


def test_run_trace_shape_and_columns(tmp_path, capsys):
    cfg = copy.deepcopy(QUAD)
    cfg["admm"].update(max_iter=40, record_every=10,
                       tol_consensus=1e-300, tol_residual=1e-300)
    rc = cli.main(["run", write_cfg(tmp_path, cfg), "--output-dir", str(tmp_path)])
    capsys.readouterr()
    assert rc == 2
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "k,player,action,consensus_error,ne_residual,guard_activations,elapsed_us"
    n, iters, every = 3, 40, 10
    assert len(lines) - 1 == (iters // every + 1) * n
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    ks = [int(l.split(",")[0]) for l in lines[1:]]
    assert sorted(set(ks)) == [0, 10, 20, 30, 40]
    assert all(l.split(",")[-1] == "0" for l in lines[1:])  # no --timing


def test_run_byte_identical(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, QUAD)
    dirs = [tmp_path / s for s in ("a", "b")]
    assert cli.main(["run", cfgp, "--output-dir", str(dirs[0])]) == 0
    assert cli.main(["run", cfgp, "--output-dir", str(dirs[1])]) == 0
    capsys.readouterr()
    assert (dirs[0] / "trace.csv").read_bytes() == (dirs[1] / "trace.csv").read_bytes()


def _csv_writer_trace(path, records, timing):
    """The trace as csv.writer writes it, the reference for write_trace's bytes."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(cli.TRACE_COLUMNS)
        for r in records:
            us = int(round(r.elapsed * 1e6)) if timing else 0
            for i, a in enumerate(r.actions):
                w.writerow([r.k, i, repr(float(a)), repr(float(r.consensus_error)),
                            repr(float(r.ne_residual)), r.guard_activations, us])


@pytest.mark.parametrize("timing", [False, True])
def test_write_trace_bytes_match_csv_writer(tmp_path, timing):
    odd = [-0.0, 5e-324, 1e16, 0.1 + 0.2]
    # three rows, the last a diverged run's last record
    records = Records(k=np.array([0, 7, 8]),
                      actions=np.array([odd, odd[::-1], [np.inf, -np.inf, np.nan, 1.0]]),
                      consensus_error=np.array([0.1 + 0.2, 5e-324, np.nan]),
                      ne_residual=np.array([-0.0, 1e16, np.inf]),
                      guard_activations=np.array([0, 3, 12]),
                      elapsed=np.array([0.0, 1.2345678, 2.5e-7]))
    assert all(isinstance(r, IterationRecord) for r in records)
    cli.write_trace(tmp_path / "new.csv", records, timing=timing)
    _csv_writer_trace(tmp_path / "ref.csv", records, timing)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_run_x0_appears_in_first_record(tmp_path, capsys):
    cfg = copy.deepcopy(QUAD)
    cfg["admm"]["x0"] = [0.1, 0.2, 0.3]
    rc = cli.main(["run", write_cfg(tmp_path, cfg), "--output-dir", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    rows = (tmp_path / "trace.csv").read_text().splitlines()[1:4]
    actions = [r.split(",")[2] for r in rows]
    assert actions == [repr(0.1), repr(0.2), repr(0.3)]


@pytest.mark.parametrize("command", ["run", "compare", "check"])
@pytest.mark.parametrize("x0, message", [
    ([[0] * 15] * 15, f"admm.x0[0]: must be a finite number, got {json.dumps([0] * 15)}"),
    ([0, 20] + [0] * 13, "admm.x0: has coordinate 1 outside the action box"),
], ids=["matrix", "coordinate-1"])
def test_x0_is_a_profile_checked_coordinate_by_coordinate(tmp_path, capsys, command, x0,
                                                          message):
    cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
    cfg["admm"]["x0"] = x0
    argv = [command, write_cfg(tmp_path, cfg)]
    rc = cli.main(argv + ([] if command == "check" else ["--output-dir", str(tmp_path / "out")]))
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_run_wanet_with_explicit_routes(tmp_path, capsys):
    cfg = {
        "seed": 1,
        "game": {"type": "wanet", "routes": [[0], [0, 1], [1]], "chi": 5.0},
        "graph": {"type": "path", "n": 3},
        "admm": {"record_every": 500},
    }
    rc = cli.main(["run", write_cfg(tmp_path, cfg), "--output-dir", str(tmp_path)])
    out = kv(capsys.readouterr().out)
    assert rc == 0
    assert out["reason"] == "converged"
    assert out["guard_activations"] == "0"


def test_output_dir_env_var(tmp_path, capsys, monkeypatch):
    envdir = tmp_path / "envout"
    monkeypatch.setenv("NASHADMM_OUTPUT_DIR", str(envdir))
    assert cli.main(["run", write_cfg(tmp_path, QUAD)]) == 0
    capsys.readouterr()
    assert (envdir / "trace.csv").exists()
    # the flag wins over the environment
    flagdir = tmp_path / "flagout"
    assert cli.main(["run", write_cfg(tmp_path, QUAD), "--output-dir", str(flagdir)]) == 0
    capsys.readouterr()
    assert (flagdir / "trace.csv").exists()


def test_output_dir_from_config(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("NASHADMM_OUTPUT_DIR", raising=False)
    cfg = copy.deepcopy(QUAD)
    cfg["output_dir"] = str(tmp_path / "cfgout")
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == 0
    capsys.readouterr()
    assert (tmp_path / "cfgout" / "trace.csv").exists()


@pytest.mark.parametrize("source", ["config.output_dir", "--output-dir", "NASHADMM_OUTPUT_DIR"])
def test_output_dir_naming_a_file_is_a_config_error(tmp_path, capsys, monkeypatch, source):
    monkeypatch.delenv("NASHADMM_OUTPUT_DIR", raising=False)
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg, flag = {**copy.deepcopy(QUAD), "baseline": {}}, []
    if source == "config.output_dir":
        cfg["output_dir"] = str(taken)
    elif source == "--output-dir":
        flag = ["--output-dir", str(taken)]
    else:
        monkeypatch.setenv("NASHADMM_OUTPUT_DIR", str(taken))
    for command in ("run", "compare"):
        assert cli.main([command, write_cfg(tmp_path, cfg), *flag]) == 1
        assert capsys.readouterr().err.startswith(f"error: {source}: ")


@pytest.mark.parametrize("source", ["config.output_dir", "--output-dir", "NASHADMM_OUTPUT_DIR"])
@pytest.mark.parametrize("command, trace", [("run", "trace.csv"),
                                            ("compare", "trace_baseline.csv")])
def test_trace_naming_a_directory_is_a_config_error(tmp_path, capsys, monkeypatch, source,
                                                    command, trace):
    # rejected before the solve, which never starts, and no trace is left
    monkeypatch.delenv("NASHADMM_OUTPUT_DIR", raising=False)
    for solver in ("run", "compare"):
        monkeypatch.setattr(cli, solver, lambda *a, **k: pytest.fail("the solve started"))
    out = tmp_path / "out"
    (out / trace).mkdir(parents=True)
    cfg, flag = {**copy.deepcopy(QUAD), "baseline": {}}, []
    if source == "config.output_dir":
        cfg["output_dir"] = str(out)
    elif source == "--output-dir":
        flag = ["--output-dir", str(out)]
    else:
        monkeypatch.setenv("NASHADMM_OUTPUT_DIR", str(out))
    assert cli.main([command, write_cfg(tmp_path, cfg), *flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {source}: cannot write {out / trace}: Is a directory\n"
    assert [p.name for p in out.iterdir()] == [trace]


# ------------------------------------------------------------- config errors

def test_missing_game_block(tmp_path, capsys):
    cfg = {k: v for k, v in QUAD.items() if k != "game"}
    rc = cli.main(["run", write_cfg(tmp_path, cfg), "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "config.game" in capsys.readouterr().err


def test_missing_seed(tmp_path, capsys):
    cfg = {k: v for k, v in QUAD.items() if k != "seed"}
    rc = cli.main(["run", write_cfg(tmp_path, cfg), "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "config.seed" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    rc = cli.main(["run", str(p), "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("text", [b"[1, 2]", None, b"\xff\xfe{}", b"[" * 100_000],
                         ids=["top-level-list", "missing-file", "not-utf-8", "nested-too-deep"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, text):
    p = tmp_path / "cfg.json"
    if text is not None:
        p.write_bytes(text)
    rc = cli.main(["run", str(p), "--output-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: config: ")


def test_unknown_game_type(tmp_path, capsys):
    cfg = copy.deepcopy(QUAD)
    cfg["game"] = {"type": "auction"}
    rc = cli.main(["run", write_cfg(tmp_path, cfg), "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "game.type" in capsys.readouterr().err


def test_quadratic_missing_field_names_path(tmp_path, capsys):
    cfg = copy.deepcopy(QUAD)
    del cfg["game"]["a"]
    rc = cli.main(["run", write_cfg(tmp_path, cfg), "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "game.a" in capsys.readouterr().err


WANET_CAPS = {"type": "wanet", "routes": [[0], [0, 1], [1]]}
QUAD_SCALAR_A = {**QUAD["game"], "a": 2.0}
DISCONNECTED = {"type": "explicit", "n": 15, "edges": [[0, 1]]}
ONE_PLAYER = {"game": {"type": "quadratic", "a": [1.0], "B": [[0.0]], "d": [0.0],
                       "box": {"lower": -1, "upper": 1}},
              "graph": {"type": "explicit", "n": 1, "edges": []}}


def _set(cfg: dict, dotted: str, value) -> None:
    *blocks, key = dotted.split(".")
    for b in blocks:
        cfg = cfg[b]
    cfg[key] = value


@pytest.mark.parametrize("command, key, value, path", [
    ("run", "admm.max_iter", 1e999, "admm.max_iter"),
    ("run", "admm.x0", {"a": 1}, "admm.x0"),
    ("run", "game.routes", [["a"]], "game.routes[0][0]"),
    ("run", "graph.n", 1e999, "graph.n"),
    ("run", "seed", 1e999, "config.seed"),
    ("check", "seed", [1], "config.seed"),
    ("run", "output_dir", None, "config.output_dir"),
    ("compare", "output_dir", -1, "config.output_dir"),
    ("compare", "compare", [1], "config.compare"),
    ("compare", "compare.tol", "abc", "compare.tol"),
    ("run", "admm.max_iter", True, "admm.max_iter"),
    ("run", "admm.record_every", 2.7, "admm.record_every"),
    ("run", "admm.max_iter", "5000", "admm.max_iter"),
    ("run", "admm.c", -1, "admm.c"),
    ("check", "admm.beta", [], "admm.beta"),
    ("compare", "baseline.sweep", [0.1, -1], "baseline.sweep"),
    ("compare", "baseline.max_iter", -1, "baseline.max_iter"),
    ("compare", "baseline.gamma", "x", "baseline.gamma"),
    ("run", "graph.seed", 0.5, "graph.seed"),
    ("run", "game", QUAD_SCALAR_A, "game.a"),
    ("run", "game", {**WANET_CAPS, "capacities": None}, "game.capacities"),
    ("run", "game", {**WANET_CAPS, "capacities": 10.0}, "game.capacities"),
    ("run", "game", {**WANET_CAPS, "capacities": [10.0, float("nan")]}, "game.capacities[1]"),
    ("run", "game.routes", [None], "game.routes[0]"),
    ("run", "admm.beta", [1, 2], "admm.beta"),
    ("check", "admm.beta", [1, 2], "admm.beta"),
    ("compare", "admm.beta", [1, 2], "admm.beta"),
    ("run", "admm.x0", [0, 0, 0], "admm.x0"),
    ("compare", "admm.x0", [0, 0, 0], "admm.x0"),
    ("run", "admm.x0", [20] + [0] * 14, "admm.x0"),
    ("compare", "admm.x0", [20] + [0] * 14, "admm.x0"),
    ("check", "admm.x0", [20] + [0] * 14, "admm.x0"),
    ("run", "graph", {"type": "ring", "n": 4}, "game"),
    ("compare", "graph", {"type": "ring", "n": 4}, "game"),
    ("check", "graph", {"type": "ring", "n": 4}, "game"),
    ("check", "sigma_f", "x", "config.sigma_f"),
    ("run", "graph", DISCONNECTED, "graph"),
    ("compare", "graph", DISCONNECTED, "graph"),
    ("check", "graph", DISCONNECTED, "graph"),
    ("compare", "baseline.sweep", [], "baseline.sweep"),
    ("run", "game", {**QUAD["game"], "B": [[0.0] * 3, [0.0] * 2, [0.0] * 3]}, "game.B"),
    ("run", "game", {**QUAD["game"], "box": {"lower": [0, 0], "upper": 10}}, "game.box.lower"),
    ("run", "admm.x0", "ones", "admm.x0"),
    ("compare", "compare.tol", 0, "compare.tol"),
    ("run", "game", {**WANET_CAPS, "routes": [[0], []]}, "game"),
    ("run", "graph.extra_edges", -1, "graph"),
    ("compare", "baseline", {"gamma": -1, "sweep": [0.1]}, "baseline.gamma"),
], ids=["admm.max_iter", "admm.x0", "game.routes", "graph.n", "seed-inf", "seed-list",
        "output_dir-null", "output_dir-number", "compare-list", "compare.tol-string",
        "max_iter-bool", "record_every-fraction", "max_iter-string", "c-negative", "beta-empty",
        "sweep-negative", "baseline.max_iter-negative", "gamma-string", "graph.seed-fraction",
        "quadratic-scalar-a", "capacities-null", "capacities-scalar", "capacities-nan",
        "routes-null", "beta-length-run", "beta-length-check", "beta-length-compare",
        "x0-length-run", "x0-length-compare", "x0-box-run", "x0-box-compare", "x0-box-check",
        "size-mismatch-run", "size-mismatch-compare", "size-mismatch-check",
        "sigma_f-string", "disconnected-run", "disconnected-compare", "disconnected-check",
        "sweep-empty", "B-ragged", "box-lower-length", "x0-preset", "compare.tol-zero",
        "route-empty", "extra_edges-negative", "gamma-negative-with-sweep"])
def test_bad_field_value_is_a_config_error(tmp_path, capsys, monkeypatch, command, key, value,
                                           path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NASHADMM_OUTPUT_DIR", raising=False)
    cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
    _set(cfg, key, value)
    rc = cli.main([command, write_cfg(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {path}: ")


def test_old_baseline_keys_still_load(tmp_path, capsys):
    cfg = copy.deepcopy(QUAD)
    cfg["baseline"] = {"max_iter": 3000, "tol_consensus": 1e-300, "tol_residual": 5.0}
    rc = cli.main(["compare", write_cfg(tmp_path, cfg), "--output-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    # compare.tol overrides both tolerances, and the default sweep runs
    assert [l.split()[1] for l in out.splitlines() if l.startswith("sweep ")] == [
        f"gamma={g!r}" for g in cli.DEFAULT_CONFIG["baseline"]["sweep"]]


def test_retired_gamma_is_rejected_naming_sweep(tmp_path, capsys):
    """A lone gamma must not quietly become the default five-step-size sweep."""
    cfg = copy.deepcopy(QUAD)
    cfg["baseline"] = {"gamma": 0.1}
    rc = cli.main(["compare", write_cfg(tmp_path, cfg), "--output-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: baseline.gamma: ") and "sweep" in captured.err
    assert not (tmp_path / "trace_baseline.csv").exists()


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("graph", [
    {"type": "ring", "n": 16}, {"type": "complete", "n": 16}, {"type": "path", "n": 16},
    {"type": "random", "n": 16, "extra_edges": 3},
    {"type": "explicit", "n": 16, "edges": [[i, i + 1] for i in range(15)]},
], ids=["ring", "complete", "path", "random", "explicit"])
def test_size_mismatch_builds_no_graph(tmp_path, capsys, monkeypatch, command, graph):
    """The graph's size is compared with the game's before any edge is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("built a graph of the wrong size")

    for name in ("ring", "complete", "path", "random_connected_graph", "CommGraph"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NASHADMM_OUTPUT_DIR", raising=False)
    cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
    cfg["graph"] = graph
    rc = cli.main([command, write_cfg(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: game: player count disagrees with graph size\n"


CAP = 20
MUTATIONS = [None, True, "x", [], {}, [None], -1, 0.5, float("inf"), float("nan")]
# finite extremes: the largest double either way, the smallest, a negative zero
# and an integer past int64
EXTREMES = [1e308, -1e308, 5e-324, -0.0, 2**63]
# lists of the default config written out, so that one entry of them can change
LISTS = {
    "game.routes": [list(r) for r in default_wanet_instance(7)[0].routes],
    "baseline.sweep": list(cli.DEFAULT_CONFIG["baseline"]["sweep"]),
    "admm.beta": [1.0] * 15,
}
# An iteration budget is taken at its word: a sweep member that never converges
# would step 2^63 times, so the budgets keep the cap against huge values.
BUDGETS = {"admm.max_iter", "baseline.max_iter"}

# the default routes with one link index far past any memory; capacities for 16 links
HUGE_ROUTES = [list(r) for r in default_wanet_instance(7)[0].routes]
HUGE_ROUTES[0][0] = 10**15
# finite magnitudes the gate must reject before anything is sized or stepped by them:
# (dotted key, value, the path the one error line names)
PROBES = [
    ("game", {"type": "wanet", "routes": HUGE_ROUTES, "capacities": [10.0] * 16}, "game"),
    ("admm.c", 1e308, "admm.c"),
]


def _dotted_keys(cfg: dict, prefix: str = ""):
    for k, v in cfg.items():
        yield prefix + k
        if isinstance(v, dict):
            yield from _dotted_keys(v, prefix + k + ".")


def _set_entry(cfg: dict, dotted: str, index: tuple, value) -> None:
    """Write out the default list at dotted and set one entry of it, each index
    taken modulo its level's length."""
    entries = copy.deepcopy(LISTS[dotted])
    node, *inner = entries, *index[:1 if dotted == "game.routes" else 0]
    for i in inner:
        node = node[i % len(node)]
    node[index[-1] % len(node)] = value
    _set(cfg, dotted, entries)


_VALUES = MUTATIONS + EXTREMES
_WHOLE = st.tuples(st.sampled_from(list(_dotted_keys(cli.DEFAULT_CONFIG))),
                   st.sampled_from(_VALUES)).filter(
    lambda m: not (m[0] in BUDGETS and m[1] in (1e308, 2**63)))
_ENTRY = st.tuples(st.sampled_from(sorted(LISTS)),
                   st.tuples(st.integers(0, 14), st.integers(0, 2)), st.sampled_from(_VALUES))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["run", "check", "compare"]),
       st.lists(_WHOLE | _ENTRY
                | st.sampled_from([(key, value) for key, value, _ in PROBES]
                                  + [("game", {"type": "wanet", "routes": HUGE_ROUTES})]),
                min_size=1, max_size=2))
def test_mutated_default_config_never_raises(tmp_path, capsys, monkeypatch, command, mutations):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NASHADMM_OUTPUT_DIR", raising=False)
    cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
    cfg["admm"]["max_iter"] = cfg["baseline"]["max_iter"] = CAP
    for key, *where, value in mutations:
        try:
            if where:
                _set_entry(cfg, key, where[0], copy.deepcopy(value))
            else:
                _set(cfg, key, copy.deepcopy(value))
        except TypeError:
            pass  # an earlier mutation replaced the enclosing block
    for block in ("admm", "baseline"):  # keep the cap when a mutation empties a solver block
        if isinstance(cfg.get(block), dict):
            cfg[block].setdefault("max_iter", CAP)
    rc = cli.main([command, write_cfg(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    assert rc != 1 or err.startswith("error: ")
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("command", ["run", "compare", "check"])
@pytest.mark.parametrize("key, value, path", PROBES, ids=["routes-capacities", "c"])
def test_magnitude_probe_is_one_error_line(tmp_path, capsys, monkeypatch, command, key, value,
                                           path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NASHADMM_OUTPUT_DIR", raising=False)
    cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
    _set(cfg, key, value)
    rc = cli.main([command, write_cfg(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


# finite magnitudes that overflow inside a step rather than at the gate
OVERFLOWS = [
    ("compare", "baseline.sweep", [1e308]),
    ("run", "game.eps_guard", 1e308),
    ("compare", "game.eps_guard", 1e308),
    ("run", "game.capacities", [1e308] * 16),
]


@pytest.mark.parametrize("command, key, value", OVERFLOWS,
                         ids=["sweep-compare", "eps_guard-run", "eps_guard-compare",
                              "capacities-run"])
def test_overflow_in_a_step_prints_no_warning(tmp_path, capsys, monkeypatch, command, key,
                                              value):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NASHADMM_OUTPUT_DIR", raising=False)
    cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
    cfg["admm"]["max_iter"] = cfg["baseline"]["max_iter"] = 50
    _set(cfg, key, value)
    rc = cli.main([command, write_cfg(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert rc in (0, 2) and "Warning" not in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "compare", "check"])
def test_routes_without_capacities_size_nothing_by_a_link_index(tmp_path, capsys, monkeypatch,
                                                                 command):
    """Without capacities, link 10^15 runs as it would as link 16 of 17 links of
    capacity 10: a link no route uses adds only exact zeros."""
    monkeypatch.delenv("NASHADMM_OUTPUT_DIR", raising=False)
    oracle_routes = copy.deepcopy(HUGE_ROUTES)
    oracle_routes[0][0] = 16
    outputs = []
    for name, game in (("huge", {"type": "wanet", "routes": HUGE_ROUTES}),
                       ("oracle", {"type": "wanet", "routes": oracle_routes,
                                   "capacities": [10.0] * 17})):
        cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
        cfg["game"] = game
        cfg["admm"]["max_iter"] = cfg["baseline"]["max_iter"] = 300
        out = tmp_path / name
        where = [] if command == "check" else ["--output-dir", str(out)]
        rc = cli.main([command, write_cfg(tmp_path, cfg)] + where)
        captured = capsys.readouterr()
        assert rc in (0, 2) and captured.err == ""  # 2: run's iteration budget
        traces = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        outputs.append((rc, captured.out.replace(str(out), "OUT"), traces))
    assert outputs[0] == outputs[1]
    assert command == "check" or outputs[0][2]


def test_unknown_graph_type(tmp_path, capsys):
    cfg = copy.deepcopy(QUAD)
    cfg["graph"] = {"type": "torus", "n": 3}
    rc = cli.main(["run", write_cfg(tmp_path, cfg), "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "graph" in capsys.readouterr().err


# -------------------------------------------------------------------- check

def test_check_with_given_sigma(tmp_path, capsys):
    cfg = copy.deepcopy(QUAD)
    cfg["sigma_f"] = 0.3
    rc = cli.main(["check", write_cfg(tmp_path, cfg)])
    out = kv(capsys.readouterr().out)
    assert rc == 0
    assert out["sigma_f_source"] == "given"
    # complete(3) at c=1, beta=1: threshold 1/(2*(1+1)) = 1/4
    assert abs(float(out["threshold"]) - 0.25) <= 1e-12
    assert out["condition_satisfied"] == "true"
    assert abs(float(out["margin"]) - 0.05) <= 1e-12


def test_check_flag_overrides_config(tmp_path, capsys):
    cfg = copy.deepcopy(QUAD)
    cfg["sigma_f"] = 0.3
    rc = cli.main(["check", write_cfg(tmp_path, cfg), "--sigma-f", "0.2"])
    out = kv(capsys.readouterr().out)
    assert rc == 0
    assert float(out["sigma_f"]) == 0.2
    assert out["condition_satisfied"] == "false"
    assert float(out["margin"]) < 0


@pytest.mark.parametrize("sigma", ["0", "-1"])
def test_check_nonpositive_sigma_fails_the_condition(tmp_path, capsys, sigma):
    rc = cli.main(["check", write_cfg(tmp_path, QUAD), "--sigma-f", sigma])
    out = kv(capsys.readouterr().out)
    assert rc == 0
    assert out["condition_satisfied"] == "false"
    assert float(out["margin"]) == float(sigma) - float(out["threshold"])


def test_check_estimates_sigma(tmp_path, capsys):
    rc = cli.main(["check", write_cfg(tmp_path, QUAD)])
    out = kv(capsys.readouterr().out)
    assert rc == 0
    assert out["sigma_f_source"] == "exact"
    # pseudo-gradient 2x - 2 has cocoercivity constant 1/2
    assert abs(float(out["sigma_f"]) - 0.5) <= 1e-12
    assert out["condition_satisfied"] == "true"


@pytest.mark.parametrize("flag, message", [
    (["--sigma-f", "inf"], "--sigma-f: must be a finite number, got Infinity"),
    (["--sigma-f", "nan"], "--sigma-f: must be a finite number, got NaN"),
])
def test_check_bad_flag_is_rejected_before_the_report(tmp_path, capsys, flag, message):
    rc = cli.main(["check", write_cfg(tmp_path, QUAD), *flag])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("block, value, message", [
    ("game", {"type": "wanet", "seed": -1}, "game.seed: must be nonnegative"),
    ("admm", {"c": -1.0}, "admm.c: must be positive"),
    ("graph", DISCONNECTED,
     "graph: connectivity assumption violated (communication graph is not connected)"),
    (None, ONE_PLAYER,
     "graph: needs at least 2 nodes (a single-player game is plain minimization)"),
    ("graph", {"type": "ring", "n": 4}, "game: player count disagrees with graph size"),
    ("game", {"type": "wanet", "routes": []}, "game.routes: must list at least one route"),
    ("graph", {"type": "explicit", "n": 15, "edges": [[0, 20]]},
     "graph: edge (0,20) out of range for n=15"),
    (None, {**ONE_PLAYER, "graph": {"type": "ring", "n": 1}}, "graph: ring needs n >= 2"),
    (None, {**ONE_PLAYER, "graph": {"type": "random", "n": 1}},
     "graph: random connected graph needs n >= 2"),
])
def test_check_bad_block_is_rejected_before_the_report(tmp_path, capsys, monkeypatch, block,
                                                       value, message):
    """Every command rejects a bad block (None: the blocks in value) before any output."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NASHADMM_OUTPUT_DIR", raising=False)
    cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
    cfg.update(value if block is None else {block: value})
    for command in ("check", "run", "compare"):
        rc = cli.main([command, write_cfg(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_check_removed_samples_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", write_cfg(tmp_path, QUAD), "--samples", "200"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --samples 200" in capsys.readouterr().err


def test_check_sigma_not_estimable(tmp_path, capsys):
    cfg = {
        "seed": 0,
        "game": {"type": "quadratic", "a": [1.0, 1.0], "B": [[0.0, 1.0], [1.0, 0.0]],
                 "d": [0.0, 0.0], "box": {"lower": -1, "upper": 1}},
        "graph": {"type": "ring", "n": 2},
    }
    rc = cli.main(["check", write_cfg(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    # M = diag(a) + B is singular, so sigma_F has no closed form and there is no verdict
    keys = [line.partition("=")[0] for line in captured.out.splitlines()]
    assert keys == ["n", "edges", "degree_min", "degree_max", "lambda_min_d_plus_a",
                    "c", "beta_min", "threshold", "sigma_f_source"]
    assert captured.out.endswith("sigma_f_source=none\n")


def test_check_exact_sigma_overturns_an_optimistic_sample(tmp_path, capsys):
    """random_quadratic_game(15, 1) on ring(15) at beta = 1.9: a minimum over 200 sampled
    profile pairs reads 0.268 and clears the 0.2572 threshold; the exact 0.2398 does not."""
    g = random_quadratic_game(15, seed=1)
    cfg = {"seed": 0,
           "game": {"type": "quadratic", "a": g.a.tolist(), "B": g.B.tolist(),
                    "d": g.d.tolist(), "box": {"lower": -10, "upper": 10}},
           "graph": {"type": "ring", "n": 15}, "admm": {"beta": 1.9}}
    rc = cli.main(["check", write_cfg(tmp_path, cfg)])
    out = kv(capsys.readouterr().out)
    assert rc == 0
    assert out["sigma_f_source"] == "exact"
    assert out["condition_satisfied"] == "false"
    assert abs(float(out["sigma_f"]) - 0.23978296463652252) <= 1e-12
    assert abs(float(out["threshold"]) - 0.25724070876273464) <= 1e-12


def test_check_computes_lambda_min_once(tmp_path, capsys, monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh  # what nashadmm.graph calls
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(M.shape) or eigvalsh(M))
    # the report line and condition_threshold both read lambda_min(D + A)
    rc = cli.main(["check", write_cfg(tmp_path, QUAD), "--sigma-f", "0.3"])
    assert rc == 0
    assert "condition_satisfied=true" in capsys.readouterr().out
    assert calls == [(3, 3)]


def test_check_disconnected_graph(tmp_path, capsys):
    cfg = copy.deepcopy(QUAD)
    cfg["graph"] = {"type": "explicit", "n": 3, "edges": [[0, 1]]}
    rc = cli.main(["check", write_cfg(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == ("error: graph: connectivity assumption violated "
                            "(communication graph is not connected)\n")


# ------------------------------------------------------------------ compare

def test_compare_summary_and_traces(tmp_path, capsys):
    cfg = copy.deepcopy(QUAD)
    cfg["baseline"] = {"sweep": [0.2, 0.1], "max_iter": 3000}
    cfg["compare"] = {"tol": 1e-5}
    rc = cli.main(["compare", write_cfg(tmp_path, cfg), "--output-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    out = kv(captured.out)
    assert out["admm_reason"] == "converged"
    assert out["baseline_reason"] == "converged"
    assert float(out["ratio"]) > 0
    assert float(out["baseline_gamma"]) in (0.2, 0.1)
    sweep_lines = [l for l in captured.out.splitlines() if l.startswith("sweep ")]
    assert len(sweep_lines) == 2
    assert (tmp_path / "trace_admm.csv").exists()
    assert (tmp_path / "trace_baseline.csv").exists()


# ------------------------------------------------------- graph report / defaults

def test_check_graph_report(tmp_path, capsys):
    rc = cli.main(["check", write_cfg(tmp_path, QUAD)])
    out = kv(capsys.readouterr().out)
    assert rc == 0
    assert out["n"] == "3" and out["edges"] == "3"
    assert out["degree_min"] == "2" and out["degree_max"] == "2"
    assert abs(float(out["lambda_min_d_plus_a"]) - 1.0) <= 1e-12


def test_python_dash_m_runs_the_cli(capsys):
    # `python -m nashadmm` goes through __main__.py to cli.main and its exit code
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "nashadmm", "print-default-config"],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert cli.main(["print-default-config"]) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")


def test_print_default_config_round_trips(tmp_path, capsys):
    rc = cli.main(["print-default-config"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out) == cli.DEFAULT_CONFIG
    # and the emitted document is directly usable as a config
    p = tmp_path / "default.json"
    p.write_text(out)
    rc = cli.main(["check", str(p)])
    out = capsys.readouterr().out
    report = kv(out)
    assert rc == 0
    assert "threshold" in report
    # the congestion game has no known sigma_F, so the report ends without a verdict
    assert out.endswith("sigma_f_source=none\n")
    for key in ("sigma_f", "condition_satisfied", "margin"):
        assert key not in report


# ------------------------------------------------------- default outputs, pinned

# sha256 of the traces `run` and `compare` write for DEFAULT_CONFIG. The default
# wanet instance has at most two users per link, so no load sum depends on the
# BLAS kernel's order: it hashes the same under every OpenBLAS core type tried.
DEFAULT_TRACE_SHA256 = {
    "trace.csv": "058193a16d24037e21ed8fe92216b14fd1076fd574c2e639477dc0d5b3b59d55",
    "trace_admm.csv": "9871c3b37e330c7a48bb2316517d583254511891bb6f311e8878aca558358783",
    "trace_baseline.csv": "fcb2b816aa0c595adf5b2f8e102a2361a0b257d07aacd178a9ad2cc86d52653f",
}
DEFAULT_RUN_STDOUT = """game=wanet
players=15
reason=converged
iterations=2978
consensus_error=2.6986919365867834e-09
ne_residual=9.982802025021442e-07
guard_activations=0
trace=OUT/trace.csv
"""
DEFAULT_COMPARE_STDOUT = """tol=0.0001
admm_reason=converged
admm_iterations=2004
baseline_reason=converged
baseline_iterations=4723
baseline_gamma=0.02
ratio=2.3567864271457086
trace_admm=OUT/trace_admm.csv
trace_baseline=OUT/trace_baseline.csv
sweep gamma=0.2 reason=converged iterations=4828
sweep gamma=0.1 reason=converged iterations=4853
sweep gamma=0.05 reason=converged iterations=4862
sweep gamma=0.02 reason=converged iterations=4723
sweep gamma=0.01 reason=iteration budget iterations=none
"""


def test_default_outputs_keep_their_bytes(tmp_path, capsys):
    cfgp, out = write_cfg(tmp_path, cli.DEFAULT_CONFIG), tmp_path / "out"
    for command, stdout in (("run", DEFAULT_RUN_STDOUT), ("compare", DEFAULT_COMPARE_STDOUT)):
        rc = cli.main([command, cfgp, "--output-dir", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.replace(str(out), "OUT") == stdout
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in DEFAULT_TRACE_SHA256} == DEFAULT_TRACE_SHA256
