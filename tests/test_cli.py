import copy
import json

import numpy as np
import pytest

from nashadmm import cli


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
    from nashadmm.metrics import IterationRecord

    rec = IterationRecord(k=3, actions=np.zeros(3), consensus_error=float("nan"),
                          ne_residual=float("nan"), guard_activations=0, elapsed=0.0)
    fake = RunResult(state=SolverState(np.zeros((3, 3)), np.zeros((3, 3)), 3),
                     records=[rec], reason="diverged", diverged_at=3)
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


def test_run_x0_appears_in_first_record(tmp_path, capsys):
    cfg = copy.deepcopy(QUAD)
    cfg["admm"]["x0"] = [0.1, 0.2, 0.3]
    rc = cli.main(["run", write_cfg(tmp_path, cfg), "--output-dir", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    rows = (tmp_path / "trace.csv").read_text().splitlines()[1:4]
    actions = [r.split(",")[2] for r in rows]
    assert actions == [repr(0.1), repr(0.2), repr(0.3)]


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


@pytest.mark.parametrize("block, field, value", [
    ("admm", "max_iter", 1e999),       # int(inf): OverflowError
    ("admm", "x0", {"a": 1}),          # float(dict): TypeError
    ("game", "routes", [["a"]]),       # 1 + max(["a"]): TypeError
    ("graph", "n", 1e999),             # int(inf): OverflowError
], ids=["admm.max_iter", "admm.x0", "game.routes", "graph.n"])
def test_bad_field_value_is_a_config_error(tmp_path, capsys, block, field, value):
    cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
    cfg[block][field] = value
    rc = cli.main(["run", write_cfg(tmp_path, cfg), "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {block}: ")
    assert "Traceback" not in err


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
    assert out["connected"] == "true"
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


def test_check_estimates_sigma(tmp_path, capsys):
    rc = cli.main(["check", write_cfg(tmp_path, QUAD)])
    out = kv(capsys.readouterr().out)
    assert rc == 0
    assert out["sigma_f_source"] == "estimated"
    # pseudo-gradient 2x - 2 has cocoercivity constant 1/2
    assert abs(float(out["sigma_f"]) - 0.5) <= 1e-12
    assert out["condition_satisfied"] == "true"


def test_check_disconnected_graph(tmp_path, capsys):
    cfg = copy.deepcopy(QUAD)
    cfg["graph"] = {"type": "explicit", "n": 4, "edges": [[0, 1], [2, 3]]}
    rc = cli.main(["check", write_cfg(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert rc == 1
    assert kv(captured.out)["connected"] == "false"
    assert "connectivity assumption violated" in captured.err


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


# ------------------------------------------------------- spectra / defaults

def test_spectra(tmp_path, capsys):
    rc = cli.main(["spectra", write_cfg(tmp_path, QUAD)])
    out = kv(capsys.readouterr().out)
    assert rc == 0
    assert out["n"] == "3" and out["edges"] == "3"
    assert out["degree_min"] == "2" and out["degree_max"] == "2"
    assert abs(float(out["lambda_min_d_plus_a"]) - 1.0) <= 1e-12
    assert abs(float(out["lambda_max_normalized_laplacian"]) - 1.5) <= 1e-12


def test_print_default_config_round_trips(tmp_path, capsys):
    rc = cli.main(["print-default-config"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out) == cli.DEFAULT_CONFIG
    # and the emitted document is directly usable as a config
    p = tmp_path / "default.json"
    p.write_text(out)
    rc = cli.main(["spectra", str(p)])
    assert rc == 0
    capsys.readouterr()
