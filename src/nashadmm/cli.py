"""Command-line front end: config ingestion, experiment orchestration, CSV traces.

Subcommands: run, compare, check, spectra, print-default-config. Config is a
single JSON document; summaries go to stdout as key=value lines; traces are
CSV files in the output directory (config "output_dir", overridden by the
NASHADMM_OUTPUT_DIR environment variable, overridden by --output-dir).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .admm import AdmmConfig, check_condition, condition_threshold, run
from .baseline import BaselineConfig, compare
from .games import (
    ActionBox,
    QuadraticGame,
    SigmaEstimationError,
    WanetGame,
    default_wanet_instance,
    estimate_sigma_f,
)
from .graph import graph_from_config

TRACE_COLUMNS = ["k", "player", "action", "consensus_error", "ne_residual",
                 "guard_activations", "elapsed_us"]

DEFAULT_CONFIG = {
    "seed": 7,
    "output_dir": ".",
    "game": {"type": "wanet", "seed": 7},
    "graph": {"type": "random", "n": 15, "extra_edges": 5, "seed": 7},
    "admm": {
        "c": 1.0,
        "beta": 1.0,
        "max_iter": 5000,
        "tol_consensus": 1e-8,
        "tol_residual": 1e-6,
        "record_every": 1,
        "x0": "zeros",
    },
    "baseline": {
        "gamma": 0.05,
        "sweep": [0.2, 0.1, 0.05, 0.02, 0.01],
        "max_iter": 5000,
        "tol_consensus": 1e-8,
        "tol_residual": 1e-6,
        "record_every": 1,
    },
    "compare": {"tol": 1e-4},
}


class ConfigError(Exception):
    """Config rejection carrying the dotted path of the offending field."""

    def __init__(self, path: str, msg: str):
        super().__init__(f"{path}: {msg}")
        self.path = path


def _require(block: dict, key: str, path: str):
    if key not in block:
        raise ConfigError(f"{path}.{key}", "required field missing")
    return block[key]


def _block(cfg: dict, key: str) -> dict:
    blk = _require(cfg, key, "config")
    if not isinstance(blk, dict):
        raise ConfigError(f"config.{key}", "must be an object")
    return blk


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f)
    except OSError as e:
        raise ConfigError("config", f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError("config", f"invalid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be an object")
    if "seed" not in cfg:
        raise ConfigError("config.seed", "required field missing (runs must be reproducible)")
    return cfg


def _as_bounds(raw, n: int, path: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(raw, dtype=float))
    if arr.shape == (1,):
        return np.full(n, arr[0])
    if arr.shape != (n,):
        raise ConfigError(path, f"expected a scalar or {n} values")
    return arr


def build_game(block: dict, default_seed: int):
    kind = block.get("type")
    if kind == "quadratic":
        try:
            a = np.asarray(_require(block, "a", "game"), dtype=float)
            B = np.asarray(_require(block, "B", "game"), dtype=float)
            d = np.asarray(_require(block, "d", "game"), dtype=float)
            box_blk = _require(block, "box", "game")
            if not isinstance(box_blk, dict):
                raise ConfigError("game.box", "must be an object with lower/upper")
            n = a.shape[0]
            lower = _as_bounds(_require(box_blk, "lower", "game.box"), n, "game.box.lower")
            upper = _as_bounds(_require(box_blk, "upper", "game.box"), n, "game.box.upper")
            return QuadraticGame(a, B, d, ActionBox(lower, upper))
        except (ValueError, TypeError, OverflowError) as e:
            raise ConfigError("game", str(e))
    if kind == "wanet":
        try:
            seed = int(block.get("seed", default_seed))
            if "routes" in block:
                routes = block["routes"]
                if not routes:
                    raise ConfigError("game.routes", "must list at least one route")
                caps = block.get("capacities")
                if caps is None:
                    n_links = 1 + max(max(r) for r in routes if r)
                    caps = np.full(n_links, 10.0)
            else:
                base, _ = default_wanet_instance(seed)
                routes = base.routes
                caps = block.get("capacities", base.capacities)
            return WanetGame(
                capacities=np.asarray(caps, dtype=float),
                routes=routes,
                kappa=float(block.get("kappa", 1.0)),
                chi=block.get("chi", 10.0),
                eps_guard=float(block.get("eps_guard", 1e-6)),
            )
        except (ValueError, TypeError, OverflowError) as e:
            raise ConfigError("game", str(e))
    raise ConfigError("game.type", f"unknown game type {kind!r}")


def build_graph(block: dict, default_seed: int):
    if block.get("type") == "random" and "seed" not in block:
        block = {**block, "seed": default_seed}
    try:
        return graph_from_config(block)
    except (ValueError, KeyError, TypeError, OverflowError) as e:
        raise ConfigError("graph", str(e))


def build_admm(block: dict):
    x0 = block.get("x0", "zeros")
    if isinstance(x0, str) and x0 != "zeros":
        raise ConfigError("admm.x0", f"unknown preset {x0!r}")
    try:
        cfg = AdmmConfig(
            c=float(block.get("c", 1.0)),
            beta=_scalar_or_tuple(block.get("beta", 1.0)),
            max_iter=int(block.get("max_iter", 5000)),
            tol_consensus=float(block.get("tol_consensus", 1e-8)),
            tol_residual=float(block.get("tol_residual", 1e-6)),
            record_every=int(block.get("record_every", 1)),
        )
        x0 = None if isinstance(x0, str) else np.asarray(x0, dtype=float)
    except (ValueError, TypeError, OverflowError) as e:
        raise ConfigError("admm", str(e))
    return cfg, x0


def _scalar_or_tuple(v):
    if isinstance(v, (list, tuple)):
        return tuple(float(x) for x in v)
    return float(v)


def build_baseline(block: dict):
    try:
        sweep = block.get("sweep")
        gamma = float(block.get("gamma", 0.05))
        if sweep is None:
            sweep = (gamma,) if "gamma" in block else BaselineConfig().sweep
        return BaselineConfig(
            gamma=gamma,
            sweep=tuple(float(g) for g in sweep),
            max_iter=int(block.get("max_iter", 5000)),
            tol_consensus=float(block.get("tol_consensus", 1e-8)),
            tol_residual=float(block.get("tol_residual", 1e-6)),
            record_every=int(block.get("record_every", 1)),
        )
    except (ValueError, TypeError, OverflowError) as e:
        raise ConfigError("baseline", str(e))


def _output_dir(cfg: dict, flag_value) -> Path:
    if flag_value:
        d = Path(flag_value)
    elif os.environ.get("NASHADMM_OUTPUT_DIR"):
        d = Path(os.environ["NASHADMM_OUTPUT_DIR"])
    else:
        d = Path(cfg.get("output_dir", "."))
    d.mkdir(parents=True, exist_ok=True)
    return d


def write_trace(path: Path, records, n_players: int, timing: bool = False):
    """Long-format CSV: one row per recorded iteration per player.

    Floats are serialized with repr so identical runs produce identical bytes;
    elapsed_us is 0 unless timing is requested, for the same reason.
    """
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(TRACE_COLUMNS)
        for r in records:
            us = int(round(r.elapsed * 1e6)) if timing else 0
            for i in range(n_players):
                w.writerow([
                    r.k, i, repr(float(r.actions[i])),
                    repr(float(r.consensus_error)), repr(float(r.ne_residual)),
                    r.guard_activations, us,
                ])


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _emit(**pairs):
    for k, v in pairs.items():
        print(f"{k}={_fmt(v)}")


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    seed = int(cfg["seed"])
    game = build_game(_block(cfg, "game"), seed)
    graph = build_graph(_block(cfg, "graph"), seed)
    admm_cfg, x0 = build_admm(_block(cfg, "admm"))
    result = run(game, graph, admm_cfg, x0=x0)

    out = _output_dir(cfg, args.output_dir)
    trace = out / "trace.csv"
    write_trace(trace, result.records, graph.n, timing=args.timing)

    final = result.records[-1]
    _emit(
        game=cfg["game"].get("type"),
        players=graph.n,
        reason=result.reason,
        iterations=result.state.k,
        consensus_error=float(final.consensus_error),
        ne_residual=float(final.ne_residual),
        guard_activations=final.guard_activations,
        trace=trace,
    )
    if result.reason == "diverged":
        print(f"error: non-finite values at iteration {result.diverged_at}", file=sys.stderr)
        return 1
    return 0 if result.reason == "converged" else 2


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    seed = int(cfg["seed"])
    game = build_game(_block(cfg, "game"), seed)
    graph = build_graph(_block(cfg, "graph"), seed)
    admm_cfg, x0 = build_admm(_block(cfg, "admm"))
    baseline_cfg = build_baseline(_block(cfg, "baseline"))
    tol = float(cfg.get("compare", {}).get("tol", 1e-4))
    report = compare(game, graph, admm_cfg, baseline_cfg, tol, x0=x0)

    out = _output_dir(cfg, args.output_dir)
    trace_a = out / "trace_admm.csv"
    trace_b = out / "trace_baseline.csv"
    write_trace(trace_a, report.admm_result.records, graph.n, timing=args.timing)
    write_trace(trace_b, report.baseline_result.records, graph.n, timing=args.timing)

    _emit(
        tol=tol,
        admm_reason=report.admm_reason,
        admm_iterations="none" if report.admm_iterations is None else report.admm_iterations,
        baseline_reason=report.baseline_reason,
        baseline_iterations="none" if report.baseline_iterations is None else report.baseline_iterations,
        baseline_gamma="none" if report.baseline_gamma is None else float(report.baseline_gamma),
        ratio="none" if report.ratio is None else float(report.ratio),
        trace_admm=trace_a,
        trace_baseline=trace_b,
    )
    for g, reason, iters in report.sweep_results:
        print(f"sweep gamma={_fmt(float(g))} reason={reason} "
              f"iterations={'none' if iters is None else iters}")
    return 0


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    seed = int(cfg["seed"])
    graph = build_graph(_block(cfg, "graph"), seed)
    connected = graph.is_connected()
    _emit(connected=connected)
    if not connected:
        print("error: connectivity assumption violated (communication graph "
              "is not connected)", file=sys.stderr)
        return 1

    admm_cfg, _ = build_admm(cfg.get("admm", {}))

    def sigma_f():
        given = cfg.get("sigma_f") if args.sigma_f is None else args.sigma_f
        if given is not None:
            return float(given), "given"
        game = build_game(_block(cfg, "game"), seed)
        if game.n_players != graph.n:
            raise ConfigError("game", "player count disagrees with graph size")
        return estimate_sigma_f(game, game.action_box, samples=args.samples, seed=seed), "estimated"

    try:
        emit_condition_report(graph, admm_cfg, sigma_f)
    except SigmaEstimationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def emit_condition_report(graph, admm_cfg: AdmmConfig, sigma_f) -> None:
    """Print the spectral threshold, then sigma_F and the sufficient-condition verdict.

    sigma_f() returns (value, source); it runs after the threshold lines are
    printed, and a SigmaEstimationError it raises is left to the caller.
    """
    threshold = condition_threshold(admm_cfg, graph)
    _emit(
        lambda_min_d_plus_a=graph.lambda_min_d_plus_a(),
        lambda_max_normalized_laplacian=graph.lambda_max_normalized_laplacian(),
        c=admm_cfg.c,
        beta_min=float(np.min(admm_cfg.beta_vector(graph.n))),
        threshold=threshold,
    )
    sigma, source = sigma_f()
    if sigma > 0:
        ok, margin = check_condition(sigma, admm_cfg, graph)
    else:
        ok, margin = False, sigma - threshold
    _emit(sigma_f=float(sigma), sigma_f_source=source,
          condition_satisfied=ok, margin=float(margin))


def cmd_spectra(args) -> int:
    cfg = load_config(args.config)
    graph = build_graph(_block(cfg, "graph"), int(cfg["seed"]))
    deg = graph.degrees()
    _emit(n=graph.n, edges=len(graph.edges), connected=graph.is_connected())
    if not graph.is_connected():
        print("error: connectivity assumption violated (communication graph "
              "is not connected)", file=sys.stderr)
        return 1
    _emit(
        degree_min=int(deg.min()),
        degree_max=int(deg.max()),
        lambda_min_d_plus_a=graph.lambda_min_d_plus_a(),
        lambda_max_normalized_laplacian=graph.lambda_max_normalized_laplacian(),
    )
    return 0


def cmd_print_default_config(_args) -> int:
    print(json.dumps(DEFAULT_CONFIG, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nashadmm",
        description="Nash equilibrium seeking over a communication graph "
                    "(consensus-ADMM solver, gradient baseline, diagnostics).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("config", help="path to the JSON run config")
        sp.add_argument("--timing", action="store_true",
                        help="record wall-clock elapsed_us in traces "
                             "(breaks byte-for-byte reproducibility)")
        sp.add_argument("--output-dir", default=None,
                        help="override the trace output directory")

    sp = sub.add_parser("run", help="run the ADMM solver, write trace.csv")
    add_common(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("compare", help="race ADMM against the swept gradient baseline")
    add_common(sp)
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("check", help="convergence-condition report for a config")
    sp.add_argument("config")
    sp.add_argument("--sigma-f", type=float, default=None,
                    help="cocoercivity constant to use instead of estimating it")
    sp.add_argument("--samples", type=int, default=200,
                    help="profile pairs for the sigma_F estimate")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("spectra", help="graph spectral summary")
    sp.add_argument("config")
    sp.set_defaults(fn=cmd_spectra)

    sp = sub.add_parser("print-default-config", help="emit the default JSON config")
    sp.set_defaults(fn=cmd_print_default_config)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
