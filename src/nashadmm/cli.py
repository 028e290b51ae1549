"""Command-line front end: config ingestion, experiment orchestration, CSV traces.

Subcommands: run, compare, check, print-default-config. `check` reports the
graph and the convergence condition, `run` solves, and `compare` races the
solver against the swept baseline. Config is a single JSON document;
summaries go to stdout as key=value lines; traces are CSV files in the output
directory (config "output_dir", overridden by the NASHADMM_OUTPUT_DIR
environment variable, overridden by --output-dir).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from functools import cache
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .admm import AdmmConfig, _step_weights, condition_threshold, run
from .baseline import BaselineConfig, compare
from .games import ActionBox, QuadraticGame, WanetGame, default_wanet_instance, quadratic_sigma_f
from .graph import CommGraph, complete, path, random_connected_graph, ring
from .loop import Records, SettingError, check_problem

TRACE_COLUMNS = ["k", "player", "action", "consensus_error", "ne_residual",
                 "guard_activations", "elapsed_us"]


def _defaults(cls, *skip) -> dict:
    """cls's field defaults as JSON values, less the fields in skip."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in fields(cls) if f.name not in skip}


DEFAULT_CONFIG = {
    "seed": 7,
    "output_dir": ".",
    "game": {"type": "wanet", "seed": 7},
    "graph": {"type": "random", "n": 15, "extra_edges": 5, "seed": 7},
    "admm": {**_defaults(AdmmConfig), "x0": "zeros"},
    # compare sets both baseline tolerances to compare.tol
    "baseline": _defaults(BaselineConfig, "tol_consensus", "tol_residual"),
    "compare": {"tol": 1e-4},
}


class ConfigError(Exception):
    """Config rejection, its message led by the dotted path of the offending field."""

    def __init__(self, path: str, msg: str):
        super().__init__(f"{path}: {msg}")


def _require(block: dict, key: str, path: str):
    if key not in block:
        raise ConfigError(f"{path}.{key}", "required field missing")
    return block[key]


def _block(cfg: dict, key: str, optional: bool = False, path: str = "config") -> dict:
    if optional and key not in cfg:
        return {}
    blk = _require(cfg, key, path)
    if not isinstance(blk, dict):
        raise ConfigError(f"{path}.{key}", "must be an object")
    return blk


def _read(v, path: str, kind: type = float, depths: tuple = (0,)):
    """v as a finite number of `kind`, or lists of them nested `depths` levels deep."""
    if type(v) in (int, float) and 0 in depths:  # type(True) is bool
        if kind is int and (type(v) is int or v.is_integer()):
            return int(v)
        if kind is float and abs(v) <= sys.float_info.max:
            return float(v)
    elif type(v) is list and any(depths):
        inner = tuple(d - 1 for d in depths if d)
        return [_read(x, f"{path}[{i}]", kind, inner) for i, x in enumerate(v)]
    want = "a list" if 0 not in depths else "an integer" if kind is int else "a finite number"
    raise ConfigError(path, f"must be {want}, got {json.dumps(v)}")


def _array(v, path: str, depths: tuple) -> np.ndarray:
    try:
        return np.array(_read(v, path, float, depths))
    except ValueError:
        raise ConfigError(path, "rows must have equal lengths")


def _seed(v, path: str) -> int:
    seed = _read(v, path, int)
    if seed < 0:
        raise ConfigError(path, "must be nonnegative")
    return seed


@cache
def _kinds(cls) -> dict:
    """Field -> _read's (kind, depths) by annotation: int, float, tuple (a list), else either."""
    plain = {int: (int, (0,)), float: (float, (0,)), tuple: (float, (1,))}
    return {name: plain.get(t, (float, (0, 1))) for name, t in get_type_hints(cls).items()}


def read_settings(cls, block: dict, path: str):
    """cls built from the fields block sets, each read as its kind; a value the
    reader or cls rejects is a ConfigError naming the field."""
    kwargs = {name: _read(block[name], f"{path}.{name}", *kind)
              for name, kind in _kinds(cls).items() if name in block}
    try:
        return cls(**kwargs)
    except SettingError as e:
        raise ConfigError(f"{path}.{e.field}", e.reason)


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError("config", f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError("config", f"invalid JSON: {e}")
    except RecursionError:
        raise ConfigError("config", "invalid JSON: nested too deeply")
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be an object")
    return cfg


def _as_bounds(raw, n: int, path: str) -> np.ndarray:
    arr = np.atleast_1d(_array(raw, path, (0, 1)))
    if arr.shape not in ((1,), (n,)):
        raise ConfigError(path, f"expected a scalar or {n} values")
    return np.broadcast_to(arr, (n,))


def build_game(block: dict, default_seed: int):
    kind = block.get("type")
    if kind not in ("quadratic", "wanet"):
        raise ConfigError("game.type", f"unknown game type {kind!r}")
    try:
        if kind == "quadratic":
            a, B, d = (_array(_require(block, k, "game"), f"game.{k}", (depth,))
                       for k, depth in (("a", 1), ("B", 2), ("d", 1)))
            box_blk = _block(block, "box", path="game")
            lower, upper = (_as_bounds(_require(box_blk, k, "game.box"), len(a), f"game.box.{k}")
                            for k in ("lower", "upper"))
            return QuadraticGame(a, B, d, ActionBox(lower, upper))
        caps = _array(block["capacities"], "game.capacities", (1,)) \
            if "capacities" in block else None
        if "routes" in block:
            routes = _read(block["routes"], "game.routes", int, (2,))
            if not routes:
                raise ConfigError("game.routes", "must list at least one route")
            if caps is None:  # capacity 10 on each link a route uses, renumbered in order,
                # so no array is sized by a link index; a negative one stays invalid
                used = sorted({j for r in routes for j in r if j >= 0})
                index = dict(zip(used, range(len(used))))
                routes = [[index.get(j, j) for j in r] for r in routes]
                caps = np.full(len(used), 10.0)
        else:
            base, _ = default_wanet_instance(_seed(block.get("seed", default_seed), "game.seed"))
            routes = base.routes
            caps = base.capacities if caps is None else caps
        params = {k: _read(block[k], f"game.{k}", float, (0, 1) if k == "chi" else (0,))
                  for k in ("kappa", "chi", "eps_guard") if k in block}
        return WanetGame(capacities=caps, routes=routes, **params)
    except ValueError as e:
        raise ConfigError("game", str(e))


def build_graph(block: dict, default_seed: int, n_players: int) -> CommGraph:
    """Accepted forms: {"type": "ring"|"complete"|"path", "n": int},
    {"type": "random", "n": int, "extra_edges": int, "seed": int} (seed
    defaults to the config's), {"type": "explicit", "n": int, "edges": [[i, j], ...]}.
    An n other than n_players is rejected before any edge is built."""
    kind = block.get("type")
    if kind not in ("ring", "complete", "path", "random", "explicit"):
        raise ConfigError("graph.type", f"unknown graph type {kind!r}")
    n = _read(_require(block, "n", "graph"), "graph.n", int)
    if n != n_players:
        raise ConfigError("game", "player count disagrees with graph size")
    try:
        if kind == "random":
            return random_connected_graph(
                n, _read(block.get("extra_edges", 0), "graph.extra_edges", int),
                _seed(block.get("seed", default_seed), "graph.seed"))
        if kind == "explicit":
            edges = _read(_require(block, "edges", "graph"), "graph.edges", int, (2,))
            return CommGraph(n, frozenset(tuple(e) for e in edges))
        return {"ring": ring, "complete": complete, "path": path}[kind](n)
    except ValueError as e:
        raise ConfigError("graph", str(e))


def build_admm(block: dict, game, graph: CommGraph):
    """Solver settings and the start x0 for game on graph, passed through the
    library's input gate, whose game and graph errors keep their own paths."""
    x0 = block.get("x0", "zeros")
    if isinstance(x0, str) and x0 != "zeros":
        raise ConfigError("admm.x0", f"unknown preset {x0!r}")
    x0 = None if x0 == "zeros" else _array(x0, "admm.x0", (1,))
    cfg = read_settings(AdmmConfig, block, "admm")
    try:
        _step_weights(cfg, graph)
        x0 = check_problem(game, graph, x0)
    except SettingError as e:
        raise ConfigError(e.field if e.field in ("game", "graph") else f"admm.{e.field}", e.reason)
    return cfg, x0


def _output_dir(cfg: dict, flag_value, *traces: str) -> list[Path]:
    """The paths of the trace files in the output directory, the directory
    created if missing and each file opened for appending, so a trace that
    cannot be written stops the command before the solve, leaving no file it
    made; errors name where the directory's path came from."""
    env = os.environ.get("NASHADMM_OUTPUT_DIR")
    source, d = (("--output-dir", flag_value) if flag_value else
                 ("NASHADMM_OUTPUT_DIR", env) if env else
                 ("config.output_dir", cfg.get("output_dir", ".")))
    if not isinstance(d, str):
        raise ConfigError(source, f"must be a path string, got {json.dumps(d)}")
    try:
        Path(d).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(source, f"cannot create directory {d}: {e.strerror}")
    paths = [Path(d) / name for name in traces]
    made = [path for path in paths if not os.path.lexists(path)]
    try:
        for path in paths:
            open(path, "a").close()
    except OSError as e:
        for p in made:
            p.unlink(missing_ok=True)
        raise ConfigError(source, f"cannot write {path}: {e.strerror}")
    return paths


def write_trace(path: Path, records: Records, timing: bool = False):
    """Long-format CSV: one row per recorded iteration per player, each ended
    by CRLF as csv.writer ends it. The records' columns are read a few
    thousand values at a time, one `tolist` per column, so the Python floats
    of a long trace never exist all at once.

    Floats are serialized with repr so identical runs produce identical bytes;
    elapsed_us is 0 unless timing is requested, for the same reason.
    """
    chunk = max(1, 4096 // records.actions.shape[-1])  # rows of about 4096 actions in all
    with open(path, "w", newline="") as f:
        f.write(",".join(TRACE_COLUMNS) + "\r\n")
        for s in range(0, len(records), chunk):
            columns = (getattr(records, field.name)[s:s + chunk].tolist()
                       for field in fields(records))
            for k, actions, ce, nr, guards, elapsed in zip(*columns):
                us = int(round(elapsed * 1e6)) if timing else 0
                tail = f"{ce!r},{nr!r},{guards},{us}\r\n"
                f.write("".join(f"{k},{i},{a!r},{tail}" for i, a in enumerate(actions)))


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return "none" if v is None else str(v)


def _emit(**pairs):
    for k, v in pairs.items():
        print(f"{k}={_fmt(v)}")


def _setup(args):
    """The config and the graph, game, solver settings and start every command
    works on, all through the input gate (`check` may omit admm); the game
    comes first, so a graph of the wrong size is never built."""
    cfg = load_config(args.config)
    seed = _seed(_require(cfg, "seed", "config"), "config.seed")
    game = build_game(_block(cfg, "game"), seed)
    graph = build_graph(_block(cfg, "graph"), seed, game.n_players)
    admm_cfg, x0 = build_admm(_block(cfg, "admm", optional=args.command == "check"), game, graph)
    return cfg, graph, game, admm_cfg, x0


def cmd_run(args) -> int:
    cfg, graph, game, admm_cfg, x0 = _setup(args)
    trace, = _output_dir(cfg, args.output_dir, "trace.csv")
    result = run(game, graph, admm_cfg, x0=x0)
    write_trace(trace, result.records, timing=args.timing)

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
        print(f"error: non-finite values at iteration {result.state.k}", file=sys.stderr)
        return 1
    return 0 if result.reason == "converged" else 2


def cmd_compare(args) -> int:
    cfg, graph, game, admm_cfg, x0 = _setup(args)
    # unknown keys are ignored, but a lone gamma ignored would run the default sweep
    if "gamma" in (block := _block(cfg, "baseline")):
        raise ConfigError("baseline.gamma", 'is no longer read: list step sizes in "sweep"')
    baseline_cfg = read_settings(BaselineConfig, block, "baseline")
    tol = _read(_block(cfg, "compare", optional=True).get("tol", DEFAULT_CONFIG["compare"]["tol"]),
                "compare.tol")
    if not tol > 0:
        raise ConfigError("compare.tol", "must be positive")
    trace_a, trace_b = _output_dir(cfg, args.output_dir, "trace_admm.csv", "trace_baseline.csv")
    report = compare(game, graph, admm_cfg, baseline_cfg, tol, x0=x0)
    write_trace(trace_a, report.admm_result.records, timing=args.timing)
    write_trace(trace_b, report.baseline_result.records, timing=args.timing)
    _emit(tol=tol, admm_reason=report.admm_reason, admm_iterations=report.admm_iterations,
          baseline_reason=report.baseline_reason, baseline_iterations=report.baseline_iterations,
          baseline_gamma=report.baseline_gamma, ratio=report.ratio,
          trace_admm=trace_a, trace_baseline=trace_b)
    for g, reason, iters in report.sweep_results:
        print(f"sweep gamma={_fmt(g)} reason={reason} iterations={_fmt(iters)}")
    return 0


def cmd_check(args) -> int:
    """Print the graph and the spectral threshold, then sigma_F (given, else exact
    for a quadratic game) and the condition verdict, or sigma_f_source=none."""
    cfg, graph, game, admm_cfg, _ = _setup(args)
    flag = args.sigma_f is not None
    given = args.sigma_f if flag else cfg.get("sigma_f")
    sigma = None if given is None else _read(given, "--sigma-f" if flag else "config.sigma_f")
    deg, threshold = graph.degrees(), condition_threshold(admm_cfg, graph)
    _emit(
        n=graph.n,
        edges=len(graph.edges),
        degree_min=int(deg.min()),
        degree_max=int(deg.max()),
        lambda_min_d_plus_a=graph.lambda_min_d_plus_a(),
        c=admm_cfg.c,
        beta_min=float(np.min(admm_cfg.beta_vector(graph.n))),
        threshold=threshold,
    )
    source = "given"
    if sigma is None and isinstance(game, QuadraticGame):
        sigma, source = quadratic_sigma_f(game), "exact"
    if sigma is None:
        _emit(sigma_f_source="none")
        return 0
    margin = float(sigma) - threshold
    _emit(sigma_f=float(sigma), sigma_f_source=source, condition_satisfied=margin > 0,
          margin=margin)
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

    sp = sub.add_parser("check", help="graph and convergence-condition report for a config")
    sp.add_argument("config")
    sp.add_argument("--sigma-f", type=float, default=None,
                    help="sigma_F to judge, over config sigma_f and any exact value")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("print-default-config", help="emit the default JSON config")
    sp.set_defaults(fn=cmd_print_default_config)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
