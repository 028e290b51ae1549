#!/usr/bin/env python3
"""Desk-scale congestion-game experiment.

Builds the seeded 15-user wireless-network instance, reports the convergence
condition diagnostics, runs the consensus-ADMM solver to tolerance, races it
against the swept projected pseudo-gradient baseline, and writes all traces
as CSV. Summary goes to stdout as key=value lines.

Usage:
    python3 scripts/wanet_experiment.py [--seed 7] [--tol 1e-4] [--out results]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from nashadmm import (
    AdmmConfig,
    BaselineConfig,
    SigmaEstimationError,
    compare,
    default_wanet_instance,
    estimate_sigma_f,
    run,
)
from nashadmm.cli import _emit, emit_comparison, emit_condition_report, write_trace


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--tol", type=float, default=1e-4,
                    help="common residual tolerance for the race")
    ap.add_argument("--out", default="results", help="trace output directory")
    ap.add_argument("--max-iter", type=int, default=5000)
    args = ap.parse_args(argv)

    game, graph = default_wanet_instance(args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    sharers = np.bincount(np.concatenate([np.asarray(r) for r in game.routes]),
                          minlength=len(game.capacities))
    _emit(seed=args.seed, players=game.n_players, links=len(game.capacities),
          max_link_sharers=int(sharers.max()),
          edges=len(graph.edges), degree_min=int(graph.degrees().min()),
          degree_max=int(graph.degrees().max()))

    cfg = AdmmConfig(max_iter=args.max_iter)
    try:
        emit_condition_report(graph, cfg, lambda: (
            estimate_sigma_f(game, game.action_box, samples=200, seed=args.seed), "estimated"))
    except SigmaEstimationError as e:
        _emit(sigma_f="none")
        print(f"note: {e}", file=sys.stderr)

    result = run(game, graph, cfg)
    write_trace(out / "trace_solver.csv", result.records, graph.n)
    final = result.records[-1]
    _emit(solver_reason=result.reason, solver_iterations=result.state.k,
          consensus_error=float(final.consensus_error),
          ne_residual=float(final.ne_residual),
          guard_activations=final.guard_activations)
    if result.reason != "converged":
        print("error: solver did not converge, skipping the race", file=sys.stderr)
        return 2

    flows = np.diagonal(result.state.X)
    margins = game.residual_capacities(flows)
    _emit(flow_min=float(flows.min()), flow_max=float(flows.max()),
          link_margin_min=float(margins.min()))

    report = compare(game, graph, cfg, BaselineConfig(max_iter=args.max_iter),
                     tol=args.tol)
    traces = {"trace_admm": out / "trace_admm.csv", "trace_baseline": out / "trace_baseline.csv"}
    write_trace(traces["trace_admm"], report.admm_result.records, graph.n)
    write_trace(traces["trace_baseline"], report.baseline_result.records, graph.n)
    emit_comparison(report, **traces)

    ok = report.ratio is not None and report.ratio > 1.0
    _emit(ordering_holds=ok)
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
