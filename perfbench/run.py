#!/usr/bin/env python3
"""nashadmm benchmark: one workload per process, timed from outside.

    python3 perfbench/run.py --workload wanet-cli --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. The run sets up the workload's fixed inputs, times the program's own
set-up (config, game, graph and solver-state construction) many times, then
repeats whole operations until `--seconds` have passed, checking every
output. The last line of stdout is one JSON object:

* `--trace 0`: the end-to-end metrics, with nothing wrapped in the solver.
* `--trace 1`: per-layer call counts and self times from wrapped public
  functions, plus the tracing overhead (traced minus untraced `solve_s`).

See perfbench/README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# str hashing lays out dicts differently in every process; a fixed hash seed
# removes that difference between runs
ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}


def _fail(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import nashadmm from this checkout's src/, with one BLAS thread."""
    src = ROOT / "src"
    if not (src / "nashadmm" / "__init__.py").is_file():
        _fail(f"no nashadmm package under {src}; run from a source checkout")
    if any(os.environ.get(k) != v for k, v in ENV.items()):
        # replaces this process (same pid): the hash seed is read at start-up
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **ENV})
    sys.path.insert(0, str(src))
    import nashadmm
    if Path(nashadmm.__file__).resolve().parent != (src / "nashadmm").resolve():
        _fail(f"imported nashadmm from {nashadmm.__file__}, not from {src}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nashadmm benchmark (one workload per run)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    # numpy and nashadmm load only now, after the environment is fixed
    from measure import measure, measure_traced
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    outdir = ROOT / ".perfbench-out" / args.workload
    workload = WORKLOADS[args.workload](args.seed, outdir)
    report = (measure_traced if args.trace else measure)(workload, args.seconds)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
