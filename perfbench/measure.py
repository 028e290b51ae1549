"""Measuring loops: set-up batches, repeated operations, checks, traced runs."""

from __future__ import annotations

import resource
import statistics
import sys
from time import perf_counter

from checks import CheckFailed, OpFailed, self_test
from tracer import Tracer

# set-up is timed in batches, one before every operation and one at the end,
# so that it samples the whole run rather than its first second
SETUP_WARMUP, SETUP_BATCH = 5, 41


def median_of_means(values, groups: int = 3) -> float:
    """Median of the means of `groups` interleaved subsets of `values`.

    Shared hosts run in fast and slow phases lasting seconds; a plain median
    jumps between them as their mix shifts from run to run, a mean follows
    the mix smoothly but takes in outliers. Interleaved subsets each span the
    whole run, and their median drops an outlying one."""
    k = min(groups, len(values))
    return statistics.median(statistics.fmean(values[i::k]) for i in range(k))


def _time_setup(workload, times: list):
    for _ in range(SETUP_BATCH):
        t0 = perf_counter()
        workload.setup()
        times.append(perf_counter() - t0)


class Runner:
    """Repeats one workload's operation and keeps what every run reports."""

    def __init__(self, workload):
        self.workload = workload
        self.checks = workload.checks()
        self.attempted = self.failed = 0
        self.problems = []
        self._tested = False

    def op(self):
        """One whole operation; returns (solve_s, iterations, steps) or None."""
        self.attempted += 1
        try:
            solve_s, iterations, steps, output = self.workload.solve()
        except OpFailed as e:
            self.failed += 1
            print(f"operation failed: {e}", file=sys.stderr)
            return None
        for name, check in self.checks.items():
            try:
                check(output)
            except CheckFailed as e:
                self.problems.append(str(e))
        if not self._tested:
            self._tested = True
            dead = self_test(self.checks, self.workload.perturbations, output)
            self.problems += [f"self-test: check {name} is not live" for name in dead]
        return solve_s, iterations, steps

    def result(self, metrics: dict) -> dict:
        for p in self.problems:
            print(f"check failed: {p}", file=sys.stderr)
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def measure(workload, seconds: float) -> dict:
    runner = Runner(workload)
    for _ in range(SETUP_WARMUP):
        workload.setup()
    setups, ops = [], []
    deadline = perf_counter() + seconds
    while True:
        _time_setup(workload, setups)
        got = runner.op()
        if got is not None:
            ops.append(got)
        if perf_counter() >= deadline:
            break
    _time_setup(workload, setups)
    if not ops:
        raise SystemExit("error: every operation failed")
    setup_s = median_of_means(setups)
    solve_s = median_of_means([o[0] for o in ops])
    iterations = statistics.median(o[1] for o in ops)
    steps = statistics.median(o[2] for o in ops)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{workload.name}: {len(ops)} operations, solve_s "
          + " ".join(f"{o[0]:.3f}" for o in ops), file=sys.stderr)
    return runner.result({
        "solve_s": {"value": solve_s, "unit": "s"},
        "iterations": {"value": iterations, "unit": "count"},
        "iter_us": {"value": solve_s / steps * 1e6, "unit": "us"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
    })


def measure_traced(workload, seconds: float) -> dict:
    """Alternate untraced and traced operations; report per-layer figures of
    the traced ones (counts per operation, median self times)."""
    runner = Runner(workload)
    workload.setup()
    tracer = Tracer()
    plain, traced, snaps = [], [], []
    deadline = perf_counter() + seconds
    while True:
        got = runner.op()
        if got is not None:
            plain.append(got[0])
        tracer.reset()
        with tracer:
            got = runner.op()
        if got is not None:
            traced.append(got[0])
            snaps.append(tracer.snapshot())
        if perf_counter() >= deadline:
            break
    if not plain or not traced:
        raise SystemExit("error: every untraced or every traced operation failed")
    metrics = {}
    for key in snaps[0]:
        values = [s[key] for s in snaps]
        if key.endswith(".self_s"):
            metrics[key] = {"value": statistics.median(values), "unit": "s"}
        else:
            if len(set(values)) != 1:
                runner.problems.append(f"{key} differs between operations: {values}")
            unit = "bytes" if key.endswith(".bytes") else "count"
            metrics[key] = {"value": values[0], "unit": unit}
    traced_s = median_of_means(traced)
    metrics["trace.solve_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - median_of_means(plain), "unit": "s"}
    return runner.result(metrics)
