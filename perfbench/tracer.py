"""Per-layer spans recorded from outside the package.

Each layer is a set of public functions or methods of `nashadmm`. While a
`Tracer` is installed, every one of them is replaced by a wrapper that counts
the call and adds its self time: the span's duration minus the time spent in
wrapped calls made inside it. So `games.grad_i` is not also counted in
`games.pseudo_gradient`, nor that in `metrics.ne_residual`.

Module-level functions are replaced under every name a `nashadmm` module
binds them to, because `admm` and `cli` import `consensus_error`,
`ne_residual` and `run` by name and look them up in their own namespace.
A function or method that no longer exists is skipped; its layer reads 0.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

# layer name -> (defining module, function names)
FUNCTION_LAYERS = {
    "admm.admm_step": ("nashadmm.admm", ("admm_step",)),
    "admm.run": ("nashadmm.admm", ("run",)),
    "metrics.consensus_error": ("nashadmm.metrics", ("consensus_error",)),
    "metrics.ne_residual": ("nashadmm.metrics", ("ne_residual",)),
    "baseline.baseline_step": ("nashadmm.baseline", ("baseline_step",)),
    "baseline.neighbor_average": ("nashadmm.baseline", ("neighbor_average",)),
    "baseline.run_baseline": ("nashadmm.baseline", ("run_baseline",)),
    "cli.write_trace": ("nashadmm.cli", ("write_trace",)),
    "cli.setup": ("nashadmm.cli", ("load_config", "build_game", "build_graph", "build_admm")),
}

# layer name -> (module, base class name, method names); every class of the
# module that derives from the base and defines the method gets wrapped
METHOD_LAYERS = {
    "games.grad_i": ("nashadmm.games", "GameModel", ("grad_i",)),
    "games.pseudo_gradient": ("nashadmm.games", "GameModel", ("pseudo_gradient",)),
    "games.clamped_terms": ("nashadmm.games", "GameModel", ("clamped_terms",)),
    "graph.lookups": ("nashadmm.graph", "CommGraph", ("degrees", "neighbor_lists")),
}

LAYERS = tuple(FUNCTION_LAYERS) + tuple(METHOD_LAYERS)


def _trace_bytes(args, kwargs) -> int:
    path = kwargs.get("path", args[0] if args else None)
    return os.path.getsize(path) if path is not None else 0


# extra counters read off a layer's arguments after the span has ended
COUNTERS = {"cli.write_trace": ("cli.write_trace.bytes", _trace_bytes)}


class Tracer:
    """Install with `with tracer:`; `reset()` between operations."""

    def __init__(self):
        self._patches = []
        self._stack = []
        self.calls, self.self_s, self.counters = {}, {}, {}
        self.reset()

    def reset(self):
        # in place: the installed wrappers hold these dicts
        self.calls.update(dict.fromkeys(LAYERS, 0))
        self.self_s.update(dict.fromkeys(LAYERS, 0.0))
        self.counters.update({c: 0 for c, _ in COUNTERS.values()})

    def _wrap(self, layer, fn):
        stack, calls, self_s, counters = self._stack, self.calls, self.self_s, self.counters
        counter = COUNTERS.get(layer)

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                child = stack.pop()
                calls[layer] += 1
                self_s[layer] += d - child
                if stack:
                    stack[-1] += d
                if counter is not None:
                    counters[counter[0]] += counter[1](args, kwargs)

        span.__wrapped__ = fn
        return span

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nashadmm" or n.startswith("nashadmm."))]
        for layer, (mod_name, names) in FUNCTION_LAYERS.items():
            defining = sys.modules.get(mod_name)
            for name in names:
                fn = getattr(defining, name, None)
                if fn is None:
                    continue
                wrapped = self._wrap(layer, fn)
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, bound, wrapped)
        for layer, (mod_name, base_name, names) in METHOD_LAYERS.items():
            mod = sys.modules.get(mod_name)
            base = getattr(mod, base_name, None)
            if base is None:
                continue
            classes = [c for c in vars(mod).values()
                       if isinstance(c, type) and issubclass(c, base)]
            for cls in classes:
                for name in names:
                    fn = cls.__dict__.get(name)
                    if fn is None or getattr(fn, "__isabstractmethod__", False):
                        continue
                    self._patch(cls, name, self._wrap(layer, fn))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self._stack.clear()
        return False

    def snapshot(self) -> dict:
        """Counts and self times accumulated since the last reset."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out.update(self.counters)
        return out
