"""Layer spans timed from outside the program.

The program carries no tracing of its own here: :func:`install` wraps
the public functions of each layer in place, so a span opens and closes
around every call into it. Each span has a name, a start, an end and a
parent (the span open when it started). Spans are folded into per-layer
totals as they close, which keeps memory flat over long runs:

* self time = the span's duration minus the time its child spans cover;
* calls = spans closed (a call that re-enters a layer of the same name,
  such as a ``super()`` chain, stays inside the outer span).

A wrapper records only in the phase its layer belongs to. Set-up layers
(import, workload generation, map training and loading, pool spawn) are
recorded while the simulation is built; run layers (L2, L1, L0, plant,
recorders, pool traffic) while it steps. So the L1 and L0 decisions that
map training makes internally are not charged to the run's L1 and L0.

Names imported into a caller's namespace (``from ... import
enumerate_simplex``) are patched in every loaded ``repro`` module that
holds them, so the wrapper sees the calls made through the imported
name.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

SETUP, RUN = "setup", "run"


class SpanTracer:
    """A span stack plus per-layer self time, call and item counts."""

    def __init__(self) -> None:
        self.phase: "str | None" = None
        self._stack: list = []  # open spans: [name, start, child_seconds, parent]
        self.self_seconds: "dict[tuple[str, str], float]" = defaultdict(float)
        self.calls: "dict[tuple[str, str], int]" = defaultdict(int)
        self.counts: "dict[tuple[str, str], float]" = defaultdict(float)
        self.parents: "dict[tuple[str, str], set]" = defaultdict(set)

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([name, time.perf_counter(), 0.0, parent])

    def close(self) -> None:
        end = time.perf_counter()
        name, start, child_seconds, parent = self._stack.pop()
        duration = end - start
        key = (self.phase, name)
        self.self_seconds[key] += duration - child_seconds
        self.calls[key] += 1
        self.parents[key].add(parent)
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self.phase, name)] += amount

    def span(self, name: str, phase: str, fn, after=None, consume=False):
        """Wrap ``fn`` so each call in ``phase`` runs inside a span.

        ``after(tracer, args, result)`` records item counts; ``consume``
        drains a returned generator inside the span, so the time of its
        iteration is charged to the layer.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if tracer.phase != phase or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = iter(list(result))
            finally:
                tracer.close()
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def counter(self, name: str, phase: str, fn, amount):
        """Wrap ``fn`` to count ``amount(args)`` items, with no span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase == phase:
                tracer.count(name, amount(args))
            return fn(*args, **kwargs)

        return wrapper

    def totals(self, phase: str) -> dict:
        """``{layer: {"self_s", "calls", "parents"}}`` plus ``counts``."""
        layers = {
            name: {
                "self_s": seconds,
                "calls": self.calls[(p, name)],
                "parents": sorted(str(x) for x in self.parents[(p, name)]),
            }
            for (p, name), seconds in self.self_seconds.items()
            if p == phase
        }
        counts = {name: value for (p, name), value in self.counts.items() if p == phase}
        return {"layers": layers, "counts": counts}


def _states(name: str):
    """Count the ``states_explored`` a controller decision reports."""
    return lambda tracer, args, result: tracer.count(
        name, getattr(result, "states_explored", 0)
    )


def _rows(tracer, args, result) -> None:
    """Rows a ``RegressionTree.predict`` call evaluated."""
    rows = 1 if getattr(args[1], "ndim", 2) == 1 else len(args[1])
    tracer.count("approximation.tree_predict_rows", rows)


def _one_row(tracer, args, result) -> None:
    tracer.count("approximation.tree_predict_rows", 1)


def _patch_method(cls, attr: str, make) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(cls, attr, type(raw)(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def _patch_function(module, attr: str, make) -> None:
    """Replace ``module.attr`` and every ``repro`` module's alias of it."""
    original = getattr(module, attr)
    wrapped = make(original)
    for loaded in list(sys.modules.values()):
        name = getattr(loaded, "__name__", "")
        if name == "repro" or name.startswith("repro."):
            if loaded.__dict__.get(attr) is original:
                setattr(loaded, attr, wrapped)


def install(tracer: SpanTracer) -> None:
    """Wrap every layer's public functions (call once, after import)."""
    import repro.approximation.regression_tree as tree_mod
    import repro.cluster.computer as computer_mod
    import repro.cluster.dispatcher as dispatcher_mod
    import repro.controllers.baselines as baselines_mod
    import repro.controllers.l0 as l0_mod
    import repro.controllers.l1 as l1_mod
    import repro.controllers.l2 as l2_mod
    import repro.core.simplex as simplex_mod
    import repro.forecast.structural as forecast_mod
    import repro.maps.cache as cache_mod
    import repro.scenario.runner as runner_mod
    import repro.sim.kernels as kernels_mod
    import repro.sim.observers as observers_mod
    import repro.sim.shard as shard_mod

    def span(name, phase, **extra):
        return lambda fn: tracer.span(name, phase, fn, **extra)

    # Set-up layers.
    _patch_function(runner_mod, "build_workload", span("workload.generate", SETUP))
    for cls in (l1_mod.ComputerBehaviorMap, l2_mod.ModuleCostMap):
        _patch_method(cls, "train", span("maps.train", SETUP))
        _patch_method(cls, "from_dict", span("maps.load", SETUP))
    for attr in ("load", "load_entry"):
        _patch_method(cache_mod.MapCache, attr, span("maps.load", SETUP))
    _patch_method(tree_mod.RegressionTree, "fit", span("approximation.tree_fit", SETUP))
    _patch_method(shard_mod.ShardWorkerPool, "__init__", span("sim.shard.spawn", SETUP))

    # Run layers.
    _patch_method(
        l2_mod.L2Controller, "decide", span("controllers.l2.decide", RUN)
    )
    _patch_method(
        l1_mod.L1Controller,
        "decide",
        span("controllers.l1.decide", RUN, after=_states("controllers.l1.states")),
    )
    _patch_method(
        l0_mod.L0Controller,
        "decide",
        span("controllers.l0.decide", RUN, after=_states("controllers.l0.states")),
    )
    _patch_method(
        l1_mod.ComputerBehaviorMap,
        "cost_and_next_queue",
        lambda fn: tracer.counter("controllers.l1.map_queries", RUN, fn, lambda a: 1),
    )
    _patch_method(
        l1_mod.ComputerBehaviorMap,
        "cost_and_next_queue_many",
        lambda fn: tracer.counter(
            "controllers.l1.map_queries", RUN, fn, lambda a: len(a[1])
        ),
    )
    for attr, rows in (("predict", _rows), ("predict_one", _one_row)):
        _patch_method(
            tree_mod.RegressionTree,
            attr,
            span("approximation.tree_predict", RUN, after=rows),
        )
    _patch_function(
        simplex_mod, "enumerate_simplex", span("core.simplex", RUN, consume=True)
    )
    _patch_function(simplex_mod, "quantize_to_simplex", span("core.quantize", RUN))
    for attr in ("observe", "forecast"):
        _patch_method(forecast_mod.WorkloadPredictor, attr, span("forecast.observe", RUN))
    _patch_method(computer_mod.Computer, "step_fluid", span("cluster.step_fluid", RUN))
    _patch_method(
        dispatcher_mod.WeightedDispatcher, "split_fluid", span("cluster.dispatch", RUN)
    )
    # The vector kernel's fast twins answer for the same layers.
    _patch_function(
        kernels_mod, "fast_baseline_act", span("controllers.baselines.act", RUN)
    )
    _patch_function(
        kernels_mod, "batched_predictor_observe", span("forecast.observe", RUN)
    )
    _patch_method(kernels_mod.L0BankKernel, "decide_many", span("controllers.l0.decide", RUN))
    for cls in vars(baselines_mod).values():
        if (
            isinstance(cls, type)
            and cls.__module__ == baselines_mod.__name__
            and "act" in cls.__dict__
        ):
            _patch_method(cls, "act", span("controllers.baselines.act", RUN))
    _patch_method(
        kernels_mod.ClusterVectorExecutor, "step_all", span("sim.kernels.step_all", RUN)
    )
    for cls in (observers_mod.ModuleRecorder, observers_mod.ClusterRecorder):
        for attr in list(cls.__dict__):
            if attr.startswith("on_") and callable(cls.__dict__[attr]):
                _patch_method(cls, attr, span("sim.recorder", RUN))
    _patch_method(shard_mod.ShardWorkerPool, "send_period", span("sim.shard.send", RUN))
    _patch_method(shard_mod.ShardWorkerPool, "recv_period", span("sim.shard.wait", RUN))
