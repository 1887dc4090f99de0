"""One benchmark process: set up a workload, then optionally run it.

``run.py`` starts this file in a fresh interpreter for every set-up it
times, so no in-process state (imported modules, the map provider's
memo) carries over from one set-up to the next. Roles:

* ``fill``  fill a warm workload's map cache; untimed;
* ``setup`` import, build and reset the simulation, report ready, exit;
* ``run``   the same set-up, then step whole episodes (the scenario's
  full horizon, rebuilt untimed between episodes) until ``--seconds``
  of stepping have passed and the workload's ``min_episodes`` are done;
  ``--episodes`` fixes the count instead.

With ``--trace`` the layer wrappers of ``layers.py`` are installed right
after import. The file is a real module with a ``__main__`` guard:
sharded workloads spawn pool workers, and spawn re-imports the main
module in each worker.

Messages to ``run.py`` are stdout lines ``perfbench <kind> <json>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback


def _emit(kind: str, payload: dict) -> None:
    print("perfbench", kind, json.dumps(payload), flush=True)


def _vm_hwm_kib(pid: "int | str") -> int:
    """Peak resident set (``VmHWM``) of a live process, in KiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _children_hwm_kib() -> int:
    """Summed ``VmHWM`` of this process's live child processes."""
    me = os.getpid()
    total = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
            # Fields after the parenthesised command name; ppid is second.
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            if ppid == me:
                total += _vm_hwm_kib(entry)
        except (OSError, ValueError, IndexError):
            continue  # the process ended while we looked
    return total


def _episode(simulation, tracer, sharded: bool) -> dict:
    """Step one full horizon, timing every step from outside.

    Host-speed probes run between steps at period boundaries, outside
    the timed steps (see ``speed.py``).
    """
    from layers import RUN
    from speed import PROBE_EVERY_S, probe

    substeps = simulation.substeps
    step = simulation.step
    clock = time.perf_counter
    boundary_s, period_s, probes = [], [], []
    stepped = since_probe = 0.0
    if tracer is not None:
        tracer.phase = RUN
    for k in range(simulation.total_steps):
        boundary = k % substeps == 0
        if boundary:
            if not probes or stepped - since_probe >= PROBE_EVERY_S:
                probes.append((len(period_s), probe()))
                since_probe = stepped
            period_s.append(0.0)
        if tracer is not None:
            tracer.open("sim.shard.replay" if sharded and boundary else "sim.engine")
        began = clock()
        step()
        elapsed = clock() - began
        if tracer is not None:
            tracer.close()
        stepped += elapsed
        period_s[-1] += elapsed
        if boundary:
            boundary_s.append(elapsed)
    if tracer is not None:
        tracer.phase = None
    workers_hwm_kib = _children_hwm_kib()  # before finish() stops the pool
    summary = simulation.finish().summary().deterministic_dict()
    return {
        "period_s": period_s,
        "boundary_s": boundary_s,
        "probes": probes,
        "workers_hwm_kib": workers_hwm_kib,
        "summary": summary,
        "error": None,
    }


def _close(simulation) -> None:
    close = getattr(simulation, "close", None)
    if close is not None:
        close()


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("fill", "setup", "run"), required=True)
    parser.add_argument("--cache", default=None, help="map-cache directory")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--episodes", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import repro
    import repro.scenario
    import_s = time.perf_counter() - started

    expected_src = os.path.realpath(os.environ.get("PERFBENCH_SRC", ""))
    if not os.path.realpath(repro.__file__).startswith(expected_src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    from repro.maps.stats import MAP_STATS
    from repro.scenario import build_simulation, warm_scenario
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    spec = workload.spec(args.seed, args.cache)

    if args.role == "fill":
        warm_scenario(spec, map_cache=args.cache)
        _emit("done", {})
        return 0

    tracer = None
    if args.trace:
        from layers import SETUP, SpanTracer, install

        tracer = SpanTracer()
        install(tracer)
        tracer.phase = SETUP
    simulation = build_simulation(spec)
    simulation.reset()
    if tracer is not None:
        tracer.phase = None
    _emit("ready", {"import_s": import_s, "map_stats": MAP_STATS.to_dict()})
    if args.role == "setup":
        _close(simulation)
        return 0

    sharded = spec.control.execution == "sharded"
    episodes = []
    stepped_s = 0.0
    while True:
        try:
            if episodes:
                simulation = build_simulation(spec)
                simulation.reset()
            episodes.append(_episode(simulation, tracer, sharded))
            stepped_s += sum(episodes[-1]["period_s"])
        except Exception:  # reported as a failed episode, never hidden
            traceback.print_exc()
            episodes.append({"error": traceback.format_exc().strip().splitlines()[-1]})
            break
        finally:
            _close(simulation)
        if len(episodes) == args.episodes or (
            stepped_s >= args.seconds and len(episodes) >= workload.min_episodes
        ):
            break
    payload = {
        "episodes": episodes,
        "self_hwm_kib": _vm_hwm_kib("self"),
        "map_stats": MAP_STATS.to_dict(),
    }
    if tracer is not None:
        payload["setup_layers"] = tracer.totals("setup")
        payload["run_layers"] = tracer.totals("run")
    _emit("result", payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
