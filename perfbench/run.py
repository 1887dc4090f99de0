"""The repository benchmark: the L2/L1/L0 hierarchy end to end and by layer.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fig6-cold --seed 0 --seconds 10 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, measured with no
tracing; with ``--trace 1`` the per-layer split of a traced run and the
tracing overhead. Each run checks the program's output against the
summaries stored in ``references.json``. The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``README.md`` in this directory for the workloads and metrics.

Every simulation runs in a child interpreter (``child.py``) with
``PYTHONPATH`` set to this checkout's ``src``. All scratch files live
under ``.perfbench-work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from references import check_summaries, load_references, reference_for  # noqa: E402
from speed import period_factors  # noqa: E402
from workloads import COLD, WARM, WORKLOADS  # noqa: E402

#: A run must end within this many seconds; children are killed after.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("periods_per_s", "1/s"),
    ("decision_ms_p50", "ms"),
    ("decision_ms_p95", "ms"),
    ("peak_rss_mib", "MiB"),
)

#: Per-layer metrics: (name, unit, source). Sources: ``("self", phase,
#: layer)`` self seconds, ``("calls", phase, layer)``, ``("count", phase,
#: counter)``, ``("map_stats", key)``, ``("derived", what)`` and
#: ``("untraced", what)``: the untraced episode's unscaled run metrics and
#: the host-speed scale applied to them in ``--trace 0`` runs.
PER_LAYER = (
    ("import.s", "s", ("derived", "import")),
    ("workload.generate_s", "s", ("self", "setup", "workload.generate")),
    ("maps.train_s", "s", ("self", "setup", "maps.train")),
    ("maps.trainings", "count", ("map_stats", "trainings")),
    ("approximation.tree_fit_s", "s", ("self", "setup", "approximation.tree_fit")),
    ("maps.load_s", "s", ("self", "setup", "maps.load")),
    ("maps.cache_hits", "count", ("map_stats", "cache_hits")),
    ("controllers.l2.decide_s", "s", ("self", "run", "controllers.l2.decide")),
    ("controllers.l2.calls", "count", ("calls", "run", "controllers.l2.decide")),
    ("approximation.tree_predict_s", "s", ("self", "run", "approximation.tree_predict")),
    ("approximation.tree_predict_rows", "count", ("count", "run", "approximation.tree_predict_rows")),
    ("core.simplex_s", "s", ("self", "run", "core.simplex")),
    ("core.simplex_calls", "count", ("calls", "run", "core.simplex")),
    ("core.quantize_s", "s", ("self", "run", "core.quantize")),
    ("controllers.l1.decide_s", "s", ("self", "run", "controllers.l1.decide")),
    ("controllers.l1.calls", "count", ("calls", "run", "controllers.l1.decide")),
    ("controllers.l1.states", "count", ("count", "run", "controllers.l1.states")),
    ("controllers.l1.map_queries", "count", ("count", "run", "controllers.l1.map_queries")),
    ("controllers.l1.queries_per_state", "ratio", ("derived", "queries_per_state")),
    ("controllers.l0.decide_s", "s", ("self", "run", "controllers.l0.decide")),
    ("controllers.l0.calls", "count", ("calls", "run", "controllers.l0.decide")),
    ("controllers.l0.states", "count", ("count", "run", "controllers.l0.states")),
    ("forecast.observe_s", "s", ("self", "run", "forecast.observe")),
    ("cluster.step_fluid_s", "s", ("self", "run", "cluster.step_fluid")),
    ("cluster.step_fluid_calls", "count", ("calls", "run", "cluster.step_fluid")),
    ("cluster.dispatch_s", "s", ("self", "run", "cluster.dispatch")),
    ("controllers.baselines.act_s", "s", ("self", "run", "controllers.baselines.act")),
    ("sim.kernels.step_all_s", "s", ("self", "run", "sim.kernels.step_all")),
    ("sim.recorder_s", "s", ("self", "run", "sim.recorder")),
    ("sim.shard.spawn_s", "s", ("self", "setup", "sim.shard.spawn")),
    ("sim.shard.payload_bytes", "bytes", ("map_stats", "shard_payload_bytes")),
    ("sim.shard.inline_payloads", "count", ("map_stats", "shard_inline_payloads")),
    ("sim.shard.send_s", "s", ("self", "run", "sim.shard.send")),
    ("sim.shard.wait_s", "s", ("self", "run", "sim.shard.wait")),
    ("sim.shard.replay_s", "s", ("self", "run", "sim.shard.replay")),
    ("sim.engine.self_s", "s", ("self", "run", "sim.engine")),
    ("trace.overhead", "ratio", ("derived", "overhead")),
    ("raw.periods_per_s", "1/s", ("untraced", "periods_per_s")),
    ("raw.decision_ms_p50", "ms", ("untraced", "decision_ms_p50")),
    ("raw.decision_ms_p95", "ms", ("untraced", "decision_ms_p95")),
    ("speed.scale", "ratio", ("untraced", "scale")),
)


class BenchError(Exception):
    """The benchmark could not measure the program (no result printed)."""


class Child:
    """A ``child.py`` process whose protocol lines arrive on a queue."""

    def __init__(self, args: "list[str]", env: dict) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.lines: "queue.Queue[tuple[float, str | None]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.put((time.perf_counter(), line))
        self.lines.put((time.perf_counter(), None))

    def expect(self, kind: str, deadline: float) -> "tuple[float, dict]":
        """Wait for the next ``kind`` message: ``(arrival time, payload)``."""
        while True:
            remaining = deadline - time.perf_counter()
            try:
                arrived, line = self.lines.get(timeout=max(remaining, 0.0))
            except queue.Empty:
                raise BenchError(f"child timed out waiting for {kind!r}") from None
            if line is None:
                code = self.process.wait()
                raise BenchError(f"child exited with code {code} before {kind!r}")
            parts = line.rstrip("\n").split(" ", 2)
            if len(parts) == 3 and parts[0] == "perfbench" and parts[1] == kind:
                return arrived, json.loads(parts[2])

    def finish(self, deadline: float) -> None:
        try:
            code = self.process.wait(timeout=max(deadline - time.perf_counter(), 0.0))
        except subprocess.TimeoutExpired:
            raise BenchError("child did not exit in time") from None
        finally:
            self.stop()
        if code != 0:
            raise BenchError(f"child exited with code {code}")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._reader.join(timeout=5)
        self.process.stdout.close()


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_MAP_CACHE"}
    env.update(
        PYTHONPATH=str(SRC),
        PERFBENCH_SRC=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Session:
    """The children of one benchmark run and their scratch directory."""

    def __init__(self, workload, seed: int, work_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.env = _child_env()
        self.deadline = time.perf_counter() + DEADLINE_S
        self.children: "list[Child]" = []
        self.warm_cache = str(work_dir / "cache") if workload.cache == WARM else None

    def _cache_for(self, index: int) -> "str | None":
        if self.workload.cache == COLD:
            path = self.work_dir / f"cold-cache-{index}"
            path.mkdir()
            return str(path)
        return self.warm_cache

    def spawn(self, role: str, index: int = 0, *extra: str) -> Child:
        args = ["--workload", self.workload.name, "--seed", str(self.seed), "--role", role]
        cache = self._cache_for(index) if role != "fill" else self.warm_cache
        if cache is not None:
            args += ["--cache", cache]
        child = Child([*args, *extra], self.env)
        self.children.append(child)
        return child

    def fill(self) -> None:
        """Fill a warm workload's map cache in an untimed process."""
        if self.workload.cache != WARM:
            return
        child = self.spawn("fill")
        child.expect("done", self.deadline)
        child.finish(self.deadline)

    def setup_only(self, index: int) -> "tuple[float, dict]":
        child = self.spawn("setup", index)
        arrived, ready = child.expect("ready", self.deadline)
        child.finish(self.deadline)
        return arrived - child.started, ready

    def run(self, index: int, *extra: str) -> "tuple[float, dict, dict]":
        """Set-up seconds, the ready message and the result of a run child."""
        child = self.spawn("run", index, *extra)
        arrived, ready = child.expect("ready", self.deadline)
        _, result = child.expect("result", self.deadline)
        child.finish(self.deadline)
        return arrived - child.started, ready, result

    def stop_all(self) -> None:
        for child in self.children:
            child.stop()


def _cache_policy_error(workload, map_stats: dict) -> "str | None":
    """Why a timed process broke its workload's map-cache policy, if it did."""
    if workload.cache == WARM:
        if map_stats["trainings"] or map_stats["shard_inline_payloads"]:
            return (
                f"warm workload trained {map_stats['trainings']} maps and shipped "
                f"{map_stats['shard_inline_payloads']} inline payloads"
            )
    elif workload.cache == COLD and map_stats["trainings"] == 0:
        return "cold workload performed no map training"
    return None


def _percentile(values: "list[float]", q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Verdict:
    """Attempts and failures of one run, with the reasons on stderr."""

    def __init__(self, workload, seed: int, references: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.expected = reference_for(references, workload, seed)
        if self.expected is None:
            print(
                f"perfbench: no stored reference for {workload.reference} seed {seed}; "
                "checking episode agreement and summary invariants only",
                file=sys.stderr,
            )

    def note(self, what: str, error: "str | None") -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"perfbench: FAILED {what}: {error}", file=sys.stderr)

    def setup(self, index: int, ready: dict) -> None:
        self.note(f"set-up {index}", _cache_policy_error(self.workload, ready["map_stats"]))

    def episodes(self, label: str, result: dict) -> "list[dict]":
        """Check every episode; return the ones that completed."""
        done = [e for e in result["episodes"] if e.get("error") is None]
        verdicts = check_summaries(self.expected, [e["summary"] for e in done])
        for number, (episode, verdict) in enumerate(zip(done, verdicts)):
            self.note(f"{label} episode {number}", verdict)
        for episode in result["episodes"]:
            if episode.get("error") is not None:
                self.note(f"{label} episode", episode["error"])
        self.note(f"{label} run", _cache_policy_error(self.workload, result["map_stats"]))
        return done


def _scaled(episode: dict) -> "tuple[list[float], list[float]]":
    """The episode's period and boundary-step seconds at reference speed."""
    factors = period_factors(episode["probes"], len(episode["period_s"]))
    return (
        [s * f for s, f in zip(episode["period_s"], factors)],
        [s * f for s, f in zip(episode["boundary_s"], factors)],
    )


def _run_metrics(episodes: "list[dict]") -> dict:
    """Run-phase metrics of ``episodes``: ``{name: (value, raw value, samples)}``."""
    raw_period = [s for e in episodes for s in e["period_s"]]
    raw_boundary = [1e3 * s for e in episodes for s in e["boundary_s"]]
    period, boundary = [], []
    for episode in episodes:
        scaled_period, scaled_boundary = _scaled(episode)
        period += scaled_period
        boundary += [1e3 * s for s in scaled_boundary]
    n = len(period)
    return {
        "periods_per_s": (n / sum(period), n / sum(raw_period), n),
        "decision_ms_p50": (_percentile(boundary, 50), _percentile(raw_boundary, 50), n),
        "decision_ms_p95": (_percentile(boundary, 95), _percentile(raw_boundary, 95), n),
    }


def measure(session: Session, verdict: Verdict, seconds: float) -> dict:
    """End-to-end metrics, untraced: ``{name: (value, raw value, samples)}``."""
    session.fill()
    setups = []

    def setup_only(index: int) -> None:
        setup_s, ready = session.setup_only(index)
        verdict.setup(index, ready)
        setups.append(setup_s)

    # Set-up-only interpreters run on both sides of the measured one, so
    # the median spans the run's whole time rather than one stretch of
    # host speed.
    extra = session.workload.setups - 1
    for index in range(extra // 2):
        setup_only(index)
    setup_s, ready, result = session.run(extra, "--seconds", str(seconds))
    verdict.setup(extra, ready)
    setups.append(setup_s)
    for index in range(extra // 2, extra):
        setup_only(index)
    episodes = verdict.episodes("timed", result)
    if not episodes:
        raise BenchError("no episode completed")
    workers_kib = max(e["workers_hwm_kib"] for e in episodes)
    rss_mib = (result["self_hwm_kib"] + workers_kib) / 1024.0
    return {
        "setup_s": (statistics.median(setups), statistics.median(setups), len(setups)),
        **_run_metrics(episodes),
        "peak_rss_mib": (rss_mib, rss_mib, 1),
    }


def measure_layers(session: Session, verdict: Verdict) -> dict:
    """Per-layer metrics of one traced episode, plus the tracing overhead."""
    session.fill()
    _, ready, plain = session.run(0, "--episodes", "1")
    verdict.setup(0, ready)
    plain_done = verdict.episodes("untraced", plain)
    _, ready, traced = session.run(1, "--episodes", "1", "--trace")
    verdict.setup(1, ready)
    traced_done = verdict.episodes("traced", traced)
    if not plain_done or not traced_done:
        raise BenchError("no episode completed")
    plain_raw = sum(plain_done[0]["period_s"])
    plain_scaled = sum(_scaled(plain_done[0])[0])
    traced_raw = sum(traced_done[0]["period_s"])
    traced_scaled = sum(_scaled(traced_done[0])[0])
    scale = traced_scaled / traced_raw
    setup, run = traced["setup_layers"], traced["run_layers"]
    phases = {"setup": setup, "run": run}
    periods = len(traced_done[0]["period_s"])
    untraced = _run_metrics(plain_done)

    def value(source) -> "tuple[float, float, int]":
        kind = source[0]
        if kind == "self":
            layer = phases[source[1]]["layers"].get(source[2])
            if layer is None:
                return (0.0, 0.0, 0)
            # Set-up layers ran before the run's probes; they stay raw.
            factor_ = scale if source[1] == "run" else 1.0
            return (layer["self_s"] * factor_, layer["self_s"], layer["calls"])
        if kind == "calls":
            layer = phases[source[1]]["layers"].get(source[2])
            calls = float(layer["calls"]) if layer else 0.0
            return (calls, calls, 1)
        if kind == "count":
            count = float(phases[source[1]]["counts"].get(source[2], 0))
            return (count, count, 1)
        if kind == "map_stats":
            count = float(ready["map_stats"][source[1]])
            return (count, count, 1)
        if kind == "untraced":
            if source[1] == "scale":
                return (plain_scaled / plain_raw, plain_scaled / plain_raw, periods)
            _, raw, samples = untraced[source[1]]
            return (raw, raw, samples)
        if source[1] == "import":
            return (ready["import_s"], ready["import_s"], 1)
        if source[1] == "queries_per_state":
            states = run["counts"].get("controllers.l1.states", 0)
            queries = run["counts"].get("controllers.l1.map_queries", 0)
            ratio = queries / states if states else 0.0
            return (ratio, ratio, int(states))
        return (traced_scaled / plain_scaled, traced_raw / plain_raw, periods)

    metrics = {name: value(source) for name, _, source in PER_LAYER}
    accounted = sum(layer["self_s"] for layer in run["layers"].values())
    print(
        f"perfbench: traced run phase {traced_raw:.3f} s raw over {periods} periods; "
        f"layer self times sum to {accounted:.3f} s "
        f"({100 * accounted / traced_raw:.1f}%); untraced {plain_raw:.3f} s raw",
        file=sys.stderr,
    )
    if session.workload.overrides.get("control.execution") == "sharded":
        print(
            "perfbench: pool workers run untraced; their L1, L0 and plant time "
            "shows only as sim.shard.wait_s in the parent",
            file=sys.stderr,
        )
    for name in sorted(run["layers"]):
        layer = run["layers"][name]
        print(
            f"perfbench:   {name:<28} self {layer['self_s']:9.4f} s  "
            f"calls {layer['calls']:>7}  under {', '.join(layer['parents'])}",
            file=sys.stderr,
        )
    return metrics


def _table(metrics: dict, units: dict) -> str:
    lines = [f"{'metric':<36} {'value':>14} {'unit':<6} {'samples':>8} {'raw':>14}"]
    for name, (value, raw, samples) in metrics.items():
        lines.append(
            f"{name:<36} {value:>14.6g} {units[name]:<6} {samples:>8} {raw:>14.6g}"
        )
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: error: no program at {SRC / 'repro'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    references = load_references()
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    session = Session(workload, args.seed, work_dir)
    try:
        verdict = Verdict(workload, args.seed, references)
        if args.trace:
            metrics = measure_layers(session, verdict)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics = measure(session, verdict, args.seconds)
            units = dict(END_TO_END)
    except (BenchError, ValueError) as error:
        print(f"perfbench: error: {error}", file=sys.stderr)
        return 1
    finally:
        session.stop_all()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it

    print(
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    print(_table(metrics, units))
    correct = verdict.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": verdict.attempted,
                "failed": verdict.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, (value, _, _) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
