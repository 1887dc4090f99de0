"""The module runner, and sharded execution: one worker per module.

A module's L1/L0 loop is the same whether it runs alone or under the L2
controller; only the source of its arrival forecast changes. A
:class:`ModuleShardRunner` owns everything module-local — the plant, the
module controller (L1 or a baseline), the L0 bank, the current
alpha/gamma, pending fault events — and exposes the intra-period
stepping as three calls (``begin_period`` / ``step`` / ``finalize``).
It is the one place that decides how a module steps: both
:class:`~repro.sim.engine.ModuleSimulation` (fed by the module's own
predictor) and :class:`~repro.sim.engine.ClusterSimulation` (fed by the
L2 decision) drive runners.

The hierarchy is also naturally parallel: the L2 controller splits the
global arrival stream with gamma, then each module's loop runs
independently until the next control period. The serial cluster path
drives its runners inline; the pooled backends ship them to persistent,
spawn-started worker processes (:class:`ShardWorkerPool`) or an
in-process thread pool (:class:`ThreadShardPool`) and drive whole
control periods at a time.

Three mechanisms keep the process pool's wire thin:

* **Maps ship by content digest.** The parent obtains every behaviour
  map through :class:`repro.maps.MapProvider` before runners exist; at
  pool init the trained tables are swapped out of the pickled runners
  for :class:`_MapRef` placeholders, and each worker rebuilds them from
  the content-addressed :class:`~repro.maps.cache.MapCache` on disk.
  Only a cache miss falls back to an inline payload, so a warm-cache
  spawn ships zero table bytes through the init pipe (the
  ``repro_shard_map_*`` counters record exactly what crossed).
* **Step series return over shared memory.** Each module gets one
  double-buffered ``multiprocessing.shared_memory`` block of float64
  step rows (frequencies, responses, queues, power, plus the
  :class:`~repro.sim.observers.StreamStats` fold of the response row);
  the per-period reply then carries only the L1 event and the
  end-of-period queue lengths instead of pickled event lists.
* **Period requests are split-phase.** ``send_period`` /
  ``recv_period`` let the engine keep one period in flight while it
  replays the previous period's events into observers — the
  ``pipeline="boundary"`` schedule (see
  :meth:`repro.sim.engine.ClusterSimulation.step`).

Determinism is by construction, not by tolerance: the parent computes
every cross-module quantity (L2 decisions, arrival shares, global
forecasts) exactly as the serial path does and ships the resulting
floats to the workers, and the workers execute the very same runner code
the serial path executes. Events come back in the serial emission order,
so observers, recorders, and ``finish()`` see bit-for-bit identical
results on any backend. Per-module dispatcher RNG streams are seeded
from ``(options.seed, module index)`` in the parent before any worker is
involved, so they too are identical across backends.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from repro.common.errors import ConfigurationError, ControlError
from repro.common.validation import require_positive_int
from repro.controllers.params import L0Params
from repro.controllers.stats import ControllerStats
from repro.sim.observers import L1DecisionEvent, StepEvent

#: Cluster execution backends a simulation can run on (the scenario
#: layer validates ``control.execution`` against this same tuple).
EXECUTION_MODES = ("serial", "sharded", "threads")


def resolve_shard_workers(shard_workers: "int | None", module_count: int) -> int:
    """Effective worker count: ``None`` means one worker per module,
    capped at the machine's core count.

    Workers beyond the core count cannot run concurrently — they only
    add spawn time and per-period pipe traffic — and results are
    bit-identical at any worker count, so the default never exceeds
    ``os.cpu_count()``. An explicit request overrides the core cap but
    is still clamped to the module count: a worker with no module to
    run would only burn a process slot.
    """
    if shard_workers is None:
        cores = os.cpu_count() or module_count
        return max(1, min(module_count, cores))
    require_positive_int(shard_workers, "shard_workers")
    return max(1, min(shard_workers, module_count))


# ----------------------------------------------------------------------
# Wire types: what the parent ships per period and gets back
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleBoundaryInput:
    """Parent-computed inputs for one module's control-period boundary.

    ``observed_arrivals`` is the module's realised arrival count over the
    previous period (``None`` on the first boundary, or when the caller
    already fed it to the controller). The ``rate_*`` / ``delta`` /
    ``prediction`` fields are the L1 set-points, derived from the L2
    forecast in a cluster and from the L1's own predictor in a module
    run; baseline modules ignore them and forecast locally.
    ``work`` is the parent's mean service demand at the boundary step
    (``None`` means the runner's constant ``mean_work``).

    The last three fields are the live-service seams and default to the
    batch behaviour: ``deadline_at`` is an absolute ``time.monotonic()``
    deadline for this boundary's decision (``None`` disables the check
    and skips every clock read, keeping batch runs byte-identical);
    ``hold`` pre-holds the decision (the parent's L2 already missed the
    shared deadline, so the L1 keeps its allocation too and only
    resyncs its filters); ``force_on`` pins the module to its first
    so-many available machines (a manual operator override).
    """

    period: int
    now: float
    observed_arrivals: "float | None" = None
    rate_hat: float = 0.0
    rate_next: float = 0.0
    delta: float = 0.0
    prediction: float = 0.0
    work: "float | None" = None
    deadline_at: "float | None" = None
    hold: bool = False
    force_on: "int | None" = None


@dataclass(frozen=True)
class ModuleStepInput:
    """Parent-computed inputs for one module's T_L0 step.

    ``share`` is this module's slice of the global arrivals (the L2
    gamma split), ``gamma_module`` the module's current global load
    fraction (1.0 for a module run alone), and ``forecast`` the shared
    fine-grained global rate forecast (hierarchy mode only). ``work`` is the step's mean service
    demand (``None`` means the runner's constant ``mean_work``).
    """

    step: int
    time: float
    share: float
    gamma_module: float
    forecast: "np.ndarray | None" = None
    work: "float | None" = None


@dataclass(frozen=True)
class ModulePeriodInput:
    """One full control period of work for one module."""

    boundary: ModuleBoundaryInput
    steps: "tuple[ModuleStepInput, ...]"


@dataclass(frozen=True)
class ModulePeriodOutput:
    """What one module produced over one control period.

    When the shared-memory series wire is active the worker's reply
    carries an empty ``step_events`` plus ``(n_steps, slot)`` naming the
    rows it wrote; the parent pool materialises the events (and the
    per-step ``row_stats`` stream folds) out of the block before the
    engine sees the output, so every consumer handles one shape.
    """

    module: int
    l1_event: L1DecisionEvent
    step_events: "tuple[StepEvent, ...]"
    queue_lengths: np.ndarray  # end-of-period, for the next L2 decision
    n_steps: "int | None" = None
    slot: "int | None" = None
    #: Per-step ``(sum, count, max, violations)`` of the response row,
    #: folded worker-side with StreamStats.observe_step's arithmetic.
    row_stats: "tuple | None" = None


@dataclass(frozen=True)
class ModuleFinalization:
    """Module aggregates the parent folds into the run result."""

    module: int
    energy_base: float
    energy_dynamic: float
    energy_transient: float
    switch_ons: int
    switch_offs: int
    l0_stats: ControllerStats
    l1_stats: ControllerStats


def forced_configuration(
    available_mask: np.ndarray,
    force_on: int,
    alpha: np.ndarray,
    gamma: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """The deterministic configuration a manual override pins.

    The first ``force_on`` available machines serve with an equal gamma
    split (clamped to [1, available count]); with nothing available the
    current configuration is kept — an override can never be allowed to
    wedge a module into serving with zero machines.
    """
    indices = np.flatnonzero(available_mask)
    if indices.size == 0:
        return alpha, gamma
    count = max(1, min(int(force_on), int(indices.size)))
    forced_alpha = np.zeros(alpha.size, dtype=bool)
    forced_alpha[indices[:count]] = True
    forced_gamma = forced_alpha.astype(float) / count
    return forced_alpha, forced_gamma


# ----------------------------------------------------------------------
# The per-module runner (shared by the serial and pooled paths)
# ----------------------------------------------------------------------


class ModuleShardRunner:
    """Owns one module's mutable run state and intra-period logic.

    Module runs and serial cluster runs call this inline; the sharded
    backend pickles the fully-initialised runner to a worker process
    once per run and calls it there. Every path therefore executes the
    identical float operations in the identical order.
    """

    def __init__(
        self,
        module_index: int,
        plant,
        controller,
        l0_bank: list,
        l0_params: L0Params,
        mean_work: float,
        is_baseline: bool,
        failure_events: "tuple[tuple[float, int, str], ...]" = (),
        kernel: str = "scalar",
    ) -> None:
        self.module_index = module_index
        self.plant = plant
        self.controller = controller
        self.l0_bank = list(l0_bank)
        self.l0_params = l0_params
        self.mean_work = mean_work
        self.is_baseline = is_baseline
        #: Control-period kernel; rides the pickled runner to sharded
        #: workers so both backends execute the same kernel choice. The
        #: batched L0 bank is built lazily (numpy arrays need not cross
        #: the pickle).
        self.kernel = kernel
        self._l0_kernel = None
        self.alpha = np.ones(plant.size, dtype=bool)
        self.gamma = np.full(plant.size, 1.0 / plant.size)
        self.pending_events = sorted(failure_events, key=lambda e: e[0])

    # -- fault handling --------------------------------------------------

    def _apply_faults(self, now: float) -> None:
        while self.pending_events and self.pending_events[0][0] <= now:
            _, index_failed, kind = self.pending_events.pop(0)
            if kind == "fail":
                self.plant.fail_computer(index_failed)
                self.alpha[index_failed] = False
                if self.gamma[index_failed] > 0:
                    gamma = self.gamma.copy()
                    gamma[index_failed] = 0.0
                    total = gamma.sum()
                    if total > 0:
                        gamma = gamma / total
                    else:
                        # The only serving machine failed: emergency
                        # power-on of the fastest survivor; arrivals
                        # queue behind its boot.
                        survivor = int(
                            np.argmax(
                                np.where(
                                    self.plant.available_mask,
                                    [
                                        c.model.speed_factor
                                        for c in self.plant.computers
                                    ],
                                    -1.0,
                                )
                            )
                        )
                        self.plant.computers[survivor].power_on()
                        self.alpha[survivor] = True
                        gamma = np.zeros_like(gamma)
                        gamma[survivor] = 1.0
                    self.gamma = gamma
            else:
                self.plant.repair_computer(index_failed)

    # -- the three intra-period calls -----------------------------------

    def begin_period(self, boundary: ModuleBoundaryInput) -> L1DecisionEvent:
        """Observe the closed interval, re-decide alpha/gamma, reconfigure.

        The decision is *computed first and applied after* the deadline
        check: a decision that missed its budget (or a ``hold`` the
        parent already declared) is discarded and the previous
        alpha/gamma stay in force — the plant never sees a transient
        from an abandoned decision. The Kalman ``observe`` always runs,
        so a held period still resyncs the forecasts. With no deadline
        and no override the operation sequence is exactly the original
        batch sequence.
        """
        self._apply_faults(boundary.now)
        work = boundary.work if boundary.work is not None else self.mean_work
        if boundary.observed_arrivals is not None:
            self.controller.observe(boundary.observed_arrivals, work)
        held = boundary.hold
        if self.is_baseline:
            if not held:
                if self.kernel == "vector":
                    from repro.sim.kernels import fast_baseline_act

                    decision = fast_baseline_act(
                        self.controller, self.plant.queue_lengths, self.alpha
                    )
                else:
                    decision = self.controller.act(
                        self.plant.queue_lengths, self.alpha
                    )
                if (
                    boundary.deadline_at is not None
                    and time.monotonic() > boundary.deadline_at
                ):
                    held = True
            if not held:
                self.alpha = decision.alpha.astype(bool)
                self.gamma = decision.gamma
                self.plant.apply_configuration(self.alpha)
                for computer, freq in zip(
                    self.plant.computers, decision.frequency_indices
                ):
                    computer.set_frequency_index(int(freq))
            else:
                self.plant.apply_configuration(self.alpha)
            if self.kernel == "vector":
                from repro.sim.kernels import fast_forecast1

                prediction = fast_forecast1(self.controller.predictor)
            else:
                prediction = float(self.controller.predictor.forecast(1)[0])
        else:
            if not held:
                decision = self.controller.decide(
                    self.plant.queue_lengths,
                    self.alpha,
                    rate_hat=boundary.rate_hat,
                    rate_next=boundary.rate_next,
                    delta=boundary.delta,
                    work=self.controller.work_estimate,
                    available=self.plant.available_mask,
                )
                if (
                    boundary.deadline_at is not None
                    and time.monotonic() > boundary.deadline_at
                ):
                    held = True
            if not held:
                self.alpha = decision.alpha.astype(bool)
                self.gamma = decision.gamma
            self.plant.apply_configuration(self.alpha)
            prediction = boundary.prediction
        forced = False
        if boundary.force_on is not None:
            self.alpha, self.gamma = forced_configuration(
                self.plant.available_mask, boundary.force_on, self.alpha, self.gamma
            )
            self.plant.apply_configuration(self.alpha)
            forced = True
        return L1DecisionEvent(
            period=boundary.period,
            module=self.module_index,
            alpha=self.alpha.copy(),
            gamma=self.gamma.copy(),
            prediction=prediction,
            held=held,
            forced=forced,
        )

    def step(self, inp: ModuleStepInput) -> StepEvent:
        """Advance the module one T_L0 fluid step."""
        self._apply_faults(inp.time)
        work = inp.work if inp.work is not None else self.mean_work
        m = self.plant.size
        freq_row = np.zeros(m)
        if self.is_baseline:
            freq_row[:] = [c.frequency_ghz for c in self.plant.computers]
        elif self.kernel == "vector":
            if self._l0_kernel is None:
                from repro.sim.kernels import L0BankKernel

                self._l0_kernel = L0BankKernel(self.l0_bank)
            serving = [
                j for j, c in enumerate(self.plant.computers) if c.is_serving
            ]
            if serving:
                decisions = self._l0_kernel.decide_many(
                    serving,
                    [self.plant.computers[j].queue_length for j in serving],
                    [
                        inp.gamma_module * self.gamma[j] * inp.forecast
                        for j in serving
                    ],
                    [self.l0_bank[j].work_estimate for j in serving],
                )
                for j, decided in zip(serving, decisions):
                    self.plant.computers[j].set_frequency_index(
                        decided.frequency_index
                    )
            freq_row[:] = [c.frequency_ghz for c in self.plant.computers]
        else:
            for j, (computer, l0) in enumerate(
                zip(self.plant.computers, self.l0_bank)
            ):
                if computer.is_serving:
                    local_forecast = inp.gamma_module * self.gamma[j] * inp.forecast
                    freq = l0.decide(
                        computer.queue_length, local_forecast, l0.work_estimate
                    )
                    computer.set_frequency_index(freq.frequency_index)
                freq_row[j] = computer.frequency_ghz
        results = self.plant.step_fluid(
            inp.share, work, self.l0_params.period, self.gamma
        )
        response_row = np.empty(m)
        queue_row = np.empty(m)
        for j, result in enumerate(results):
            response_row[j] = result.response_time
            queue_row[j] = result.queue
            if not self.is_baseline:
                self.l0_bank[j].work_filter.observe(work)
        return StepEvent(
            step=inp.step,
            time=inp.time,
            module=self.module_index,
            arrivals=inp.share,
            frequencies=freq_row,
            responses=response_row,
            queues=queue_row,
            power=self.plant.total_power(results),
        )

    def run_period(self, period: ModulePeriodInput) -> ModulePeriodOutput:
        """Execute one full control period (the worker-side entry point)."""
        l1_event = self.begin_period(period.boundary)
        step_events = tuple(self.step(inp) for inp in period.steps)
        return ModulePeriodOutput(
            module=self.module_index,
            l1_event=l1_event,
            step_events=step_events,
            queue_lengths=self.plant.queue_lengths,
        )

    def finalize(self) -> ModuleFinalization:
        """Fold the plant and controller aggregates for the run result."""
        on_count, off_count = self.plant.switch_counts()
        l0_stats = ControllerStats()
        for l0 in self.l0_bank:
            l0_stats = l0_stats.merged_with(l0.stats)
        return ModuleFinalization(
            module=self.module_index,
            energy_base=sum(c.energy.base_energy for c in self.plant.computers),
            energy_dynamic=sum(
                c.energy.dynamic_energy for c in self.plant.computers
            ),
            energy_transient=sum(
                c.energy.transient_energy for c in self.plant.computers
            ),
            switch_ons=on_count,
            switch_offs=off_count,
            l0_stats=l0_stats,
            l1_stats=self.controller.stats,
        )


# ----------------------------------------------------------------------
# Zero-copy wiring: digest map refs and the shared-memory series blocks
# ----------------------------------------------------------------------


class _MapRef:
    """Pickle placeholder for a trained map shipped by content digest.

    The parent swaps these into ``controller.maps`` around the init
    pickle; the worker swaps the rebuilt instances back in, one shared
    instance per digest, preserving the identity-keyed L1 query-cache
    sharing the serial path gets from the provider.
    """

    __slots__ = ("digest",)

    def __init__(self, digest: str) -> None:
        self.digest = digest

    def __getstate__(self):
        return self.digest

    def __setstate__(self, state):
        self.digest = state


def _ship_controller_maps(group, digest_by_id) -> "tuple[list, set]":
    """Swap shared map instances out of a worker group's controllers.

    Returns ``(originals, digests)`` where ``originals`` restores the
    parent-side controllers after the pickle and ``digests`` is the set
    of map digests this group needs rebuilt worker-side.
    """
    originals = []
    digests: set = set()
    for runner in group:
        maps = getattr(runner.controller, "maps", None)
        if not maps:
            continue
        if not all(id(instance) in digest_by_id for instance in maps):
            continue  # unknown provenance: let the table pickle inline
        originals.append((runner.controller, maps))
        refs = []
        for instance in maps:
            digest = digest_by_id[id(instance)]
            digests.add(digest)
            refs.append(_MapRef(digest))
        runner.controller.maps = refs
    return originals, digests


def _restore_worker_maps(runners, manifest) -> None:
    """Rebuild digest-referenced maps inside a worker process."""
    if not manifest:
        return
    from repro.controllers.l1 import ComputerBehaviorMap
    from repro.maps.cache import MapCache

    cache_dir = manifest.get("cache_dir")
    cache = MapCache(cache_dir) if cache_dir else None
    instances: dict = {}
    for digest, payload in manifest.get("artifacts", {}).items():
        if payload is None:
            payload = None if cache is None else cache.load("behavior", digest)
            if payload is None:
                raise RuntimeError(
                    f"shard worker could not load behavior map {digest} "
                    f"from the map cache at {cache_dir!r}"
                )
        instances[digest] = ComputerBehaviorMap.from_dict(payload)
    for runner in runners.values():
        maps = getattr(runner.controller, "maps", None)
        if not maps:
            continue
        runner.controller.maps = [
            instances[entry.digest] if isinstance(entry, _MapRef) else entry
            for entry in maps
        ]


#: Floats per shared-memory step row beyond the three per-computer
#: signals: power, then the (sum, count, max, violations) response fold.
_SHM_EXTRA = 5


def _shm_array(block, substeps: int, size: int) -> np.ndarray:
    """The double-buffered step-row view over one module's shm block."""
    return np.ndarray(
        (2, substeps, 3 * size + _SHM_EXTRA), dtype=np.float64, buffer=block.buf
    )


def _attach_shm(meta):
    """Worker-side attach to the parent's series blocks.

    ``track=False`` (3.13+) keeps the attach out of the resource
    tracker: the parent registered each block at creation and owns the
    unlink. Older interpreters attach normally — spawn workers share
    the parent's tracker process, so the attach just re-registers the
    same name (a set, deduplicated) and the parent's unlink still
    balances it. No per-worker unregister: pulling the shared entry out
    from under the parent would leak the segment if the parent crashed.
    """
    blocks: dict = {}
    if not meta:
        return blocks
    from multiprocessing import shared_memory

    for module, (name, size, substeps) in meta.items():
        try:
            block = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13: no track parameter
            block = shared_memory.SharedMemory(name=name)
        blocks[module] = (block, size, substeps)
    return blocks


def _write_period_shm(block_info, slot: int, output, target_response) -> None:
    """Fold one period's step events into the module's shm slot."""
    block, size, substeps = block_info
    rows = _shm_array(block, substeps, size)[slot]
    m = size
    for s, event in enumerate(output.step_events):
        row = rows[s]
        row[0:m] = event.frequencies
        row[m : 2 * m] = event.responses
        row[2 * m : 3 * m] = event.queues
        row[3 * m] = event.power
        # The response-row fold, with StreamStats.observe_step's exact
        # arithmetic, so the parent can fold_step() bit-identically.
        finite = event.responses[~np.isnan(event.responses)]
        if finite.size:
            row[3 * m + 1] = float(finite.sum())
            row[3 * m + 2] = float(finite.size)
            row[3 * m + 3] = float(finite.max())
            row[3 * m + 4] = (
                float((finite > target_response).sum())
                if target_response is not None
                else 0.0
            )
        else:
            row[3 * m + 1 : 3 * m + _SHM_EXTRA] = 0.0


# ----------------------------------------------------------------------
# The worker pool
# ----------------------------------------------------------------------


def _shard_worker_main(conn) -> None:
    """Worker process loop: host runners, serve period requests.

    When the parent asked for metric collection at init, the worker
    keeps a private :class:`~repro.obs.registry.MetricsRegistry` of
    request counters and timings; the parent pulls its snapshot with
    the ``metrics`` command and merges it under a ``worker`` label.
    Collection is off for batch runs, so the request loop stays free of
    clock reads by default.
    """
    runners: "dict[int, ModuleShardRunner]" = {}
    registry = None
    shm_blocks: dict = {}
    try:
        while True:
            command, payload = conn.recv()
            if command == "init":
                group = payload["group"]
                runners = {runner.module_index: runner for runner in group}
                _restore_worker_maps(runners, payload.get("map_manifest"))
                shm_blocks = _attach_shm(payload.get("shm"))
                if payload["collect_metrics"]:
                    from repro.obs.registry import MetricsRegistry

                    registry = MetricsRegistry()
                conn.send(("ok", None))
            elif command == "run_period":
                started = time.perf_counter() if registry is not None else 0.0
                outputs = {}
                for index, period in payload.items():
                    output = runners[index].run_period(period)
                    block_info = shm_blocks.get(index)
                    if block_info is not None:
                        slot = period.boundary.period % 2
                        _write_period_shm(
                            block_info,
                            slot,
                            output,
                            runners[index].l0_params.target_response,
                        )
                        output = replace(
                            output,
                            step_events=(),
                            n_steps=len(period.steps),
                            slot=slot,
                        )
                    outputs[index] = output
                if registry is not None:
                    elapsed = time.perf_counter() - started
                    registry.counter(
                        "repro_shard_requests_total",
                        "Period requests served by this worker.",
                    ).inc()
                    registry.counter(
                        "repro_shard_periods_total",
                        "Module-periods executed by this worker.",
                    ).inc(len(payload))
                    registry.counter(
                        "repro_shard_steps_total",
                        "Module-steps executed by this worker.",
                    ).inc(
                        sum(len(period.steps) for period in payload.values())
                    )
                    registry.histogram(
                        "repro_shard_request_seconds",
                        "Wall time per period request in this worker.",
                    ).observe(elapsed)
                conn.send(("ok", outputs))
            elif command == "finalize":
                conn.send(
                    ("ok", {i: r.finalize() for i, r in runners.items()})
                )
            elif command == "metrics":
                conn.send(
                    ("ok", None if registry is None else registry.to_dict())
                )
            elif command == "stop":
                conn.send(("ok", None))
                return
            else:
                conn.send(("error", f"unknown shard command {command!r}"))
                return
    except EOFError:
        return
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        for block, _, _ in shm_blocks.values():
            try:
                block.close()
            except (BufferError, OSError):  # pragma: no cover - defensive
                pass
        conn.close()


@dataclass(frozen=True)
class PendingPeriod:
    """A period request in flight: which workers owe replies, for what."""

    inputs: "dict[int, ModulePeriodInput]"
    workers: "tuple[int, ...]"


class ShardWorkerPool:
    """A pool of persistent, spawn-started module workers.

    Modules are assigned round-robin (module ``i`` to worker ``i % w``),
    so any worker count from 1 to the module count works and a request
    for more workers than modules degrades to one module per worker.
    Workers hold their runners for the whole run; each request ships
    only the per-period inputs, not the module state, and step series
    come back through per-module shared-memory blocks when available
    (``map_digests``/``map_payloads``/``substeps`` wire the zero-copy
    paths; all default to the plain pickled protocol).

    ``request_timeout`` bounds every wait on a worker reply (seconds);
    an unanswered request is polled once more for the same span — one
    retry — and then surfaces as a one-line :class:`ControlError`
    instead of a silent hang. ``None`` disables the bound. A worker that
    *dies* mid-request is detected immediately off its process sentinel,
    not after the timeout.
    """

    #: Default per-request reply timeout (seconds). Generous: a single
    #: control period per module is milliseconds of work, so a worker
    #: quiet for minutes is hung, not slow.
    DEFAULT_REQUEST_TIMEOUT = 300.0

    def __init__(
        self,
        runners: "list[ModuleShardRunner]",
        shard_workers: "int | None",
        request_timeout: "float | None" = DEFAULT_REQUEST_TIMEOUT,
        collect_metrics: bool = False,
        map_digests: "dict[int, str] | None" = None,
        map_payloads=None,
        substeps: "int | None" = None,
    ) -> None:
        if not runners:
            raise ConfigurationError("shard pool needs at least one module runner")
        if request_timeout is not None and not request_timeout > 0:
            raise ConfigurationError(
                f"request_timeout must be positive or None, got {request_timeout!r}"
            )
        self.request_timeout = request_timeout
        self.module_count = len(runners)
        self.workers = resolve_shard_workers(shard_workers, self.module_count)
        self._initialized = False
        #: Held from ``send_period`` until the matching ``recv_period``
        #: (and around ``finalize``/``collect_metrics``): a snapshot
        #: request from another thread — the service's ``ctl status``
        #: path — waits for the in-flight period instead of interleaving
        #: messages on the worker pipes.
        self._lock = threading.RLock()
        self._assignment = {
            runner.module_index: runner.module_index % self.workers
            for runner in runners
        }
        groups: "list[list[ModuleShardRunner]]" = [
            [] for _ in range(self.workers)
        ]
        for runner in runners:
            groups[runner.module_index % self.workers].append(runner)
        context = multiprocessing.get_context("spawn")
        self._connections = []
        self._processes = []
        self._shm = {}
        self._shm_meta = {}
        self._build_shm(runners, substeps)
        try:
            for group in groups:
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_shard_worker_main, args=(child_conn,), daemon=True
                )
                process.start()
                child_conn.close()
                self._connections.append(parent_conn)
                self._processes.append(process)
            for worker, group in enumerate(groups):
                self._send_init(
                    worker, group, collect_metrics, map_digests, map_payloads
                )
            for worker in range(self.workers):
                self._receive(worker)
            self._initialized = True
        except Exception:
            self.shutdown()
            raise

    # -- zero-copy setup ------------------------------------------------

    def _build_shm(self, runners, substeps: "int | None") -> None:
        """Create one double-buffered series block per module.

        Any failure (no ``/dev/shm``, exotic platform) falls back to the
        pickled event wire — slower, never wrong.
        """
        if not substeps:
            return
        try:
            from multiprocessing import shared_memory

            for runner in runners:
                size = runner.plant.size
                block = shared_memory.SharedMemory(
                    create=True,
                    size=2 * substeps * (3 * size + _SHM_EXTRA) * 8,
                )
                self._shm[runner.module_index] = (block, size, substeps)
                self._shm_meta[runner.module_index] = (
                    block.name,
                    size,
                    substeps,
                )
        except Exception:  # pragma: no cover - platform-dependent
            self._release_shm()

    def _release_shm(self) -> None:
        for block, _, _ in self._shm.values():
            try:
                block.close()
                block.unlink()
            except (BufferError, FileNotFoundError, OSError):
                pass
        self._shm = {}
        self._shm_meta = {}

    def _send_init(
        self, worker, group, collect_metrics, map_digests, map_payloads
    ) -> None:
        """Ship one worker's runners, maps-by-digest, and shm handles.

        ``map_digests`` (``id(instance) -> digest``) names the trained
        tables that must *not* cross the pipe; they are swapped for
        :class:`_MapRef` placeholders around the pickle and rebuilt
        worker-side from the cache directory. ``map_payloads`` is the
        parent's fallback source for digests the on-disk cache cannot
        serve (``digest -> payload | None``); a ``None`` payload means
        the worker loads from disk.
        """
        from repro.maps.stats import MAP_STATS

        originals, digests = (
            _ship_controller_maps(group, map_digests) if map_digests else ([], set())
        )
        manifest = None
        if digests:
            artifacts = {}
            for digest in sorted(digests):
                payload = (map_payloads or {}).get(digest)
                artifacts[digest] = payload
                if payload is None:
                    MAP_STATS.shard_digest_refs += 1
                else:
                    MAP_STATS.shard_inline_payloads += 1
                    MAP_STATS.shard_payload_bytes += len(json.dumps(payload))
            manifest = {
                "cache_dir": (map_payloads or {}).get("__cache_dir__"),
                "artifacts": artifacts,
            }
        shm_meta = {
            runner.module_index: self._shm_meta[runner.module_index]
            for runner in group
            if runner.module_index in self._shm_meta
        }
        try:
            self._connections[worker].send(
                (
                    "init",
                    {
                        "group": group,
                        "collect_metrics": collect_metrics,
                        "map_manifest": manifest,
                        "shm": shm_meta or None,
                    },
                )
            )
        finally:
            for controller, maps in originals:
                controller.maps = maps

    # -- request plumbing -----------------------------------------------

    def _death_error(self, worker: int) -> ControlError:
        processes = getattr(self, "_processes", None)
        process = processes[worker] if processes else None
        if process is not None and getattr(self, "_initialized", False):
            process.join(timeout=1.0)
            return ControlError(
                f"shard worker {worker} (pid {process.pid}) died "
                f"mid-request with exit code {process.exitcode}; rerun "
                "with execution='serial' to bisect"
            )
        return ControlError(
            f"shard worker {worker} exited unexpectedly. If this "
            "happened at startup, the usual cause is launching a "
            "sharded run at the top level of a script: workers are "
            "spawn-started, so the entry point must be guarded with "
            "`if __name__ == '__main__':` (the standard "
            "multiprocessing rule)"
        )

    def _await_reply(self, worker: int, connection, process) -> None:
        """Wait for a reply, watching the worker's life alongside the pipe.

        ``connection.wait`` on the pipe *and* the process sentinel turns
        a worker death into an immediate one-line error instead of a
        silent ``request_timeout`` wait.
        """
        from multiprocessing.connection import wait

        timeout = self.request_timeout
        attempts = 0
        while True:
            ready = wait([connection, process.sentinel], timeout)
            if connection in ready or connection.poll(0):
                return
            if process.sentinel in ready:
                raise self._death_error(worker)
            attempts += 1  # timed out with the worker still alive
            if timeout is not None and attempts >= 2:
                raise ControlError(
                    f"shard worker {worker} sent no reply within "
                    f"{timeout:.0f}s (retried once); treating the worker "
                    "as hung — rerun with execution='serial' to bisect"
                )

    def _receive(self, worker: int):
        connection = self._connections[worker]
        timeout = self.request_timeout
        processes = getattr(self, "_processes", None)
        if processes:
            self._await_reply(worker, connection, processes[worker])
        elif timeout is not None and not connection.poll(timeout):
            # One retry: a loaded machine gets a second full window
            # before the worker is declared hung.
            if not connection.poll(timeout):
                raise ControlError(
                    f"shard worker {worker} sent no reply within "
                    f"{timeout:.0f}s (retried once); treating the worker "
                    "as hung — rerun with execution='serial' to bisect"
                )
        try:
            status, payload = connection.recv()
        except (EOFError, ConnectionResetError, BrokenPipeError):
            raise self._death_error(worker) from None
        if status != "ok":
            raise ControlError(f"shard worker {worker} failed:\n{payload}")
        return payload

    # -- the split-phase period protocol --------------------------------

    def send_period(
        self, inputs: "dict[int, ModulePeriodInput]"
    ) -> PendingPeriod:
        """Dispatch one control period to the workers without waiting."""
        self._lock.acquire()
        try:
            requests: "dict[int, dict]" = {}
            for module_index, period in inputs.items():
                worker = self._assignment[module_index]
                requests.setdefault(worker, {})[module_index] = period
            for worker, payload in requests.items():
                try:
                    self._connections[worker].send(("run_period", payload))
                except (BrokenPipeError, OSError):
                    # The worker died while idle: its pipe is closed, so
                    # the send fails immediately — surface the death now
                    # instead of waiting out a reply that can never come.
                    raise self._death_error(worker) from None
            return PendingPeriod(inputs=inputs, workers=tuple(requests))
        except BaseException:
            self._lock.release()
            raise

    def recv_period(
        self, pending: PendingPeriod
    ) -> "dict[int, ModulePeriodOutput]":
        """Collect a dispatched period, materialising shm-borne series."""
        try:
            replies: "dict[int, ModulePeriodOutput]" = {}
            for worker in pending.workers:
                replies.update(self._receive(worker))
            return {
                module: self._materialize(module, pending.inputs[module], reply)
                for module, reply in replies.items()
            }
        finally:
            self._lock.release()

    def run_period(
        self, inputs: "dict[int, ModulePeriodInput]"
    ) -> "dict[int, ModulePeriodOutput]":
        """Run one control period on every worker; returns per-module outputs."""
        return self.recv_period(self.send_period(inputs))

    def _materialize(
        self, module: int, period: ModulePeriodInput, reply: ModulePeriodOutput
    ) -> ModulePeriodOutput:
        """Rebuild step events (and stream folds) from the module's block.

        Only the float signals cross shared memory; step index, time,
        and the arrival share are the parent's own dispatch inputs, so
        the reconstructed events are value-identical to the worker's.
        """
        if reply.n_steps is None:
            return reply
        block, size, substeps = self._shm[module]
        rows = _shm_array(block, substeps, size)[reply.slot, : reply.n_steps]
        data = rows.copy()  # one copy out of the shared block
        m = size
        events = []
        row_stats = []
        for s, inp in enumerate(period.steps):
            row = data[s]
            events.append(
                StepEvent(
                    step=inp.step,
                    time=inp.time,
                    module=module,
                    arrivals=inp.share,
                    frequencies=row[0:m],
                    responses=row[m : 2 * m],
                    queues=row[2 * m : 3 * m],
                    power=float(row[3 * m]),
                )
            )
            row_stats.append(
                (
                    float(row[3 * m + 1]),
                    int(row[3 * m + 2]),
                    float(row[3 * m + 3]),
                    int(row[3 * m + 4]),
                )
            )
        return replace(
            reply,
            step_events=tuple(events),
            row_stats=tuple(row_stats),
            n_steps=None,
            slot=None,
        )

    def _broadcast(self, worker: int, message) -> None:
        try:
            self._connections[worker].send(message)
        except (BrokenPipeError, OSError):
            raise self._death_error(worker) from None

    def collect_metrics(self) -> "dict[int, dict | None]":
        """Pull every worker's metrics snapshot (None when not collecting)."""
        with self._lock:
            for worker in range(self.workers):
                self._broadcast(worker, ("metrics", None))
            return {
                worker: self._receive(worker) for worker in range(self.workers)
            }

    def finalize(self) -> "dict[int, ModuleFinalization]":
        """Collect every module's run aggregates.

        Worker-side this is a pure read of the plant/controller
        aggregates, so it doubles as the mid-run state snapshot behind
        ``live_summary`` under pooled backends.
        """
        with self._lock:
            for worker in range(self.workers):
                self._broadcast(worker, ("finalize", None))
            finals: "dict[int, ModuleFinalization]" = {}
            for worker in range(self.workers):
                finals.update(self._receive(worker))
            return finals

    def shutdown(self) -> None:
        """Stop the workers; safe to call more than once."""
        lock = getattr(self, "_lock", None)
        if lock is not None and not lock.acquire(timeout=5):
            lock = None  # pragma: no cover - a wedged period; stop anyway
        for connection in self._connections:
            try:
                connection.send(("stop", None))
                connection.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
            finally:
                connection.close()
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=1)
        self._connections = []
        self._processes = []
        self._release_shm()
        if lock is not None:
            lock.release()


class ThreadShardPool:
    """An in-process thread pool behind the same period protocol.

    Modules are embarrassingly parallel within a period (the parent
    computes every cross-module float), so a thread per request is
    enough to overlap the numpy-heavy plant stepping; nothing is
    pickled and no shared memory is needed. Runner code is identical to
    the serial path, so results are bit-identical by the same argument
    as the process pool. The GIL bounds the speed-up — this backend
    exists for spawn-free startup and for hosts where process pools are
    unavailable, with the same split-phase pipelining surface.
    """

    def __init__(
        self,
        runners: "list[ModuleShardRunner]",
        shard_workers: "int | None",
        collect_metrics: bool = False,
    ) -> None:
        if not runners:
            raise ConfigurationError("shard pool needs at least one module runner")
        from concurrent.futures import ThreadPoolExecutor

        self.module_count = len(runners)
        self.workers = resolve_shard_workers(shard_workers, self.module_count)
        self._runners = {runner.module_index: runner for runner in runners}
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-shard"
        )
        #: Same send-to-recv span as the process pool: a ``finalize``
        #: snapshot from another thread waits for the in-flight period
        #: instead of reading runners the executor is mutating.
        self._lock = threading.RLock()
        self._registry = None
        if collect_metrics:
            from repro.obs.registry import MetricsRegistry

            self._registry = MetricsRegistry()

    def send_period(self, inputs: "dict[int, ModulePeriodInput]"):
        self._lock.acquire()
        try:
            started = (
                time.perf_counter() if self._registry is not None else 0.0
            )
            futures = {
                module: self._executor.submit(
                    self._runners[module].run_period, period
                )
                for module, period in inputs.items()
            }
            return (futures, inputs, started)
        except BaseException:
            self._lock.release()
            raise

    def recv_period(self, pending) -> "dict[int, ModulePeriodOutput]":
        futures, inputs, started = pending
        try:
            outputs = {
                module: future.result() for module, future in futures.items()
            }
        except Exception as exc:
            raise ControlError(
                f"shard thread failed:\n{traceback.format_exc()}"
            ) from exc
        finally:
            self._lock.release()
        if self._registry is not None:
            elapsed = time.perf_counter() - started
            self._registry.counter(
                "repro_shard_requests_total",
                "Period requests served by this worker.",
            ).inc()
            self._registry.counter(
                "repro_shard_periods_total",
                "Module-periods executed by this worker.",
            ).inc(len(inputs))
            self._registry.counter(
                "repro_shard_steps_total",
                "Module-steps executed by this worker.",
            ).inc(sum(len(period.steps) for period in inputs.values()))
            self._registry.histogram(
                "repro_shard_request_seconds",
                "Wall time per period request in this worker.",
            ).observe(elapsed)
        return outputs

    def run_period(
        self, inputs: "dict[int, ModulePeriodInput]"
    ) -> "dict[int, ModulePeriodOutput]":
        return self.recv_period(self.send_period(inputs))

    def collect_metrics(self) -> "dict[int, dict | None]":
        """One pooled snapshot (threads share a registry), keyed worker 0."""
        with self._lock:
            return {
                0: None if self._registry is None else self._registry.to_dict()
            }

    def finalize(self) -> "dict[int, ModuleFinalization]":
        with self._lock:
            return {
                module: runner.finalize()
                for module, runner in self._runners.items()
            }

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True)
