"""The vectorized control-period kernel: a pure speed knob.

`control.kernel = "vector"` swaps the engine's per-computer Python hot
loops for numpy-batched ones — the L0 bank expands every serving
computer's lookahead tree at once, the Kalman bank advances all workload
filters per boundary, and baseline-cluster substeps advance every
machine as one array.

The contract mirrors the sharded backend's (`sharded_cluster.py`): not
"approximately the same", but deterministic summaries that are
**bit-identical** to the scalar reference path, which stays in the tree
as the parity oracle. CI gates the pair with `cmp` on the run JSON.

Run from the repo root:

    PYTHONPATH=src python examples/vector_kernel.py
"""

import json
import time

from repro.scenario import get_scenario, run_scenario

SCENARIO = "cluster-baseline-showdown"
SAMPLES = 120


def timed_run(spec):
    started = time.perf_counter()
    result = run_scenario(spec)
    return result, time.perf_counter() - started


def main() -> None:
    base = get_scenario(SCENARIO, samples=SAMPLES)

    scalar, scalar_seconds = timed_run(base)

    # The declarative switch: control.kernel = "vector". The same knob
    # is reachable from the builder (`Scenario.cluster(...).kernel(
    # "vector")`), the CLI (`repro run ... --kernel vector`), and the
    # EngineOptions surface (`EngineOptions(kernel="vector")`) when
    # driving ClusterSimulation directly.
    vector_spec = base.with_overrides(**{"control.kernel": "vector"})
    vector, vector_seconds = timed_run(vector_spec)

    scalar_payload = json.dumps(
        scalar.summary().deterministic_dict(), sort_keys=True
    )
    vector_payload = json.dumps(
        vector.summary().deterministic_dict(), sort_keys=True
    )
    assert scalar_payload == vector_payload, "kernel parity violated"

    print(f"scenario           : {SCENARIO} ({SAMPLES} control periods)")
    print(f"scalar kernel      : {scalar_seconds:.2f}s")
    print(f"vector kernel      : {vector_seconds:.2f}s")
    print(f"speedup            : {scalar_seconds / vector_seconds:.2f}x")
    print("deterministic JSON : identical byte-for-byte")
    summary = vector.summary()
    print(
        f"summary            : mean r = {summary.mean_response:.2f}s, "
        f"energy = {summary.total_energy:.0f}"
    )


if __name__ == "__main__":
    main()
