"""Write the stored run summaries that ``run.py`` checks against.

Usage, from the root of the repository::

    PYTHONPATH=src python3 perfbench/make_references.py --group fig6 --seeds 0-31 8191 \
        --held-out 8191

Each group runs one workload's scenario to completion through
``run_scenario`` (the path ``repro run --json`` takes) for every seed
given, and merges ``RunSummary.deterministic_dict()`` with its SHA-256
into ``references.json``. Run it only on a commit whose output is known
good: a later change to the program must reproduce these summaries.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from references import REFERENCES_PATH, summary_digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _seeds(tokens: "list[str]") -> "list[int]":
    seeds = []
    for token in tokens:
        low, _, high = token.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--group", required=True)
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges like 0-31")
    parser.add_argument(
        "--held-out", type=int, default=None, help="record this seed as the held-out seed"
    )
    args = parser.parse_args(argv)

    from repro.scenario import run_scenario

    # The first workload of the group; its siblings must agree with it.
    workload = next(w for w in WORKLOADS.values() if w.reference == args.group)
    entries = {}
    for seed in _seeds(args.seeds):
        summary = run_scenario(workload.spec(seed)).summary().deterministic_dict()
        entries[str(seed)] = {"sha256": summary_digest(summary), "summary": summary}
        print(f"{args.group} seed {seed}: {entries[str(seed)]['sha256'][:16]}", flush=True)

    references = (
        json.loads(REFERENCES_PATH.read_text()) if REFERENCES_PATH.exists() else {"groups": {}}
    )
    if args.held_out is not None:
        references["held_out_seed"] = args.held_out
    group = references["groups"].setdefault(
        args.group,
        {"scenario": workload.scenario, "samples": workload.samples, "seeds": {}},
    )
    group["seeds"].update(entries)
    group["seeds"] = dict(sorted(group["seeds"].items(), key=lambda item: int(item[0])))
    REFERENCES_PATH.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
