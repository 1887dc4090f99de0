"""Stored run summaries and the output check made against them.

A run's output is its ``RunSummary.deterministic_dict()`` — the
``summary`` of ``repro run --json``. ``references.json`` holds, per
reference group and seed, that dict and the SHA-256 of its canonical
JSON. It is written by ``make_references.py`` through ``run_scenario``,
the same path the CLI takes, so it does not depend on the benchmark's
own stepping loop.

A seed with no stored summary cannot be checked byte for byte. Such a
run is checked for internal consistency instead (every episode of the
run agrees, energies add up, fractions and counts are in range), and
the run says so on stderr.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCES_PATH = Path(__file__).resolve().parent / "references.json"


def summary_digest(summary: dict) -> str:
    """SHA-256 of the summary's canonical JSON rendering."""
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_references(path: "Path | str" = REFERENCES_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def reference_for(references: dict, workload, seed: int) -> "dict | None":
    """The stored entry for ``workload``'s group and ``seed``, if any.

    Raises ``ValueError`` when the group was stored for another scenario
    or horizon: such a reference is stale, not missing.
    """
    group = references["groups"].get(workload.reference)
    if group is None:
        return None
    if group["scenario"] != workload.scenario or group["samples"] != workload.samples:
        raise ValueError(
            f"reference group {workload.reference!r} was stored for "
            f"{group['scenario']} samples={group['samples']}, not "
            f"{workload.scenario} samples={workload.samples}"
        )
    return group["seeds"].get(str(seed))


def invariant_errors(summary: dict) -> "list[str]":
    """Consistency problems in one summary (empty when it is sound)."""
    errors = []
    for name, value in summary.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name} is not a finite number: {value!r}")
    if errors:
        return errors
    parts = summary["base_energy"] + summary["dynamic_energy"] + summary["transient_energy"]
    if not math.isclose(parts, summary["total_energy"], rel_tol=1e-9):
        errors.append(f"energy parts sum to {parts!r}, total is {summary['total_energy']!r}")
    if not 0.0 <= summary["violation_fraction"] <= 1.0:
        errors.append(f"violation_fraction {summary['violation_fraction']!r} outside [0, 1]")
    for name in ("switch_ons", "switch_offs", "mean_computers_on", "mean_response"):
        if summary[name] < 0:
            errors.append(f"{name} is negative: {summary[name]!r}")
    return errors


def check_summaries(expected: "dict | None", summaries: "list[dict]") -> "list[str | None]":
    """One verdict per episode: ``None`` if it passes, else the reason."""
    verdicts: "list[str | None]" = []
    first = summary_digest(summaries[0]) if summaries else None
    for summary in summaries:
        digest = summary_digest(summary)
        if expected is not None:
            if digest == expected["sha256"]:
                verdicts.append(None)
                continue
            differing = sorted(
                name
                for name in set(summary) | set(expected["summary"])
                if summary.get(name) != expected["summary"].get(name)
            )
            verdicts.append(
                "summary differs from the reference in "
                + (", ".join(differing) or "its stored digest")
            )
            continue
        errors = invariant_errors(summary)
        if digest != first:
            errors.append("episodes of one run disagree")
        verdicts.append("; ".join(errors) or None)
    return verdicts
