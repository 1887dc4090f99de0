"""The benchmark's own checks: its output check catches a wrong summary.

Run from the root of the repository::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pytest

from references import check_summaries, load_references, summary_digest
from workloads import WORKLOADS


def _perturbed(entry: dict) -> dict:
    summary = dict(entry["summary"])
    summary["total_energy"] += 1.0
    return {"sha256": summary_digest(summary), "summary": summary}


def test_every_workload_has_references_for_default_and_held_out_seed():
    references = load_references()
    for workload in WORKLOADS.values():
        seeds = references["groups"][workload.reference]["seeds"]
        assert "0" in seeds
        assert str(references["held_out_seed"]) in seeds


def test_output_check_accepts_reference_and_rejects_perturbed_one():
    entry = load_references()["groups"]["baseline-cluster"]["seeds"]["0"]
    assert check_summaries(entry, [entry["summary"]]) == [None]
    verdict = check_summaries(_perturbed(entry), [entry["summary"]])
    assert verdict[0] is not None and "total_energy" in verdict[0]


def test_output_check_without_reference_needs_agreeing_episodes():
    entry = load_references()["groups"]["baseline-cluster"]["seeds"]["0"]
    other = dict(entry["summary"], switch_ons=entry["summary"]["switch_ons"] + 1)
    assert check_summaries(None, [entry["summary"], entry["summary"]]) == [None, None]
    assert check_summaries(None, [entry["summary"], other])[1] is not None


@pytest.mark.slow
def test_benchmark_reports_perturbed_reference_as_failed_run(monkeypatch, capsys):
    import run

    references = load_references()
    group = references["groups"]["baseline-cluster"]
    group["seeds"]["0"] = _perturbed(group["seeds"]["0"])
    monkeypatch.setattr(run, "load_references", lambda: references)
    # The traced path: two one-episode runs, each checked like a timed run.
    code = run.main(["--workload", "baseline-cluster", "--seed", "0", "--trace", "1"])
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] > result["failed"]
    assert "summary differs from the reference in total_energy" in err
