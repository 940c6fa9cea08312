"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_operation_list(name):
    make = workloads.WORKLOADS[name]
    sizes = workloads.TINY_SIZES
    assert make(5, sizes).ops == make(5, sizes).ops
    assert make(5, sizes).ops != make(6, sizes).ops


def test_spec_metric_names_and_counts():
    end_to_end = [metric["name"] for metric in SPEC["end_to_end"]]
    per_layer = [metric["name"] for metric in SPEC["per_layer"]]
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    for name in end_to_end + per_layer + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def tiny_runs():
    """Every workload, timed and traced, at the tiny sizes."""
    runs = {}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            runs[name, trace] = run.run(
                name, seed=3, seconds=0.01, trace=trace, sizes=workloads.TINY_SIZES
            )
    return runs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_runs_are_correct(tiny_runs, name):
    for trace in (False, True):
        outcome = tiny_runs[name, trace]
        report = outcome["report"]
        assert outcome["problems"] == []
        assert report["correct"] and report["failed"] == 0
        assert report["attempted"] >= 1
    traced = tiny_runs[name, True]["report"]["metrics"]
    assert traced["error_rate"]["value"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reported_metrics_match_the_spec(tiny_runs, name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics = tiny_runs[name, trace]["report"]["metrics"]
        spec = {metric["name"]: metric["unit"] for metric in SPEC[key]}
        assert {n: m["unit"] for n, m in metrics.items()} == spec


def test_traced_run_records_spans(tiny_runs):
    spans = tiny_runs["fedcall", True]["spans"]
    layers = {span[0] for span in spans}
    assert {"core.server", "fdbs.execute", "appsys.call"} <= layers
    assert all(span[1] <= span[2] for span in spans)


def test_timed_runs_leave_functions_unwrapped(monkeypatch):
    seen = []
    original = workloads.FedCall.run_round

    def spy(self, tracer_=None):
        seen.append((tracer_ is None, tracer.unwrapped()))
        return original(self, tracer_)

    monkeypatch.setattr(workloads.FedCall, "run_round", spy)
    run.run("fedcall", seed=4, seconds=0.01, trace=False, sizes=workloads.TINY_SIZES)
    assert seen and all(untraced and clean for untraced, clean in seen)
    run.run("fedcall", seed=4, seconds=0.01, trace=True, sizes=workloads.TINY_SIZES)
    assert (False, False) in seen and (True, True) in seen
    assert tracer.unwrapped()
