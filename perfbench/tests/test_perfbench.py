"""The benchmark's own tests, on tiny workload sizes.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import measure, run, tracing, workloads
from timeschur import runtime, schur

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _patched_attributes():
    owners = [(module, attr) for module, attr, _ in tracing.SPANNED]
    owners += [(schur, "linear_propagator"), (runtime.WorkerPool, "map")]
    return {(owner, attr): getattr(owner, attr) for owner, attr in owners}


def test_spec_lists_the_workloads_and_metrics():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(name, workloads.make(name).why) for name in workloads.NAMES]
    assert run.WORKLOADS == workloads.NAMES
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == measure.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_UNITS


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "0", "--trace", trace,
                "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "lv-newton", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _traced_round(name):
    workload = workloads.make(name, "tiny")
    inst = workload.setup(0, 1)
    try:
        with tracing.Tracer() as tracer:
            root = tracer.open("solve")
            traj, report = workload.solve(inst, tracer.wrap_problem(inst.problem), 1)
            tracer.close(root)
    finally:
        inst.close()
    return tracer


@pytest.mark.parametrize("name", workloads.NAMES)
def test_spans_nest(name):
    spans = _traced_round(name).spans
    assert len(spans) > 2
    for _, start, end, parent, _ in spans:
        assert start <= end
        if parent is not None:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    assert [s[3] for s in spans].count(None) == 1  # one root


def test_wrappers_are_restored():
    before = _patched_attributes()
    measure.measure_traced(workloads.make("lv-nlschur", "tiny"), 0, 0, 2)
    assert _patched_attributes() == before
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert _patched_attributes() != before
            raise RuntimeError
    assert _patched_attributes() == before


@pytest.mark.parametrize("name", workloads.NAMES)
def test_exact_counters_repeat_for_one_seed(name):
    counts = []
    for _ in range(2):
        tally, metrics, _ = measure.measure_traced(workloads.make(name, "tiny"), 5, 0, 2)
        assert tally.failed == 0, tally.errors
        counts.append({key: metrics[key] for key in tracing.EXACT_COUNTERS})
    assert counts[0] == counts[1]
    assert counts[0]["runtime.tasks"] > 0 and counts[0]["problems.calls"] > 0
