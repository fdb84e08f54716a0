"""Checks on the perf benchmark itself, at tiny internal sizes (seconds).

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

import json
import math
import os
import re

import layers
import pytest
import run
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(run.HERE))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request):
    """One untraced and one traced repeat of a tiny workload."""
    return request.param, run.repeat(request.param, seed=0, seconds=0, trace=True, tiny=True)


def test_benchmark_json_matches_the_runner(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_metric_is_emitted_and_finite(traced):
    workload, results = traced
    assert run.check(workload, results) == ([], [])
    end_to_end = run.end_to_end(results)
    assert set(end_to_end) == set(run.END_TO_END)
    assert all(math.isfinite(v) and v > 0 for values in end_to_end.values() for v in values)
    per_layer = run.per_layer(results)
    assert set(per_layer) == set(run.PER_LAYER)
    assert all(math.isfinite(v) and v >= 0 for v in per_layer.values())


def test_self_times_add_up_to_the_traced_wall(traced):
    _, results = traced
    trace = next(r for r in results if r["traced"])["trace"]
    assert all(s >= -1e-9 for s in trace["self_s"].values())
    assert trace["other_s"] >= -1e-9
    total = sum(trace["self_s"].values()) + trace["other_s"]
    assert total == pytest.approx(trace["wall_s"], rel=0.02)


def test_traced_and_untraced_runs_agree(traced):
    _, results = traced
    assert [r["traced"] for r in results] == [False, True]
    assert results[0]["digest"] == results[1]["digest"]


def test_result_line_has_the_contract_shape(spec):
    code, result, _ = run.measure("oracle-fleet", 1, 0, False, tiny=True)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_a_missing_entry_point_is_named(monkeypatch):
    import repro.deploy.loop

    monkeypatch.delattr(repro.deploy.loop, "cluster_from_api")
    with pytest.raises(layers.HookError, match="cluster_from_api"):
        layers.check_hooks()


def test_a_bypassed_layer_fails_the_call_count_check(traced):
    workload, results = traced
    forged = [dict(r) for r in results]
    traced_result = forged[1]
    traced_result["trace"] = dict(traced_result["trace"], calls=dict.fromkeys(layers.LAYERS, 0))
    _, hook_problems = run.check(workload, forged)
    assert any(problem.startswith("round:") for problem in hook_problems)


def test_hooks_are_removed_after_a_run():
    from repro.k8s.kvstore import KVStore

    before = KVStore.put
    recorder = layers.Recorder()
    layers.install(recorder).remove()
    assert KVStore.put is before
