"""The benchmark's own tests: recorded digests, wrapper hygiene and the
per-layer accounting.  Run with ``python3 -m pytest perfbench/tests``
(about three minutes of traced runs)."""

from __future__ import annotations

import importlib
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro import obs
from perfbench import bench, layers
from perfbench.workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Wrapped calls reached on another workload than their layer's row of
#: ``layers.MOVES`` names.
EXERCISED_ON = {
    "paging:PageTable.demote": "fleet_pressure",
    "os:MemoryLayer.demote": "fleet_pressure",
    "os:MemoryLayer.release_client": "fleet_churn",
}
#: Wrapped calls no workload reaches at this commit.
UNREACHED = {
    # The rescan path: every platform keeps the incremental index.
    "metrics:alignment_report",
    # Peer-pipe migrations: the pressured fleet never finds a host with
    # room to migrate to.
    "exec:ActorPool.transfer",
}


def _callables() -> dict:
    """Identity snapshot of every callable bound in a ``repro`` module
    or in a class one defines."""
    bound = {}
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in vars(module).items():
            if callable(value):
                bound[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, item in vars(value).items():
                    if callable(item):
                        bound[(name, attr, member)] = item
    return bound


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced run per workload, bracketed by snapshots of every
    patchable binding."""
    tracer = layers.LayerTracer(obs.Telemetry())
    for target in tracer.targets():
        importlib.import_module(target.module)
    before = _callables()
    # Every instance: swap-ins, ladder demotions and page relocations do
    # not happen on every seed.
    runs = {
        name: bench.measure_layers(
            workload, bench.DEFAULT_SEED, tmp_path_factory.mktemp(name)
        )
        for name, workload in WORKLOADS.items()
    }
    return before, _callables(), runs


def test_held_out_seed_reproduces_recorded_digests():
    recorded = bench.load_digests()["svm_steady"]
    assert str(bench.HELD_OUT_SEED) in recorded
    report, _ = bench.measure(
        WORKLOADS["svm_steady"], bench.HELD_OUT_SEED, seconds=0
    )
    assert report.problems == []
    assert report.failed == 0


def test_traced_runs_pass_their_output_checks(traced):
    _, _, runs = traced
    for name, (report, _) in runs.items():
        assert report.problems == [], name
        assert report.failed == 0, name


def test_traced_runs_restore_every_patched_attribute(traced):
    before, after, _ = traced
    changed = {
        key for key in before.keys() | after.keys()
        if before.get(key) is not after.get(key)
    }
    assert changed == set()


def test_plain_run_after_traced_run_gives_same_digest(traced):
    workload = WORKLOADS["svm_steady"]
    config = bench.instance_configs(workload, bench.DEFAULT_SEED)[0]
    run = bench.run_instance(workload, config)
    assert run.digest == bench.load_digests()[workload.name][str(bench.DEFAULT_SEED)][0]


def test_each_wrapped_call_runs_where_its_layer_table_says(traced):
    _, _, runs = traced
    calls = {
        name: {span: stat["count"] for span, stat in telemetry.span_stats().items()}
        for name, (_, telemetry) in runs.items()
    }
    missing = []
    for target in layers.LayerTracer(obs.Telemetry()).targets():
        if target.span in UNREACHED:
            continue
        where = EXERCISED_ON.get(target.span)
        on = (where,) if where else layers.MOVES[target.layer][1]
        if not any(calls[name].get(target.span, 0) for name in on):
            missing.append(target.span)
    assert missing == []


def test_layer_counts_are_nonzero_where_they_move_run_s(traced):
    _, _, runs = traced
    for layer, (_, on, _) in layers.MOVES.items():
        for name in on:
            telemetry = runs[name][1]
            assert telemetry.counters.get(f"{layer}.calls", 0) > 0, (layer, name)


def test_pressure_and_exec_are_zero_off_the_pressured_fleet(traced):
    _, _, runs = traced
    for name, (report, _) in runs.items():
        if name == "fleet_pressure":
            continue
        for metric, (value, _) in report.metrics.items():
            if metric.startswith(("pressure.", "exec.")):
                assert value == 0, (name, metric)


def test_self_times_add_up_to_the_traced_run(traced):
    _, _, runs = traced
    for name, (report, _) in runs.items():
        values = {metric: value for metric, (value, _) in report.metrics.items()}
        total = sum(values[f"{layer}.self_s"] for layer in layers.LAYERS)
        assert total + values["unattributed_s"] == pytest.approx(values["traced_run_s"])
        assert values["unattributed_s"] >= 0, name
        assert all(values[f"{layer}.self_s"] >= 0 for layer in layers.LAYERS), name


def test_benchmark_json_matches_the_benchmark(traced):
    _, _, runs = traced
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    for report, _ in runs.values():
        assert list(report.metrics) == [m["name"] for m in spec["per_layer"]]


def test_without_simulator_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "svm_steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
