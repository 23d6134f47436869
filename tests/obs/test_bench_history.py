"""Bench-history tracker tests: record flattening, JSONL round-trip,
and the noise-aware regression gate."""

import json

from repro.metrics.report import format_bench_compare
from repro.obs.bench import (
    append_history,
    compare_history,
    flatten_metrics,
    history_record,
    load_history,
    metric_direction,
)

REPORT = {
    "fleet": {
        "hosts": 8,
        "serial_seconds": 2.0,
        "parallel_seconds": 1.0,
        "speedup_parallel_vs_serial": 2.0,
        "parallel_mode": "pool",  # non-numeric: dropped
    },
    "telemetry": {"disabled_call_ns": 100.0, "enabled": True},
}


def test_flatten_metrics_dotted_numeric_leaves():
    flat = flatten_metrics(REPORT)
    assert flat["fleet.serial_seconds"] == 2.0
    assert flat["telemetry.disabled_call_ns"] == 100.0
    assert "fleet.parallel_mode" not in flat
    assert "telemetry.enabled" not in flat  # bools are not metrics


def test_metric_direction():
    assert metric_direction("fleet.serial_seconds") == "lower"
    assert metric_direction("telemetry.disabled_call_ns") == "lower"
    assert metric_direction("fleet.speedup_parallel_vs_serial") == "higher"
    assert metric_direction("fleet.ipc_reduction_factor") == "higher"
    # Throughput: neither informational nor read as seconds by ``_s``.
    assert metric_direction("matrix.serial_cells_per_sec") == "higher"
    assert metric_direction("matrix.warm_cells_per_sec") == "higher"
    assert metric_direction("svm_steady.tenant_epochs_per_s") == "higher"
    assert metric_direction("fleet.hosts") == "info"


def test_append_and_load_history_roundtrip(tmp_path):
    path = tmp_path / "BENCH_history.jsonl"
    record = append_history(REPORT, path, timestamp="2026-08-08", rev="abc")
    assert record["ts"] == "2026-08-08"
    append_history(REPORT, path)
    loaded = load_history(path)
    assert len(loaded) == 2
    assert loaded[0]["metrics"]["fleet.serial_seconds"] == 2.0
    # A truncated trailing line (interrupted CI write) is tolerated.
    with open(path, "a") as stream:
        stream.write('{"metrics": {"x"')
    assert len(load_history(path)) == 2
    assert load_history(tmp_path / "missing.jsonl") == []


def _history(runs):
    return [history_record(report) for report in runs]


def test_compare_flags_timing_regression():
    history = _history([REPORT] * 3)
    slow = json.loads(json.dumps(REPORT))
    slow["fleet"]["serial_seconds"] = 3.0  # +50% vs median 2.0
    comparison = compare_history(history, slow, threshold=0.25)
    assert not comparison.ok
    names = [drift.name for drift in comparison.regressions]
    assert names == ["fleet.serial_seconds"]
    assert comparison.regressions[0].drift == 0.5


def test_compare_flags_speedup_loss():
    history = _history([REPORT] * 3)
    worse = json.loads(json.dumps(REPORT))
    worse["fleet"]["speedup_parallel_vs_serial"] = 1.2  # -40%
    comparison = compare_history(history, worse, threshold=0.25)
    assert [d.name for d in comparison.regressions] == [
        "fleet.speedup_parallel_vs_serial"
    ]


def test_compare_tolerates_noise_below_threshold():
    history = _history([REPORT] * 3)
    noisy = json.loads(json.dumps(REPORT))
    noisy["fleet"]["serial_seconds"] = 2.3  # +15% < 25%
    comparison = compare_history(history, noisy, threshold=0.25)
    assert comparison.ok
    assert comparison.checked > 0


def test_compare_uses_median_baseline():
    # One outlier run must not move the baseline: median of
    # (2.0, 2.0, 20.0) is 2.0, so a fresh 2.1 is within threshold.
    outlier = json.loads(json.dumps(REPORT))
    outlier["fleet"]["serial_seconds"] = 20.0
    history = _history([REPORT, REPORT, outlier])
    fresh = json.loads(json.dumps(REPORT))
    fresh["fleet"]["serial_seconds"] = 2.1
    assert compare_history(history, fresh, threshold=0.25).ok


def test_compare_improvements_and_new_metrics():
    history = _history([REPORT] * 2)
    fresh = json.loads(json.dumps(REPORT))
    fresh["fleet"]["serial_seconds"] = 1.0  # -50%: an improvement
    fresh["new_section"] = {"fresh_seconds": 9.9}  # no baseline: skipped
    comparison = compare_history(history, fresh, threshold=0.25)
    assert comparison.ok
    assert [d.name for d in comparison.improvements] == [
        "fleet.serial_seconds"
    ]
    text = format_bench_compare(comparison, 0.25)
    assert "no regressions" in text
    assert "improved fleet.serial_seconds" in text


def test_format_bench_compare_lists_regressions():
    history = _history([REPORT] * 3)
    slow = json.loads(json.dumps(REPORT))
    slow["fleet"]["serial_seconds"] = 4.0
    comparison = compare_history(history, slow, threshold=0.25)
    text = format_bench_compare(comparison, 0.25)
    assert "REGRESSION fleet.serial_seconds" in text
    assert "+100.0%" in text
