"""Bench-history tracking: record perf-smoke runs, flag regressions.

The perf-smoke benchmark writes a nested ``BENCH_perf.json`` report
each run; this module flattens its numeric leaves into one compact
JSONL record per run (``BENCH_history.jsonl``) and compares a fresh
report against the recent history with noise-aware thresholds:

* the baseline per metric is the **median** of the last *K* recorded
  values, so a single noisy run does not poison the gate;
* only metrics with a known "better" direction are gated — throughput
  names ending in ``_per_sec``/``_per_s`` and names containing
  ``speedup``/``factor``/``reduction`` regress when they shrink, other
  names ending in ``_seconds``/``_ns``/``_s`` regress when they grow —
  everything else is informational;
* the gate is **fail-soft** by design: CI surfaces regressions as
  warnings (``repro bench compare``), and only ``--strict`` turns them
  into a non-zero exit.
"""

from __future__ import annotations

import json
import pathlib
import statistics

__all__ = [
    "flatten_metrics",
    "history_record",
    "append_history",
    "load_history",
    "MetricDrift",
    "BenchComparison",
    "compare_history",
]

#: Default history window the baseline median is taken over.
DEFAULT_WINDOW = 5
#: Default relative drift that flags a regression.
DEFAULT_THRESHOLD = 0.25

_RATE_SUFFIXES = ("_per_sec", "_per_s")
_LOWER_IS_BETTER = ("_seconds", "_ns", "_s")
_HIGHER_IS_BETTER = ("speedup", "factor", "reduction")


def flatten_metrics(report: dict, prefix: str = "") -> dict[str, float]:
    """Flatten a nested report's numeric leaves to dotted-key scalars."""
    out: dict[str, float] = {}
    for key, value in report.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten_metrics(value, name + "."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            out[name] = float(value)
    return out


def metric_direction(name: str) -> str:
    """``"lower"``, ``"higher"`` or ``"info"`` for a metric name."""
    leaf = name.rsplit(".", 1)[-1]
    # Before the suffix rule: ``_per_s`` would otherwise read as seconds.
    if leaf.endswith(_RATE_SUFFIXES):
        return "higher"
    if leaf.endswith(_LOWER_IS_BETTER):
        return "lower"
    if any(token in leaf for token in _HIGHER_IS_BETTER):
        return "higher"
    return "info"


def history_record(report: dict, timestamp: str | None = None,
                   rev: str | None = None) -> dict:
    """One compact JSONL record for a perf-smoke report."""
    record: dict = {"metrics": flatten_metrics(report)}
    if timestamp is not None:
        record["ts"] = timestamp
    if rev is not None:
        record["rev"] = rev
    return record


def append_history(report: dict, path: str | pathlib.Path,
                   timestamp: str | None = None,
                   rev: str | None = None) -> dict:
    """Append this run's record to the history file; returns it."""
    record = history_record(report, timestamp=timestamp, rev=rev)
    history = pathlib.Path(path)
    history.parent.mkdir(parents=True, exist_ok=True)
    with open(history, "a", encoding="utf-8") as stream:
        stream.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def load_history(path: str | pathlib.Path) -> list[dict]:
    """All recorded runs, oldest first; tolerates a missing file."""
    history = pathlib.Path(path)
    if not history.exists():
        return []
    records = []
    for line in history.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # a truncated CI write must not break the gate
    return records


class MetricDrift:
    """One metric's move against its baseline median."""

    __slots__ = ("name", "baseline", "value", "direction")

    def __init__(self, name: str, baseline: float, value: float,
                 direction: str) -> None:
        self.name = name
        self.baseline = baseline
        self.value = value
        self.direction = direction

    @property
    def drift(self) -> float:
        """Relative change versus the baseline (signed)."""
        if self.baseline == 0.0:
            return 0.0 if self.value == 0.0 else float("inf")
        return self.value / self.baseline - 1.0

    @property
    def is_regression(self) -> bool:
        if self.direction == "lower":
            return self.drift > 0.0
        if self.direction == "higher":
            return self.drift < 0.0
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetricDrift({self.name!r}, baseline={self.baseline}, "
                f"value={self.value}, drift={self.drift:+.1%})")


class BenchComparison:
    """Outcome of gating a fresh report against recorded history."""

    def __init__(self, regressions: list[MetricDrift],
                 improvements: list[MetricDrift],
                 checked: int, baseline_runs: int) -> None:
        self.regressions = regressions
        self.improvements = improvements
        self.checked = checked
        self.baseline_runs = baseline_runs

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare_history(history: list[dict], report: dict,
                    threshold: float = DEFAULT_THRESHOLD,
                    window: int = DEFAULT_WINDOW) -> BenchComparison:
    """Gate *report* against the recent *history*.

    Metrics absent from history (new benchmarks) are skipped; metrics
    flagged only when their drift against the window median exceeds
    *threshold* in the "worse" direction for their kind.
    """
    fresh = flatten_metrics(report)
    recent = history[-window:]
    regressions: list[MetricDrift] = []
    improvements: list[MetricDrift] = []
    checked = 0
    for name in sorted(fresh):
        direction = metric_direction(name)
        if direction == "info":
            continue
        values = [
            record["metrics"][name]
            for record in recent
            if name in record.get("metrics", {})
        ]
        if not values:
            continue
        checked += 1
        drift = MetricDrift(
            name, statistics.median(values), fresh[name], direction
        )
        if abs(drift.drift) < threshold:
            continue
        if drift.is_regression:
            regressions.append(drift)
        else:
            improvements.append(drift)
    regressions.sort(key=lambda d: -abs(d.drift))
    improvements.sort(key=lambda d: -abs(d.drift))
    return BenchComparison(
        regressions, improvements, checked, len(recent)
    )
