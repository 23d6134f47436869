"""Exporter tests: JSONL round-trips, Chrome trace schema, the
per-epoch time series and the report renderers built on them."""

import json

import pytest

from repro import obs
from repro.obs import Clock, Event, ManualClock, Telemetry
from repro.obs.export import (
    chrome_trace,
    events_to_jsonl,
    export_run,
    read_jsonl,
    timeseries_rows,
)
from repro.metrics.report import telemetry_series_to_csv


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.clear_context()
    yield
    obs.disable()
    obs.clear_context()


def _sample_events() -> list[Event]:
    return [
        Event("booking.book", 0, 0, 1, 0.25, (("region", 5), ("timeout", 1.5))),
        Event("promote.guest", 0, 0, 2, 0.5, (("promoted", 4), ("retried", 0))),
        Event("fleet.place", None, 0, 1, 0.75, (("on", 1), ("ordinal", 0))),
        Event("runs", 1, 1, 1, 1.0, (("spans", ((0, 4), (8, 2))),)),
    ]


def test_jsonl_round_trip_preserves_events():
    events = _sample_events()
    assert read_jsonl(events_to_jsonl(events)) == events


def test_jsonl_revives_tuple_fields():
    text = events_to_jsonl(_sample_events())
    revived = read_jsonl(text)[-1]
    assert dict(revived.fields)["spans"] == ((0, 4), (8, 2))


def test_chrome_trace_schema():
    telemetry = Telemetry(clock=ManualClock(step=0.001))
    obs.set_context(host=None)
    with telemetry.span("fleet.epoch"):
        with telemetry.span("fleet.consolidate"):
            pass
    telemetry.emit_at("fleet.place", None, 0, on=1)
    telemetry.emit_at("host.epoch", 2, 0, fmfi=0.5)
    trace = chrome_trace(telemetry)
    entries = trace["traceEvents"]
    assert trace["displayTimeUnit"] == "ms"
    phases = {entry["ph"] for entry in entries}
    assert phases == {"X", "i", "M"}
    for entry in entries:
        assert isinstance(entry["pid"], int)
        if entry["ph"] == "X":
            assert entry["cat"] == "span"
            assert entry["dur"] >= 0.0
            assert "ts" in entry
        elif entry["ph"] == "i":
            assert entry["s"] == "t"
            assert "ts" in entry
        else:
            assert entry["name"] == "process_name"
    # Controller is pid 0, host 2 is pid 3, both named via metadata.
    names = {
        entry["pid"]: entry["args"]["name"]
        for entry in entries
        if entry["ph"] == "M"
    }
    assert names[0] == "controller"
    assert names[3] == "host2"


def test_chrome_trace_is_valid_json():
    telemetry = Telemetry(clock=ManualClock())
    with telemetry.span("s"):
        pass
    encoded = json.dumps(chrome_trace(telemetry))
    assert json.loads(encoded)["traceEvents"]


def test_timeseries_rows_fold_decision_counts():
    events = [
        Event("booking.book", 0, 0, 1, 0.0, (("region", 1),)),
        Event("booking.book", 0, 0, 2, 0.0, (("region", 2),)),
        Event("booking.expire", 0, 0, 3, 0.0, (("count", 4),)),
        Event("promote.guest", 0, 0, 4, 0.0, (("promoted", 5),)),
        Event("promote.host", 0, 0, 5, 0.0, (("promoted", 2),)),
        Event("host.epoch", 0, 0, 6, 0.0, (("fmfi", 0.25),)),
        Event("fleet.migrate", None, 0, 1, 0.0, (("ordinal", 3),)),
        Event("host.epoch", 0, 1, 7, 0.0, (("fmfi", 0.5),)),
        Event("placement.select", None, None, 2, 0.0, ()),  # not a series kind
    ]
    rows = timeseries_rows(events)
    assert [(row["epoch"], row["host"]) for row in rows] == [
        (0, None), (0, 0), (1, 0),
    ]
    first_host_row = rows[1]
    assert first_host_row["bookings"] == 2
    assert first_host_row["expirations"] == 4
    assert first_host_row["guest_promotions"] == 5
    assert first_host_row["host_promotions"] == 2
    assert first_host_row["fmfi"] == 0.25
    assert rows[0]["migrations"] == 1
    assert rows[2]["fmfi"] == 0.5


def test_timeseries_csv_unions_columns():
    rows = timeseries_rows(
        [
            Event("host.epoch", 0, 0, 1, 0.0, (("fmfi", 0.1),)),
            Event("pressure.watermark", 1, 0, 1, 0.0, (("level", "low"),)),
        ]
    )
    text = telemetry_series_to_csv(rows)
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    assert header[:7] == [
        "epoch", "host", "bookings", "expirations",
        "guest_promotions", "host_promotions", "migrations",
    ]
    assert "fmfi" in header and "watermark" in header
    assert len(lines) == 3


def test_export_run_writes_all_artifacts(tmp_path):
    telemetry = Telemetry(clock=ManualClock(step=0.001))
    with telemetry.span("fleet.epoch"):
        pass
    telemetry.emit_at("host.epoch", 0, 0, fmfi=0.5)
    paths = export_run(telemetry, tmp_path / "out")
    assert sorted(paths) == ["events", "series", "spans", "stats", "trace"]
    for path in paths.values():
        assert path.exists() and path.stat().st_size > 0
    assert read_jsonl(paths["events"].read_text())[0].kind == "host.epoch"
    assert json.loads(paths["trace"].read_text())["traceEvents"]
    assert "fleet.epoch" in json.loads(paths["spans"].read_text())
    assert paths["series"].read_text().startswith("epoch,host,")


def test_export_run_uses_deterministic_clock_wall():
    # A pinned clock keeps wall readings stable so exported artifacts
    # are byte-identical across runs (useful for golden-file diffs).
    telemetry = Telemetry(clock=Clock(wall=lambda: 0.0))
    telemetry.emit_at("host.epoch", 0, 0)
    first = events_to_jsonl(telemetry.events())
    telemetry2 = Telemetry(clock=Clock(wall=lambda: 0.0))
    telemetry2.emit_at("host.epoch", 0, 0)
    assert first == events_to_jsonl(telemetry2.events())


def test_jsonl_round_trip_pressure_and_swap_kinds():
    # The memory-pressure subsystem's event kinds survive export intact.
    events = [
        Event("pressure.watermark", 0, 2, 1, 0.0,
              (("free_pages", 120), ("level", "low"))),
        Event("swap.out", 0, 2, 2, 0.0,
              (("demoted_aligned", 1), ("demoted_huge", 2), ("pages", 640))),
        Event("swap.in", 0, 3, 3, 0.0, (("pages", 64),)),
        Event("pressure.demote", 0, 3, 4, 0.0, (("aligned", 5),)),
    ]
    assert read_jsonl(events_to_jsonl(events)) == events


def test_timeseries_rows_fold_pressure_and_swap():
    events = [
        Event("swap.out", 0, 0, 1, 0.0, (("pages", 500),)),
        Event("swap.out", 0, 0, 2, 0.0, (("pages", 100),)),
        Event("swap.in", 0, 0, 3, 0.0, (("pages", 40),)),
        Event("pressure.demote", 0, 0, 4, 0.0, (("aligned", 3),)),
        Event("pressure.watermark", 0, 0, 5, 0.0,
              (("free_pages", 80), ("level", "low"))),
        Event("pressure.watermark", 0, 1, 6, 0.0,
              (("free_pages", 900), ("level", "ok"))),
    ]
    rows = timeseries_rows(events)
    assert len(rows) == 2
    first, second = rows
    assert first["swap_out_pages"] == 600
    assert first["swap_in_pages"] == 40
    assert first["aligned_demotions"] == 3
    assert first["watermark"] == "low"
    assert first["free_pages"] == 80
    assert second["watermark"] == "ok"
    assert second["free_pages"] == 900
    csv_text = telemetry_series_to_csv(rows)
    header = csv_text.splitlines()[0].split(",")
    for column in ("swap_out_pages", "swap_in_pages",
                   "aligned_demotions", "watermark", "free_pages"):
        assert column in header


def test_chrome_trace_renders_pressure_instants():
    telemetry = Telemetry(clock=ManualClock(step=0.001))
    telemetry.emit_at("pressure.watermark", 1, 0, level="low", free_pages=8)
    telemetry.emit_at("swap.out", 1, 0, pages=320, demoted_huge=1,
                      demoted_aligned=0)
    entries = chrome_trace(telemetry)["traceEvents"]
    instants = [entry for entry in entries if entry["ph"] == "i"]
    assert {entry["name"] for entry in instants} == {
        "pressure.watermark", "swap.out",
    }
    for entry in instants:
        assert entry["s"] == "t" and entry["pid"] == 2
    by_name = {entry["name"]: entry for entry in instants}
    assert by_name["swap.out"]["args"]["pages"] == 320


def test_export_run_stats_artifact(tmp_path):
    telemetry = Telemetry(clock=ManualClock(step=0.001), span_capacity=2)
    for _ in range(4):
        with telemetry.span("tick"):
            pass
    telemetry.count("epochs", 3)
    telemetry.observe("latency", 2.0)
    telemetry.observe("latency", 8.0)
    paths = export_run(telemetry, tmp_path / "out")
    stats = json.loads(paths["stats"].read_text())
    assert stats["stats"]["spans_dropped"] == 2
    assert stats["counters"]["epochs"] == 3
    hist = stats["histograms"]["latency"]
    assert hist["count"] == 2 and hist["p50"] == 2.0 and hist["p99"] == 8.0
