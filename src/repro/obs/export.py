"""Exporters: JSONL event logs, Chrome/Perfetto traces, time series.

Three output formats, all plain text/JSON so they need no dependencies:

* **JSONL** — one event per line, round-trippable via
  :func:`read_jsonl`; the replayable record of every decision a run
  made.
* **Chrome trace** — the ``chrome://tracing`` / Perfetto JSON array
  format (https://ui.perfetto.dev loads it directly).  Spans become
  complete (``"ph": "X"``) slices with microsecond timestamps; events
  become instants (``"ph": "i"``); hosts map to trace *pids* with
  metadata naming.
* **time series** — per ``(epoch, host)`` rows distilled from the
  event stream, rendered to CSV by
  :func:`repro.metrics.report.telemetry_series_to_csv`.
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterable

from repro.obs.events import Event
from repro.obs.telemetry import Telemetry

__all__ = [
    "events_to_jsonl",
    "read_jsonl",
    "write_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "timeseries_rows",
    "export_run",
]


def events_to_jsonl(events: Iterable[Event]) -> str:
    """Serialise events as JSON Lines (one object per line)."""
    return "".join(event.to_json() + "\n" for event in events)


def read_jsonl(text: str) -> list[Event]:
    """Parse JSONL text back into events (inverse of events_to_jsonl)."""
    return [
        Event.from_json(line)
        for line in text.splitlines()
        if line.strip()
    ]


def write_jsonl(events: Iterable[Event], path: str | pathlib.Path) -> None:
    pathlib.Path(path).write_text(events_to_jsonl(events))


def _trace_pid(host: int | None) -> int:
    """Hosts map to pid host+1; pid 0 is the controller (host=None)."""
    return 0 if host is None else host + 1


def chrome_trace(telemetry: Telemetry,
                 include_events: bool = True) -> dict[str, object]:
    """Render spans (and optionally events) in Chrome trace format.

    Returns the ``{"traceEvents": [...]}`` object; every slice carries
    the ``ph``/``ts``/``dur`` fields the viewers require, with
    timestamps in microseconds.
    """
    trace_events: list[dict[str, object]] = []
    pids: set[int] = set()
    for name, host, start, duration, depth in telemetry.span_trace():
        pid = _trace_pid(host)
        pids.add(pid)
        trace_events.append(
            {
                "name": name,
                "cat": "span",
                "ph": "X",
                "ts": start * 1e6,
                "dur": duration * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {"depth": depth},
            }
        )
    if include_events:
        for event in telemetry.events():
            pid = _trace_pid(event.host)
            pids.add(pid)
            args: dict[str, object] = {"epoch": event.epoch, "seq": event.seq}
            for key, value in event.fields:
                args[key] = value if not isinstance(value, tuple) else list(value)
            trace_events.append(
                {
                    "name": event.kind,
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": event.wall * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "args": args,
                }
            )
    for pid in sorted(pids):
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "controller" if pid == 0 else f"host{pid - 1}"},
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(telemetry: Telemetry, path: str | pathlib.Path,
                       include_events: bool = True) -> None:
    pathlib.Path(path).write_text(
        json.dumps(chrome_trace(telemetry, include_events), default=str)
    )


#: Event kinds folded into the per-epoch time series, mapped to the
#: summed columns they contribute.
_SERIES_KINDS = frozenset({
    "host.epoch", "booking.book", "booking.expire",
    "promote.guest", "promote.host", "fleet.migrate",
    "pressure.watermark", "swap.out", "swap.in", "pressure.demote",
})


def timeseries_rows(events: Iterable[Event]) -> list[dict[str, object]]:
    """Distil the event stream into per ``(epoch, host)`` rows.

    Each row counts the decision events landed on that host in that
    epoch and carries the last-seen per-epoch summary fields (FMFI, free
    pages, resident VMs) from ``host.epoch`` records.
    """
    table: dict[tuple[int, int | None], dict[str, object]] = {}
    for event in events:
        if event.kind not in _SERIES_KINDS or event.epoch is None:
            continue
        key = (event.epoch, event.host)
        row = table.get(key)
        if row is None:
            row = table[key] = {
                "epoch": event.epoch,
                "host": event.host,
                "bookings": 0,
                "expirations": 0,
                "guest_promotions": 0,
                "host_promotions": 0,
                "migrations": 0,
            }
        if event.kind == "booking.book":
            row["bookings"] = row["bookings"] + 1  # type: ignore[operator]
        elif event.kind == "booking.expire":
            row["expirations"] = row["expirations"] + dict(event.fields).get(
                "count", 1
            )  # type: ignore[operator]
        elif event.kind == "promote.guest":
            row["guest_promotions"] = (
                row["guest_promotions"]
                + dict(event.fields).get("promoted", 0)  # type: ignore[operator]
            )
        elif event.kind == "promote.host":
            row["host_promotions"] = (
                row["host_promotions"]
                + dict(event.fields).get("promoted", 0)  # type: ignore[operator]
            )
        elif event.kind == "fleet.migrate":
            row["migrations"] = row["migrations"] + 1  # type: ignore[operator]
        elif event.kind == "swap.out":
            row["swap_out_pages"] = (
                row.get("swap_out_pages", 0)
                + dict(event.fields).get("pages", 0)  # type: ignore[operator]
            )
        elif event.kind == "swap.in":
            row["swap_in_pages"] = (
                row.get("swap_in_pages", 0)
                + dict(event.fields).get("pages", 0)  # type: ignore[operator]
            )
        elif event.kind == "pressure.demote":
            row["aligned_demotions"] = (
                row.get("aligned_demotions", 0)
                + dict(event.fields).get("aligned", 0)  # type: ignore[operator]
            )
        elif event.kind == "pressure.watermark":
            fields = dict(event.fields)
            row["watermark"] = fields.get("level", "")
            row["free_pages"] = fields.get("free_pages", "")
        else:  # host.epoch summary records
            for key_name, value in event.fields:
                row[key_name] = value
    return [table[key] for key in sorted(table, key=_row_order)]


def _row_order(key: tuple[int, int | None]) -> tuple[int, int]:
    epoch, host = key
    return (epoch, -1 if host is None else host)


def export_run(
    telemetry: Telemetry,
    out_dir: str | pathlib.Path,
    include_events: bool = True,
) -> dict[str, pathlib.Path]:
    """Write all exports for one run into *out_dir*.

    Produces ``events.jsonl``, ``trace.json`` (Chrome/Perfetto),
    ``series.csv``, ``spans.json`` and ``stats.json`` (volume
    accounting — including any dropped spans — plus counters, gauges
    and histogram quantiles, the deterministic side of the run that
    ``repro diff`` compares); returns the paths keyed by artifact name.
    """
    from repro.metrics.report import telemetry_series_to_csv

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "events": out / "events.jsonl",
        "trace": out / "trace.json",
        "series": out / "series.csv",
        "spans": out / "spans.json",
        "stats": out / "stats.json",
    }
    events = telemetry.events()
    write_jsonl(events, paths["events"])
    write_chrome_trace(telemetry, paths["trace"], include_events)
    paths["series"].write_text(telemetry_series_to_csv(timeseries_rows(events)))
    paths["spans"].write_text(
        json.dumps(telemetry.span_stats(), indent=2, sort_keys=True) + "\n"
    )
    paths["stats"].write_text(
        json.dumps(
            {
                "stats": telemetry.stats(),
                "counters": dict(telemetry.counters),
                "gauges": dict(telemetry.gauges),
                "histograms": telemetry.histogram_summary(),
            },
            indent=2,
            sort_keys=True,
            default=str,
        )
        + "\n"
    )
    return paths
