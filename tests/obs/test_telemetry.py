"""Unit tests for the telemetry registry: spans and self-time, the
deterministic event ring, snapshots/merging, and the obs facade."""

import pickle

import pytest

from repro import obs
from repro.obs import (
    Clock,
    Event,
    EventRing,
    ManualClock,
    Telemetry,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    """Each test starts and ends with telemetry disabled and no context."""
    obs.disable()
    obs.clear_context()
    yield
    obs.disable()
    obs.clear_context()


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


def test_span_self_time_excludes_children():
    # ManualClock ticks once per now() call: parent enter=0, child
    # enter=1, child exit=2, parent exit=3 -> child total 1s, parent
    # total 3s of which 1s is the child's, so parent self is 2s.
    telemetry = Telemetry(clock=ManualClock(step=1.0))
    with telemetry.span("parent"):
        with telemetry.span("child"):
            pass
    stats = telemetry.span_stats()
    assert stats["child"] == {"count": 1, "total_s": 1.0, "self_s": 1.0}
    assert stats["parent"]["count"] == 1
    assert stats["parent"]["total_s"] == 3.0
    assert stats["parent"]["self_s"] == 2.0


def test_span_trace_records_nesting_depth():
    telemetry = Telemetry(clock=ManualClock(step=1.0))
    obs.set_context(host=4)
    with telemetry.span("outer"):
        with telemetry.span("inner"):
            pass
    trace = telemetry.span_trace()
    # Inner closes first; entries are (name, host, start, dur, depth).
    assert [(entry[0], entry[1], entry[4]) for entry in trace] == [
        ("inner", 4, 1),
        ("outer", 4, 0),
    ]


def test_span_exits_on_exception():
    telemetry = Telemetry(clock=ManualClock(step=1.0))
    with pytest.raises(RuntimeError):
        with telemetry.span("doomed"):
            raise RuntimeError("boom")
    assert telemetry.span_stats()["doomed"]["count"] == 1
    assert not telemetry._span_stack


def test_span_trace_is_capacity_bounded():
    telemetry = Telemetry(clock=ManualClock(), span_capacity=3)
    for _ in range(10):
        with telemetry.span("tick"):
            pass
    assert len(telemetry.span_trace()) == 3
    assert telemetry.span_stats()["tick"]["count"] == 10


# ----------------------------------------------------------------------
# Events: sequencing, sampling, capacity
# ----------------------------------------------------------------------


def test_per_host_sequences_are_independent():
    telemetry = Telemetry(clock=Clock(wall=lambda: 0.0))
    telemetry.emit_at("a", 0, 1)
    telemetry.emit_at("a", 1, 1)
    telemetry.emit_at("b", 0, 1)
    telemetry.emit_at("a", None, 1)
    seqs = [(e.host, e.seq) for e in telemetry.events()]
    assert seqs == [(0, 1), (1, 1), (0, 2), (None, 1)]


def test_event_identity_ignores_wall_time():
    a = Event(kind="k", host=1, epoch=2, seq=3, wall=0.5, fields=(("x", 1),))
    b = Event(kind="k", host=1, epoch=2, seq=3, wall=9.9, fields=(("x", 1),))
    assert a != b
    assert a.identity() == b.identity()


def test_sampling_keeps_the_same_subset_per_stream():
    # sample=0.5 -> stride 2: every other event per (kind, host) stream
    # is kept, but sequence numbers advance for all of them, so the kept
    # subset is identifiable no matter how streams interleave.
    telemetry = Telemetry(sample=0.5, clock=Clock(wall=lambda: 0.0))
    for _ in range(6):
        telemetry.emit_at("tick", 0, 0)
        telemetry.emit_at("tick", 1, 0)
    kept = [(e.host, e.seq) for e in telemetry.events()]
    assert kept == [(0, 1), (1, 1), (0, 3), (1, 3), (0, 5), (1, 5)]
    assert telemetry.ring.emitted == 12
    assert telemetry.ring.sampled == 6


def test_ring_drops_oldest_at_capacity():
    telemetry = Telemetry(capacity=3, clock=Clock(wall=lambda: 0.0))
    for index in range(5):
        telemetry.emit_at("tick", 0, index)
    assert [e.epoch for e in telemetry.events()] == [2, 3, 4]
    assert telemetry.ring.dropped == 2
    assert telemetry.ring.sampled == 5


def test_ring_rejects_bad_parameters():
    with pytest.raises(ValueError):
        EventRing(capacity=0)
    with pytest.raises(ValueError):
        EventRing(sample=0.0)
    with pytest.raises(ValueError):
        EventRing(sample=1.5)


# ----------------------------------------------------------------------
# Snapshots and merging (the cross-process path)
# ----------------------------------------------------------------------


def test_snapshot_reset_preserves_sequences_and_stride():
    telemetry = Telemetry(sample=0.5, clock=Clock(wall=lambda: 0.0))
    for _ in range(3):
        telemetry.emit_at("tick", 0, 0)
    first = telemetry.snapshot(reset=True)
    assert len(telemetry.ring) == 0
    assert telemetry.ring.emitted == 0  # volume counters are per-interval
    for _ in range(3):
        telemetry.emit_at("tick", 0, 1)
    second = telemetry.snapshot(reset=True)
    # Sequences continue across the reset (4, 5, 6) and the stride
    # counter does too: kept seqs are 1, 3 then 5.
    assert [e.seq for e in first.events] == [1, 3]
    assert [e.seq for e in second.events] == [5]


def test_merge_folds_metrics_spans_and_events():
    controller = Telemetry(clock=ManualClock(step=1.0))
    controller.count("epochs")
    controller.observe("latency", 5.0)
    controller.emit_at("ctl", None, 0)

    worker = Telemetry(clock=ManualClock(step=1.0))
    worker.count("epochs", 2.0)
    worker.observe("latency", 1.0)
    worker.observe("latency", 9.0)
    with worker.span("host.step"):
        pass
    worker.emit_at("wrk", 3, 0)

    controller.merge(worker.snapshot())
    assert controller.counters["epochs"] == 3.0
    assert controller.histogram("latency") == (3, 15.0, 1.0, 9.0)
    assert controller.span_stats()["host.step"]["count"] == 1
    assert {e.kind for e in controller.events()} == {"ctl", "wrk"}
    assert controller.ring.emitted == 2
    assert controller.ring.sampled == 2


def test_repeated_snapshot_merge_counts_each_event_once():
    # Every fleet step reply carries a snapshot: volume counters must be
    # per-interval on the worker so the controller's totals are exact.
    controller = Telemetry(clock=Clock(wall=lambda: 0.0))
    worker = Telemetry(clock=Clock(wall=lambda: 0.0))
    for round_index in range(3):
        worker.emit_at("tick", 0, round_index)
        controller.merge(worker.snapshot(reset=True))
    assert controller.ring.emitted == 3
    assert controller.ring.sampled == 3
    assert [e.seq for e in controller.events()] == [1, 2, 3]


def test_snapshot_pickles():
    telemetry = Telemetry(clock=ManualClock())
    telemetry.count("x")
    with telemetry.span("s"):
        pass
    telemetry.emit_at("k", 0, 0, value=3)
    snapshot = telemetry.snapshot()
    clone = pickle.loads(pickle.dumps(snapshot))
    assert clone.counters == {"x": 1.0}
    assert clone.events == snapshot.events


# ----------------------------------------------------------------------
# Context tracking
# ----------------------------------------------------------------------


def test_context_partial_updates():
    obs.set_context(host=2, epoch=5)
    assert obs.current_context() == (2, 5)
    obs.set_context(epoch=6)  # host untouched
    assert obs.current_context() == (2, 6)
    obs.set_context(host=None)
    assert obs.current_context() == (None, 6)
    obs.clear_context()
    assert obs.current_context() == (None, None)


def test_context_tracked_even_when_disabled():
    # Worker exception notes read the context with telemetry off.
    assert not obs.enabled()
    obs.set_context(host=7, epoch=3)
    assert obs.current_context() == (7, 3)


# ----------------------------------------------------------------------
# The module facade
# ----------------------------------------------------------------------


def test_disabled_facade_is_inert():
    assert obs.get() is None
    with obs.span("ignored"):
        obs.emit("ignored", value=1)
        obs.count("ignored")
        obs.gauge("ignored", 1.0)
        obs.observe("ignored", 1.0)
    assert obs.get() is None
    assert obs.snapshot() is None
    obs.merge(None)  # tolerated


def test_enable_emit_and_reset_keep_shape():
    telemetry = obs.enable(capacity=8, sample=0.5)
    obs.set_context(host=1, epoch=2)
    obs.emit("tick", value=1)
    assert len(telemetry.events()) == 1
    fresh = obs.reset()
    assert fresh is not telemetry
    assert fresh.ring.capacity == 8
    assert fresh.ring.stride == 2
    assert not fresh.events()


def test_reset_keeps_span_capacity():
    obs.enable(Telemetry(span_capacity=5))
    assert obs.reset().span_capacity == 5


def test_snapshot_roundtrip_through_facade():
    obs.enable(clock=Clock(wall=lambda: 0.0))
    obs.emit_at("worker.tick", 2, 0, value=7)
    # The snapshot crosses a pipe as a pickle, like a worker's reply.
    snapshot = pickle.loads(pickle.dumps(obs.snapshot()))
    assert not obs.get().events()  # reset on snapshot
    obs.merge(snapshot)
    events = obs.get().events()
    assert [(e.kind, e.host) for e in events] == [("worker.tick", 2)]


def test_configure_from_env_reads_knobs():
    env = {
        "REPRO_TRACE_OUT": "somewhere",
        "REPRO_TRACE_EVENTS": "128",
        "REPRO_TRACE_SAMPLE": "0.25",
    }
    telemetry = obs.configure_from_env(env)
    try:
        assert telemetry is not None
        assert telemetry.ring.capacity == 128
        assert telemetry.ring.stride == 4
        assert obs.trace_out_dir() == "somewhere"
    finally:
        obs.set_trace_out_dir(None)


def test_configure_from_env_defaults_to_off():
    assert obs.configure_from_env({}) is None
    assert not obs.enabled()


# ----------------------------------------------------------------------
# Quantile reservoirs and dropped-span accounting
# ----------------------------------------------------------------------


def test_quantiles_exact_below_reservoir_cap():
    telemetry = Telemetry(clock=ManualClock())
    for value in range(1, 101):  # 1..100
        telemetry.observe("latency", float(value))
    quantiles = telemetry.quantiles("latency")
    assert quantiles[0.5] == 50.0
    assert quantiles[0.95] == 95.0
    assert quantiles[0.99] == 99.0
    assert telemetry.quantiles("missing") is None


def test_reservoir_is_bounded_and_representative():
    telemetry = Telemetry(clock=ManualClock())
    for value in range(10_000):
        telemetry.observe("latency", float(value))
    stat = telemetry._histograms["latency"]
    assert len(stat[4]) <= Telemetry.RESERVOIR_CAP
    assert stat[5] > 1  # stride grew through decimation
    # Approximate quantiles stay within a few percent of truth.
    quantiles = telemetry.quantiles("latency")
    assert abs(quantiles[0.5] - 5_000) < 500
    assert abs(quantiles[0.99] - 9_900) < 500
    summary = telemetry.histogram_summary()["latency"]
    assert summary["count"] == 10_000
    assert summary["min"] == 0.0 and summary["max"] == 9_999.0
    assert summary["p50"] == quantiles[0.5]


def test_merge_folds_quantile_reservoirs():
    controller = Telemetry(clock=ManualClock())
    worker = Telemetry(clock=ManualClock())
    for value in range(1, 51):
        controller.observe("latency", float(value))
    for value in range(51, 101):
        worker.observe("latency", float(value))
    controller.merge(worker.snapshot())
    assert controller.histogram("latency") == (100, 5050.0, 1.0, 100.0)
    quantiles = controller.quantiles("latency")
    assert quantiles[0.5] == 50.0
    assert quantiles[0.99] == 99.0


def test_dropped_spans_are_counted_not_silent():
    telemetry = Telemetry(clock=ManualClock(), span_capacity=3)
    for _ in range(10):
        with telemetry.span("tick"):
            pass
    assert telemetry.spans_dropped == 7
    assert telemetry.stats()["spans_dropped"] == 7
    snapshot = telemetry.snapshot(reset=True)
    assert snapshot.span_dropped == 7
    assert telemetry.spans_dropped == 0  # per-interval, like the ring


def test_merge_folds_dropped_spans_and_overflow():
    controller = Telemetry(clock=ManualClock(), span_capacity=4)
    worker = Telemetry(clock=ManualClock(), span_capacity=3)
    for _ in range(5):  # worker drops 2 locally
        with worker.span("tick"):
            pass
    for _ in range(3):  # leaves one free slot in the controller trace
        with controller.span("ctl"):
            pass
    controller.merge(worker.snapshot())
    # Controller kept 3 own + 1 merged; 2 merged spans overflowed here
    # on top of the 2 the worker already dropped.
    assert len(controller.span_trace()) == 4
    assert controller.spans_dropped == 4
    assert controller.stats()["spans_dropped"] == 4
