"""Cross-process telemetry: the merged controller-side event stream must
be identical however the fleet's hosts are spread across processes, and
collecting it must never change simulation results."""

from collections import defaultdict
from dataclasses import replace

import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterSimulation
from repro.cluster.config import MigrationConfig
from repro.obs import Clock, Telemetry

SMALL = ClusterConfig(
    hosts=3,
    host_mib=512,
    epochs=6,
    seed=7,
    migration=MigrationConfig(check_invariants=True),
)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.clear_context()
    yield
    obs.disable()
    obs.clear_context()


def _run(config, workers, sample=1.0):
    """One traced fleet run; returns (result, events, forked)."""
    obs.enable(Telemetry(sample=sample, clock=Clock(wall=lambda: 0.0)))
    sim = ClusterSimulation(config)
    result = sim.run(workers=workers)
    events = obs.get().events()
    obs.disable()
    obs.clear_context()
    forked = len(sim.ipc_bytes_epochs) == config.epochs and workers > 1
    return result, events, forked


def _by_host(events):
    streams = defaultdict(list)
    for event in events:
        streams[event.host].append(event.identity())
    return dict(streams)


def test_serial_and_parallel_event_streams_match(monkeypatch):
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    config = replace(SMALL, adaptive_parallel=False)
    serial_result, serial_events, _ = _run(config, workers=1)
    parallel_result, parallel_events, forked = _run(config, workers=2)
    if not forked:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    assert parallel_result == serial_result
    # The merged controller-side log covers every host plus the
    # controller itself, and each per-host stream is event-identical.
    assert set(_by_host(serial_events)) == {None, 0, 1, 2}
    assert _by_host(parallel_events) == _by_host(serial_events)


def test_sampled_streams_match_across_layouts(monkeypatch):
    # Stride sampling is per (kind, host) stream and survives spool
    # resets, so even a sampled log is layout-independent.
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    config = replace(SMALL, adaptive_parallel=False, spool_epochs=2)
    _, serial_events, _ = _run(config, workers=1, sample=0.5)
    _, parallel_events, forked = _run(config, workers=2, sample=0.5)
    if not forked:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    assert _by_host(parallel_events) == _by_host(serial_events)
    full_count = len(_run(config, workers=1)[1])
    assert 0 < len(serial_events) < full_count


def test_telemetry_never_changes_results():
    plain = ClusterSimulation(SMALL).run()
    traced, events, _ = _run(SMALL, workers=1)
    assert traced == plain
    assert events, "a traced run must produce events"


def test_adaptive_retraction_keeps_worker_events(monkeypatch):
    # Adaptive runs may retract the pool after epoch 0: the sweep before
    # retraction must preserve whatever the workers emitted, keeping the
    # stream identical to the serial one.
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    config = replace(SMALL, adaptive_parallel=True)
    _, serial_events, _ = _run(config, workers=1)
    _, adaptive_events, _ = _run(config, workers=2)
    assert _by_host(adaptive_events) == _by_host(serial_events)


def test_span_stats_cover_both_sides(monkeypatch):
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    obs.enable(Telemetry(clock=Clock()))
    sim = ClusterSimulation(replace(SMALL, adaptive_parallel=False))
    sim.run(workers=2)
    stats = obs.get().span_stats()
    obs.disable()
    obs.clear_context()
    if len(sim.ipc_bytes_epochs) != SMALL.epochs:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    # Controller-side and (merged) worker-side spans both present.
    assert stats["fleet.epoch"]["count"] == SMALL.epochs
    assert stats["host.step"]["count"] == SMALL.hosts * SMALL.epochs
    assert stats["host.step"]["total_s"] >= stats["host.daemons"]["total_s"]
