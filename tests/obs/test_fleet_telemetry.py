"""Cross-process telemetry: the merged controller-side event stream must
be identical however the fleet's hosts are spread across processes,
collecting it must never change simulation results, and it must stay
cheap both off and on (docs/OBSERVABILITY.md, "Overhead contract")."""

import time
from collections import defaultdict
from dataclasses import replace

import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterSimulation
from repro.cluster.config import MigrationConfig
from repro.obs import Clock, Telemetry
from repro.obs.analyze import build_span_trees

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


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _disabled_call_seconds(loops=50_000):
    """Measured cost of one ``span`` or ``emit`` call with telemetry off."""
    assert not obs.enabled()

    def probe():
        for _ in range(loops):
            with obs.span("probe"):
                pass
            obs.emit("probe")

    return _timed(probe)[1] / (2 * loops)


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
    # Stride sampling is per (kind, host) stream and survives snapshot
    # resets, so even a sampled log is layout-independent.
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    config = replace(SMALL, adaptive_parallel=False)
    _, serial_events, _ = _run(config, workers=1, sample=0.5)
    _, parallel_events, forked = _run(config, workers=2, sample=0.5)
    if not forked:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    assert _by_host(parallel_events) == _by_host(serial_events)
    full_count = len(_run(config, workers=1)[1])
    assert 0 < len(serial_events) < full_count


def test_worker_span_trees_stay_apart_from_the_controllers(monkeypatch):
    # Worker snapshots merge after the epoch span closes, so no worker
    # host.step adopts a controller span (SMALL consolidates at epoch
    # 4) and no worker span lands under fleet.epoch.
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    obs.enable(Telemetry(clock=Clock()))
    sim = ClusterSimulation(replace(SMALL, adaptive_parallel=False))
    sim.run(workers=2)
    trees = build_span_trees(obs.get().span_trace())
    obs.disable()
    obs.clear_context()
    if len(sim.ipc_bytes_epochs) != SMALL.epochs:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    assert sum(tree.name == "fleet.epoch" for tree in trees) == SMALL.epochs
    assert any(tree.name == "host.step" for tree in trees)
    for tree in trees:
        stack = list(tree.children)
        while stack:
            node = stack.pop()
            assert node.host == tree.host, (tree.name, node.name)
            stack.extend(node.children)


def test_telemetry_never_changes_results():
    # Plain and traced runs alternate and each side keeps its faster run,
    # so a cold start or a noisy neighbour cannot decide the cost checks.
    plain_s, traced_s = [], []
    for _ in range(2):
        plain, seconds = _timed(lambda: ClusterSimulation(SMALL).run())
        plain_s.append(seconds)
        telemetry = obs.enable(Telemetry(clock=Clock(wall=lambda: 0.0)))
        traced, seconds = _timed(lambda: ClusterSimulation(SMALL).run())
        traced_s.append(seconds)
        obs.disable()
        obs.clear_context()
        assert traced == plain
    assert telemetry.events(), "a traced run must produce events"
    # Collecting a full trace may cost something, but at most 1.5x.
    assert min(traced_s) <= 1.5 * min(plain_s)
    # Telemetry off must be near-free: every emission of the traced run,
    # priced at the measured cost of a disabled call, stays under 3% of
    # the plain run.
    stats = telemetry.stats()
    calls = stats["events_emitted"] + 2 * stats["spans_closed"]
    assert calls * _disabled_call_seconds() < 0.03 * min(plain_s)


def test_adaptive_retraction_keeps_worker_events(monkeypatch):
    # Adaptive runs may retract the pool after epoch 0: the step replies
    # before retraction must carry whatever the workers emitted, keeping
    # the stream identical to the serial one.
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    config = replace(SMALL, adaptive_parallel=True)
    serial_result, serial_events, _ = _run(config, workers=1)
    adaptive_result, adaptive_events, _ = _run(config, workers=2)
    assert adaptive_result == serial_result
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
    # The child spans that split the Gemini runtime and consolidation.
    for name in (
        "gemini.host.scan",
        "gemini.host.promote",
        "consolidate.score",
        "consolidate.evict",
    ):
        assert stats[name]["count"] > 0, name
