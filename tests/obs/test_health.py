"""Health watchdog tests: each rule in isolation, sequence-space
separation, layout equivalence of ``health.*`` streams over a real
pressured fleet, and the flight recorder's postmortem bundles."""

import json
from collections import defaultdict
from dataclasses import replace

import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterSimulation
from repro.cluster.config import ChurnConfig, MigrationConfig
from repro.exec.actors import ActorPool
from repro.metrics.report import format_health_summary
from repro.obs import Clock, Telemetry
from repro.obs.health import (
    FlightRecorder,
    HealthMonitor,
    MigrationStormRule,
    PlacementFailureBurstRule,
    PromotionChurnRule,
    SwapThrashRule,
    WatermarkOscillationRule,
    summarize_health,
)
from repro.pressure import PressureConfig


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.clear_context()
    obs.set_trace_out_dir(None)
    yield
    obs.disable()
    obs.clear_context()
    obs.set_trace_out_dir(None)


def _telemetry(rules=None):
    telemetry = Telemetry(clock=Clock(wall=lambda: 0.0))
    telemetry.monitor = HealthMonitor(rules)
    return telemetry


def _health(telemetry):
    return [e for e in telemetry.events() if e.kind.startswith("health.")]


# ----------------------------------------------------------------------
# Rules in isolation
# ----------------------------------------------------------------------


def test_watermark_oscillation_fires_on_flapping():
    telemetry = _telemetry((WatermarkOscillationRule,))
    levels = ["low", "ok", "low", "ok", "low", "ok"]
    for epoch, level in enumerate(levels):
        telemetry.emit_at("pressure.watermark", 0, epoch,
                          level=level, free_pages=10)
    findings = _health(telemetry)
    assert findings
    assert findings[0].kind == "health.watermark_oscillation"
    assert dict(findings[0].fields)["flips"] >= 3


def test_watermark_steady_pressure_is_quiet():
    telemetry = _telemetry((WatermarkOscillationRule,))
    for epoch in range(8):
        telemetry.emit_at("pressure.watermark", 0, epoch,
                          level="low", free_pages=10)
    assert not _health(telemetry)


def test_migration_storm_counts_window():
    telemetry = _telemetry((MigrationStormRule,))
    for seq in range(6):
        telemetry.emit_at("fleet.migrate", None, seq // 3,
                          ordinal=seq, source=0, destination=1)
    findings = _health(telemetry)
    assert len(findings) == 1
    assert findings[0].kind == "health.migration_storm"
    assert dict(findings[0].fields)["migrations"] == 6


def test_migration_trickle_is_quiet():
    telemetry = _telemetry((MigrationStormRule,))
    for epoch in range(10):
        telemetry.emit_at("fleet.migrate", None, epoch, ordinal=epoch,
                          source=0, destination=1)
    # One migration per epoch never reaches 6 within a 4-epoch window.
    assert not _health(telemetry)


def test_promotion_churn_needs_both_directions():
    telemetry = _telemetry((PromotionChurnRule,))
    telemetry.emit_at("promote.host", 1, 0, promoted=10)
    assert not _health(telemetry)  # promotions alone are healthy
    telemetry.emit_at("pressure.demote", 1, 1, aligned=10)
    findings = _health(telemetry)
    assert len(findings) == 1
    fields = dict(findings[0].fields)
    assert fields["promoted"] == 10 and fields["demoted"] == 10


def test_swap_thrash_requires_in_and_out():
    telemetry = _telemetry((SwapThrashRule,))
    telemetry.emit_at("swap.out", 0, 0, pages=500, demoted_huge=0,
                      demoted_aligned=0)
    assert not _health(telemetry)
    telemetry.emit_at("swap.in", 0, 1, pages=400)
    findings = _health(telemetry)
    assert len(findings) == 1
    fields = dict(findings[0].fields)
    assert fields["out_pages"] == 500 and fields["in_pages"] == 400


def test_placement_failure_burst():
    telemetry = _telemetry((PlacementFailureBurstRule,))
    for seq in range(3):
        telemetry.emit_at("fleet.place_fail", None, 2, ordinal=seq,
                          needed=1000)
    findings = _health(telemetry)
    assert len(findings) == 1
    assert dict(findings[0].fields)["failures"] == 3


# ----------------------------------------------------------------------
# Monitor mechanics
# ----------------------------------------------------------------------


def test_health_events_use_their_own_sequence_space():
    # Health emission must not consume the underlying streams' per-host
    # seq counters: host events keep consecutive seqs around a finding.
    telemetry = _telemetry((PlacementFailureBurstRule,))
    for seq in range(4):
        telemetry.emit_at("fleet.place_fail", None, 0, ordinal=seq,
                          needed=10)
    regular = [e for e in telemetry.events()
               if e.kind == "fleet.place_fail"]
    assert [e.seq for e in regular] == [1, 2, 3, 4]
    findings = _health(telemetry)
    assert findings and findings[0].seq == 1


def test_monitor_state_is_per_host():
    telemetry = _telemetry((SwapThrashRule,))
    # Split across two hosts, neither crosses the threshold alone.
    telemetry.emit_at("swap.out", 0, 0, pages=300)
    telemetry.emit_at("swap.in", 1, 0, pages=300)
    assert not _health(telemetry)


def test_monitor_counts_findings():
    telemetry = _telemetry((PlacementFailureBurstRule,))
    for seq in range(3):
        telemetry.emit_at("fleet.place_fail", None, 0, ordinal=seq,
                          needed=10)
    assert telemetry.counters["health.placement_failures"] == 1
    summary = summarize_health(telemetry.events())
    assert summary["health.placement_failures"]["count"] == 1
    assert "placement_failures: 1" in format_health_summary(
        telemetry.events()
    )


def test_monitor_survives_snapshot_merge_roundtrip():
    # Worker events arriving via merge() drive the controller monitor
    # exactly as local emissions would.
    worker = Telemetry(clock=Clock(wall=lambda: 0.0))
    for seq in range(3):
        worker.emit_at("fleet.place_fail", None, 0, ordinal=seq, needed=10)
    controller = _telemetry((PlacementFailureBurstRule,))
    controller.merge(worker.snapshot())
    findings = _health(controller)
    assert len(findings) == 1
    # The finding sits right after its trigger in the merged stream.
    kinds = [e.kind for e in controller.events()]
    assert kinds == ["fleet.place_fail"] * 3 + ["health.placement_failures"]


# ----------------------------------------------------------------------
# Layout equivalence over a real pressured fleet
# ----------------------------------------------------------------------

#: Overcommitted enough that swap traffic (and with it at least one
#: watchdog) engages within a few epochs.
PRESSURED = ClusterConfig(
    hosts=2,
    host_mib=128,
    epochs=5,
    seed=7,
    system="Gemini",
    overcommit_ratio=2.5,
    placement_headroom=1.0,
    churn=ChurnConfig(
        initial_vms=8,
        arrivals_per_epoch=0.5,
        departure_rate=0.03,
        max_vms=14,
        guest_mib_choices=(48, 64),
        workload_pool=("Shore", "SP.D", "Sphinx", "Moses"),
    ),
    pressure=PressureConfig(enabled=True),
    migration=MigrationConfig(check_invariants=True),
    adaptive_parallel=False,
)


def _run_traced(config, workers):
    obs.enable(Telemetry(sample=1.0, clock=Clock(wall=lambda: 0.0)))
    sim = ClusterSimulation(config)
    sim.run(workers=workers)
    events = obs.get().events()
    obs.disable()
    obs.clear_context()
    forked = len(sim.ipc_bytes_epochs) == config.epochs and workers > 1
    return events, forked


def _health_by_host(events):
    streams = defaultdict(list)
    for event in events:
        if event.kind.startswith("health."):
            streams[event.host].append(event.identity())
    return dict(streams)


def test_health_streams_identical_across_layouts(monkeypatch):
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    serial_events, _ = _run_traced(PRESSURED, workers=1)
    # The pressured fleet must actually trip a watchdog, or this test
    # pins nothing.
    serial_health = _health_by_host(serial_events)
    assert serial_health
    parallel_events, forked = _run_traced(PRESSURED, workers=2)
    if not forked:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    assert _health_by_host(parallel_events) == serial_health


def test_monitor_detached_after_run():
    obs.enable(Telemetry(sample=1.0, clock=Clock(wall=lambda: 0.0)))
    ClusterSimulation(replace(PRESSURED, epochs=2)).run(workers=1)
    assert obs.get().monitor is None


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------


def test_flight_recorder_dumps_bundle(tmp_path):
    telemetry = _telemetry((PlacementFailureBurstRule,))
    recorder = FlightRecorder(telemetry, tmp_path, last_n=2)
    telemetry.monitor.on_breach = lambda finding: recorder.breach(
        finding, config={"hosts": 2}
    )
    with telemetry.span("fleet.epoch"):
        for seq in range(4):
            telemetry.emit_at("fleet.place_fail", None, 0, ordinal=seq,
                              needed=10)
    assert len(recorder.bundles) == 1  # deduplicated per health kind
    bundle = recorder.bundles[0]
    assert bundle.name.startswith("postmortem-00-health-placement")
    lines = (bundle / "events.jsonl").read_text().splitlines()
    assert len(lines) == 2  # last-N honoured
    spans = json.loads((bundle / "open_spans.json").read_text())
    assert spans["stack"] == ["fleet.epoch"]
    report = json.loads((bundle / "report.json").read_text())
    assert report["stats"]["events_emitted"] > 0
    assert json.loads((bundle / "config.json").read_text()) == {"hosts": 2}


def test_flight_recorder_limits_and_dedupes(tmp_path):
    telemetry = Telemetry(clock=Clock(wall=lambda: 0.0))
    recorder = FlightRecorder(telemetry, tmp_path, limit=2)
    error = RuntimeError("boom")
    assert recorder.dump("exception", error=error) is not None
    assert recorder.dump("exception", error=error) is None  # same object
    assert recorder.dump("other") is not None
    assert recorder.dump("overflow") is None  # limit reached


def test_actor_pool_on_failure_hook():
    pool = ActorPool(workers=2)
    pool.scatter([0, 1, 2, 3])
    if pool.is_local:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    seen = []
    pool.on_failure = seen.append
    pool.submit([(0, _raise_marker, ())])
    with pytest.raises(ValueError, match="marker"):
        pool.drain()
    assert len(seen) == 1 and isinstance(seen[0], ValueError)
    pool.close()


def _raise_marker(state):
    raise ValueError("marker")


def test_worker_exception_dumps_postmortem(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    obs.enable(Telemetry(sample=1.0, clock=Clock(wall=lambda: 0.0)))
    obs.set_trace_out_dir(str(tmp_path))
    config = replace(PRESSURED, epochs=10)
    sim = ClusterSimulation(config)
    original = sim._epoch_fused

    def sabotage(pool, epoch):
        if epoch == 2:
            raise RuntimeError("epoch sabotage")
        return original(pool, epoch)

    sim._epoch_fused = sabotage
    with pytest.raises(RuntimeError, match="epoch sabotage"):
        sim.run(workers=1)
    obs.set_trace_out_dir(None)
    bundles = sorted(tmp_path.glob("postmortem-*"))
    assert bundles
    report = json.loads((bundles[0] / "report.json").read_text())
    assert report["reason"] == "exception"
    assert "epoch sabotage" in report["error"]
