"""Tests for the cluster engine: end-to-end runs, serial/parallel
determinism, placement outcomes and the cached entry point."""

from dataclasses import replace

import pytest

from repro import obs
from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    FleetResult,
    fleet_key,
    run_cluster,
)
from repro.cluster.config import ConsolidationConfig, MigrationConfig
from repro.exec import ResultCache
from repro.obs import Telemetry

SMALL = ClusterConfig(
    hosts=3,
    host_mib=512,
    epochs=6,
    seed=7,
    migration=MigrationConfig(check_invariants=True),
)


def test_end_to_end_small_fleet():
    result = ClusterSimulation(SMALL).run()
    assert result.hosts == 3 and result.epochs == 6
    # Every host reports every epoch.
    assert len(result.host_epochs) == 3 * 6
    assert result.tenant_epochs, "churn should land tenants that run"
    assert 0.0 <= result.fleet_fmfi <= 1.0
    assert 0.0 <= result.fleet_well_aligned_rate <= 1.0
    assert result.mean_throughput > 0.0
    assert set(result.host_fmfi()) == {0, 1, 2}
    for host, rate in result.alignment_distribution().items():
        assert 0 <= host < 3
        assert 0.0 <= rate <= 1.0


def test_final_host_states_are_gathered():
    sim = ClusterSimulation(SMALL)
    sim.run()
    assert len(sim.hosts) == 3
    total_tenants = sum(len(host.tenants) for host in sim.hosts)
    live = len(sim._vm_host)
    assert total_tenants == live
    for ordinal, index in sim._vm_host.items():
        assert ordinal in sim.hosts[index].tenants


def test_zero_hosts_rejected():
    with pytest.raises(ValueError):
        ClusterSimulation(ClusterConfig(hosts=0))


def test_serial_and_parallel_runs_are_identical(monkeypatch):
    # The determinism contract: same seed, same results, any worker count.
    # SMALL has fewer hosts than the parallel threshold, so force the
    # pool on to genuinely exercise the fused wire protocol.
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    config = replace(SMALL, adaptive_parallel=False)
    serial = ClusterSimulation(config).run(workers=1)
    parallel = ClusterSimulation(config).run(workers=2)
    assert serial == parallel


def test_tiny_fleet_never_spawns_a_pool(monkeypatch):
    # Three hosts sit under the parallel threshold: even an explicit
    # worker request degrades to the in-process pool.
    monkeypatch.delenv("REPRO_MIN_PARALLEL", raising=False)
    sim = ClusterSimulation(SMALL)
    assert sim._effective_workers(4, adaptive=False) == 1
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    assert sim._effective_workers(4, adaptive=False) == 4


def test_serial_run_reports_zero_ipc():
    sim = ClusterSimulation(SMALL)
    sim.run(workers=1)
    assert sim.ipc_bytes_per_epoch == 0.0
    assert sim.ipc_peer_bytes == 0


def test_parallel_run_counts_ipc_bytes(monkeypatch):
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    sim = ClusterSimulation(replace(SMALL, adaptive_parallel=False))
    sim.run(workers=2)
    if len(sim.ipc_bytes_epochs) != SMALL.epochs:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    assert sim.ipc_bytes_per_epoch > 0.0


def test_consolidation_migrates_and_records():
    config = replace(SMALL, hosts=4, epochs=8)
    result = ClusterSimulation(config).run()
    assert result.migration_count > 0
    for record in result.migrations:
        assert record.source != record.destination
        assert record.resident_pages > 0
        assert record.rounds >= 1
        assert record.copied_pages >= record.resident_pages
        assert record.total_cycles > 0


def test_alignment_aware_beats_first_fit_on_aged_fleet():
    # The acceptance scenario: a THP fleet with a host-age fragmentation
    # gradient.  First-fit packs the aged hosts and collocates tenants on
    # shared coalescing budgets; alignment-aware spreads contention and
    # lands VMs where aligned backing is attainable.
    base = ClusterConfig(
        hosts=6,
        host_mib=768,
        epochs=10,
        seed=42,
        system="THP",
        fragment_host=0.9,
        consolidation=ConsolidationConfig(every=0),
    )
    first_fit = ClusterSimulation(replace(base, placement="first-fit")).run()
    aware = ClusterSimulation(replace(base, placement="alignment-aware")).run()
    assert aware.fleet_well_aligned_rate > first_fit.fleet_well_aligned_rate


def test_fleet_key_ignores_fast_path_flags():
    from repro.cluster.engine import EXECUTION_STRATEGY_FIELDS

    config = ClusterConfig(hosts=2, epochs=4)
    assert fleet_key(config) == fleet_key(replace(config, adaptive_parallel=False))
    for field in EXECUTION_STRATEGY_FIELDS:
        assert hasattr(config, field)
    assert fleet_key(config) != fleet_key(replace(config, seed=1))
    assert fleet_key(config) != fleet_key(replace(config, placement="best-fit"))


def test_run_cluster_caches_results(tmp_path):
    config = replace(SMALL, epochs=4)
    cache = ResultCache(tmp_path, expected=FleetResult)
    first = run_cluster(config, cache=cache)
    assert cache.stats.stores == 1
    second = run_cluster(config, cache=cache)
    assert cache.stats.hits == 1
    assert first == second


def test_traced_run_skips_a_warm_cache(tmp_path):
    # A cache hit would leave the fleet's telemetry out of the trace.
    config = replace(SMALL, epochs=2)
    run_cluster(config, cache=ResultCache(tmp_path, expected=FleetResult))
    warm = ResultCache(tmp_path, expected=FleetResult)
    telemetry = obs.enable(Telemetry())
    try:
        run_cluster(config, cache=warm)
    finally:
        obs.disable()
        obs.clear_context()
    host_epochs = [e for e in telemetry.events() if e.kind == "host.epoch"]
    assert len(host_epochs) == config.hosts * config.epochs
    assert warm.stats.requests == 0


def test_to_dict_is_json_friendly():
    import json

    result = run_cluster(replace(SMALL, epochs=4), cache=None)
    payload = result.to_dict()
    assert json.dumps(payload)
    assert payload["hosts"] == SMALL.hosts
    assert "fleet_fmfi" in payload
