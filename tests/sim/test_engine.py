"""Integration tests for the simulation engine."""

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulation, run_workload
from repro.workloads.base import AccessPhase, Workload
from repro.workloads.suite import make_workload

FAST = SimulationConfig(epochs=6, host_mib=512, guest_mib=128)


class TinyWorkload(Workload):
    name = "tiny"
    tlb_sensitivity = 0.4
    accesses_per_epoch = 100_000.0
    ops_per_epoch = 1_000.0

    def setup(self, ctx):
        ctx.mmap_mib("data", 8)
        ctx.touch_all("data")

    def access_phases(self, epoch):
        return [AccessPhase("data")]


def test_run_produces_epoch_records():
    result = Simulation(TinyWorkload(), system="Host-B-VM-B", config=FAST).run_single()
    assert result.system == "Host-B-VM-B"
    assert result.workload == "tiny"
    assert len(result.epochs) == FAST.epochs
    assert result.throughput > 0
    assert result.tlb_misses > 0


def test_requires_at_least_one_workload():
    with pytest.raises(ValueError):
        Simulation([], system="THP", config=FAST)


def test_unknown_system_rejected():
    with pytest.raises(KeyError):
        Simulation(TinyWorkload(), system="NoSuchSystem", config=FAST)


def test_run_single_rejects_multi_workload():
    sim = Simulation([TinyWorkload(), make_workload("Shore")], system="THP", config=FAST)
    with pytest.raises(ValueError):
        sim.run_single()
    # Rejected up front: no epoch ran.
    assert all(not result.epochs for result in sim.results)


def test_multi_vm_returns_result_per_workload():
    sim = Simulation(
        [make_workload("Shore"), make_workload("SP.D")], system="THP", config=FAST
    )
    results = sim.run()
    assert [r.workload for r in results] == ["Shore", "SP.D"]
    assert len(sim.platform.vms) == 2


def test_determinism_same_seed():
    a = run_workload(TinyWorkload(), "Ingens", config=FAST)
    b = run_workload(TinyWorkload(), "Ingens", config=FAST)
    assert a.throughput == b.throughput
    assert a.tlb_misses == b.tlb_misses
    assert a.well_aligned_rate == b.well_aligned_rate


def test_different_seeds_differ():
    import dataclasses

    # Enough epochs for the workload's churn (seed-dependent) to kick in.
    base = dataclasses.replace(FAST, guest_mib=256, epochs=14)
    a = run_workload(make_workload("Redis"), "THP", config=base)
    b = run_workload(
        make_workload("Redis"), "THP", config=dataclasses.replace(base, seed=99)
    )
    assert a.tlb_misses != b.tlb_misses


def test_fragmentation_is_applied():
    import dataclasses

    config = dataclasses.replace(FAST, fragment_guest=0.6, fragment_host=0.6)
    sim = Simulation(TinyWorkload(), system="Host-B-VM-B", config=config)
    result = sim.run_single()
    assert result.epochs[0].fmfi_host > 0.3


def test_gemini_runtime_attached_only_for_gemini():
    gemini = Simulation(TinyWorkload(), system="Gemini", config=FAST)
    assert gemini.runtime is not None
    other = Simulation(TinyWorkload(), system="THP", config=FAST)
    assert other.runtime is None
    result = gemini.run_single()
    assert result.gemini_stats  # runtime statistics collected


def test_primer_runs_and_unmaps():
    sim = Simulation(
        TinyWorkload(),
        system="THP",
        config=FAST,
        primer=make_workload("SVM"),
    )
    result = sim.run_single()
    vm = sim.tenants[0].vm
    # Primer memory was unmapped: only the main workload's VMA remains.
    assert len(vm.address_space) == 1
    # But the EPT retains the primer's (stale) mappings: the host was never
    # told about the frees.
    assert sim.platform.ept(vm.id).mapped_pages > vm.table().mapped_pages
    assert result.throughput > 0


def test_hawkeye_dedup_charges_cow_on_specjbb():
    import dataclasses

    config = dataclasses.replace(FAST, guest_mib=256)
    sim = Simulation(make_workload("Specjbb"), system="HawkEye", config=config)
    sim.run_single()
    assert sim.tenants[0].vm.guest.ledger.count("cow_fault") > 0
    # Ingens does not deduplicate: no CoW charges.
    sim2 = Simulation(make_workload("Specjbb"), system="Ingens", config=config)
    sim2.run_single()
    assert sim2.tenants[0].vm.guest.ledger.count("cow_fault") == 0


def test_alignment_report_consistency():
    """The recorded alignment rate must be reproducible from the final
    page tables."""
    config = SimulationConfig(epochs=6, host_mib=512, guest_mib=128, noise_rate=0.0)
    sim = Simulation(TinyWorkload(), system="Host-H-VM-H", config=config)
    result = sim.run_single()
    # Static huge/huge configuration on pristine memory: everything aligned.
    assert result.well_aligned_rate == pytest.approx(1.0)
    last = result.epochs[-1].alignment
    assert last.guest_huge > 0
    assert last.aligned_guest == last.guest_huge


def test_anagram_workload_names_get_distinct_rng_streams():
    """The per-workload RNG salt must key on byte order, not a byte sum:
    anagram names (same bytes, different order) need different churn."""

    def context_stream(name):
        workload = make_workload("Redis")
        workload.name = name
        sim = Simulation(workload, system="Host-B-VM-B", config=FAST)
        return [sim.tenants[0].ctx.rng.random() for _ in range(8)]

    assert context_stream("listen") != context_stream("silent")
