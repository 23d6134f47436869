"""Tests for the engine's host-backfill behaviour after guest migrations."""

from repro.mem.layout import PAGES_PER_HUGE
from repro.os.mm import PROCESS
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulation
from repro.workloads.base import AccessPhase, Workload


class OneRegion(Workload):
    name = "one-region"
    tlb_sensitivity = 0.4
    accesses_per_epoch = 10_000.0
    ops_per_epoch = 100.0

    def setup(self, ctx):
        ctx.mmap("data", PAGES_PER_HUGE)
        ctx.touch_all("data")

    def access_phases(self, epoch):
        return [AccessPhase("data")]


def test_backfill_after_guest_migration():
    """When the guest migrates a region to fresh GPAs, the engine must
    fault the missing EPT backing before evaluating the epoch (real
    accesses would EPT-fault)."""
    config = SimulationConfig(epochs=2, host_mib=512, guest_mib=128, noise_rate=0.0)
    sim = Simulation(OneRegion(), system="Host-B-VM-B", config=config)
    sim.step_epoch(0)
    vm = sim.tenants[0].vm
    vregion = vm.address_space.vma("data").start // PAGES_PER_HUGE
    # Migrate the region to a fresh gpa region behind the engine's back.
    assert vm.guest.promote_with_migration(PROCESS, vregion)
    new_gpregion = vm.table().huge_target(vregion)
    ept = sim.platform.ept(vm.id)
    assert not ept.is_huge(new_gpregion)
    populated_before = ept.region_population(new_gpregion)
    assert populated_before < PAGES_PER_HUGE
    sim.step_epoch(1)
    # The engine backfilled the whole region's host backing.
    assert (
        ept.region_population(new_gpregion) == PAGES_PER_HUGE
        or ept.is_huge(new_gpregion)
    )


def test_backfill_counts_as_host_faults():
    config = SimulationConfig(epochs=2, host_mib=512, guest_mib=128, noise_rate=0.0)
    sim = Simulation(OneRegion(), system="Host-B-VM-B", config=config)
    sim.step_epoch(0)
    vm = sim.tenants[0].vm
    vregion = vm.address_space.vma("data").start // PAGES_PER_HUGE
    vm.guest.promote_with_migration(PROCESS, vregion)
    before = sim.platform.host.ledger.count("base_fault")
    sim.step_epoch(1)
    after = sim.platform.host.ledger.count("base_fault")
    assert after > before  # EPT violations were charged
