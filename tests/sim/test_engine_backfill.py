"""Tests for the engine's host-backfill behaviour after guest migrations."""

from repro.hypervisor.platform import Platform
from repro.mem.layout import PAGES_PER_HUGE
from repro.os.mm import PROCESS
from repro.policies.base import HugePagePolicy
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulation, backfill_host
from repro.workloads.base import AccessPhase, Workload


class HostHuge(HugePagePolicy):
    name = "host-huge"

    def wants_huge_fault(self, client, vregion):
        return True


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


def reference_backfill(platform, vm, vregion):
    """Backfill of a base-mapped guest region, page by page in the guest
    table's mapping order."""
    ept = platform.ept(vm.id)
    for _, gpn in list(vm.guest.table(PROCESS).region_items(vregion)):
        if ept.translate(gpn) is None:
            platform.host.fault(vm.id, gpn, full_region=True)


def scrambled_region():
    """Guest region 2 base-mapped out of address order, onto guest frames
    whose EPT backing is partial and was itself faulted out of order.  The
    host policy takes huge faults, so the empty gpa regions 7 and 4
    backfill as one huge page each."""
    platform = Platform(64 * PAGES_PER_HUGE, HostHuge())
    vm = platform.create_vm(16 * PAGES_PER_HUGE, HugePagePolicy())
    vbase = 2 * PAGES_PER_HUGE
    gpns = [
        *range(5 * PAGES_PER_HUGE + 300, 5 * PAGES_PER_HUGE + 340),
        *range(3 * PAGES_PER_HUGE + 90, 3 * PAGES_PER_HUGE + 10, -1),
        *range(3 * PAGES_PER_HUGE + 200, 3 * PAGES_PER_HUGE + 260),
        *range(7 * PAGES_PER_HUGE + 500, 7 * PAGES_PER_HUGE + 505),
        *range(3 * PAGES_PER_HUGE + 500, 3 * PAGES_PER_HUGE + 530),
    ]
    for offset, gpn in enumerate(gpns):
        assert vm.guest.map_prealloc(PROCESS, vbase + offset, gpn)
    for gpn in [*range(3 * PAGES_PER_HUGE + 220, 3 * PAGES_PER_HUGE + 200, -1),
                3 * PAGES_PER_HUGE + 50, 5 * PAGES_PER_HUGE + 320]:
        platform.host.fault(vm.id, gpn, full_region=False)
    return platform, vm


def test_backfill_of_base_region_matches_per_page_faults_in_mapping_order():
    """Backfilling a base-mapped region in runs hands each host fault the
    frames the per-page walk in mapping order hands it: the same EPT
    mappings, in the same order, and the same host allocator."""
    platform, vm = scrambled_region()
    ref_platform, ref_vm = scrambled_region()
    backfill_host(platform, vm, 2)
    reference_backfill(ref_platform, ref_vm, 2)
    ept, ref_ept = platform.ept(vm.id), ref_platform.ept(ref_vm.id)
    assert list(ept.base_mappings()) == list(ref_ept.base_mappings())
    assert list(ept.huge_mappings()) == list(ref_ept.huge_mappings()) == [(7, 1), (4, 2)]
    assert platform.memory.free_regions() == ref_platform.memory.free_regions()
    assert all(
        ept.translate(gpn) is not None
        for _, gpn in vm.guest.table(PROCESS).region_items(2)
    )
