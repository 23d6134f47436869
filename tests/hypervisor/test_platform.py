"""Unit tests for VM and Platform (nested fault path)."""

import pytest

from repro.hypervisor.platform import Platform
from repro.hypervisor.vm import PROCESS
from repro.mem.layout import PAGES_PER_HUGE
from repro.policies.base import HugePagePolicy
from repro.policies.registry import system_spec
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulation
from repro.sim.noise import NoiseAgent
from repro.workloads.suite import make_workload


class HostHugePolicy(HugePagePolicy):
    name = "host-huge-test"

    def wants_huge_fault(self, client, vregion):
        return True


def make_platform(host_regions=64, host_policy=None):
    return Platform(host_regions * PAGES_PER_HUGE, host_policy or HugePagePolicy())


def test_create_vm_assigns_ids_and_probe():
    platform = make_platform()
    vm1 = platform.create_vm(8 * PAGES_PER_HUGE, HugePagePolicy())
    vm2 = platform.create_vm(8 * PAGES_PER_HUGE, HugePagePolicy(), name="web")
    assert vm1.id == 0
    assert vm2.id == 1
    assert vm2.name == "web"
    assert vm1.guest.alignment_probe is not None
    assert vm1.guest.alignment_probe.__self__ is platform.ept(vm1)
    assert list(platform.iter_vms()) == [vm1, vm2]


def test_touch_faults_both_layers():
    platform = make_platform()
    vm = platform.create_vm(8 * PAGES_PER_HUGE, HugePagePolicy())
    vma = vm.mmap(100, "heap")
    hpn = platform.touch(vm, vma.start)
    gpn = vm.translate(vma.start)
    assert gpn is not None
    assert platform.ept(vm).translate(gpn) == hpn
    assert vm.guest.ledger.count("base_fault") == 1
    assert platform.host.ledger.count("base_fault") == 1


def test_touch_unmapped_raises():
    platform = make_platform()
    vm = platform.create_vm(8 * PAGES_PER_HUGE, HugePagePolicy())
    with pytest.raises(ValueError):
        platform.touch(vm, 12345)


def test_touch_is_idempotent():
    platform = make_platform()
    vm = platform.create_vm(8 * PAGES_PER_HUGE, HugePagePolicy())
    vma = vm.mmap(10, "heap")
    first = platform.touch(vm, vma.start)
    second = platform.touch(vm, vma.start)
    assert first == second
    assert vm.guest.ledger.count("base_fault") == 1


#: change between two touches of a range -> (guest, host) faults the
#: second touch takes
RETOUCH_FAULTS = {
    "none": (0, 0),
    "half-touched": (PAGES_PER_HUGE, PAGES_PER_HUGE),
    "guest-unmap": (2 * PAGES_PER_HUGE, 0),
    "ept-unmap": (0, 1),
    "host-demote": (0, 0),
}


@pytest.mark.parametrize("change", RETOUCH_FAULTS)
def test_retouch_faults_only_what_is_missing(change):
    """Re-touching a range faults exactly the translations removed since
    the last touch, at each layer, and leaves every page translated."""
    host_policy = HostHugePolicy() if change == "host-demote" else None
    platform = make_platform(host_policy=host_policy)
    vm = platform.create_vm(8 * PAGES_PER_HUGE, HugePagePolicy())
    vma = vm.mmap(2 * PAGES_PER_HUGE, "heap")
    first = PAGES_PER_HUGE if change == "half-touched" else vma.npages
    platform.touch_range(vm, vma.start, first)
    if change == "guest-unmap":
        vm.munmap("heap")
        vma = vm.mmap(2 * PAGES_PER_HUGE, "heap")
    elif change == "ept-unmap":
        platform.host.unmap_range(vm.id, vm.translate(vma.start), 1)
    elif change == "host-demote":
        gpregion = vm.translate(vma.start) // PAGES_PER_HUGE
        assert platform.ept(vm).is_huge(gpregion)
        platform.host.demote(vm.id, gpregion)
    ledgers = (vm.guest.ledger, platform.host.ledger)
    before = [ledger.count("base_fault") + ledger.count("huge_fault") for ledger in ledgers]
    platform.touch_range(vm, vma.start, vma.npages)
    assert tuple(
        ledger.count("base_fault") + ledger.count("huge_fault") - count
        for ledger, count in zip(ledgers, before)
    ) == RETOUCH_FAULTS[change]
    for vpn in range(vma.start, vma.end):
        assert platform.host.translate(vm.id, vm.translate(vpn)) is not None


def test_touch_vma_touches_slice():
    platform = make_platform()
    vm = platform.create_vm(8 * PAGES_PER_HUGE, HugePagePolicy())
    vma = vm.mmap(100, "heap")
    platform.touch_vma(vm, vma, start=10, npages=20)
    table = vm.table()
    assert table.base_count == 20
    assert table.translate(vma.start + 10) is not None
    assert table.translate(vma.start + 9) is None


def test_host_huge_backing_aligned_with_guest_huge():
    """When both layers huge-fault from pristine memory the result is a
    well-aligned huge page (the Host-H-VM-H scenario of Figure 2)."""

    class GuestHuge(HugePagePolicy):
        name = "guest-huge-test"

        def wants_huge_fault(self, client, vregion):
            return True

    platform = make_platform(host_policy=HostHugePolicy())
    vm = platform.create_vm(8 * PAGES_PER_HUGE, GuestHuge())
    vma = vm.mmap(PAGES_PER_HUGE, "arr")
    platform.touch(vm, vma.start)
    gvregion = vma.start // PAGES_PER_HUGE
    assert vm.table().is_huge(gvregion)
    gpregion = vm.table().huge_target(gvregion)
    assert platform.ept(vm).is_huge(gpregion)


def test_munmap_frees_guest_but_not_host():
    platform = make_platform()
    vm = platform.create_vm(8 * PAGES_PER_HUGE, HugePagePolicy())
    vma = vm.mmap(50, "heap")
    platform.touch_vma(vm, vma)
    host_free_before = platform.memory.free_pages
    guest_free_before = vm.gpa_space.free_pages
    vm.munmap("heap")
    # Guest frames returned; host frames and EPT mappings untouched.
    assert vm.gpa_space.free_pages == guest_free_before + 50
    assert platform.memory.free_pages == host_free_before
    assert platform.ept(vm).base_count == 50
    assert vm.table().base_count == 0


def test_two_vms_are_isolated():
    platform = make_platform()
    vm1 = platform.create_vm(8 * PAGES_PER_HUGE, HugePagePolicy())
    vm2 = platform.create_vm(8 * PAGES_PER_HUGE, HugePagePolicy())
    vma1 = vm1.mmap(10, "a")
    vma2 = vm2.mmap(10, "a")
    h1 = platform.touch(vm1, vma1.start)
    h2 = platform.touch(vm2, vma2.start)
    assert h1 != h2  # distinct host frames
    assert platform.ept(vm1) is not platform.ept(vm2)


def test_with_mib_constructors():
    platform = Platform.with_mib(16, HugePagePolicy())
    assert platform.host_pages == 16 * 256
    vm = platform.create_vm_mib(4, HugePagePolicy())
    assert vm.guest_pages == 4 * 256


def test_vm_process_constant():
    assert PROCESS == 0


@pytest.mark.parametrize("by_id", [False, True], ids=["vm", "vm-id"])
def test_detach_vm_rejects_an_unattached_vm(by_id):
    platform = make_platform()
    vm = platform.create_vm(8 * PAGES_PER_HUGE, HugePagePolicy())
    platform.detach_vm(vm)
    with pytest.raises(ValueError, match="VM id 0 not attached"):
        platform.detach_vm(vm.id if by_id else vm)


def test_detach_vm_frees_the_index_slots_for_the_next_host():
    platform = make_platform()
    vm = platform.create_vm(8 * PAGES_PER_HUGE, HugePagePolicy())
    vma = vm.mmap(PAGES_PER_HUGE, "heap")
    platform.touch_vma(vm, vma)
    guest, ept = vm.guest.table(PROCESS), platform.ept(vm)
    assert guest.index is ept.index is platform.index_of(vm)
    live = platform.index_of(vm).live_set()
    platform.detach_vm(vm)
    assert guest.index is None and ept.index is None
    other = make_platform()
    other.attach_vm(vm)
    assert guest.index is other.index_of(vm)
    assert other.index_of(vm).live_set() == live


def test_touch_range_matches_touch_loop():
    """touch_range over a fresh VMA leaves the exact mapping and allocator
    state of per-page touch, huge faults included."""
    config = SimulationConfig(
        epochs=1, guest_mib=128, host_mib=384, fragment_guest=0.7,
        fragment_host=0.7, noise_rate=0.0,
    )

    def build(batch):
        sim = Simulation(make_workload("Redis"), system="THP", config=config)
        vm = sim.tenants[0].vm
        vma = vm.mmap(3 * PAGES_PER_HUGE + 17, "probe")
        if batch:
            sim.platform.touch_range(vm, vma.start, vma.npages)
        else:
            for vpn in range(vma.start, vma.end):
                sim.platform.touch(vm, vpn)
        guest = {
            vpn: vm.guest.translate(0, vpn) for vpn in range(vma.start, vma.end)
        }
        host_free = sim.platform.memory.free_regions()
        guest_free = vm.gpa_space.free_regions()
        return guest, host_free, guest_free

    assert build(True) == build(False)


@pytest.mark.parametrize("system", ["THP", "Gemini"])
@pytest.mark.parametrize("reback", [False, True], ids=["empty-ept", "half-backed"])
def test_touch_range_over_guest_mapped_pages_matches_touch_loop(system, reback):
    """A VM that moved to a fresh host keeps its guest mappings but has an
    empty EPT.  touch_range hands its guest-mapped runs to the host fault
    path in bulk and must leave what a per-page touch loop leaves, noise
    allocations and the noise RNG stream included.  Gates the batch
    pre-drew stay queued for later notifications, so the stream is
    compared after further notifications drain them."""
    spec = system_spec(system)

    def build(batch):
        source = make_platform(96, spec.make_host())
        vm = source.create_vm(48 * PAGES_PER_HUGE, spec.make_guest())
        vma = vm.mmap(6 * PAGES_PER_HUGE + 300, "heap")
        NoiseAgent(source, rate=0.3, seed=5).install()
        # Leave a guest-unmapped hole so both run kinds are exercised.
        source.touch_range(vm, vma.start, 2 * PAGES_PER_HUGE + 100)
        rest = vma.start + 3 * PAGES_PER_HUGE
        source.touch_range(vm, rest, vma.end - rest)
        source.detach_vm(vm)
        platform = make_platform(96, spec.make_host())
        platform.attach_vm(vm)
        if reback:
            for vpn in range(vma.start, vma.end):
                if (vpn // 37) % 2 == 0:
                    platform.touch(vm, vpn)
        noise = NoiseAgent(platform, rate=0.3, seed=7)
        noise.install()
        if batch:
            platform.touch_range(vm, vma.start, vma.npages)
        else:
            for vpn in range(vma.start, vma.end):
                platform.touch(vm, vpn)
        ept, ledger = platform.ept(vm), platform.host.ledger
        state = (
            list(ept.base_mappings()),
            list(ept.huge_mappings()),
            list(vm.table().base_mappings()),
            platform.memory.free_regions(),
            vm.gpa_space.free_regions(),
            [(ledger.count(e), ledger.cycles(e)) for e in ("base_fault", "huge_fault")],
            noise.allocations,
            noise.held_pages,
        )
        for _ in range(300):
            noise.on_fault(vm)
        return state, (noise.allocations, noise.held_pages, noise._rng.random())

    batched, stepped = build(True), build(False)
    assert batched[0][6] > 0, "noise must act during the touch"
    assert batched == stepped
