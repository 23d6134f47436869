"""Quiescent-epoch skipping: fingerprint recording and invalidation.

A ``touch_range`` replay that was fully covered by region-translated
skips records ``(start, npages) -> invalidation_gen`` in the platform's
quiescent cache; a later replay with a matching fingerprint returns
without consulting the index at all.  These tests pin the recording
conditions and prove that every event that can make a replay observable
again — guest unmap, EPT unmap, noise hooks, VM detach — either bumps
the generation or bypasses/clears the cache, forcing a full replay.
"""

from repro.hypervisor.platform import Platform
from repro.mem.layout import PAGES_PER_HUGE
from repro.policies.base import HugePagePolicy


class HostHugePolicy(HugePagePolicy):
    name = "host-huge-test"

    def wants_huge_fault(self, client, vregion):
        return True


def make_platform(host_regions=64, host_policy=None):
    return Platform(host_regions * PAGES_PER_HUGE, host_policy or HugePagePolicy())


def touched_vm(platform, regions=2):
    """A VM with a fully touched, region-aligned heap of *regions* regions."""
    vm = platform.create_vm(8 * PAGES_PER_HUGE, HugePagePolicy())
    vma = vm.mmap(regions * PAGES_PER_HUGE, "heap")
    platform.touch_range(vm, vma.start, vma.npages)
    return vm, vma


def arm_bomb(index):
    """Make any further index consultation explode."""

    def bomb(vregion):
        raise AssertionError("index consulted despite quiescent fingerprint")

    index.region_translated = bomb


def test_retouch_records_fingerprint_and_skips_index():
    platform = make_platform()
    vm, vma = touched_vm(platform)
    key = (vma.start, vma.npages)
    # The populating walk faulted, so nothing is recorded yet.
    assert key not in platform._quiescent.get(vm.id, {})
    platform.touch_range(vm, vma.start, vma.npages)
    index = platform.index_of(vm)
    assert platform._quiescent[vm.id][key] == index.invalidation_gen
    # A matching fingerprint short-circuits before any region query.
    arm_bomb(index)
    platform.touch_range(vm, vma.start, vma.npages)


def test_partially_faulted_walk_is_never_recorded():
    platform = make_platform()
    vm = platform.create_vm(8 * PAGES_PER_HUGE, HugePagePolicy())
    vma = vm.mmap(2 * PAGES_PER_HUGE, "heap")
    platform.touch_range(vm, vma.start, PAGES_PER_HUGE)
    # This walk skips the first region but faults the second: not quiescent.
    platform.touch_range(vm, vma.start, vma.npages)
    assert (vma.start, vma.npages) not in platform._quiescent.get(vm.id, {})


def test_guest_unmap_bumps_generation_and_forces_replay():
    platform = make_platform()
    vm, vma = touched_vm(platform)
    platform.touch_range(vm, vma.start, vma.npages)
    index = platform.index_of(vm)
    recorded = platform._quiescent[vm.id][(vma.start, vma.npages)]
    vm.munmap("heap")
    assert index.invalidation_gen != recorded
    # The replay after remapping must walk (and fault) again.
    vma2 = vm.mmap(2 * PAGES_PER_HUGE, "heap")
    before = vm.guest.ledger.count("base_fault")
    platform.touch_range(vm, vma2.start, vma2.npages)
    assert vm.guest.ledger.count("base_fault") == before + vma2.npages


def test_ept_unmap_bumps_generation_and_forces_replay():
    platform = make_platform()
    vm, vma = touched_vm(platform)
    platform.touch_range(vm, vma.start, vma.npages)
    index = platform.index_of(vm)
    recorded = platform._quiescent[vm.id][(vma.start, vma.npages)]
    gpn = vm.translate(vma.start)
    platform.host.unmap_range(vm.id, gpn, 1)
    assert index.invalidation_gen != recorded
    before = platform.host.ledger.count("base_fault")
    platform.touch_range(vm, vma.start, vma.npages)
    assert platform.host.ledger.count("base_fault") == before + 1
    assert platform.host.translate(vm.id, gpn) is not None
    # The repaired range becomes quiescent again under the new generation.
    platform.touch_range(vm, vma.start, vma.npages)
    assert (
        platform._quiescent[vm.id][(vma.start, vma.npages)]
        == index.invalidation_gen
    )


def test_host_demote_preserves_quiescence_and_correctness():
    platform = make_platform(host_policy=HostHugePolicy())
    vm, vma = touched_vm(platform)
    platform.touch_range(vm, vma.start, vma.npages)
    gpregion = vm.translate(vma.start) // PAGES_PER_HUGE
    assert platform.ept(vm).is_huge(gpregion)
    platform.host.demote(vm.id, gpregion)
    guest_sync = dict(vm.guest.ledger.sync)
    host_sync = dict(platform.host.ledger.sync)
    platform.touch_range(vm, vma.start, vma.npages)
    # Demotion keeps every translation alive, so the cached skip stays
    # valid — and a full walk with the cache dropped agrees: it faults
    # nothing at either layer.
    assert platform._quiescent[vm.id][(vma.start, vma.npages)] == (
        platform.index_of(vm).invalidation_gen
    )
    platform._quiescent.clear()
    platform.touch_range(vm, vma.start, vma.npages)
    assert dict(vm.guest.ledger.sync) == guest_sync
    assert dict(platform.host.ledger.sync) == host_sync
    for vpn in range(vma.start, vma.end):
        assert platform.host.translate(vm.id, vm.translate(vpn)) is not None


def test_noise_hook_without_horizon_bypasses_cache():
    platform = make_platform()
    vm, vma = touched_vm(platform)
    platform.touch_range(vm, vma.start, vma.npages)
    assert platform._quiescent[vm.id]
    calls = []
    platform.fault_hook = lambda victim: calls.append(victim)
    # A foreign fault hook with no act horizon forces the per-page path:
    # the cache must be neither consulted nor extended.
    index = platform.index_of(vm)
    arm = index.region_translated
    index.region_translated = lambda vregion: arm(vregion)
    vma2 = vm.mmap(8, "noise-probe")
    platform.touch_range(vm, vma2.start, vma2.npages)
    assert calls  # the hook really ran on the faults
    assert (vma2.start, vma2.npages) not in platform._quiescent[vm.id]


def test_detach_vm_clears_cache():
    platform = make_platform()
    vm, vma = touched_vm(platform)
    platform.touch_range(vm, vma.start, vma.npages)
    assert vm.id in platform._quiescent
    platform.detach_vm(vm)
    assert vm.id not in platform._quiescent
