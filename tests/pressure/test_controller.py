"""Unit tests for the pressure controller's escalation ladder.

The harness builds a small host whose EPT backing shape is controlled
directly: a host-huge policy makes every fault a huge mapping, and the
guest policy decides whether a guest huge page sits on top (well-aligned)
or not (misaligned).  Pressure comes from touching guest VMAs until host
free memory sits between the watermarks.
"""

import pytest

from repro.hypervisor.platform import Platform
from repro.mem.layout import PAGES_PER_HUGE
from repro.os.mm import PROCESS
from repro.policies.base import HugePagePolicy
from repro.pressure import PressureConfig, PressureController
from repro.pressure.victims import BACKING_BASE, VictimCandidate
from repro.tlb import costs


class Huge(HugePagePolicy):
    name = "always-huge"

    def wants_huge_fault(self, client, vregion):
        return True


def make_config(**overrides):
    """Swap-only ladder by default: balloon and KSM rungs off so each
    test isolates the rung it cares about; zero jitter for exact costs."""
    base = dict(
        enabled=True,
        balloon_cap=0.0,
        ksm_budget=0,
        swap_jitter=0.0,
        seed=3,
    )
    base.update(overrides)
    return PressureConfig(**base)


def make_host(host_regions=16, guests=(True, True), host_huge=True):
    """A host with one VM per entry of *guests* (True = guest-huge, so
    its backing is well-aligned; False = guest-base, so misaligned)."""
    host_policy = Huge() if host_huge else HugePagePolicy()
    platform = Platform(host_regions * PAGES_PER_HUGE, host_policy)
    vms = []
    for guest_huge in guests:
        guest_policy = Huge() if guest_huge else HugePagePolicy()
        vms.append(platform.create_vm(8 * PAGES_PER_HUGE, guest_policy))
    return platform, vms


def touch(platform, vm, regions):
    vma = vm.mmap(regions * PAGES_PER_HUGE, "heap")
    platform.touch_vma(vm, vma)
    return vma


def pressured_host(config=None):
    """16-region host at 512 free pages (6.25% — between the default
    critical and low watermarks) with all backing well-aligned."""
    platform, (vm_a, vm_b) = make_host()
    controller = PressureController(platform, config or make_config())
    vma_a = touch(platform, vm_a, 7)
    touch(platform, vm_b, 8)
    assert platform.memory.free_pages == PAGES_PER_HUGE
    return platform, controller, (vm_a, vm_b), vma_a


def test_disabled_controller_is_inert():
    platform, _ = make_host()
    controller = PressureController(platform, PressureConfig())
    controller.run(0)
    assert controller.pressured_epochs == 0
    assert controller._emergency_reclaim(512) == 0
    assert controller.device.pages_out == 0


def test_no_action_above_low_watermark():
    platform, (vm_a, _) = make_host()
    controller = PressureController(platform, make_config())
    touch(platform, vm_a, 4)  # 12 of 16 regions free
    controller.run(0)
    assert controller.pressured_epochs == 0
    assert controller.device.pages_out == 0


def test_ladder_engages_below_low_watermark():
    platform, controller, _, _ = pressured_host()
    target = int(controller.config.watermark_high * platform.memory.total_pages)
    controller.run(0)
    assert controller.pressured_epochs == 1
    assert controller.device.pages_out > 0
    assert platform.memory.free_pages >= target
    # Swapping well-aligned regions demotes their huge EPT entries.
    assert controller.swap_demotions > 0
    assert controller.swap_aligned_demotions == controller.swap_demotions
    # Swap-outs are background host work, priced exactly at zero jitter.
    charge = platform.host.ledger.background["swap_out"]
    assert charge.count == controller.device.pages_out
    assert charge.cycles == pytest.approx(
        charge.count * costs.SWAP_OUT_CYCLES
    )


def test_swapped_pages_leave_the_ept():
    platform, controller, (vm_a, vm_b), _ = pressured_host()
    controller.run(0)
    for vm in (vm_a, vm_b):
        ept = platform.ept(vm.id)
        for gpn in controller.device.swapped(vm.id):
            assert ept.translate(gpn) is None


def test_demand_swap_in_charged_to_tenant():
    platform, controller, (vm_a, _), vma_a = pressured_host()
    controller.run(0)
    swapped = controller.device.swapped(vm_a.id)
    assert swapped, "the lowest vm id should be evicted first"
    # The guest re-touches its VMA: swapped pages demand-fault back in.
    platform.touch_vma(vm_a, vma_a)
    controller.run(1)
    assert controller.device.pages_in >= len(swapped)
    charge = vm_a.guest.ledger.sync["swap_in"]
    assert charge.count == controller.device.pages_in
    assert charge.cycles == pytest.approx(
        charge.count * costs.SWAP_IN_CYCLES
    )


def test_page_conservation_across_out_and_in():
    platform, controller, (vm_a, vm_b), vma_a = pressured_host()
    for epoch in range(4):
        platform.touch_vma(vm_a, vma_a)
        controller.run(epoch)
    device = controller.device
    # After each epoch's reconcile pass, no page is simultaneously
    # EPT-resident and on the device, and the device's slot population
    # matches its traffic history exactly.
    for vm in (vm_a, vm_b):
        ept = platform.ept(vm.id)
        for gpn in device.swapped(vm.id):
            assert ept.translate(gpn) is None
    assert device.pages_out - device.pages_in == device.total_swapped


def test_alignment_aware_spares_aligned_lru_does_not():
    outcomes = {}
    for policy in ("lru-cold", "alignment-aware"):
        # vm_a's backing is well-aligned, vm_b's is misaligned; identical
        # cold heat, identical deficit.
        platform, (vm_a, vm_b) = make_host(guests=(True, False))
        controller = PressureController(
            platform, make_config(victim_policy=policy)
        )
        touch(platform, vm_a, 8)
        touch(platform, vm_b, 7)
        assert platform.memory.free_pages == PAGES_PER_HUGE
        controller.run(0)
        outcomes[policy] = (controller, vm_a.id, vm_b.id)
    aware, aware_a, aware_b = outcomes["alignment-aware"]
    lru, lru_a, _ = outcomes["lru-cold"]
    # Both reclaimed past the watermark...
    assert aware.device.pages_out == lru.device.pages_out > 0
    # ...but lru-cold ate the well-aligned VM (lowest id at equal heat)
    # while the paper's rule evicted the misaligned backing instead.
    assert lru.swap_aligned_demotions > 0
    assert lru.device.swapped(lru_a)
    assert aware.swap_aligned_demotions == 0
    assert aware.device.swapped(aware_a) == []
    assert aware.device.swapped(aware_b)


def test_hot_aligned_backing_withheld_until_critical():
    def run_once(config):
        platform, controller, (vm_a, vm_b), _ = pressured_host(config)
        for vm in (vm_a, vm_b):
            regions = {
                gpregion
                for gpregion, _ in platform.ept(vm.id).huge_mappings()
            }
            controller.wse.log_dirty_regions(vm.id, regions, epoch=0)
        controller.run(0)
        return controller

    # 6.25% free is above the default critical watermark: every candidate
    # is well-aligned and hot, so the aware policy refuses to swap.
    withheld = run_once(make_config())
    assert withheld.pressured_epochs == 1
    assert withheld.device.pages_out == 0
    # Raising the critical watermark above 6.25% makes the same state
    # critical; the last-resort rung engages and demotes hot aligned.
    critical = run_once(make_config(watermark_critical=0.10))
    assert critical.device.pages_out > 0
    assert critical.swap_aligned_demotions > 0


def test_emergency_reclaim_rescues_failing_allocation():
    platform, (vm_a, vm_b) = make_host(
        guests=(False, False), host_huge=False
    )
    controller = PressureController(platform, make_config())
    touch(platform, vm_a, 8)
    touch(platform, vm_b, 8)
    assert platform.memory.free_pages == 0
    # A third tenant faults in with zero free memory: without the
    # emergency hook this raises OutOfMemory.
    vm_c = platform.create_vm(8 * PAGES_PER_HUGE, HugePagePolicy())
    touch(platform, vm_c, 2)
    assert controller.emergency_reclaims >= 1
    assert controller.device.pages_out >= 2 * PAGES_PER_HUGE
    # The new tenant is fully resident; victims came from the old ones.
    ept = platform.ept(vm_c.id)
    assert sum(1 for _ in ept.base_mappings()) == 2 * PAGES_PER_HUGE
    assert controller.device.swapped(vm_c.id) == []


def test_forget_vm_drops_swap_and_heat_state():
    platform, controller, (vm_a, _), _ = pressured_host()
    controller.run(0)
    assert controller.device.swapped(vm_a.id)
    controller.forget_vm(vm_a.id)
    assert controller.device.swapped(vm_a.id) == []
    assert controller.wse.heat(vm_a.id, 0, 0) == 0.0
    platform.detach_vm(vm_a.id)
    controller.run(1)  # must not trip over the departed VM


def test_balloon_rung_inflates_then_deflates():
    config = make_config(balloon_cap=0.25, balloon_step=512, swap_batch=0)
    platform, (vm_a, vm_b) = make_host()
    controller = PressureController(platform, config)
    touch(platform, vm_a, 7)  # guest keeps 1 region free to balloon
    touch(platform, vm_b, 8)
    controller.run(0)
    assert controller.ballooned_pages > 0
    assert controller.device.pages_out == 0  # swap rung was off
    # Pressure lifts (a tenant departs): the controller hands the
    # ballooned pages back above the high watermark.
    controller.forget_vm(vm_b.id)
    platform.detach_vm(vm_b.id)
    controller.run(1)
    assert controller.ballooned_pages == 0


def test_pressure_signal_tracks_watermarks():
    platform, (vm_a, vm_b) = make_host()
    controller = PressureController(platform, make_config())
    assert controller.pressure_signal() == 0.0
    touch(platform, vm_a, 7)
    touch(platform, vm_b, 8)  # 6.25% free, between critical and low
    assert 0.0 < controller.pressure_signal() < 1.0
    assert controller.pressure_signal() == pytest.approx(
        (0.12 - 0.0625) / (0.12 - 0.04)
    )


def reference_swap_out_region(controller, candidate):
    """The region evicted one page at a time, in ascending gpn order."""
    platform, device = controller.platform, controller.device
    host, vm_id, gpregion = platform.host, candidate.vm_id, candidate.gpregion
    ept = platform.ept(vm_id)
    demoted = 0
    if ept.is_huge(gpregion):
        host.demote(vm_id, gpregion)
        demoted = 1
    vm = platform.vms[vm_id]
    freed = 0
    cycles = 0.0
    for gpn in range(gpregion * PAGES_PER_HUGE, (gpregion + 1) * PAGES_PER_HUGE):
        hpn = ept.translate(gpn)
        if hpn is None:
            continue
        if device.contains(vm_id, gpn):
            vm.guest.ledger.charge("swap_in", device.swap_in(vm_id, gpn))
        ept.unmap_base(gpn)
        host._drop_rmap(hpn, vm_id, gpn)
        host.release_frame(hpn)
        cycles += device.swap_out(vm_id, gpn)
        freed += 1
    if freed:
        host.ledger.charge("swap_out", cycles, count=freed, sync=False)
    return freed, demoted


def swap_twin(refault_huge):
    """One guest-base VM whose gpa region 3 was backed out of address
    order, swapped out, and partly faulted back in (pending swap-ins)
    with new pages beside them."""
    platform, (vm,) = make_host(guests=(False,), host_huge=refault_huge)
    controller = PressureController(platform, make_config(swap_jitter=0.3))
    host, base = platform.host, 3 * PAGES_PER_HUGE
    for gpn in [*range(base + 400, base + 460), *range(base + 120, base + 10, -1)]:
        host.fault(vm.id, gpn, full_region=False)
    candidate = VictimCandidate(
        vm_id=vm.id, gpregion=3, backing=BACKING_BASE, heat=0.0, hot=False,
        backed_pages=170,
    )
    controller._swap_out_region(candidate)
    refaults = [base + 430, *range(base + 50, base + 20, -2), base + 300, base + 401]
    for gpn in refaults:
        host.fault(vm.id, gpn, full_region=refault_huge)
    return platform, vm, controller, candidate


def swap_state(platform, vm, controller):
    device = controller.device
    host = platform.host
    return {
        "slots": {vm_id: sorted(slots) for vm_id, slots in device._slots.items()},
        "traffic": (device.pages_out, device.pages_in),
        "next_draw": device._rng.random(),
        "swap_out": (host.ledger.count("swap_out"), host.ledger.cycles("swap_out")),
        "swap_in": (
            vm.guest.ledger.count("swap_in"), vm.guest.ledger.cycles("swap_in")
        ),
        "host_free": platform.memory.free_regions(),
        "host_blocks": list(platform.memory.nodes[0].free_blocks()),
        "base": list(platform.ept(vm.id).base_mappings()),
    }


@pytest.mark.parametrize("refault_huge", [False, True])
def test_swap_out_region_matches_page_by_page_reference(refault_huge):
    """Evicting a region in one unmap gives the page-by-page eviction's
    device traffic, latency draws, ledger sums and host allocator state,
    with pending swap-ins settled on the way out — also when the region
    was faulted back in as one huge page and must be demoted first."""
    platform, vm, controller, candidate = swap_twin(refault_huge)
    ref_platform, ref_vm, ref_controller, _ = swap_twin(refault_huge)
    assert controller.device.contains(vm.id, 3 * PAGES_PER_HUGE + 430)
    freed, demoted, _ = controller._swap_out_region(candidate)
    assert (freed, demoted) == reference_swap_out_region(ref_controller, candidate)
    assert freed == (PAGES_PER_HUGE if refault_huge else 18)
    assert swap_state(platform, vm, controller) == swap_state(
        ref_platform, ref_vm, ref_controller
    )
