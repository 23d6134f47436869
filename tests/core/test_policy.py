"""Unit tests for Gemini's per-layer policies."""

import pytest

from repro.core.booking import BookingTable, TimeoutController
from repro.core.bucket import HugeBucket
from repro.core.policy import GeminiGuestPolicy, GeminiHostPolicy
from repro.hypervisor.platform import Platform
from repro.mem.layout import PAGES_PER_HUGE
from repro.os.mm import PROCESS
from repro.policies.base import EpochTelemetry


def make_vm(guest_policy):
    platform = Platform(128 * PAGES_PER_HUGE, GeminiHostPolicy())
    vm = platform.create_vm(32 * PAGES_PER_HUGE, guest_policy)
    return platform, vm


def bind_components(vm, policy):
    controller = TimeoutController(initial=8.0, period=2)
    booking = BookingTable(vm.guest, controller)
    bucket = HugeBucket(vm.guest)
    policy.bind(booking, bucket)
    return booking, bucket


def test_guest_huge_fault_prefers_booked_region():
    policy = GeminiGuestPolicy()
    platform, vm = make_vm(policy)
    booking, _bucket = bind_components(vm, policy)
    booking.book(5, now=0.0)
    vma = vm.mmap(PAGES_PER_HUGE, "arr")
    platform.touch(vm, vma.start)
    table = vm.table()
    vregion = vma.start // PAGES_PER_HUGE
    assert table.is_huge(vregion)
    assert table.huge_target(vregion) == 5  # the booked region


def test_guest_huge_fault_from_bucket():
    policy = GeminiGuestPolicy()
    platform, vm = make_vm(policy)
    _booking, bucket = bind_components(vm, policy)
    vm.gpa_space.alloc_range(7 * PAGES_PER_HUGE, PAGES_PER_HUGE)
    bucket.offer(7)
    vma = vm.mmap(PAGES_PER_HUGE, "arr")
    platform.touch(vm, vma.start)
    vregion = vma.start // PAGES_PER_HUGE
    assert vm.table().huge_target(vregion) == 7
    assert bucket.reused_total == 1


def test_guest_ema_places_aligned_offsets():
    policy = GeminiGuestPolicy()
    platform, vm = make_vm(policy)
    bind_components(vm, policy)
    policy.sync_fault_budget = 0  # force the base-page path
    vma = vm.mmap(2 * PAGES_PER_HUGE, "arr")
    for offset in range(20):
        platform.touch(vm, vma.start + offset)
    for offset in range(20):
        gpn = vm.translate(vma.start + offset)
        assert gpn % PAGES_PER_HUGE == (vma.start + offset) % PAGES_PER_HUGE


def test_guest_ema_fills_booked_region_page_by_page():
    policy = GeminiGuestPolicy()
    platform, vm = make_vm(policy)
    booking, _bucket = bind_components(vm, policy)
    policy.sync_fault_budget = 0
    booking.book(0, now=0.0)  # book the lowest region: the anchor target
    vma = vm.mmap(PAGES_PER_HUGE, "arr")
    platform.touch(vm, vma.start)
    gpn = vm.translate(vma.start)
    assert gpn // PAGES_PER_HUGE == 0  # landed inside the booked region


def test_guest_aligned_free_goes_to_bucket():
    policy = GeminiGuestPolicy()
    platform, vm = make_vm(policy)
    booking, bucket = bind_components(vm, policy)
    booking.book(5, now=0.0)
    vma = vm.mmap(PAGES_PER_HUGE, "arr")
    platform.touch(vm, vma.start)
    # Back the guest huge page with a huge EPT entry -> well-aligned.
    ept = platform.ept(vm.id)
    gpregion = vm.table().huge_target(vma.start // PAGES_PER_HUGE)
    if not ept.is_huge(gpregion):
        for gpn in list(dict(ept.base_mappings())):
            hpn = ept.unmap_base(gpn)
            platform.memory.free(hpn, 0)
        ept.map_huge(gpregion, platform.host.alloc_huge_region())
    vm.munmap("arr")
    assert gpregion in bucket
    assert bucket.offered_total == 1


def test_guest_pressure_releases_reserved_memory():
    policy = GeminiGuestPolicy()
    platform, vm = make_vm(policy)
    booking, bucket = bind_components(vm, policy)
    booking.book(3, now=0.0)
    vm.gpa_space.alloc_range(9 * PAGES_PER_HUGE, PAGES_PER_HUGE)
    bucket.offer(9)
    released = policy.on_pressure()
    assert released == 2 * PAGES_PER_HUGE
    assert len(booking) == 0
    assert len(bucket) == 0


def test_guest_prealloc_promote_fills_missing_tail():
    policy = GeminiGuestPolicy(prealloc_threshold=256)
    platform, vm = make_vm(policy)
    bind_components(vm, policy)
    policy.sync_fault_budget = 0
    policy.on_epoch(EpochTelemetry(0, 0.0, fmfi=0.1))  # low fragmentation
    vma = vm.mmap(PAGES_PER_HUGE, "arr")
    touched = PAGES_PER_HUGE - 30
    for offset in range(touched):
        platform.touch(vm, vma.start + offset)
    vregion = vma.start // PAGES_PER_HUGE
    assert policy._promote(PROCESS, vregion)
    assert vm.table().is_huge(vregion)
    assert policy.preallocated_pages == 30


def test_guest_prealloc_blocked_by_fragmentation():
    policy = GeminiGuestPolicy(prealloc_threshold=256)
    platform, vm = make_vm(policy)
    bind_components(vm, policy)
    policy.sync_fault_budget = 0
    policy.on_epoch(EpochTelemetry(0, 0.0, fmfi=0.9))  # FMFI gate closed
    vma = vm.mmap(PAGES_PER_HUGE, "arr")
    for offset in range(PAGES_PER_HUGE - 30):
        platform.touch(vm, vma.start + offset)
    assert not policy._try_prealloc_promote(PROCESS, vma.start // PAGES_PER_HUGE)


def map_pages(vm, vregion, pages):
    """Map (offset, physical region) pages of *vregion* in list order, each
    at its own offset inside its physical region."""
    table = vm.table()
    for offset, pregion in pages:
        table.map_base(
            vregion * PAGES_PER_HUGE + offset, pregion * PAGES_PER_HUGE + offset
        )
    return table


def test_majority_region_tie_goes_to_the_first_mapped_page():
    policy = GeminiGuestPolicy()
    _platform, vm = make_vm(policy)
    # Region 3's pages sit at higher offsets, so vpn order would pick 7.
    in_3 = [(10 + i, 3) for i in range(10)]
    in_7 = [(i, 7) for i in range(10)]
    map_pages(vm, 4, in_3 + in_7)
    map_pages(vm, 5, in_7 + in_3)
    assert policy._majority_region(PROCESS, 4) == 3
    assert policy._majority_region(PROCESS, 5) == 7


def test_majority_region_tie_follows_remapping():
    policy = GeminiGuestPolicy()
    _platform, vm = make_vm(policy)
    interleaved = [(i, 3 if i % 2 == 0 else 7) for i in range(20)]
    table = map_pages(vm, 4, interleaved)
    assert policy._majority_region(PROCESS, 4) == 3
    # Unmapped and mapped again, the first page moves behind region 7's.
    vpn = 4 * PAGES_PER_HUGE
    table.map_base(vpn, table.unmap_base(vpn))
    assert policy._majority_region(PROCESS, 4) == 7


def test_majority_region_majority_beats_mapping_order():
    policy = GeminiGuestPolicy()
    _platform, vm = make_vm(policy)
    map_pages(vm, 4, [(i, 7) for i in range(9)] + [(9 + i, 3) for i in range(11)])
    assert policy._majority_region(PROCESS, 4) == 3


def test_guest_holds_back_when_host_cannot_align():
    policy = GeminiGuestPolicy()
    platform, vm = make_vm(policy)
    bind_components(vm, policy)
    policy.sync_fault_budget = 0
    vma = vm.mmap(PAGES_PER_HUGE, "arr")
    for offset in range(PAGES_PER_HUGE):
        platform.touch(vm, vma.start + offset)
    vregion = vma.start // PAGES_PER_HUGE
    policy.host_can_align = False  # host out of huge-page capacity
    assert not policy._promote(PROCESS, vregion)
    assert not vm.table().is_huge(vregion)
    policy.host_can_align = True
    assert policy._promote(PROCESS, vregion)


def test_host_huge_fault_only_for_booked_purposes():
    host_policy = GeminiHostPolicy()
    platform = Platform(128 * PAGES_PER_HUGE, host_policy)
    vm = platform.create_vm(32 * PAGES_PER_HUGE, GeminiGuestPolicy())
    controller = TimeoutController()
    host_booking = BookingTable(platform.host, controller)
    host_policy.bind(host_booking)
    assert not host_policy.wants_huge_fault(vm.id, 3)
    candidate = platform.host.alloc_huge_region()
    platform.memory.free_range(candidate * PAGES_PER_HUGE, PAGES_PER_HUGE)
    host_booking.book(candidate, now=0.0, purpose=(vm.id, 3))
    assert host_policy.wants_huge_fault(vm.id, 3)
    assert host_policy.alloc_huge_region(vm.id, 3) == candidate


def test_host_candidates_filtered_by_liveness_and_alignability():
    host_policy = GeminiHostPolicy()
    platform = Platform(128 * PAGES_PER_HUGE, host_policy)
    vm = platform.create_vm(32 * PAGES_PER_HUGE, GeminiGuestPolicy())
    # Populate two EPT regions fully.
    for gpn in range(2 * PAGES_PER_HUGE):
        platform.host.fault(vm.id, gpn, full_region=False)
    assert len(host_policy._candidates()) == 2
    host_policy.live_regions = {vm.id: {0}}
    assert [c[1] for c in host_policy._candidates()] == [0]
    host_policy.guest_alignable = lambda client, vregion: False
    assert host_policy._candidates() == []


def test_ablated_policy_uses_default_placement():
    policy = GeminiGuestPolicy()
    platform, vm = make_vm(policy)
    policy.bind(None, None)  # EMA/HB and bucket ablated
    assert policy.choose_base_frames(PROCESS, 0, 300) == (None, 300)
    assert not policy.wants_huge_fault(PROCESS, 99)  # no reserved regions
    assert policy.on_pressure() == 0
