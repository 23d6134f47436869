"""Unit tests for the contiguity list and offset placer."""

from repro.mem.layout import PAGES_PER_HUGE
from repro.mem.physmem import PhysicalMemory
from repro.os.mm import MemoryLayer
from repro.policies.base import HugePagePolicy
from repro.policies.placement import ContiguityList, OffsetPlacer


def make_layer(regions=16):
    memory = PhysicalMemory(regions * PAGES_PER_HUGE)
    return MemoryLayer("test", memory, HugePagePolicy())


def whole_space(vstart, vend):
    def range_of(client, vpn):
        return (vstart, vend) if vstart <= vpn < vend else None

    return range_of


def test_contiguity_list_finds_fitting_region():
    layer = make_layer()
    clist = ContiguityList(layer)
    start = clist.find(span=PAGES_PER_HUGE, huge_aligned=True)
    assert start == 0


def test_contiguity_list_skips_unaligned_heads():
    layer = make_layer(regions=4)
    # Pin page 0: the first free region starts at 1 (unaligned).
    layer.memory.alloc_at(0, 0)
    clist = ContiguityList(layer)
    start = clist.find(span=PAGES_PER_HUGE, huge_aligned=True)
    assert start == PAGES_PER_HUGE


def test_contiguity_list_falls_back_to_largest():
    layer = make_layer(regions=4)
    # Fragment: pin middles so no region fits 4 huge pages contiguously.
    layer.memory.alloc_at(PAGES_PER_HUGE + 256, 0)
    clist = ContiguityList(layer)
    start = clist.find(span=4 * PAGES_PER_HUGE, huge_aligned=True)
    # Largest remaining aligned region starts at region 2.
    assert start == 2 * PAGES_PER_HUGE


def test_contiguity_list_next_fit_cursor_advances():
    layer = make_layer(regions=16)
    clist = ContiguityList(layer)
    first = clist.find(span=PAGES_PER_HUGE, huge_aligned=True)
    layer.memory.alloc_range(first, PAGES_PER_HUGE)
    second = clist.find(span=PAGES_PER_HUGE, huge_aligned=True)
    assert second > first


def test_contiguity_list_returns_none_when_exhausted():
    layer = make_layer(regions=1)
    layer.memory.alloc_range(0, PAGES_PER_HUGE)
    clist = ContiguityList(layer)
    assert clist.find(1, huge_aligned=False) is None


def test_placer_aligned_offsets_give_promotable_layout():
    layer = make_layer()
    vstart = 3 * PAGES_PER_HUGE + 7  # deliberately odd virtual start region
    vend = vstart + 2 * PAGES_PER_HUGE
    placer = OffsetPlacer(layer, align_huge=True, range_of=whole_space(vstart, vend))
    frames = {}
    vpn = vstart
    while vpn < vend:
        frame, count = placer.place_run(0, vpn, vend - vpn)
        assert frame is not None
        frames.update((vpn + i, frame + i) for i in range(count))
        vpn += count
    # Huge-aligned offset: vpn and frame agree modulo the region size.
    for vpn, frame in frames.items():
        assert vpn % PAGES_PER_HUGE == frame % PAGES_PER_HUGE
    assert placer.anchors == 1
    assert placer.sub_vma_splits == 0


def test_placer_unaligned_mode_is_contiguous_not_aligned():
    layer = make_layer()
    layer.memory.alloc_at(0, 0)  # free space starts at frame 1
    vstart = PAGES_PER_HUGE + 17
    vend = vstart + PAGES_PER_HUGE
    placer = OffsetPlacer(layer, align_huge=False, range_of=whole_space(vstart, vend))
    first, count = placer.place_run(0, vstart, 2)
    assert first is not None and count == 2
    # CA-style anchor: offset is not huge-aligned.
    assert vstart % PAGES_PER_HUGE != first % PAGES_PER_HUGE


def test_placer_ignores_small_ranges():
    layer = make_layer()
    placer = OffsetPlacer(layer, align_huge=True, range_of=whole_space(0, 100))
    # The whole run takes the default allocator, and nothing is anchored.
    assert placer.place_run(0, 5, 10) == (None, 10)
    assert placer.place_run(0, 90, 50) == (None, 10)
    assert placer.anchors == 0


def test_placer_out_of_range_vpn():
    layer = make_layer()
    placer = OffsetPlacer(
        layer, align_huge=True, range_of=whole_space(0, 2 * PAGES_PER_HUGE)
    )
    assert placer.place_run(0, 10_000_000, 8) == (None, 1)


def test_placer_claims_a_run_in_one_call():
    layer = make_layer()
    placer = OffsetPlacer(
        layer, align_huge=True, range_of=whole_space(0, 4 * PAGES_PER_HUGE)
    )
    assert placer.place_run(0, 0, PAGES_PER_HUGE) == (0, PAGES_PER_HUGE)
    assert layer.memory.free_regions()[0][0] == PAGES_PER_HUGE
    assert placer.anchors == 1


def test_placer_run_stops_at_an_occupied_frame():
    layer = make_layer()
    placer = OffsetPlacer(
        layer, align_huge=True, range_of=whole_space(0, 4 * PAGES_PER_HUGE)
    )
    assert placer.place_run(0, 0, 1) == (0, 1)
    layer.memory.alloc_at(10, 0)
    assert placer.place_run(0, 1, 100) == (1, 9)
    # The occupied target itself is a miss: one page to the default.
    assert placer.place_run(0, 10, 100) == (None, 1)
    assert placer.place_run(0, 11, 100) == (11, 100)
    assert placer.anchors == 1 and placer.sub_vma_splits == 0


def test_placer_run_stops_at_its_descriptor_end():
    layer = make_layer()
    vend = 4 * PAGES_PER_HUGE
    placer = OffsetPlacer(layer, align_huge=True, range_of=whole_space(0, vend))
    placer.miss_tolerance = 0
    assert placer.place_run(0, 0, 1) == (0, 1)
    # A conflict at vpn 512 truncates the first descriptor to [0, 512).
    layer.memory.alloc_at(PAGES_PER_HUGE, 0)
    frame, _ = placer.place_run(0, PAGES_PER_HUGE, 1)
    assert frame != PAGES_PER_HUGE and placer.sub_vma_splits == 1
    assert placer.place_run(0, 100, vend) == (100, PAGES_PER_HUGE - 100)


def test_placer_tolerates_single_conflicts():
    """A transiently-occupied target defers to the default allocator
    without abandoning the descriptor."""
    layer = make_layer()
    vend = 4 * PAGES_PER_HUGE
    placer = OffsetPlacer(layer, align_huge=True, range_of=whole_space(0, vend))
    assert placer.place_run(0, 0, 1) == (0, 1)
    layer.memory.alloc_at(5, 0)  # occupy the target of vpn 5
    assert placer.place_run(0, 5, 1) == (None, 1)
    assert placer.sub_vma_splits == 0
    # The descriptor survives: the next vpn still lands on its target.
    assert placer.place_run(0, 6, 1) == (6, 1)


def test_placer_sub_vma_reanchors_on_persistent_conflict():
    layer = make_layer()
    vend = 4 * PAGES_PER_HUGE
    placer = OffsetPlacer(layer, align_huge=True, range_of=whole_space(0, vend))
    placer.miss_tolerance = 0  # re-anchor on the first conflict
    assert placer.place_run(0, 0, 1) == (0, 1)
    # Steal the frame vpn PAGES_PER_HUGE would map to, forcing a re-anchor.
    layer.memory.alloc_at(PAGES_PER_HUGE, 0)
    frame, count = placer.place_run(0, PAGES_PER_HUGE, 1)
    assert frame is not None and count == 1
    assert frame != PAGES_PER_HUGE
    assert placer.sub_vma_splits == 1
    # The new sub-VMA anchor still preserves huge alignment.
    assert frame % PAGES_PER_HUGE == 0


def test_placer_preferred_anchor_used_first():
    layer = make_layer()
    target_region = 7

    def preferred(client, vpn):
        return target_region

    placer = OffsetPlacer(
        layer,
        align_huge=True,
        range_of=whole_space(0, 2 * PAGES_PER_HUGE),
        preferred_anchor=preferred,
    )
    assert placer.place_run(0, 0, 1) == (target_region * PAGES_PER_HUGE, 1)


def test_placer_claim_hook_overrides_buddy():
    layer = make_layer()
    reserved = 5 * PAGES_PER_HUGE
    layer.memory.alloc_range(reserved, PAGES_PER_HUGE)  # booked elsewhere
    handed = []

    def claim(frame):
        if reserved <= frame < reserved + PAGES_PER_HUGE:
            handed.append(frame)
            return True
        return False

    placer = OffsetPlacer(
        layer,
        align_huge=True,
        range_of=whole_space(0, PAGES_PER_HUGE),
        preferred_anchor=lambda c, v: 5,
        claim_hook=claim,
    )
    assert placer.place_run(0, 0, 3) == (reserved, 3)
    assert handed == [reserved, reserved + 1, reserved + 2]


def test_placer_drop_client_forgets_descriptors():
    layer = make_layer()
    placer = OffsetPlacer(
        layer, align_huge=True, range_of=whole_space(0, 2 * PAGES_PER_HUGE)
    )
    placer.place_run(0, 0, 1)
    placer.drop_client(0, 0, 2 * PAGES_PER_HUGE)
    assert placer._descriptors == []


def test_placer_move_to_front_lookup():
    layer = make_layer(regions=64)
    ranges = {
        0: (0, 2 * PAGES_PER_HUGE),
        1: (4 * PAGES_PER_HUGE, 6 * PAGES_PER_HUGE),
    }

    def range_of(client, vpn):
        lo, hi = ranges[client]
        return (lo, hi) if lo <= vpn < hi else None

    placer = OffsetPlacer(layer, align_huge=True, range_of=range_of)
    placer.place_run(0, 0, 1)
    placer.place_run(1, 4 * PAGES_PER_HUGE, 1)
    assert placer._descriptors[0].client == 1
    placer.place_run(0, 1, 1)
    assert placer._descriptors[0].client == 0
