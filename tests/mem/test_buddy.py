"""Unit tests for the binary buddy allocator."""

import pytest

from repro.mem.buddy import AllocationError, BuddyAllocator, _decompose
from repro.mem.layout import MAX_ORDER


def make(pages=4096, base=0):
    return BuddyAllocator(pages, base=base)


def test_initial_state_all_free():
    buddy = make(4096)
    assert buddy.free_pages == 4096
    assert list(buddy.free_blocks()) == [(0, MAX_ORDER), (1 << MAX_ORDER, MAX_ORDER)]


def test_rejects_bad_construction():
    with pytest.raises(ValueError):
        BuddyAllocator(0)
    with pytest.raises(ValueError):
        BuddyAllocator(16, base=-1)


def test_alloc_order0_returns_lowest_frame():
    buddy = make()
    assert buddy.alloc(0) == 0
    assert buddy.alloc(0) == 1
    assert buddy.free_pages == 4094


def test_alloc_returns_aligned_blocks():
    buddy = make()
    for order in range(MAX_ORDER + 1):
        frame = buddy.alloc(order)
        assert frame % (1 << order) == 0


def test_alloc_exhaustion_raises():
    buddy = make(16)
    for _ in range(16):
        buddy.alloc(0)
    with pytest.raises(AllocationError):
        buddy.alloc(0)


def test_alloc_too_large_order_rejected():
    buddy = make(16)
    with pytest.raises(ValueError):
        buddy.alloc(MAX_ORDER + 1)


def test_free_merges_buddies_back_to_max_order():
    buddy = make(2048)
    frames = [buddy.alloc(0) for _ in range(2048)]
    assert buddy.free_pages == 0
    for frame in frames:
        buddy.free(frame, 0)
    assert buddy.free_pages == 2048
    assert list(buddy.free_blocks()) == [(0, MAX_ORDER)]


def test_free_does_not_merge_across_unallocated_hole():
    buddy = make(4)
    a = buddy.alloc(0)  # frame 0
    b = buddy.alloc(0)  # frame 1
    buddy.alloc(0)      # frame 2 stays allocated
    buddy.free(a, 0)
    buddy.free(b, 0)
    # frames 0-1 merge to order 1, frame 3 stays order 0.
    assert list(buddy.free_blocks()) == [(3, 0), (0, 1)]


def test_double_free_detected():
    buddy = make(16)
    frame = buddy.alloc(0)
    buddy.free(frame, 0)
    with pytest.raises(ValueError):
        buddy.free(frame, 0)


def test_free_out_of_range_rejected():
    buddy = make(16)
    with pytest.raises(ValueError):
        buddy.free(16, 0)


def test_free_misaligned_rejected():
    buddy = make(16)
    with pytest.raises(ValueError):
        buddy.free(1, 1)


def test_alloc_at_claims_specific_block():
    buddy = make(2048)
    buddy.alloc_at(512, 9)
    assert not buddy.is_free(512)
    assert not buddy.is_free(1023)
    assert buddy.is_free(511)
    assert buddy.is_free(1024)
    assert buddy.free_pages == 2048 - 512


def test_alloc_at_conflict_raises():
    buddy = make(2048)
    buddy.alloc_at(512, 0)
    with pytest.raises(AllocationError):
        buddy.alloc_at(512, 9)
    # Nothing extra was allocated by the failed attempt.
    assert buddy.free_pages == 2047


def test_alloc_at_misaligned_rejected():
    buddy = make(2048)
    with pytest.raises(ValueError):
        buddy.alloc_at(3, 1)


def test_alloc_range_and_free_range_roundtrip():
    buddy = make(4096)
    buddy.alloc_range(100, 300)
    assert buddy.free_pages == 4096 - 300
    assert not buddy.is_free(100)
    assert not buddy.is_free(399)
    assert buddy.is_free(99)
    assert buddy.is_free(400)
    buddy.free_range(100, 300)
    assert buddy.free_pages == 4096
    assert list(buddy.free_blocks()) == [(0, MAX_ORDER), (1 << MAX_ORDER, MAX_ORDER)]


def test_alloc_range_partial_conflict_is_atomic():
    buddy = make(4096)
    buddy.alloc_at(200, 0)
    with pytest.raises(AllocationError):
        buddy.alloc_range(100, 300)
    # The failed call must not leak partial allocations.
    assert buddy.free_pages == 4095


def test_range_is_free():
    buddy = make(1024)
    assert buddy.range_is_free(0, 1024)
    assert not buddy.range_is_free(0, 1025)
    assert not buddy.range_is_free(0, 0)
    buddy.alloc_at(17, 0)
    assert not buddy.range_is_free(0, 32)
    assert buddy.range_is_free(0, 17)
    assert buddy.range_is_free(18, 100)


def test_free_regions_merges_adjacent_blocks():
    buddy = make(2048)
    # Pin one page in the middle: free space is two regions.
    buddy.alloc_at(1000, 0)
    regions = buddy.free_regions()
    assert regions == [(0, 1000), (1001, 1047)]


def test_free_pages_at_or_above():
    buddy = make(1024)
    assert buddy.free_pages_at_or_above(9) == 1024
    buddy.alloc_at(256, 0)  # destroys first order-9/10 structure
    assert buddy.free_pages_at_or_above(9) == 512
    assert buddy.free_pages_at_or_above(0) == 1023


def test_nonzero_base_allocations():
    buddy = make(1024, base=4096)
    frame = buddy.alloc(0)
    assert frame == 4096
    buddy.free(frame, 0)
    assert buddy.free_pages == 1024
    with pytest.raises(ValueError):
        buddy.free(0, 0)


def test_unaligned_total_seeds_maximal_blocks():
    buddy = BuddyAllocator(1000)
    assert buddy.free_pages == 1000
    # 1000 = 512 + 256 + 128 + 64 + 32 + 8
    sizes = sorted(1 << o for _, o in buddy.free_blocks())
    assert sum(sizes) == 1000


def test_decompose_covers_exact_range():
    blocks = list(_decompose(100, 300))
    covered = []
    for start, order in blocks:
        assert start % (1 << order) == 0
        covered.extend(range(start, start + (1 << order)))
    assert covered == list(range(100, 400))


def test_free_blocks_empty_when_exhausted():
    buddy = make(1)
    assert list(buddy.free_blocks()) == [(0, 0)]
    buddy.alloc(0)
    assert list(buddy.free_blocks()) == []
