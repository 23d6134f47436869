"""Property-based tests for buddy allocator invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.buddy import AllocationError, BuddyAllocator
from repro.mem.layout import MAX_ORDER, PAGES_PER_HUGE, huge_align_up

TOTAL = 2048


def free_space_invariants(buddy):
    """Free-list bookkeeping must agree with the free_pages counter, blocks
    must be aligned, in range, pairwise disjoint and canonical: no free
    block below MAX_ORDER has its same-order buddy free too (eager
    merging), which makes the free lists a function of the free set."""
    seen = set()
    total = 0
    blocks = set(buddy.free_blocks())
    for start, order in blocks:
        size = 1 << order
        assert start % size == 0
        assert buddy.base <= start
        assert start + size <= buddy.base + buddy.total_pages
        frames = set(range(start, start + size))
        assert not frames & seen, "overlapping free blocks"
        seen |= frames
        total += size
        if order < MAX_ORDER:
            assert (start ^ size, order) not in blocks, "unmerged buddies"
    assert total == buddy.free_pages


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=MAX_ORDER)),
        min_size=1,
        max_size=60,
    )
)
def test_random_alloc_free_preserves_invariants(ops):
    """Random interleavings of alloc/free keep the allocator consistent."""
    buddy = BuddyAllocator(TOTAL)
    live = []
    for is_alloc, order in ops:
        if is_alloc or not live:
            try:
                frame = buddy.alloc(order)
            except AllocationError:
                continue
            live.append((frame, order))
        else:
            frame, forder = live.pop()
            buddy.free(frame, forder)
    free_space_invariants(buddy)
    allocated = sum(1 << o for _, o in live)
    assert buddy.free_pages == TOTAL - allocated


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=MAX_ORDER), min_size=1, max_size=40
    )
)
def test_alloc_everything_then_free_restores_full_memory(orders):
    buddy = BuddyAllocator(TOTAL)
    live = []
    for order in orders:
        try:
            live.append((buddy.alloc(order), order))
        except AllocationError:
            pass
    for frame, order in live:
        buddy.free(frame, order)
    assert buddy.free_pages == TOTAL
    assert list(buddy.free_blocks()) == [(0, MAX_ORDER)]
    free_space_invariants(buddy)


@settings(max_examples=60, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=TOTAL - 1),
    npages=st.integers(min_value=1, max_value=TOTAL),
)
def test_alloc_range_free_range_roundtrip(start, npages):
    buddy = BuddyAllocator(TOTAL)
    if start + npages > TOTAL:
        with pytest.raises(AllocationError):
            buddy.alloc_range(start, npages)
        assert buddy.free_pages == TOTAL
        return
    buddy.alloc_range(start, npages)
    assert buddy.free_pages == TOTAL - npages
    for probe in (start, start + npages - 1):
        assert not buddy.is_free(probe)
    free_space_invariants(buddy)
    buddy.free_range(start, npages)
    assert buddy.free_pages == TOTAL
    free_space_invariants(buddy)


@settings(max_examples=40, deadline=None)
@given(
    pins=st.lists(
        st.integers(min_value=0, max_value=TOTAL - 1),
        min_size=1,
        max_size=30,
        unique=True,
    )
)
def test_free_regions_match_pinned_holes(pins):
    """free_regions must be exactly the complement of pinned frames."""
    buddy = BuddyAllocator(TOTAL)
    for pin in pins:
        buddy.alloc_at(pin, 0)
    regions = buddy.free_regions()
    free_frames = set()
    for rstart, rpages in regions:
        free_frames |= set(range(rstart, rstart + rpages))
    assert free_frames == set(range(TOTAL)) - set(pins)
    # Regions are sorted and maximal (separated by at least one pin).
    for (s1, n1), (s2, _) in zip(regions, regions[1:]):
        assert s1 + n1 < s2


def canonical_blocks(buddy):
    """The free-block decomposition, as a sorted list of (start, order)."""
    return sorted(buddy.free_blocks())


@settings(max_examples=60, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=TOTAL - 1),
    npages=st.integers(min_value=1, max_value=256),
)
def test_alloc_range_equals_per_frame_alloc_at(start, npages):
    """alloc_range must leave the exact free-block decomposition that
    claiming the same frames one at a time with alloc_at leaves: eager
    buddy merging makes the decomposition a pure function of the free set."""
    if start + npages > TOTAL:
        npages = TOTAL - start
    batched = BuddyAllocator(TOTAL)
    batched.alloc_range(start, npages)
    stepped = BuddyAllocator(TOTAL)
    for frame in range(start, start + npages):
        stepped.alloc_at(frame, 0)
    assert canonical_blocks(batched) == canonical_blocks(stepped)
    assert batched.free_pages == stepped.free_pages == TOTAL - npages


@settings(max_examples=60, deadline=None)
@given(
    ranges=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=TOTAL - 1),
            st.integers(min_value=1, max_value=128),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_free_range_merge_restores_canonical_decomposition(ranges):
    """Freeing everything that was claimed — in any order, range by range —
    must merge buddies all the way back to the initial decomposition."""
    buddy = BuddyAllocator(TOTAL)
    initial = canonical_blocks(buddy)
    claimed = []
    owned = set()
    for start, npages in ranges:
        npages = min(npages, TOTAL - start)
        if owned & set(range(start, start + npages)):
            continue
        try:
            buddy.alloc_range(start, npages)
        except AllocationError:
            continue
        claimed.append((start, npages))
        owned |= set(range(start, start + npages))
    for start, npages in reversed(claimed):
        buddy.free_range(start, npages)
    assert buddy.free_pages == TOTAL
    assert canonical_blocks(buddy) == initial
    free_space_invariants(buddy)


@settings(max_examples=40, deadline=None)
@given(
    pins=st.lists(
        st.integers(min_value=0, max_value=TOTAL - 1),
        min_size=0,
        max_size=24,
        unique=True,
    ),
    allocs=st.integers(min_value=1, max_value=16),
)
def test_alloc_order0_is_lowest_address_within_best_order(pins, allocs):
    """Order-0 allocation is deterministic: it serves the lowest-address
    block of the smallest free order (best fit, then address order)."""
    buddy = BuddyAllocator(TOTAL)
    for pin in pins:
        buddy.alloc_at(pin, 0)
    for _ in range(allocs):
        blocks = sorted(buddy.free_blocks())
        if not blocks:
            break
        best_order = min(order for _, order in blocks)
        expected = min(start for start, order in blocks if order == best_order)
        assert buddy.alloc(0) == expected


def expected_regions(owned):
    """Maximal free intervals recomputed from the ground-truth free set."""
    regions = []
    for frame in sorted(set(range(TOTAL)) - owned):
        if regions and regions[-1][0] + regions[-1][1] == frame:
            regions[-1] = (regions[-1][0], regions[-1][1] + 1)
        else:
            regions.append((frame, 1))
    return regions


def expected_aligned(regions):
    """Each region cut to its first huge-aligned frame, where at least one
    huge page is left."""
    cut = [(huge_align_up(s), s + n - huge_align_up(s)) for s, n in regions]
    return [(s, n) for s, n in cut if n >= PAGES_PER_HUGE]


def check_queries(buddy, owned):
    """Every free-interval query agrees with a recompute from *owned*."""
    expected = expected_regions(owned)
    assert buddy.free_regions() == expected
    assert buddy.aligned_free_regions() == expected_aligned(expected)
    assert buddy.max_free_region() == max(expected, key=lambda r: r[1], default=None)
    assert buddy.free_pages == TOTAL - len(owned)
    for rstart, rpages in expected:
        assert buddy.free_run_length(rstart, TOTAL) == rpages
        mid = rstart + rpages // 2
        assert buddy.free_run_length(mid, TOTAL) == rpages - rpages // 2
    for frame in sorted(owned)[::17]:
        assert buddy.free_run_length(frame, TOTAL) == 0
    free_space_invariants(buddy)


OPS = ("alloc", "alloc_at", "alloc_range", "alloc_frames",
       "free", "free_range", "free_frames")


def spans_of(frames):
    """Group frames in allocation order into contiguous (start, npages)."""
    spans = []
    for frame in frames:
        if spans and spans[-1][0] + spans[-1][1] == frame:
            spans[-1] = (spans[-1][0], spans[-1][1] + 1)
        else:
            spans.append((frame, 1))
    return spans


def claim(buddy, op, a, b):
    """Run claim *op*; the (start, npages) spans it took, or [] on refusal."""
    try:
        if op == "alloc":
            return [(buddy.alloc(b), 1 << b)]
        if op == "alloc_at":
            order = b % 5
            start = a - a % (1 << order)
            buddy.alloc_at(start, order)
            return [(start, 1 << order)]
        if op == "alloc_range":
            npages = min(b * 13 + 1, TOTAL - a)
            buddy.alloc_range(a, npages)
            return [(a, npages)]
    except AllocationError:
        return []
    count = min(b * 7 + 1, buddy.free_pages)
    return spans_of(buddy.alloc_frames(count)) if count else []


def release(buddy, op, start, npages):
    """Run release *op* on part of a live span; the frames it returned."""
    if op == "free":
        if npages & (npages - 1) == 0 and start % npages == 0:
            buddy.free(start, npages.bit_length() - 1)
            return range(start, start + npages)
        buddy.free(start, 0)
        return range(start, start + 1)
    if op == "free_range":
        buddy.free_range(start, npages)
    else:
        buddy.free_frames(list(range(start + npages - 1, start - 1, -1)))
    return range(start, start + npages)


def run_ops(buddy, ops, after_each=None):
    """Apply a mix of claims and releases; call *after_each(owned)* with
    the ground-truth allocated set after every operation."""
    owned: set[int] = set()
    live: list[tuple[int, int]] = []
    for op, a, b in ops:
        if op.startswith("alloc"):
            for start, npages in claim(buddy, op, a, b):
                span = set(range(start, start + npages))
                assert not span & owned
                owned |= span
                live.append((start, npages))
        elif live:
            start, npages = live.pop(a % len(live))
            freed = release(buddy, op, start, npages)
            owned -= set(freed)
            if len(freed) < npages:
                live.append((start + len(freed), npages - len(freed)))
        if after_each is not None:
            after_each(owned)


MIXED_OPS = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(min_value=0, max_value=TOTAL - 1),
        st.integers(min_value=0, max_value=MAX_ORDER),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=MIXED_OPS)
def test_region_index_consistent_with_free_blocks(ops):
    """The incremental region index (free_regions, aligned regions, run
    lengths, max region, free page count) agrees with a recompute from the
    ground-truth free set after every operation of a random mix of every
    claim and release, however many buddy splits or merges it made."""
    buddy = BuddyAllocator(TOTAL)
    run_ops(buddy, ops, lambda owned: check_queries(buddy, owned))


@settings(max_examples=60, deadline=None)
@given(ops=MIXED_OPS)
def test_alloc_at_every_order_takes_lowest_block_of_smallest_fit(ops):
    """After any mix of claims and releases, alloc(order) for each order
    in turn serves the lowest start among the free blocks of the smallest
    order >= *order* (Linux's __rmqueue_smallest), or raises when no such
    block is free.  Each allocation's split remainders stay in order for
    the next."""
    buddy = BuddyAllocator(TOTAL)
    run_ops(buddy, ops)
    for order in range(MAX_ORDER + 1):
        blocks = list(buddy.free_blocks())
        fits = [o for _, o in blocks if o >= order]
        if not fits:
            with pytest.raises(AllocationError):
                buddy.alloc(order)
            continue
        best = min(fits)
        assert buddy.alloc(order) == min(s for s, o in blocks if o == best)


def allocator_state(buddy):
    return canonical_blocks(buddy), buddy.free_regions(), buddy.free_pages


def fully_allocated(total):
    buddy = BuddyAllocator(total)
    buddy.alloc_range(0, total)
    return buddy


def holed(total):
    """[0, 16) allocated, then [4, 8) freed again."""
    buddy = BuddyAllocator(total)
    buddy.alloc_range(0, 16)
    buddy.free_range(4, 4)
    return buddy


@pytest.mark.parametrize(
    "build, op, start, npages, error",
    [
        # Frees [2, 4) before reaching the free [4, 8) block, block by block.
        (holed, "free_range", 2, 6, ValueError),
        (holed, "free_range", 6, 4, ValueError),
        # Frees [60, 64) before reaching the end of memory, block by block.
        (fully_allocated, "free_range", 60, 8, ValueError),
        (fully_allocated, "free_range", -4, 8, ValueError),
        (holed, "alloc_range", 2, 4, AllocationError),
        (holed, "alloc_range", 6, 4, AllocationError),
        (holed, "alloc_range", 60, 8, AllocationError),
    ],
)
def test_refused_range_operation_changes_nothing(build, op, start, npages, error):
    """A range operation that is refused (a double free part-way in, a
    range leaving memory, an overlap with allocated pages) raises before
    it moves any block: free lists, free regions and the page count stay
    as they were."""
    buddy = build(64)
    before = allocator_state(buddy)
    with pytest.raises(error):
        getattr(buddy, op)(start, npages)
    assert allocator_state(buddy) == before
    free_space_invariants(buddy)


@settings(max_examples=60, deadline=None)
@given(
    claims=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=TOTAL - 1),
            st.integers(min_value=1, max_value=200),
        ),
        max_size=10,
    ),
    op=st.sampled_from(["alloc_range", "free_range"]),
    start=st.integers(min_value=-64, max_value=TOTAL + 64),
    npages=st.integers(min_value=1, max_value=300),
)
def test_range_operation_applies_whole_or_not_at_all(claims, op, start, npages):
    """On any allocator state a range operation either succeeds and moves
    exactly its pages, or raises and leaves the state untouched."""
    buddy = BuddyAllocator(TOTAL)
    for cstart, cpages in claims:
        try:
            buddy.alloc_range(cstart, min(cpages, TOTAL - cstart))
        except AllocationError:
            pass
    before = allocator_state(buddy)
    free_before = {f for s, n in buddy.free_regions() for f in range(s, s + n)}
    try:
        getattr(buddy, op)(start, npages)
    except (AllocationError, ValueError):
        assert allocator_state(buddy) == before
        return
    span = set(range(start, start + npages))
    free_after = {f for s, n in buddy.free_regions() for f in range(s, s + n)}
    if op == "alloc_range":
        assert span <= free_before and free_after == free_before - span
    else:
        assert not span & free_before and free_after == free_before | span
    free_space_invariants(buddy)
