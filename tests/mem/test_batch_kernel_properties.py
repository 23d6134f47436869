"""Hypothesis proofs for the batch allocator kernels.

``alloc_frames``/``free_frames`` serve the fault and teardown hot paths in
O(blocks) instead of O(frames); these properties pin them to the sequential
``alloc(0)``/``free(f, 0)`` reference loops frame by frame: same frames
returned, same free-block decomposition left behind, same failures.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.buddy import AllocationError, BuddyAllocator
from repro.mem.physmem import PhysicalMemory

TOTAL = 2048


def canonical_blocks(buddy):
    return sorted(buddy.free_blocks())


def fragmented(pins, total=TOTAL, base=0):
    buddy = BuddyAllocator(total, base=base)
    for pin in pins:
        buddy.alloc_at(base + pin, 0)
    return buddy


pin_lists = st.lists(
    st.integers(min_value=0, max_value=TOTAL - 1),
    max_size=80,
    unique=True,
)


@settings(max_examples=60, deadline=None)
@given(pins=pin_lists, count=st.integers(min_value=0, max_value=TOTAL))
def test_alloc_frames_equals_sequential_allocs(pins, count):
    batched = fragmented(pins)
    stepped = fragmented(pins)
    count = min(count, batched.free_pages)
    frames = batched.alloc_frames(count)
    assert frames == [stepped.alloc(0) for _ in range(count)]
    assert canonical_blocks(batched) == canonical_blocks(stepped)
    assert batched.free_pages == stepped.free_pages


@settings(max_examples=40, deadline=None)
@given(pins=pin_lists, extra=st.integers(min_value=1, max_value=64))
def test_alloc_frames_exhaustion_matches_sequential(pins, extra):
    """Requesting past exhaustion fails exactly where the loop fails,
    leaving the identical partially-drained state behind."""
    batched = fragmented(pins)
    stepped = fragmented(pins)
    count = batched.free_pages + extra
    with pytest.raises(AllocationError):
        batched.alloc_frames(count)
    for _ in range(stepped.free_pages):
        stepped.alloc(0)
    with pytest.raises(AllocationError):
        stepped.alloc(0)
    assert canonical_blocks(batched) == canonical_blocks(stepped)


@settings(max_examples=60, deadline=None)
@given(
    pins=st.lists(
        st.integers(min_value=0, max_value=TOTAL - 1),
        min_size=1,
        max_size=80,
        unique=True,
    ),
    data=st.data(),
)
def test_free_frames_equals_sequential_frees(pins, data):
    subset = data.draw(st.sets(st.sampled_from(sorted(pins))))
    batched = fragmented(pins)
    stepped = fragmented(pins)
    batched.free_frames(sorted(subset))
    for frame in sorted(subset):
        stepped.free(frame, 0)
    assert canonical_blocks(batched) == canonical_blocks(stepped)
    assert batched.free_pages == stepped.free_pages


def test_free_frames_rejects_double_free():
    buddy = BuddyAllocator(TOTAL)
    buddy.alloc_at(5, 0)
    with pytest.raises(ValueError):
        buddy.free_frames([5, 5])
    buddy.alloc_at(6, 0)
    buddy.free_frames([5, 6])
    with pytest.raises(ValueError):
        buddy.free_frames([6])


def test_refused_free_frames_frees_nothing():
    """A repeated frame late in the batch refuses the whole batch."""
    buddy = BuddyAllocator(64)
    buddy.alloc_range(0, 16)
    before = canonical_blocks(buddy)
    with pytest.raises(ValueError, match="double free of block"):
        buddy.free_frames([0, 1, 8, 8])
    assert buddy.free_pages == 48
    assert canonical_blocks(buddy) == before


def test_refused_physmem_free_frames_frees_no_node():
    """A free frame on the second node refuses the first node's share too."""
    memory = PhysicalMemory(128, nodes=2)
    memory.alloc_range(0, 16)
    memory.alloc_range(64, 16)
    before = [canonical_blocks(node) for node in memory.nodes]
    with pytest.raises(ValueError, match="double free"):
        memory.free_frames([0, 1, 64, 100])
    with pytest.raises(ValueError, match="outside physical memory"):
        memory.free_frames([0, 1, 64, 128])
    assert memory.free_pages == 96
    assert [canonical_blocks(node) for node in memory.nodes] == before


@settings(max_examples=40, deadline=None)
@given(
    pins=st.lists(
        st.integers(min_value=0, max_value=2 * TOTAL - 1),
        max_size=100,
        unique=True,
    ),
    count=st.integers(min_value=0, max_value=2 * TOTAL),
)
def test_physmem_batch_matches_sequential_across_nodes(pins, count):
    """Two NUMA nodes: the batch kernels must drain and refill the nodes
    in exactly the per-frame preference order, splitting frame batches at
    node boundaries."""
    batched = PhysicalMemory(2 * TOTAL, nodes=2)
    stepped = PhysicalMemory(2 * TOTAL, nodes=2)
    for pin in pins:
        batched.alloc_at(pin, 0)
        stepped.alloc_at(pin, 0)
    count = min(count, batched.free_pages)
    frames = batched.alloc_frames(count)
    assert frames == [stepped.alloc(0) for _ in range(count)]
    batched.free_frames(frames)
    for frame in frames:
        stepped.free(frame, 0)
    for node_b, node_s in zip(batched.nodes, stepped.nodes):
        assert canonical_blocks(node_b) == canonical_blocks(node_s)
    assert batched.free_pages == stepped.free_pages
