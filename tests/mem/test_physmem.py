"""Unit tests for NUMA-aware physical memory."""

import pytest

from repro.mem.buddy import AllocationError
from repro.mem.physmem import PhysicalMemory


def test_single_node_basic_alloc_free():
    memory = PhysicalMemory(1024)
    frame = memory.alloc(0)
    assert frame == 0
    assert memory.free_pages == 1023
    memory.free(frame, 0)
    assert memory.free_pages == 1024


def test_construction_validation():
    with pytest.raises(ValueError):
        PhysicalMemory(100, nodes=0)
    with pytest.raises(ValueError):
        PhysicalMemory(1, nodes=2)


def test_two_nodes_split_evenly():
    memory = PhysicalMemory(2048, nodes=2)
    assert len(memory.nodes) == 2
    assert memory.nodes[0].base == 0
    assert memory.nodes[0].total_pages == 1024
    assert memory.nodes[1].base == 1024
    assert memory.nodes[1].total_pages == 1024


def test_uneven_split_gives_remainder_to_last_node():
    memory = PhysicalMemory(1001, nodes=2)
    assert memory.nodes[0].total_pages == 500
    assert memory.nodes[1].total_pages == 501
    assert memory.free_pages == 1001


def test_node_preference_and_fallback():
    memory = PhysicalMemory(2048, nodes=2)
    # Allocation drains node 0 first, then node 1 serves.
    while memory.nodes[0].free_pages:
        assert memory.node_of(memory.alloc(0)) is memory.nodes[0]
    fallback = memory.alloc(0)
    assert memory.node_of(fallback) is memory.nodes[1]


def test_exhaustion_raises_allocation_error():
    memory = PhysicalMemory(4, nodes=2)
    for _ in range(4):
        memory.alloc(0)
    with pytest.raises(AllocationError):
        memory.alloc(0)


def test_node_of_and_out_of_range():
    memory = PhysicalMemory(2048, nodes=2)
    assert memory.node_of(0) is memory.nodes[0]
    assert memory.node_of(1024) is memory.nodes[1]
    with pytest.raises(ValueError):
        memory.node_of(2048)
    with pytest.raises(ValueError):
        memory.node_of(-1)


def test_alloc_at_routes_to_owning_node():
    memory = PhysicalMemory(2048, nodes=2)
    memory.alloc_at(1536, 9)
    assert not memory.is_free(1536)
    assert memory.nodes[1].free_pages == 512


def test_range_is_free_handles_out_of_range():
    memory = PhysicalMemory(1024)
    assert memory.range_is_free(0, 1024)
    assert not memory.range_is_free(5000, 2)


def test_free_regions_sorted_across_nodes():
    memory = PhysicalMemory(2048, nodes=2)
    memory.alloc_at(100, 0)
    memory.alloc_at(1100, 0)
    regions = memory.free_regions()
    assert regions == sorted(regions)
    total = sum(npages for _, npages in regions)
    assert total == memory.free_pages


def test_aligned_free_regions_stop_at_the_node_boundary():
    """Node 1 starts mid-way through a huge region: the free pages on
    either side of the boundary would hold an aligned huge page together,
    but each node's aligned regions are its own."""
    memory = PhysicalMemory(2560, nodes=2)
    memory.alloc_range(0, 1024)
    memory.alloc_range(1536, 1024)
    assert memory.free_regions() == [(1024, 256), (1280, 256)]
    assert memory.aligned_free_regions() == []
    memory.free_range(0, 512)
    memory.free_range(2048, 512)
    assert memory.aligned_free_regions() == [(0, 512), (2048, 512)]
    assert memory.aligned_free_regions() == (
        memory.nodes[0].aligned_free_regions()
        + memory.nodes[1].aligned_free_regions()
    )


def test_free_pages_at_or_above_aggregates_nodes():
    memory = PhysicalMemory(2048, nodes=2)
    assert memory.free_pages_at_or_above(9) == 2048
    memory.alloc_at(256, 0)
    memory.alloc_at(1024 + 256, 0)
    assert memory.free_pages_at_or_above(9) == 1024
