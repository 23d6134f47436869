"""Unit tests for VMAs and address spaces."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.layout import PAGES_PER_HUGE
from repro.os.vma import VMA, AddressSpace


def test_vma_validation():
    with pytest.raises(ValueError):
        VMA(start=-1, npages=10)
    with pytest.raises(ValueError):
        VMA(start=0, npages=0)


def test_vma_bounds_and_contains():
    vma = VMA(start=512, npages=100, name="heap")
    assert vma.end == 612
    assert 512 in vma
    assert 611 in vma
    assert 612 not in vma
    assert 511 not in vma


def test_vma_regions():
    vma = VMA(start=512, npages=PAGES_PER_HUGE * 2, name="x")
    assert list(vma.regions()) == [1, 2]
    small = VMA(start=100, npages=10)
    assert list(small.regions()) == [0]


def test_region_span_and_coverage():
    vma = VMA(start=256, npages=PAGES_PER_HUGE, name="x")  # covers half of r0, half of r1
    lo, n = vma.region_span(0)
    assert (lo, n) == (256, 256)
    lo, n = vma.region_span(1)
    assert (lo, n) == (512, 256)
    assert not vma.covers_full_region(0)
    assert not vma.covers_full_region(1)
    with pytest.raises(ValueError):
        vma.region_span(2)
    full = VMA(start=512, npages=PAGES_PER_HUGE)
    assert full.covers_full_region(1)


def test_address_space_mmap_alignment_and_gaps():
    space = AddressSpace()
    a = space.mmap(100, "a")
    b = space.mmap(100, "b")
    assert a.start % PAGES_PER_HUGE == 0
    assert b.start % PAGES_PER_HUGE == 0
    # Guard gap: VMAs never share a huge region.
    assert b.start >= a.end + PAGES_PER_HUGE


def test_address_space_unique_names():
    space = AddressSpace()
    space.mmap(10, "a")
    with pytest.raises(ValueError):
        space.mmap(10, "a")


def test_address_space_find_and_munmap():
    space = AddressSpace()
    a = space.mmap(100, "a")
    assert space.find(a.start) is a
    assert space.find(a.end) is None
    assert "a" in space
    assert space.mapped_pages == 100
    removed = space.munmap("a")
    assert removed is a
    assert "a" not in space
    assert len(space) == 0
    with pytest.raises(KeyError):
        space.munmap("a")


def test_address_space_vma_lookup():
    space = AddressSpace()
    space.mmap(10, "a")
    assert space.vma("a").name == "a"
    assert list(space.vmas())[0].name == "a"


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),
            st.integers(min_value=1, max_value=3 * PAGES_PER_HUGE),
            st.booleans(),
            st.integers(min_value=0, max_value=1 << 16),
        ),
        max_size=30,
    )
)
def test_find_matches_a_linear_scan(ops):
    """``find`` bisects the sorted VMA starts: after any mmap/munmap
    sequence it answers as a scan of every VMA does, at every VMA edge."""
    space = AddressSpace()
    names = []
    for index, (unmap, npages, aligned, pick) in enumerate(ops):
        if unmap and names:
            space.munmap(names.pop(pick % len(names)))
        else:
            names.append(f"v{index}")
            space.mmap(npages, names[-1], huge_aligned=aligned)
        probes = {0, pick}
        for vma in space.vmas():
            probes |= {vma.start - 1, vma.start, vma.end - 1, vma.end}
        for vpn in probes:
            scan = [vma for vma in space.vmas() if vpn in vma]
            assert space.find(vpn) is (scan[0] if scan else None)
