"""Address-space layout constants and alignment helpers.

The simulator follows the x86-64 conventions the paper targets: 4 KiB base
pages, 2 MiB huge pages (512 base pages per huge page), and a binary buddy
allocator with a maximum order of 11 (4 MiB blocks), matching Linux
``MAX_ORDER`` as discussed in the paper's Section 5.

All addresses in the simulator are *frame numbers* (base-page granularity)
rather than byte addresses: a frame number ``f`` corresponds to byte address
``f * PAGE_SIZE``.  Working at frame granularity keeps the arithmetic exact
and avoids carrying the 12 trailing zero bits around.
"""

from __future__ import annotations

from typing import Iterator

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT  # 4 KiB

HUGE_PAGE_SHIFT = 21
HUGE_PAGE_SIZE = 1 << HUGE_PAGE_SHIFT  # 2 MiB

#: Number of base pages per 2 MiB huge page (512 on x86-64).
PAGES_PER_HUGE = HUGE_PAGE_SIZE // PAGE_SIZE

#: Linux MAX_ORDER: the buddy allocator manages blocks of 2**order pages for
#: order in [0, MAX_ORDER); the largest block is 4 MiB.
MAX_ORDER = 11

#: Buddy order of one huge page (2**9 pages == 512 pages == 2 MiB).
HUGE_ORDER = 9

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


def bytes_to_pages(nbytes: int) -> int:
    """Return the number of base pages needed to hold *nbytes* (round up)."""
    if nbytes < 0:
        raise ValueError(f"negative size: {nbytes}")
    return (nbytes + PAGE_SIZE - 1) // PAGE_SIZE


def pages_to_bytes(npages: int) -> int:
    """Return the byte size of *npages* base pages."""
    return npages * PAGE_SIZE


def is_huge_aligned(frame: int) -> bool:
    """True if base-frame number *frame* starts a 2 MiB-aligned region."""
    return frame % PAGES_PER_HUGE == 0


def huge_align_down(frame: int) -> int:
    """Round *frame* down to the start of its 2 MiB region."""
    return frame - (frame % PAGES_PER_HUGE)


def huge_align_up(frame: int) -> int:
    """Round *frame* up to the next 2 MiB boundary (identity if aligned)."""
    return huge_align_down(frame + PAGES_PER_HUGE - 1)


def huge_region_index(frame: int) -> int:
    """Index of the 2 MiB region containing base frame *frame*."""
    return frame // PAGES_PER_HUGE


def huge_region_frames(region: int) -> range:
    """Base-frame numbers covered by 2 MiB region index *region*."""
    start = region * PAGES_PER_HUGE
    return range(start, start + PAGES_PER_HUGE)


def order_pages(order: int) -> int:
    """Number of base pages in a buddy block of the given *order*."""
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order out of range [0, {MAX_ORDER}]: {order}")
    return 1 << order


def order_for_pages(npages: int) -> int:
    """Smallest buddy order whose block holds at least *npages* pages."""
    if npages <= 0:
        raise ValueError(f"non-positive page count: {npages}")
    order = 0
    while (1 << order) < npages:
        order += 1
    if order > MAX_ORDER:
        raise ValueError(f"{npages} pages exceed MAX_ORDER block size")
    return order


def contiguous_runs(frames: list[int]) -> Iterator[tuple[int, int]]:
    """Group a frame list into (start, count) runs of consecutive values,
    preserving the list order."""
    if not frames:
        return
    run_start = prev = frames[0]
    for frame in frames[1:]:
        if frame == prev + 1:
            prev = frame
            continue
        yield run_start, prev - run_start + 1
        run_start = prev = frame
    yield run_start, prev - run_start + 1
