"""Mapping state recomputed from page tables alone.

The reference the layers' incremental summaries must equal: a page
table's per-region delta multisets, and a :class:`MemoryLayer`'s reverse
map (owner of each frame, per-region occupancy words and owner counts).
Everything here reads a table's mappings through ``populated_regions``
and ``region_items``, never a summary, and the comparison goes through
the public accessors only.

A KSM-shared frame is mapped by several pages but owned by one: the page
that held it before the others were merged into it, for as long as that
page maps it.  Callers name the tables whose pages own their frames;
pages of the other tables never own one.
"""

from __future__ import annotations

from repro.mem.layout import PAGES_PER_HUGE
from repro.paging.pagetable import PageTable

__all__ = ["check_deltas", "check_reverse_map", "reference_deltas", "reverse_map"]


def reference_deltas(table: PageTable) -> dict[int, dict[int, int]]:
    """``{vregion: {pfn - vpn: count}}`` over every populated region."""
    expected: dict[int, dict[int, int]] = {}
    for region in table.populated_regions():
        deltas: dict[int, int] = {}
        for vpn, pfn in table.region_items(region):
            deltas[pfn - vpn] = deltas.get(pfn - vpn, 0) + 1
        expected[region] = deltas
    return expected


def check_deltas(table: PageTable, vregions) -> None:
    """The table's delta summaries and populations equal the recompute,
    for the populated regions and every region in *vregions*."""
    expected = reference_deltas(table)
    for vregion in set(vregions) | set(expected):
        deltas = expected.get(vregion, {})
        assert dict(table.region_deltas(vregion)) == deltas, vregion
        assert table.region_population(vregion) == sum(deltas.values()), vregion


def reverse_map(owner_tables: dict[int, PageTable]):
    """``(owners, counts, words)`` of the frames the tables' base pages
    own: ``owners[pfn] = (client, vpn)``, ``counts[pregion][(client,
    vregion)]`` frames, and each physical region's occupancy word."""
    owners: dict[int, tuple[int, int]] = {}
    for client, table in owner_tables.items():
        for vregion in table.populated_regions():
            for vpn, pfn in table.region_items(vregion):
                assert pfn not in owners, f"frame {pfn} owned twice"
                owners[pfn] = (client, vpn)
    counts: dict[int, dict[tuple[int, int], int]] = {}
    words: dict[int, int] = {}
    for pfn, (client, vpn) in owners.items():
        pregion = pfn // PAGES_PER_HUGE
        bucket = counts.setdefault(pregion, {})
        key = (client, vpn // PAGES_PER_HUGE)
        bucket[key] = bucket.get(key, 0) + 1
        words[pregion] = words.get(pregion, 0) | 1 << (pfn % PAGES_PER_HUGE)
    return owners, counts, words


def check_reverse_map(layer, owner_tables: dict[int, PageTable]) -> None:
    """*layer*'s reverse-map accessors equal the recompute from
    *owner_tables* on every frame of its memory."""
    owners, counts, words = reverse_map(owner_tables)
    total = layer.memory.total_pages
    for pfn in range(total):
        assert layer.owner_of_frame(pfn) == owners.get(pfn), pfn
    for pregion in range(total // PAGES_PER_HUGE):
        assert layer.rmap_bits(pregion) == words.get(pregion, 0), pregion
        bucket = counts.get(pregion, {})
        assert dict(layer.region_owner_counts(pregion)) == bucket, pregion
        assert layer.base_owned_in_region(pregion) == sum(bucket.values())
