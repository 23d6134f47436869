"""Property-based tests for the incremental translation-state index.

Every incrementally-maintained summary must stay equal to a recompute from
scratch after arbitrary sequences of map/unmap/promote/demote/remap events
on both tables:

* the page table's per-region placement-delta multiset, and the O(1)
  ``promotable`` answer it backs;
* the Gemini guest policy's majority region, whose tie-break follows
  mapping order;
* the :class:`VMTranslationIndex` alignment counters, live-region set,
  classification cache and fully-translated set;
* the :class:`MemoryLayer` reverse map: frame owners, per-region owner
  counts and occupancy words.

The recompute functions below and in ``tests.mapping_state`` are the
reference scans: they read only a table's mappings (``region_items``),
never its summaries, and compare through the public accessors.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import GeminiGuestPolicy
from repro.mem.layout import PAGES_PER_HUGE
from repro.mem.physmem import PhysicalMemory
from repro.metrics.alignment import alignment_report, classify_region
from repro.os.mm import OutOfMemory, PROCESS, MemoryLayer
from repro.paging.index import VMTranslationIndex
from repro.paging.pagetable import MappingError, PageTable
from repro.policies.base import HugePagePolicy
from tests.mapping_state import check_deltas, check_reverse_map

V_REGIONS = 6    # guest-virtual regions exercised
GP_REGIONS = 6   # guest-physical regions exercised
HP_REGIONS = 6   # host-physical regions exercised


def reference_promotable(table: PageTable, vregion: int) -> int | None:
    """All 512 pages mapped, contiguous, in virtual order, first frame
    huge-aligned: the target physical region, else None."""
    mappings = dict(table.region_items(vregion))
    first_vpn = vregion * PAGES_PER_HUGE
    first_pfn = mappings.get(first_vpn)
    if first_pfn is None or first_pfn % PAGES_PER_HUGE != 0:
        return None
    for offset in range(1, PAGES_PER_HUGE):
        if mappings.get(first_vpn + offset) != first_pfn + offset:
            return None
    return first_pfn // PAGES_PER_HUGE


def reference_majority_region(table: PageTable, vregion: int, miss_fix_limit: int):
    """Count the region's pages per aligned physical region they sit in at
    their own offset, in mapping order; the first-counted region wins a
    tie, and a winner with more than *miss_fix_limit* strays is no winner."""
    vbase = vregion * PAGES_PER_HUGE
    counts: dict[int, int] = {}
    total = 0
    for vpn, pfn in table.region_items(vregion):
        total += 1
        pbase = pfn - (vpn - vbase)
        if pbase >= 0 and pbase % PAGES_PER_HUGE == 0:
            region = pbase // PAGES_PER_HUGE
            counts[region] = counts.get(region, 0) + 1
    if not counts:
        return None
    best = max(counts, key=counts.get)
    if counts[best] < total - miss_fix_limit:
        return None
    return best


def reference_live_set(guest: PageTable) -> set[int]:
    live = {gpregion for _, gpregion in guest.huge_mappings()}
    for _, gpn in guest.base_mappings():
        live.add(gpn // PAGES_PER_HUGE)
    return live


def reference_translated(guest: PageTable, ept: PageTable, vregion: int) -> bool:
    start = vregion * PAGES_PER_HUGE
    for vpn in range(start, start + PAGES_PER_HUGE):
        gpn = guest.translate(vpn)
        if gpn is None or ept.translate(gpn) is None:
            return False
    return True


def check_index(
    policy: GeminiGuestPolicy,
    guest: PageTable,
    ept: PageTable,
    index: VMTranslationIndex,
) -> None:
    check_deltas(guest, range(V_REGIONS))
    check_deltas(ept, range(V_REGIONS))
    for vregion in range(V_REGIONS):
        assert guest.promotable(vregion) == reference_promotable(guest, vregion)
        assert policy._majority_region(PROCESS, vregion) == (
            reference_majority_region(guest, vregion, policy.miss_fix_limit)
        )
    for gpregion in range(GP_REGIONS):
        assert ept.promotable(gpregion) == reference_promotable(ept, gpregion)
    assert index.report() == alignment_report(guest, ept)
    assert index.live_set() == reference_live_set(guest)
    # Surviving cache entries must still describe the current tables.
    for vregion, cached in index._classes.items():
        assert cached == classify_region(guest, ept, vregion)
    for vregion in index._translated:
        assert reference_translated(guest, ept, vregion)


#: One event: (layer, kind, region, offset/target, aux target).
EVENTS = st.lists(
    st.tuples(
        st.sampled_from(["guest", "ept"]),
        st.sampled_from(
            [
                "map_base", "map_skewed", "unmap_base", "map_huge", "unmap_huge",
                "promote", "demote", "remap", "fill_region",
                "query_translated", "query_classes",
            ]
        ),
        st.integers(min_value=0, max_value=V_REGIONS - 1),
        st.integers(min_value=0, max_value=PAGES_PER_HUGE - 1),
        st.integers(min_value=0, max_value=GP_REGIONS - 1),
    ),
    max_size=50,
)


def apply_event(guest, ept, index, layer, kind, region, offset, target):
    table = guest if layer == "guest" else ept
    limit = GP_REGIONS if layer == "guest" else HP_REGIONS
    target %= limit
    vpn = region * PAGES_PER_HUGE + offset
    try:
        if kind == "map_base":
            table.map_base(vpn, target * PAGES_PER_HUGE + offset)
        elif kind == "map_skewed":
            # One frame off the page's own offset: an unaligned delta.
            table.map_base(vpn, target * PAGES_PER_HUGE + offset + 1)
        elif kind == "unmap_base":
            table.unmap_base(vpn)
        elif kind == "map_huge":
            table.map_huge(region, target)
        elif kind == "unmap_huge":
            table.unmap_huge(region)
        elif kind == "promote":
            table.promote_in_place(region)
        elif kind == "demote":
            table.demote(region)
        elif kind == "remap":
            bucket = table.region_mappings(region)
            if bucket:
                # Shift every frame into the aux target region, keeping
                # per-page offsets: a migration-style remap.
                new = {
                    v: target * PAGES_PER_HUGE + (p % PAGES_PER_HUGE)
                    for v, p in bucket.items()
                }
                table.remap_region(region, new)
        elif kind == "fill_region":
            # Densely map the whole region at one aligned offset so
            # promote/translated paths are reachable from random data.
            for o in range(PAGES_PER_HUGE):
                v = region * PAGES_PER_HUGE + o
                if table.translate(v) is None and not table.is_huge(region):
                    try:
                        table.map_base(v, target * PAGES_PER_HUGE + o)
                    except MappingError:
                        pass
        elif kind == "query_translated":
            got = index.region_translated(region)
            assert got == reference_translated(guest, ept, region)
        elif kind == "query_classes":
            cached = index.cached_classes(region)
            fresh = classify_region(guest, ept, region)
            if cached is None:
                index.store_classes(region, fresh)
            else:
                assert cached == fresh
    except MappingError:
        pass


@settings(max_examples=60, deadline=None)
@given(events=EVENTS)
def test_index_summaries_match_recompute(events):
    """After every event the incremental summaries equal a recompute."""
    policy = GeminiGuestPolicy()
    layer = MemoryLayer("guest", PhysicalMemory(GP_REGIONS * PAGES_PER_HUGE), policy)
    guest = layer.table(PROCESS)
    ept = PageTable("ept")
    index = VMTranslationIndex(guest, ept)
    for layer, kind, region, offset, target in events:
        apply_event(guest, ept, index, layer, kind, region, offset, target)
        check_index(policy, guest, ept, index)


@settings(max_examples=30, deadline=None)
@given(events=EVENTS)
def test_index_bootstrap_matches_live_maintenance(events):
    """Attaching an index to a populated table equals having watched the
    mutations from the start."""
    guest = PageTable("guest")
    ept = PageTable("ept")
    live = VMTranslationIndex(guest, ept)
    for layer, kind, region, offset, target in events:
        if kind in ("query_translated", "query_classes"):
            continue
        apply_event(guest, ept, live, layer, kind, region, offset, target)
    guest.index = ept.index = None
    late = VMTranslationIndex(guest, ept)
    assert late.report() == live.report()
    assert late.live_set() == live.live_set()
    assert late._targets == live._targets
    assert late._live_base == live._live_base


def test_index_slot_holds_one_index():
    """A table delivers its events to one index; a second is refused
    without taking either slot."""
    guest, ept, other = PageTable("guest"), PageTable("ept"), PageTable("other")
    index = VMTranslationIndex(guest, ept)
    with pytest.raises(ValueError, match="ept already has a translation index"):
        VMTranslationIndex(other, ept)
    assert other.index is None
    with pytest.raises(ValueError, match="guest already has a translation index"):
        VMTranslationIndex(guest, other)
    assert (guest.index, ept.index, other.index) == (index, index, None)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["fault", "unmap", "promote_mig", "promote_inplace",
                 "demote", "compact", "relocate"]
            ),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=PAGES_PER_HUGE - 1),
        ),
        max_size=40,
    )
)
def test_owner_counts_match_rmap_recompute(ops):
    """The reverse map's owners, per-region owner counts and occupancy
    words equal a recompute from the page table after arbitrary
    MemoryLayer traffic."""
    total = 12 * PAGES_PER_HUGE
    layer = MemoryLayer("prop", PhysicalMemory(total), HugePagePolicy())
    for op, region, offset in ops:
        vpn = region * PAGES_PER_HUGE + offset
        try:
            if op == "fault":
                layer.fault(PROCESS, vpn)
            elif op == "unmap":
                layer.unmap_range(PROCESS, region * PAGES_PER_HUGE, PAGES_PER_HUGE)
            elif op == "promote_mig":
                layer.promote_with_migration(PROCESS, region)
            elif op == "promote_inplace":
                layer.try_promote_in_place(PROCESS, region)
            elif op == "demote":
                if layer.table(PROCESS).is_huge(region):
                    layer.demote(PROCESS, region)
            elif op == "compact":
                layer.compact_region(PROCESS, region, (region + 3) % 12)
            elif op == "relocate":
                layer.relocate_page(PROCESS, vpn)
        except OutOfMemory:
            pass
        table = layer.table(PROCESS)
        check_reverse_map(layer, {PROCESS: table})
        check_deltas(table, range(12))


def unmap_window_per_page(table, start, end):
    """The reference: per-page ``unmap_base`` over a window, ascending."""
    return {
        vpn: table.unmap_base(vpn)
        for vpn in range(start, end)
        if table.translate(vpn) is not None
    }


def table_pair_state(guest, ept, index):
    return {
        "guest": (list(guest.base_mappings()), list(guest.populated_regions())),
        "ept": (list(ept.base_mappings()), list(ept.populated_regions())),
        "deltas": [
            (dict(t.region_deltas(r)), t.promotable(r))
            for t in (guest, ept)
            for r in range(V_REGIONS)
        ],
        "report": index.report(),
        "live": index.live_set(),
        "classes": sorted(index._classes),
        "gen": index.invalidation_gen,
        "translated": [index.region_translated(r) for r in range(V_REGIONS)],
    }


@settings(max_examples=60, deadline=None)
@given(
    events=EVENTS,
    layer=st.sampled_from(["guest", "ept"]),
    pick=st.integers(min_value=0, max_value=V_REGIONS - 1),
    bounds=st.one_of(
        st.just((0, PAGES_PER_HUGE)),
        st.tuples(
            st.integers(min_value=0, max_value=PAGES_PER_HUGE),
            st.integers(min_value=0, max_value=PAGES_PER_HUGE),
        ),
    ),
)
def test_windowed_unmap_equals_per_page_unmaps(events, layer, pick, bounds):
    """A windowed ``unmap_region_base`` on a populated region returns the
    window's mappings in ascending order and leaves both tables and the
    index exactly as per-page ``unmap_base`` calls over the window leave
    them, a window that empties the region included."""
    twins = []
    for _ in range(2):
        guest, ept = PageTable("guest"), PageTable("ept")
        index = VMTranslationIndex(guest, ept)
        for event in events:
            apply_event(guest, ept, index, *event)
        for vregion in range(V_REGIONS):
            index.region_translated(vregion)
            index.store_classes(vregion, classify_region(guest, ept, vregion))
        twins.append((guest, ept, index))
    (guest, ept, index), (ref_guest, ref_ept, ref_index) = twins
    table, ref_table = (guest, ref_guest) if layer == "guest" else (ept, ref_ept)
    populated = sorted(table.populated_regions())
    if not populated:
        return
    region = populated[pick % len(populated)]
    lo, hi = sorted(bounds)
    start, end = region * PAGES_PER_HUGE + lo, region * PAGES_PER_HUGE + hi
    removed = table.unmap_region_base(region, start, end)
    assert removed == unmap_window_per_page(ref_table, start, end)
    assert list(removed) == sorted(removed)
    assert table_pair_state(guest, ept, index) == table_pair_state(
        ref_guest, ref_ept, ref_index
    )


def test_windowed_unmap_refuses_a_window_leaving_the_region():
    table = PageTable("t")
    table.map_base_run(PAGES_PER_HUGE, 0, PAGES_PER_HUGE)
    for start, end in [(PAGES_PER_HUGE - 1, PAGES_PER_HUGE + 4),
                       (2 * PAGES_PER_HUGE - 4, 2 * PAGES_PER_HUGE + 1),
                       (PAGES_PER_HUGE + 8, PAGES_PER_HUGE + 4)]:
        with pytest.raises(MappingError, match="leaves region 1"):
            table.unmap_region_base(1, start, end)
    assert table.region_population(1) == PAGES_PER_HUGE
