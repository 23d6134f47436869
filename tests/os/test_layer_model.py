"""Hypothesis model check of one MemoryLayer under a random op stream.

The layer runs a random stream of faults, range faults, promotions,
compactions, demotions, unmaps, frame sharing, KSM-style merges and
client teardowns.  After every operation it is checked against a small
pure model — the set of mapped virtual pages plus a ledger of the
references ``share`` and ``ksm`` add to frames — and against its own
bookkeeping:

* the layer maps exactly the model's pages, and its extra-reference
  counts match the ledger;
* frames are conserved: free + mapped + held only by a sharer == total,
  and no frame backs two of the process's pages;
* the reverse maps, the owner counts, the occupancy bitsets the promoter
  iterates and the tables' delta summaries equal the recompute from the
  page tables (``tests.mapping_state``): the process owns its frames,
  the merged pages of the second client own none.

A compaction must also return what a fresh scan of the region decides,
whether or not ``compact_region`` answers from the witness it kept for
an earlier refusal.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.promoter import _iter_set_bits
from repro.mem.layout import PAGES_PER_HUGE
from repro.mem.physmem import PhysicalMemory
from repro.os.mm import OutOfMemory, PROCESS, MemoryLayer
from repro.policies.base import HugePagePolicy
from tests.mapping_state import check_deltas, check_reverse_map

REGIONS = 8
TOTAL = REGIONS * PAGES_PER_HUGE
#: The client whose pages KSM merges onto the process's frames.
MERGED = 1


def make_layer() -> MemoryLayer:
    return MemoryLayer("prop", PhysicalMemory(TOTAL), HugePagePolicy())


def mappings(layer: MemoryLayer) -> tuple[dict[int, int], dict[int, int]]:
    """The process's base (vpn -> pfn) and huge (vregion -> pregion)
    mappings; both empty once its table is torn down."""
    if not layer.has_client(PROCESS):
        return {}, {}
    table = layer.table(PROCESS)
    return dict(table.base_mappings()), dict(table.huge_mappings())


def translations(layer: MemoryLayer) -> dict[int, int]:
    """vpn -> pfn of every page the process has mapped."""
    base, huge = mappings(layer)
    for vregion, pregion in huge.items():
        for offset in range(PAGES_PER_HUGE):
            base[vregion * PAGES_PER_HUGE + offset] = pregion * PAGES_PER_HUGE + offset
    return base


class Model:
    """Mapped virtual pages plus the sharers holding each frame."""

    def __init__(self) -> None:
        self.mapped: set[int] = set()
        self.sharers: dict[int, int] = {}
        #: next vpn of the merged client
        self.merged = 0


def owned_frames(layer: MemoryLayer, pregion: int) -> list[int]:
    """The process's base-mapped frames inside physical region *pregion*."""
    base, _ = mappings(layer)
    return sorted(pfn for pfn in base.values() if pfn // PAGES_PER_HUGE == pregion)


def apply_op(layer: MemoryLayer, model: Model, op, region, offset, span) -> None:
    vpn = region * PAGES_PER_HUGE + offset
    vregion_pages = set(
        range(region * PAGES_PER_HUGE, (region + 1) * PAGES_PER_HUGE)
    )
    try:
        if op == "fault":
            layer.fault(PROCESS, vpn)
            model.mapped.add(vpn)
        elif op == "fault_range":
            requested = range(vpn, vpn + span)
            try:
                layer.fault_range(PROCESS, vpn, span)
            except OutOfMemory:
                # The walk is ascending: what it mapped before running
                # out is a prefix of the requested pages still unmapped.
                unmapped = [page for page in requested if page not in model.mapped]
                new = sorted(set(translations(layer)) - model.mapped)
                assert new == unmapped[: len(new)]
                model.mapped.update(new)
                raise
            model.mapped.update(requested)
        elif op == "promote_mig":
            if layer.promote_with_migration(PROCESS, region):
                # The unpopulated tail is zero-filled: the whole region
                # is mapped now.
                model.mapped |= vregion_pages
        elif op == "promote_inplace":
            layer.try_promote_in_place(PROCESS, region)
        elif op == "compact":
            # Oracle from the state before the call: a base-mapped region
            # whose every page is at its destination or may move there.
            target = offset % REGIONS
            shift = (target - region) * PAGES_PER_HUGE
            table = layer.table(PROCESS)
            pages = table.region_mappings(region)
            feasible = bool(pages) and all(
                pfn == vpn + shift or layer.memory.is_free(vpn + shift)
                for vpn, pfn in pages.items()
            )
            mapped = set(translations(layer))
            assert layer.compact_region(PROCESS, region, target) == feasible
            assert set(translations(layer)) == mapped
            if feasible:
                assert all(table.translate(vpn) == vpn + shift for vpn in pages)
        elif op == "demote":
            if layer.has_client(PROCESS) and layer.table(PROCESS).is_huge(region):
                layer.demote(PROCESS, region)
        elif op == "unmap_region":
            layer.unmap_range(PROCESS, region * PAGES_PER_HUGE, PAGES_PER_HUGE)
            model.mapped -= vregion_pages
        elif op == "unmap_partial":
            layer.unmap_range(PROCESS, vpn, span)
            model.mapped -= set(range(vpn, vpn + span))
        elif op == "share":
            owned = owned_frames(layer, region)
            if owned:
                layer.add_frame_ref(owned[0])
                model.sharers[owned[0]] = model.sharers.get(owned[0], 0) + 1
        elif op == "ksm":
            # A KSM merge: the second client's fresh page drops its own
            # frame and maps the process's frame instead, which keeps its
            # owner.  The merged page is never unmapped, so it holds
            # the frame like a sharer.
            owned = owned_frames(layer, region)
            if owned:
                shared = owned[0]
                gpn = model.merged
                layer.fault(MERGED, gpn)
                model.merged += 1
                layer.merge_page(MERGED, gpn, shared)
                assert layer.translate(MERGED, gpn) == shared
                model.sharers[shared] = model.sharers.get(shared, 0) + 1
        elif op == "release_client":
            layer.release_client(PROCESS)
            model.mapped.clear()
    except OutOfMemory:
        pass


def check(layer: MemoryLayer, model: Model) -> None:
    pages = translations(layer)
    assert set(pages) == model.mapped
    frames = set(pages.values())
    assert len(frames) == len(pages), "a frame backs two pages"
    # The layer counts references beyond the first: a mapped frame's
    # sharers are all extra, an unmapped one's first sharer holds it.
    extra = {
        pfn: count - (pfn not in frames)
        for pfn, count in model.sharers.items()
        if count - (pfn not in frames)
    }
    assert layer._frame_refs == extra
    # Frame conservation.
    held = set(model.sharers) - frames
    assert layer.memory.free_pages + len(frames) + len(held) == TOTAL
    # Page tables <-> reverse maps and summaries.
    _, huge = mappings(layer)
    assert layer._rmap_huge == {
        pregion: (PROCESS, vregion) for vregion, pregion in huge.items()
    }
    owner_tables = {PROCESS: layer.table(PROCESS)} if layer.has_client(PROCESS) else {}
    check_reverse_map(layer, owner_tables)
    for table in owner_tables.values():
        check_deltas(table, range(REGIONS))
    if layer.has_client(MERGED):
        check_deltas(layer.table(MERGED), range(REGIONS))
    for pregion in range(REGIONS):
        word = layer.rmap_bits(pregion)
        start = pregion * PAGES_PER_HUGE
        assert list(_iter_set_bits(start, word)) == [
            frame
            for frame in range(start, start + PAGES_PER_HUGE)
            if layer.owner_of_frame(frame) is not None
        ]


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "fault",
                "fault_range",
                "promote_mig",
                "promote_inplace",
                "compact",
                "demote",
                "unmap_region",
                "unmap_partial",
                "share",
                "ksm",
                "release_client",
            ]
        ),
        st.integers(min_value=0, max_value=REGIONS - 3),
        st.integers(min_value=0, max_value=PAGES_PER_HUGE - 1),
        st.integers(min_value=1, max_value=2 * PAGES_PER_HUGE),
    ),
    min_size=1,
    max_size=30,
)


#: Random streams rarely repeat a compaction; these do.  Region 0 is
#: blocked from target 1 by region 1's pages and refused by the scan,
#: then by the witness, until the witness goes stale: its blocker is
#: freed, the witness page is unmapped, or the page lands on its
#: destination (promotion into region 1, then demotion).
BLOCKED_BY_REGION = [
    ("fault_range", 0, 0, PAGES_PER_HUGE),
    ("fault_range", 1, 0, PAGES_PER_HUGE),
    ("compact", 0, 1, 1),
    ("compact", 0, 1, 1),
    ("unmap_region", 1, 0, 1),
    ("compact", 0, 1, 1),
]
BLOCKED_BY_PAGES = [
    ("fault_range", 0, 0, PAGES_PER_HUGE),
    ("fault_range", 1, 0, 2),
    ("compact", 0, 1, 1),
    ("compact", 0, 1, 1),
    ("unmap_partial", 0, 0, 1),
    ("compact", 0, 1, 1),
    ("compact", 0, 1, 1),
    ("unmap_partial", 0, 1, 1),
    ("compact", 0, 1, 1),
]
MOVED_INTO_PLACE = [
    ("fault_range", 0, 0, PAGES_PER_HUGE),
    ("fault", 1, 0, 1),
    ("compact", 0, 1, 1),
    ("unmap_region", 1, 0, 1),
    ("promote_mig", 0, 0, 1),
    ("demote", 0, 0, 1),
    ("compact", 0, 1, 1),
]


@settings(max_examples=25, deadline=None)
@given(ops=OPS)
@example(ops=BLOCKED_BY_REGION)
@example(ops=BLOCKED_BY_PAGES)
@example(ops=MOVED_INTO_PLACE)
def test_layer_matches_pure_model(ops):
    layer = make_layer()
    model = Model()
    for op, region, offset, span in ops:
        apply_op(layer, model, op, region, offset, span)
        check(layer, model)
