"""The orders a page table yields its mappings in.

Results depend on them: KSM's scan budget covers the first mappings of
``base_mappings()``, host backfill and the majority-region tie-break walk
``region_items()`` in mapping order, and policy scans and KSM's huge-page
breaking follow ``populated_regions()`` and ``huge_mappings()``.  The
reference below keeps each order as insertion-ordered dicts, a mapping
appended when it is made and dropped when it goes: a remap keeps each
page's place, a promotion drops the region's pages and appends its huge
mapping, a demotion drops the huge mapping and appends 512 pages.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem.layout import PAGES_PER_HUGE
from repro.paging.pagetable import MappingError, PageTable

REGIONS = 5


class OrderModel:
    """Base and huge mappings, and each region's base mappings, in the
    order they were made."""

    def __init__(self) -> None:
        self.base: dict[int, int] = {}
        self.huge: dict[int, int] = {}
        self.regions: dict[int, dict[int, int]] = {}

    def map(self, vpn: int, pfn: int, count: int = 1) -> None:
        for i in range(count):
            self.base[vpn + i] = pfn + i
            self.regions.setdefault((vpn + i) // PAGES_PER_HUGE, {})[vpn + i] = pfn + i

    def unmap(self, vpns) -> dict[int, int]:
        removed = {}
        for vpn in vpns:
            region = vpn // PAGES_PER_HUGE
            removed[vpn] = self.base.pop(vpn)
            del self.regions[region][vpn]
            if not self.regions[region]:
                del self.regions[region]
        return removed

    def region(self, vregion: int) -> dict[int, int]:
        return dict(self.regions.get(vregion, {}))


def check(table: PageTable, model: OrderModel) -> None:
    assert list(table.base_mappings()) == list(model.base.items())
    assert list(table.populated_regions()) == list(model.regions)
    assert list(table.huge_mappings()) == list(model.huge.items())
    for vregion in range(REGIONS):
        assert list(table.region_items(vregion)) == list(model.region(vregion).items())
        assert list(table.region_mappings(vregion).items()) == list(
            model.region(vregion).items()
        )


def apply(table: PageTable, model: OrderModel, op: str, vpn: int, arg: int, frames):
    vregion = vpn // PAGES_PER_HUGE
    first = vregion * PAGES_PER_HUGE
    if op == "map":
        pfn = next(frames)
        table.map_base(vpn, pfn)
        model.map(vpn, pfn)
    elif op == "map_run":
        count = min(arg, first + PAGES_PER_HUGE - vpn)
        pfn = next(frames)
        for _ in range(count - 1):
            next(frames)
        table.map_base_run(vpn, pfn, count)
        model.map(vpn, pfn, count)
    elif op == "fill_aligned":
        # Map every unmapped page at its huge-aligned frame, low vpns
        # last, so the region turns promotable out of vpn order.
        pbase = (REGIONS + arg % REGIONS) * PAGES_PER_HUGE
        for offset in reversed(range(PAGES_PER_HUGE)):
            if table.translate(first + offset) is None and not table.is_huge(vregion):
                table.map_base(first + offset, pbase + offset)
                model.map(first + offset, pbase + offset)
    elif op == "unmap":
        pfn = table.unmap_base(vpn)
        assert model.unmap([vpn]) == {vpn: pfn}
    elif op == "unmap_window":
        end = min(vpn + arg, first + PAGES_PER_HUGE)
        removed = table.unmap_region_base(vregion, vpn, end)
        expected = model.unmap([v for v in range(vpn, end) if v in model.base])
        assert list(removed.items()) == list(expected.items())
    elif op == "unmap_region":
        removed = table.unmap_region_base(vregion)
        expected = model.unmap(list(model.region(vregion)))
        assert list(removed.items()) == list(expected.items())
    elif op == "ksm":
        # KSM's merge: unmap a page and map it again elsewhere.
        table.unmap_base(vpn)
        model.unmap([vpn])
        pfn = next(frames)
        table.map_base(vpn, pfn)
        model.map(vpn, pfn)
    elif op == "remap":
        mapped = model.region(vregion)
        if mapped:
            new = {v: next(frames) for v in sorted(mapped, reverse=True)}
            table.remap_region(vregion, new)
            for v, pfn in new.items():
                model.base[v] = model.regions[vregion][v] = pfn
    elif op == "promote":
        pregion = table.promote_in_place(vregion)
        model.unmap(list(model.region(vregion)))
        model.huge[vregion] = pregion
    elif op == "demote":
        table.demote(vregion)
        pregion = model.huge.pop(vregion)
        model.map(first, pregion * PAGES_PER_HUGE, PAGES_PER_HUGE)
    elif op == "map_huge":
        table.map_huge(vregion, 4 * REGIONS + arg)
        model.huge[vregion] = 4 * REGIONS + arg
    elif op == "unmap_huge":
        table.unmap_huge(vregion)
        del model.huge[vregion]


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["map", "map_run", "fill_aligned", "unmap", "unmap_window",
             "unmap_region", "ksm", "remap", "promote", "demote", "map_huge",
             "unmap_huge"]
        ),
        st.integers(min_value=0, max_value=REGIONS * PAGES_PER_HUGE - 1),
        st.integers(min_value=1, max_value=40),
    ),
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(ops=OPS)
@example(ops=[("map", 5, 1), ("map_run", 600, 3), ("map", 6, 1), ("map", 4, 1)])
def test_every_order_follows_the_mapping_history(ops):
    table, model = PageTable("t"), OrderModel()
    # Frames far above the aligned ones the fills and promotions use.
    frames = iter(range(100 * PAGES_PER_HUGE + 3, 1 << 40, 7))
    for op, vpn, arg in ops:
        try:
            apply(table, model, op, vpn, arg, frames)
        except MappingError:
            pass
        check(table, model)


def test_orders_through_promotion_and_demotion():
    """Regions keep first-mapping order, a promoted region leaves it and
    joins the huge order last, and a demoted one comes back last."""
    table, model = PageTable("t"), OrderModel()
    frames = iter(range(100 * PAGES_PER_HUGE + 1, 1 << 40, 3))
    script = [
        ("map", 3 * PAGES_PER_HUGE + 9, 1),
        ("fill_aligned", 1 * PAGES_PER_HUGE, 2),
        ("map_run", 2 * PAGES_PER_HUGE + 100, 20),
        ("map", 3 * PAGES_PER_HUGE + 4, 1),
        ("map_huge", 4 * PAGES_PER_HUGE, 1),
        ("promote", 1 * PAGES_PER_HUGE, 1),
        ("map_run", 2 * PAGES_PER_HUGE + 50, 10),
        ("ksm", 3 * PAGES_PER_HUGE + 9, 1),
        ("demote", 1 * PAGES_PER_HUGE, 1),
        ("remap", 2 * PAGES_PER_HUGE, 1),
        ("unmap_window", 2 * PAGES_PER_HUGE + 55, 50),
    ]
    for op, vpn, arg in script:
        apply(table, model, op, vpn, arg, frames)
        check(table, model)
    assert list(table.populated_regions()) == [3, 2, 1]
    assert list(table.huge_mappings()) == [(4, 4 * REGIONS + 1)]
    assert [vpn for vpn, _ in table.region_items(3)] == [
        3 * PAGES_PER_HUGE + 4, 3 * PAGES_PER_HUGE + 9
    ]
