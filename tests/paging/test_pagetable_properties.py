"""Property-based tests for page-table invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.layout import PAGES_PER_HUGE
from repro.paging.pagetable import MappingError, PageTable


def table_invariants(pt: PageTable) -> None:
    """No vpn may be covered twice; counters must match contents."""
    base = dict(pt.base_mappings())
    huge = dict(pt.huge_mappings())
    assert len(base) == pt.base_count
    assert len(huge) == pt.huge_count
    for vpn in base:
        assert vpn // PAGES_PER_HUGE not in huge
    assert pt.mapped_pages == len(base) + PAGES_PER_HUGE * len(huge)
    # translate() agrees with the raw mappings.
    for vpn, pfn in base.items():
        assert pt.translate(vpn) == pfn
    for vregion, pregion in huge.items():
        assert pt.translate(vregion * PAGES_PER_HUGE) == pregion * PAGES_PER_HUGE
    run_queries_agree(pt)


def run_queries_agree(pt: PageTable, span: int = 5 * PAGES_PER_HUGE) -> None:
    """mapped_run and unmapped_run_end agree with page-by-page translate."""
    for vpn in range(0, span, 29):
        region_end = (vpn // PAGES_PER_HUGE + 1) * PAGES_PER_HUGE
        for limit in (vpn + 1, vpn + 40, region_end + 7):
            stop = min(limit, region_end)
            pfn = pt.translate(vpn)
            if pfn is None:
                expected = None
            else:
                count = 1
                while vpn + count < stop and pt.translate(vpn + count) == pfn + count:
                    count += 1
                expected = (pfn, count)
            assert pt.mapped_run(vpn, limit) == expected
            if pt.is_huge(vpn // PAGES_PER_HUGE):
                continue
            first_mapped = next(
                (v for v in range(vpn, stop) if pt.translate(v) is not None), stop
            )
            assert pt.unmapped_run_end(vpn, stop) == first_mapped


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["map_base", "map_run", "map_huge", "unmap", "demote"]),
            st.integers(min_value=0, max_value=5 * PAGES_PER_HUGE - 1),
        ),
        max_size=80,
    )
)
def test_random_operations_preserve_invariants(ops):
    pt = PageTable()
    next_pfn = [10 * PAGES_PER_HUGE]
    for op, vpn in ops:
        vregion = vpn // PAGES_PER_HUGE
        try:
            if op == "map_base":
                pt.map_base(vpn, next_pfn[0])
                next_pfn[0] += 1
            elif op == "map_run":
                count = min(37, (vregion + 1) * PAGES_PER_HUGE - vpn)
                pt.map_base_run(vpn, next_pfn[0], count)
                next_pfn[0] += count
            elif op == "map_huge":
                pt.map_huge(vregion, next_pfn[0] // PAGES_PER_HUGE + 100)
                next_pfn[0] += PAGES_PER_HUGE
            elif op == "unmap":
                if pt.is_huge(vregion):
                    pt.unmap_huge(vregion)
                else:
                    pt.unmap_base(vpn)
            elif op == "demote":
                pt.demote(vregion)
        except MappingError:
            pass
        table_invariants(pt)


@settings(max_examples=30, deadline=None)
@given(
    pregion=st.integers(min_value=0, max_value=100),
    vregion=st.integers(min_value=0, max_value=100),
)
def test_promote_demote_roundtrip(pregion, vregion):
    """demote(promote(x)) restores exactly the original base mappings."""
    pt = PageTable()
    first_vpn = vregion * PAGES_PER_HUGE
    first_pfn = pregion * PAGES_PER_HUGE
    for offset in range(PAGES_PER_HUGE):
        pt.map_base(first_vpn + offset, first_pfn + offset)
    original = dict(pt.base_mappings())
    assert pt.promotable(vregion) == pregion
    pt.promote_in_place(vregion)
    table_invariants(pt)
    pt.demote(vregion)
    assert dict(pt.base_mappings()) == original
    table_invariants(pt)
