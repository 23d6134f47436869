"""Unit tests for the MemoryLayer mechanism."""

import pytest

from repro import obs
from repro.mem.layout import PAGES_PER_HUGE
from repro.mem.physmem import PhysicalMemory
from repro.os.mm import MemoryLayer, OutOfMemory
from repro.policies.base import HugePagePolicy


class HugeFaultPolicy(HugePagePolicy):
    """Always serves faults with huge pages when possible."""

    name = "huge-always-test"

    def wants_huge_fault(self, client, vregion):
        return True


class BucketPolicy(HugePagePolicy):
    """Claims freed huge regions like Gemini's bucket."""

    name = "bucket-test"

    def __init__(self):
        super().__init__()
        self.claimed = []

    def on_region_freed(self, client, pregion, aligned):
        self.claimed.append((pregion, aligned))
        return True


class ReclaimPolicy(HugePagePolicy):
    """Releases one hoarded page under pressure."""

    name = "reclaim-test"

    def __init__(self):
        super().__init__()
        self.hoard = []

    def on_pressure(self):
        if not self.hoard:
            return 0
        self.layer.memory.free(self.hoard.pop(), 0)
        return 1


def make_layer(pages=8 * PAGES_PER_HUGE, policy=None):
    memory = PhysicalMemory(pages)
    return MemoryLayer("test", memory, policy or HugePagePolicy())


def test_base_fault_maps_and_charges():
    layer = make_layer()
    pfn = layer.fault(0, 1000)
    assert layer.translate(0, 1000) == pfn
    assert layer.owner_of_frame(pfn) == (0, 1000)
    assert layer.ledger.count("base_fault") == 1
    # Second fault on the same vpn is a no-op returning the same frame.
    assert layer.fault(0, 1000) == pfn
    assert layer.ledger.count("base_fault") == 1


def test_huge_fault_maps_whole_region():
    layer = make_layer(policy=HugeFaultPolicy())
    pfn = layer.fault(0, PAGES_PER_HUGE + 5)
    table = layer.table(0)
    assert table.is_huge(1)
    assert pfn == table.translate(PAGES_PER_HUGE + 5)
    assert layer.ledger.count("huge_fault") == 1
    pregion = table.huge_target(1)
    assert layer.owner_of_region(pregion) == (0, 1)


def test_huge_fault_suppressed_outside_full_region():
    layer = make_layer(policy=HugeFaultPolicy())
    layer.fault(0, 5, full_region=False)
    assert not layer.table(0).is_huge(0)


def test_huge_fault_suppressed_with_existing_population():
    layer = make_layer(policy=HugeFaultPolicy())
    layer.fault(0, 5, full_region=False)
    layer.fault(0, 6, full_region=True)
    assert not layer.table(0).is_huge(0)
    assert layer.table(0).region_population(0) == 2


def test_fault_out_of_memory():
    layer = make_layer(pages=2)
    layer.fault(0, 0)
    layer.fault(0, 1)
    with pytest.raises(OutOfMemory):
        layer.fault(0, 2)


def test_pressure_reclaim_allows_fault():
    policy = ReclaimPolicy()
    memory = PhysicalMemory(2)
    layer = MemoryLayer("test", memory, policy)
    policy.hoard.append(memory.alloc(0))
    layer.fault(0, 0)
    # Memory now exhausted except the hoarded page.
    pfn = layer.fault(0, 1)
    assert layer.translate(0, 1) == pfn


def test_in_place_promotion():
    layer = make_layer()
    # Fault the whole region; default allocation is sequential from frame 0
    # so the region is contiguous and aligned.
    for vpn in range(PAGES_PER_HUGE):
        layer.fault(0, vpn)
    assert layer.try_promote_in_place(0, 0)
    table = layer.table(0)
    assert table.is_huge(0)
    assert layer.owner_of_region(0) == (0, 0)
    assert layer.owner_of_frame(0) is None
    assert layer.ledger.count("inplace_promotion") == 1
    assert layer.ledger.count("tlb_shootdown") == 1


def test_in_place_promotion_fails_on_scattered_frames():
    layer = make_layer()
    layer.memory.alloc_at(0, 0)  # steal frame 0 so mappings are offset
    for vpn in range(PAGES_PER_HUGE):
        layer.fault(0, vpn)
    assert not layer.try_promote_in_place(0, 0)


def test_migration_promotion_copies_and_bloats():
    layer = make_layer()
    layer.memory.alloc_at(0, 0)  # force unaligned placement
    for vpn in range(300):
        layer.fault(0, vpn)
    assert layer.promote_with_migration(0, 0)
    table = layer.table(0)
    assert table.is_huge(0)
    assert layer.bloat_pages == PAGES_PER_HUGE - 300
    assert layer.ledger.sync["pages_copied"].count == 300
    assert layer.ledger.count("migration_promotion") == 1


def test_migration_promotion_noops():
    layer = make_layer()
    assert not layer.promote_with_migration(0, 0)  # nothing mapped
    layer.fault(0, 0)
    tiny = make_layer(pages=PAGES_PER_HUGE)  # no free huge region available
    tiny.memory.alloc_at(256, 0)
    tiny.fault(0, 0)
    assert not tiny.promote_with_migration(0, 0)


def test_compact_region_into_target():
    layer = make_layer()
    # Scatter 10 pages of region 0, then compact them into pregion 4.
    layer.memory.alloc_at(0, 0)
    for vpn in range(10):
        layer.fault(0, vpn)
    assert layer.compact_region(0, 0, 4)
    table = layer.table(0)
    base = 4 * PAGES_PER_HUGE
    for vpn in range(10):
        assert table.translate(vpn) == base + vpn
        assert layer.owner_of_frame(base + vpn) == (0, vpn)
    assert layer.ledger.count("compaction_moves") == 1


def test_compact_region_refuses_occupied_target():
    layer = make_layer()
    for vpn in range(10):
        layer.fault(0, vpn)
    # Occupy the precise frame vpn 3 would need in pregion 4.
    layer.memory.alloc_at(4 * PAGES_PER_HUGE + 3, 0)
    before = layer.table(0).region_mappings(0)
    assert not layer.compact_region(0, 0, 4)
    assert layer.table(0).region_mappings(0) == before


def test_compact_then_promote_in_place():
    layer = make_layer()
    layer.memory.alloc_at(0, 0)
    for vpn in range(PAGES_PER_HUGE):
        layer.fault(0, vpn)
    assert layer.compact_region(0, 0, 5)
    assert layer.try_promote_in_place(0, 0)
    assert layer.table(0).huge_target(0) == 5


#: First frame of the compaction target region in the witness tests.
TARGET = 4 * PAGES_PER_HUGE


@pytest.fixture
def counters():
    """The telemetry counters of the test, which runs with obs enabled."""
    obs.disable()
    yield obs.enable(obs.Telemetry()).counters
    obs.disable()


def refusals(counters):
    """(witness hits, scan refusals) recorded by ``compact_region``."""
    return (
        counters.get("compact.refuted_by_witness", 0),
        counters.get("compact.refuted_by_scan", 0),
    )


def blocked_layer(*blockers):
    """Region 0 holds vpns 0-9 at frames 0-9; a foreign allocation holds
    the frame each vpn in *blockers* needs in target region 4."""
    layer = make_layer()
    for vpn in range(10):
        layer.fault(0, vpn)
    for vpn in blockers:
        layer.memory.alloc_at(TARGET + vpn, 0)
    return layer


def compacted(layer, target=TARGET, vpns=range(10)):
    return all(layer.translate(0, vpn) == target + vpn for vpn in vpns)


def test_compact_witness_refuses_until_blocker_freed(counters):
    layer = blocked_layer(3)
    assert not layer.compact_region(0, 0, 4)
    assert not layer.compact_region(0, 0, 4)
    assert refusals(counters) == (1, 1)
    layer.memory.free(TARGET + 3, 0)
    assert layer.compact_region(0, 0, 4)
    assert compacted(layer)
    assert layer.ledger.sync["pages_copied"].count == 10
    assert layer._compact_witness == {}


def test_compact_witness_unmapped_blocker_falls_back_to_scan(counters):
    layer = blocked_layer(3, 7)
    assert not layer.compact_region(0, 0, 4)
    layer.unmap_range(0, 3, 1)
    # The witness page is gone; the scan finds the next blocker.
    assert not layer.compact_region(0, 0, 4)
    assert refusals(counters) == (0, 2)
    assert not layer.compact_region(0, 0, 4)
    assert refusals(counters) == (1, 2)
    layer.unmap_range(0, 7, 1)
    assert layer.compact_region(0, 0, 4)
    assert compacted(layer, vpns=[0, 1, 2, 4, 5, 6, 8, 9])
    assert layer.translate(0, 3) is None and layer.translate(0, 7) is None


def test_compact_witness_relocated_in_place_falls_back_to_scan(counters):
    layer = blocked_layer(3)
    assert not layer.compact_region(0, 0, 4)
    # The blocker moves onto its destination: that frame is still not
    # free, but the page holding it is the right one.
    layer.memory.free(TARGET + 3, 0)
    assert layer.relocate_page(0, 3, TARGET + 3)
    assert layer.compact_region(0, 0, 4)
    assert refusals(counters) == (0, 1)
    assert compacted(layer)
    assert layer.ledger.sync["pages_copied"].count == 1 + 9


def test_compact_witness_never_refuses_another_target(counters):
    layer = blocked_layer(3)
    layer.memory.alloc_at(5 * PAGES_PER_HUGE + 3, 0)  # blocks target 5 too
    assert not layer.compact_region(0, 0, 4)
    assert not layer.compact_region(0, 0, 5)
    assert refusals(counters) == (0, 2)
    assert layer.compact_region(0, 0, 6)
    assert refusals(counters) == (0, 2)
    assert compacted(layer, target=6 * PAGES_PER_HUGE)


def test_release_client_drops_its_compact_witnesses(counters):
    layer = blocked_layer(3)
    for vpn in range(10):
        layer.fault(1, vpn)
    assert not layer.compact_region(0, 0, 4)
    assert not layer.compact_region(1, 0, 4)
    layer.release_client(0)
    assert set(layer._compact_witness) == {(1, 0)}
    # A rebuilt client 0 is judged by a scan, not by its old witness.
    for vpn in range(10):
        layer.fault(0, vpn)
    assert not layer.compact_region(0, 0, 4)
    assert refusals(counters) == (0, 3)


def test_migration_promotion_without_huge_region_changes_nothing():
    layer = make_layer(pages=2 * PAGES_PER_HUGE)
    for vpn in range(100):
        layer.fault(0, vpn)
    layer.memory.alloc_at(PAGES_PER_HUGE + 256, 0)  # no free huge region
    table = layer.table(0)

    def state():
        ledger = layer.ledger
        return (
            dict(table.base_mappings()),
            dict(table.huge_mappings()),
            [layer.owner_of_frame(pfn) for pfn in range(layer.memory.total_pages)],
            layer.rmap_bits(0),
            dict(layer.region_owner_counts(0)),
            {name: (c.count, c.cycles) for name, c in ledger.sync.items()},
            {name: (c.count, c.cycles) for name, c in ledger.background.items()},
            layer.memory.free_pages,
        )

    before = state()
    assert not layer.promote_with_migration(0, 0)
    assert state() == before


def test_demote_restores_rmap():
    layer = make_layer(policy=HugeFaultPolicy())
    layer.fault(0, 0)
    pregion = layer.table(0).huge_target(0)
    layer.demote(0, 0)
    assert not layer.table(0).is_huge(0)
    assert layer.owner_of_region(pregion) is None
    assert layer.owner_of_frame(pregion * PAGES_PER_HUGE) == (0, 0)
    assert layer.ledger.count("demotion") == 1


def test_unmap_range_frees_base_frames():
    layer = make_layer()
    for vpn in range(10):
        layer.fault(0, vpn)
    free_before = layer.memory.free_pages
    layer.unmap_range(0, 0, 10)
    assert layer.memory.free_pages == free_before + 10
    assert layer.table(0).region_population(0) == 0


def test_unmap_full_huge_region_frees_whole_region():
    layer = make_layer(policy=HugeFaultPolicy())
    layer.fault(0, 0)
    free_before = layer.memory.free_pages
    layer.unmap_range(0, 0, PAGES_PER_HUGE)
    assert layer.memory.free_pages == free_before + PAGES_PER_HUGE
    assert not layer.table(0).is_huge(0)


def test_unmap_partial_huge_region_demotes():
    layer = make_layer(policy=HugeFaultPolicy())
    layer.fault(0, 0)
    layer.unmap_range(0, 0, 10)
    table = layer.table(0)
    assert not table.is_huge(0)
    assert table.region_population(0) == PAGES_PER_HUGE - 10
    assert layer.ledger.count("demotion") == 1


def test_policy_bucket_intercepts_freed_region():
    policy = BucketPolicy()
    memory = PhysicalMemory(8 * PAGES_PER_HUGE)
    layer = MemoryLayer("test", memory, policy)
    layer.alignment_probe = lambda pregion: True
    pregion = layer.alloc_huge_region()
    layer.table(0).map_huge(0, pregion)
    layer._rmap_huge[pregion] = (0, 0)
    free_before = memory.free_pages
    layer.unmap_range(0, 0, PAGES_PER_HUGE)
    # The policy kept the region: it was not freed to the buddy.
    assert memory.free_pages == free_before
    assert policy.claimed == [(pregion, True)]


def test_alloc_huge_region_returns_none_when_fragmented():
    layer = make_layer(pages=PAGES_PER_HUGE)
    layer.memory.alloc_at(256, 0)
    assert layer.alloc_huge_region() is None


def test_charge_scan_is_background():
    layer = make_layer()
    layer.charge_scan(100)
    assert layer.ledger.background_cycles > 0
    assert layer.ledger.sync_cycles == 0
