"""Unit tests for the KSM daemon (Section 8 future-work extension)."""

import pytest

from repro.hypervisor.ksm import KsmDaemon
from repro.hypervisor.platform import Platform
from repro.mem.layout import PAGES_PER_HUGE
from repro.os.mm import PROCESS
from repro.policies.base import HugePagePolicy


class HostHuge(HugePagePolicy):
    name = "host-huge"

    def wants_huge_fault(self, client, vregion):
        return True


def make_setup(host_policy=None, vms=2):
    platform = Platform(128 * PAGES_PER_HUGE, host_policy or HugePagePolicy())
    out = []
    for _ in range(vms):
        vm = platform.create_vm(16 * PAGES_PER_HUGE, HugePagePolicy())
        vma = vm.mmap(2 * PAGES_PER_HUGE, "heap")
        platform.touch_vma(vm, vma)
        out.append(vm)
    return platform, out


def test_validation():
    platform, _ = make_setup()
    with pytest.raises(ValueError):
        KsmDaemon(platform, mergeable_fraction=1.5)


def test_merging_frees_host_frames():
    platform, _vms = make_setup()
    daemon = KsmDaemon(platform, mergeable_fraction=0.3)
    free_before = platform.memory.free_pages
    merged = daemon.scan()
    assert merged > 0
    assert platform.memory.free_pages == free_before + merged
    assert daemon.pages_saved == merged


def test_merged_pages_share_frames():
    platform, vms = make_setup()
    daemon = KsmDaemon(platform, mergeable_fraction=0.5)
    daemon.scan()
    # Some frame must now back more than one gpn (across the two VMs).
    backing: dict[int, int] = {}
    for vm in vms:
        for _gpn, hpn in platform.ept(vm.id).base_mappings():
            backing[hpn] = backing.get(hpn, 0) + 1
    assert max(backing.values()) >= 2


def test_zero_fraction_merges_nothing():
    platform, _ = make_setup()
    daemon = KsmDaemon(platform, mergeable_fraction=0.0)
    assert daemon.scan() == 0


def test_huge_pages_protect_subpages_without_break_huge():
    platform, _vms = make_setup(host_policy=HostHuge())
    assert platform.host.huge_mapping_count() > 0
    daemon = KsmDaemon(platform, mergeable_fraction=0.5, break_huge=False)
    daemon.scan()
    assert daemon.demoted_huge_pages == 0
    # Huge-mapped regions were never touched.
    assert platform.host.huge_mapping_count() > 0


def test_break_huge_demotes_then_merges():
    platform, _vms = make_setup(host_policy=HostHuge())
    huge_before = platform.host.huge_mapping_count()
    daemon = KsmDaemon(
        platform, mergeable_fraction=0.5, break_huge=True, spare_aligned=False
    )
    daemon.scan()
    assert daemon.demoted_huge_pages > 0
    assert platform.host.huge_mapping_count() < huge_before
    assert daemon.merged_pages > 0


def test_spare_aligned_keeps_well_aligned_pairs():
    platform, vms = make_setup(host_policy=HostHuge())
    vm = vms[0]
    # Mark one pair well-aligned: a guest huge page over a host-huge region.
    gpregion, _ = next(iter(platform.ept(vm.id).huge_mappings()))
    vm.gpa_space.alloc_range(8 * PAGES_PER_HUGE, PAGES_PER_HUGE)
    vm.guest.table(PROCESS).map_huge(8, gpregion)
    daemon = KsmDaemon(
        platform, mergeable_fraction=0.9, break_huge=True, spare_aligned=True
    )
    daemon.scan()
    assert platform.ept(vm.id).is_huge(gpregion)  # the aligned pair survived


def test_scan_budget_covers_the_first_mappings_in_mapping_order():
    """The scan budget walks EPT base mappings in the order they were
    mapped, not region by region: which pages a budgeted pass can merge
    depends on it, so the order is part of the results."""
    platform = Platform(16 * PAGES_PER_HUGE, HugePagePolicy())
    vm = platform.create_vm(8 * PAGES_PER_HUGE, HugePagePolicy())
    mapped = []
    for offset in range(4):
        for gpregion in (0, 1):
            gpn = gpregion * PAGES_PER_HUGE + offset
            platform.host.fault(vm.id, gpn, full_region=False)
            mapped.append(gpn)
    daemon = KsmDaemon(platform)
    seen = []
    content_of = daemon._content_of

    def spy(vm_id, gpn):
        seen.append(gpn)
        return content_of(vm_id, gpn)

    daemon._content_of = spy
    daemon.scan(budget=5)
    assert seen == mapped[:5]


def _merged_gpns(platform, vms, seed):
    """Scan with a fresh daemon; returns the set of (vm, gpn) pairs that
    were remapped onto shared frames."""
    before = {
        (vm.id, gpn): hpn
        for vm in vms
        for gpn, hpn in platform.ept(vm.id).base_mappings()
    }
    daemon = KsmDaemon(platform, mergeable_fraction=0.3, seed=seed)
    assert daemon.scan() > 0
    after = {
        (vm.id, gpn): hpn
        for vm in vms
        for gpn, hpn in platform.ept(vm.id).base_mappings()
    }
    return {key for key, hpn in before.items() if after[key] != hpn}


def test_seed_selects_the_content_population():
    # Regression: the daemon's seed used to be dead — content hashes came
    # from a fresh unseeded RNG, so every seed merged the same pages.
    merged_by_seed = {}
    for seed in (0, 1, 2):
        platform, vms = make_setup()
        merged_by_seed[seed] = _merged_gpns(platform, vms, seed)
    assert merged_by_seed[0] != merged_by_seed[1]
    assert merged_by_seed[1] != merged_by_seed[2]


def test_seed_zero_is_deterministic():
    populations = []
    for _ in range(2):
        platform, vms = make_setup()
        populations.append(_merged_gpns(platform, vms, 0))
    assert populations[0] == populations[1]


def test_scan_emits_obs_counters():
    from repro import obs

    platform, _vms = make_setup()
    daemon = KsmDaemon(platform, mergeable_fraction=0.3)
    obs.enable()
    try:
        merged = daemon.scan()
        counters = obs.get().counters
        assert counters["ksm.merged_pages"] == merged > 0
    finally:
        obs.disable()
        obs.clear_context()
