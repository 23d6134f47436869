"""The virtualized platform: host memory, the host MM layer (EPT
management), and the VMs consolidated on the server.

:meth:`Platform.touch` is the simulator's memory-access entry point: it
drives the guest page-fault path (GVA -> GPA) and then the EPT-violation
path (GPA -> HPA), exactly the nesting real KVM demand paging performs.
"""

from __future__ import annotations

from typing import Iterator

from repro.mem.layout import MIB, PAGE_SIZE, PAGES_PER_HUGE
from repro.mem.physmem import PhysicalMemory
from repro.os.mm import MemoryLayer
from repro.os.vma import VMA
from repro.hypervisor.vm import PROCESS, VM
from repro.paging.index import VMTranslationIndex
from repro.paging.pagetable import PageTable
from repro.policies.base import HugePagePolicy

__all__ = ["Platform"]


def _notifications(spans: list[tuple[int, int, int, str]]) -> int:
    """Fault notifications per-page touches of ``fault_range`` *spans*
    fire: a ``base`` span once per page, a ``huge`` span once (only its
    first page faults), a ``mapped`` span never."""
    return sum(
        count if kind == "base" else int(kind == "huge") for _, _, count, kind in spans
    )


class Platform:
    """Host machine running one or more VMs under nested paging."""

    def __init__(
        self,
        host_pages: int,
        host_policy: HugePagePolicy,
        nodes: int = 1,
    ) -> None:
        self.memory = PhysicalMemory(host_pages, nodes=nodes)
        self.host = MemoryLayer("host", self.memory, host_policy)
        self.vms: dict[int, VM] = {}
        self._next_vm_id = 0
        #: The OS-noise agent (:class:`repro.sim.noise.NoiseAgent`), or
        #: None: called once per touch that faulted at either layer, so
        #: kernel/slab-style allocations interleave with workload faults.
        #: It must expose ``act_horizon`` and ``quiet``, which
        #: ``touch_range`` uses to batch the faults it proves noise-free.
        self.fault_hook = None
        #: Per-VM incremental translation-state indices (O(changed-
        #: regions) epoch work), one per attached VM.
        self.indices: dict[int, VMTranslationIndex] = {}
        #: vm id -> {(start, npages): index.invalidation_gen} for ranges
        #: proven fully translated at both layers.  While the generation
        #: matches, re-touching the range is a no-op and skips in O(1).
        self._quiescent: dict[int, dict[tuple[int, int], int]] = {}

    @classmethod
    def with_mib(
        cls, host_mib: int, host_policy: HugePagePolicy, nodes: int = 1
    ) -> "Platform":
        return cls(host_mib * MIB // PAGE_SIZE, host_policy, nodes=nodes)

    # ------------------------------------------------------------------
    # VM lifecycle
    # ------------------------------------------------------------------

    def create_vm(
        self, guest_pages: int, guest_policy: HugePagePolicy, name: str = ""
    ) -> VM:
        vm = VM(self._next_vm_id, guest_pages, guest_policy, name=name)
        self.attach_vm(vm)
        return vm

    def attach_vm(self, vm: VM) -> None:
        """Adopt an existing VM (arrival half of live migration).

        Creates a fresh EPT for the VM and wires the cross-layer hooks; the
        guest-side state (guest tables, guest-physical allocator, address
        space) arrives intact inside the VM object.  The EPT starts empty —
        the destination re-backs the resident set by demand-faulting it, so
        huge-page alignment is rebuilt under *this* host's policy.
        """
        if vm.id in self.vms:
            raise ValueError(f"VM id {vm.id} already attached")
        if self.host.has_client(vm.id):
            raise ValueError(f"VM id {vm.id} still has an EPT on this host")
        self.vms[vm.id] = vm
        self._next_vm_id = max(self._next_vm_id, vm.id + 1)
        # The guest layer can ask whether a guest-physical region it is
        # about to free was well-aligned (backed by a host huge page);
        # Gemini's huge bucket keys off this.
        ept = self.host.table(vm.id)
        vm.guest.alignment_probe = ept.is_huge
        # The index bootstraps from the tables' current state, so a
        # migrated-in VM's populated guest table is summarised too.
        self.indices[vm.id] = VMTranslationIndex(vm.guest.table(PROCESS), ept)

    def detach_vm(self, vm: VM | int) -> int:
        """Remove a VM from this host (departure half of live migration).

        Tears down the EPT and frees every host frame backing the VM; the
        VM object keeps its guest-side state so it can be re-attached
        elsewhere.  Returns the number of host pages freed.
        """
        vm_id = vm if isinstance(vm, int) else vm.id
        if vm_id not in self.vms:
            raise ValueError(f"VM id {vm_id} not attached to this platform")
        vm = self.vms[vm_id]
        index = self.indices.pop(vm.id)
        self._quiescent.pop(vm.id, None)
        # Free both slots: the guest table travels on with the VM, and
        # the EPT's teardown below must run unobserved.
        index.guest.index = index.ept.index = None
        freed = self.host.release_client(vm.id)
        del self.vms[vm.id]
        vm.guest.alignment_probe = None
        return freed

    def create_vm_mib(
        self, guest_mib: int, guest_policy: HugePagePolicy, name: str = ""
    ) -> VM:
        return self.create_vm(guest_mib * MIB // PAGE_SIZE, guest_policy, name=name)

    # ------------------------------------------------------------------
    # Memory access path
    # ------------------------------------------------------------------

    def touch(self, vm: VM, vpn: int) -> int:
        """Access guest-virtual page *vpn*: fault both layers as needed.

        Returns the host frame ultimately backing the page.
        """
        faulted = False
        gpn = vm.translate(vpn)
        if gpn is None:
            vma = vm.address_space.find(vpn)
            if vma is None:
                raise ValueError(f"{vm.name}: touch of unmapped vpn {vpn}")
            full = vma.covers_full_region(vpn // PAGES_PER_HUGE)
            gpn = vm.guest.fault(PROCESS, vpn, full_region=full)
            faulted = True
        hpn = self.host.translate(vm.id, gpn)
        if hpn is None:
            hpn = self.host.fault(vm.id, gpn, full_region=True)
            faulted = True
        if faulted and self.fault_hook is not None:
            self.fault_hook(vm)
        return hpn

    def touch_vma(self, vm: VM, vma: VMA, start: int = 0, npages: int | None = None) -> None:
        """Touch a slice of *vma* (offsets relative to its start)."""
        count = vma.npages - start if npages is None else npages
        self.touch_range(vm, vma.start + start, count)

    def touch_range(self, vm: VM, start: int, npages: int) -> None:
        """Touch ``[start, start + npages)``, batching the fault path.

        Produces the identical end state (mappings, allocator layout,
        ledger totals, RNG stream) as *npages* :meth:`touch` calls.  Work
        is done per run, not per page: a window the noise agent proves
        quiet (``act_horizon``) goes to ``fault_range`` as guest-mapped
        runs of contiguous guest frames, which only the host layer can
        fault, or as a guest-unmapped run, which faults both layers.  Only
        the page whose notification acts takes the per-page :meth:`touch`,
        so the noise allocation lands at its exact position.
        """
        end = start + npages
        hook = self.fault_hook
        horizon = None if hook is None else hook.act_horizon
        index = self.indices[vm.id]
        guest = vm.guest.table(PROCESS)
        if npages > 0:
            # Quiescent-range cache: a range once proven fully translated
            # at both layers stays a no-op until some region anywhere
            # leaves the fully-translated set (demote, unmap, remap,
            # migration teardown) — every such event bumps the index's
            # invalidation generation, so a matching fingerprint makes the
            # replay O(1) instead of O(regions).
            cache = self._quiescent.get(vm.id)
            if cache is not None and cache.get((start, npages)) == index.invalidation_gen:
                return
        all_skipped = True
        pos = start
        while pos < end:
            if pos == start or pos % PAGES_PER_HUGE == 0:
                # A region translated at both layers cannot fault at
                # either, so touching it is a no-op: skip it whole.
                vregion = pos // PAGES_PER_HUGE
                if index.region_translated(vregion):
                    pos = min(end, (vregion + 1) * PAGES_PER_HUGE)
                    continue
            all_skipped = False
            mapped = guest.translate(pos) is not None
            window = end - pos
            if mapped:
                # Only the host layer can fault here.  Stop at the guest
                # region's end so the skip above sees every region start.
                window = min(window, PAGES_PER_HUGE - pos % PAGES_PER_HUGE)
            n = window if horizon is None else horizon(window)
            if n <= 0:
                # The very next fault triggers noise: deliver it per-page
                # so the noise allocation lands at its exact position.
                self.touch(vm, pos)
                pos += 1
            elif mapped:
                pos = self._touch_mapped_run(vm, guest, pos, pos + n)
            else:
                pos += self._touch_unmapped_run(vm, pos, n)
        if all_skipped and npages > 0:
            self._quiescent.setdefault(vm.id, {})[(start, npages)] = index.invalidation_gen

    def _touch_mapped_run(self, vm: VM, guest: PageTable, start: int, limit: int) -> int:
        """Fault the host layer under the guest-mapped pages from *start*
        up to *limit* (within one guest region); returns the first page not
        handled, the first guest-unmapped one or *limit*.  Caller
        guarantees none of the resulting fault notifications acts.

        Exact because host faults never change guest mappings (emergency
        reclaim only unmaps EPT entries), and ``fault_range(gpn, n)``
        equals *n* successive host ``fault`` calls.
        """
        fires = 0
        pos = start
        while pos < limit:
            run = guest.mapped_run(pos, limit)
            if run is None:
                break
            gpn, count = run
            fires += _notifications(self.host.fault_range(vm.id, gpn, count))
            pos += count
        if fires and self.fault_hook is not None:
            self.fault_hook.quiet(fires)
        return pos

    def _touch_unmapped_run(self, vm: VM, start: int, npages: int) -> int:
        """Fault a window starting at a guest-unmapped page; returns the
        number of pages handled.  Caller guarantees none of the resulting
        fault notifications triggers noise."""
        vma = vm.address_space.find(start)
        if vma is None:
            raise ValueError(f"{vm.name}: touch of unmapped vpn {start}")
        npages = min(npages, vma.end - start)
        spans = vm.guest.fault_range(
            PROCESS, start, npages, full_region_of=vma.covers_full_region
        )
        # Count the per-page fault notifications: a page notifies iff it
        # triggered a fault at either layer (per-page delivery fires the
        # hook once per faulting touch).  None of them acts, so only the
        # count matters.
        fires = 0
        for _, gpn, count, guest_kind in spans:
            host_spans = self.host.fault_range(vm.id, gpn, count)
            if guest_kind == "base":
                fires += count
                continue
            fires += _notifications(host_spans)
            if guest_kind == "huge" and host_spans[0][3] == "mapped":
                # The span's first page triggered the guest huge fault but
                # no host fault; it still notifies exactly once.
                fires += 1
        if fires and self.fault_hook is not None:
            self.fault_hook.quiet(fires)
        return npages

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def ept(self, vm: VM | int):
        """The VM's EPT (GPA -> HPA page table); accepts a VM or its id."""
        vm_id = vm.id if isinstance(vm, VM) else vm
        return self.host.table(vm_id)

    def index_of(self, vm: VM | int) -> VMTranslationIndex:
        """The VM's translation index."""
        vm_id = vm.id if isinstance(vm, VM) else vm
        return self.indices[vm_id]

    def iter_vms(self) -> Iterator[VM]:
        yield from self.vms.values()

    @property
    def host_pages(self) -> int:
        return self.memory.total_pages
