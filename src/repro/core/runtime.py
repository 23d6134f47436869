"""Gemini runtime: cross-layer orchestration.

Wires the scanner, bookings, buckets and promoters together and advances
them once per epoch:

1. MHPS scans both layers' page tables for mis-aligned huge pages.
2. Guest side, per VM: each mis-aligned *host* huge page is classified —
   type-1 (its guest-physical region is entirely free in the guest) is
   booked so the EMA fills it with alignable allocations; type-2 goes to
   the guest promoter, which compacts and promotes the dominant virtual
   region into it.
3. Host side: each mis-aligned *guest* huge page is classified — type-1
   (no EPT entries yet) gets a host huge page booked against its first EPT
   fault; type-2 goes to the host promoter for prioritized EPT promotion.
4. Bookings and buckets expire; Algorithm 1 adjusts the booking timeout
   from the epoch's TLB-miss and fragmentation telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.core.booking import BookingTable, TimeoutController
from repro.core.bucket import HugeBucket
from repro.core.mhps import MisalignedScanner
from repro.core.policy import GeminiGuestPolicy, GeminiHostPolicy
from typing import TYPE_CHECKING

from repro.mem.fragmentation import fmfi
from repro.mem.layout import PAGES_PER_HUGE, huge_align_up

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.platform import Platform
    from repro.hypervisor.vm import VM

__all__ = ["GeminiConfig", "GeminiRuntime"]


@dataclass(frozen=True)
class GeminiConfig:
    """Tunables of the Gemini runtime (paper defaults where given)."""

    promoter_budget: int = 12
    prealloc_threshold: int = 256  # Section 4.2: selected experimentally
    prealloc_fmfi: float = 0.5     # Section 4.2: low-fragmentation gate
    initial_timeout: float = 4.0   # epochs; adapted by Algorithm 1
    adjust_period: int = 3         # P in Algorithm 1
    bucket_hold: float = 8.0       # epochs a freed aligned page is held
    booking_cap_fraction: float = 0.125  # bound on reserved space
    #: Ablation switches (Figure 16 performance breakdown).
    enable_ema_hb: bool = True
    enable_bucket: bool = True


class _GuestState:
    """Per-VM Gemini state on the guest side."""

    def __init__(
        self, vm: "VM", policy: GeminiGuestPolicy, config: GeminiConfig
    ) -> None:
        from repro.core.promoter import GuestPromoter

        self.vm = vm
        self.policy = policy
        self.controller = TimeoutController(
            initial=config.initial_timeout, period=config.adjust_period
        )
        self.booking = BookingTable(vm.guest, self.controller)
        self.bucket = HugeBucket(vm.guest, hold_epochs=config.bucket_hold)
        self.ema_hb_enabled = config.enable_ema_hb
        self.bucket_enabled = config.enable_bucket
        self.promoter = GuestPromoter(
            vm,
            budget=config.promoter_budget,
            prealloc_threshold=config.prealloc_threshold,
            prealloc_fmfi=config.prealloc_fmfi,
        )
        policy.bind(
            self.booking if config.enable_ema_hb else None,
            self.bucket if config.enable_bucket else None,
        )


class GeminiRuntime:
    """Drives Gemini's components across the platform, once per epoch."""

    def __init__(self, platform: "Platform", config: GeminiConfig | None = None) -> None:
        from repro.core.promoter import HostPromoter

        self.platform = platform
        self.config = config or GeminiConfig()
        self.scanner = MisalignedScanner(platform)
        self.host_controller = TimeoutController(
            initial=self.config.initial_timeout, period=self.config.adjust_period
        )
        self.host_booking = BookingTable(platform.host, self.host_controller)
        self.host_promoter = HostPromoter(
            platform.host, budget=self.config.promoter_budget
        )
        host_policy = platform.host.policy
        if isinstance(host_policy, GeminiHostPolicy):
            host_policy.bind(self.host_booking)
        self._guests: dict[int, _GuestState] = {}

    def register_vm(self, vm: "VM") -> None:
        """Create the per-VM guest-side components; the VM's guest policy
        must be a :class:`GeminiGuestPolicy`."""
        policy = vm.guest.policy
        if not isinstance(policy, GeminiGuestPolicy):
            raise TypeError(
                f"VM {vm.name} guest policy is {type(policy).__name__}, "
                "expected GeminiGuestPolicy"
            )
        self._guests[vm.id] = _GuestState(vm, policy, self.config)

    def unregister_vm(self, vm_id: int) -> "_GuestState | None":
        """Detach a VM from this runtime (live-migration departure).

        Host-side state tied to the VM — purposed bookings reserving host
        frames for its future EPT faults, and host-promoter queue entries —
        is released here; the returned guest-side state (booking, bucket,
        promoter, timeout controller) lives entirely inside the VM's own
        guest-physical space and travels with it: hand it to the
        destination runtime's :meth:`adopt_vm`.
        """
        state = self._guests.pop(vm_id, None)
        self.host_booking.release_matching(
            lambda purpose: isinstance(purpose, tuple) and purpose[0] == vm_id
        )
        self.host_promoter.drop_client(vm_id)
        host_policy = self.platform.host.policy
        if isinstance(host_policy, GeminiHostPolicy):
            host_policy.live_regions.pop(vm_id, None)
        return state

    def adopt_vm(self, vm: "VM", state: "_GuestState | None") -> None:
        """Re-register a migrated-in VM with its travelling guest state.

        Falls back to :meth:`register_vm` when no state is available (the
        source host was not running the Gemini runtime)."""
        if state is None:
            self.register_vm(vm)
            return
        self._guests[vm.id] = state

    def guest_state(self, vm_id: int) -> _GuestState:
        return self._guests[vm_id]

    # ------------------------------------------------------------------
    # Epoch driver
    # ------------------------------------------------------------------

    def epoch(self, now: float, tlb_misses: float = 0.0) -> None:
        """One Gemini maintenance round."""
        with obs.span("gemini.epoch"):
            with obs.span("gemini.scan"):
                result = self.scanner.scan()
            host_policy = self.platform.host.policy
            if isinstance(host_policy, GeminiHostPolicy):
                host_policy.live_regions = result.live_regions
                host_policy.guest_alignable = self._guest_region_alignable
            host_fmfi = fmfi(self.platform.memory)
            with obs.span("gemini.guest"):
                for vm_id, state in self._guests.items():
                    self._guest_round(
                        state, result.host_regions(vm_id), now, tlb_misses
                    )
            with obs.span("gemini.host"):
                with obs.span("gemini.host.scan"):
                    for vm_id in self._guests:
                        self._host_round(vm_id, result.guest_regions(vm_id), now)
                with obs.span("gemini.host.promote"):
                    if self.config.enable_ema_hb:
                        self.host_promoter.run()
                    self.host_booking.expire(now)
            self.host_controller.observe(tlb_misses, host_fmfi)

    def _guest_round(
        self, state: _GuestState, misaligned_host: list[int], now: float, tlb_misses: float
    ) -> None:
        vm = state.vm
        guest_fmfi = fmfi(vm.gpa_space)
        cap = self.config.booking_cap_fraction * vm.gpa_space.total_pages
        type2: list[int] = []
        for gpregion in misaligned_host:
            if gpregion in state.booking or gpregion in state.bucket:
                continue
            start = gpregion * PAGES_PER_HUGE
            if vm.gpa_space.range_is_free(start, PAGES_PER_HUGE):
                # Type-1: nothing allocated there yet; reserve it so the
                # EMA can fill it alignably.
                if state.ema_hb_enabled and state.booking.reserved_pages < cap:
                    state.booking.book(gpregion, now)
            else:
                type2.append(gpregion)
        if state.ema_hb_enabled:
            state.promoter.enqueue(type2)
        # Cross-layer hint for the guest policy: can the host still form
        # new huge pages?  When it cannot, unguided guest promotions would
        # only create permanently mis-aligned huge pages.
        state.policy.host_can_align = self._free_host_region() is not None
        ept = self.platform.ept(vm.id)
        state.promoter.run(ept.is_huge, guest_fmfi)
        state.booking.expire(now)
        state.bucket.tick(now)
        state.controller.observe(tlb_misses, guest_fmfi)

    def _host_round(self, vm_id: int, misaligned_guest: list[int], now: float) -> None:
        host = self.platform.host
        ept = host.table(vm_id)
        cap = self.config.booking_cap_fraction * host.memory.total_pages
        for gpregion in misaligned_guest:
            purpose = (vm_id, gpregion)
            if self.host_booking.has_purpose(purpose):
                continue
            if ept.region_population(gpregion) == 0 and not ept.is_huge(gpregion):
                # Type-1: back the future EPT fault with a reserved huge page.
                if not self.config.enable_ema_hb:
                    continue
                if self.host_booking.reserved_pages >= cap:
                    continue
                candidate = self._free_host_region()
                if candidate is not None:
                    self.host_booking.book(candidate, now, purpose=purpose)
            elif self.config.enable_ema_hb:
                self.host_promoter.enqueue(vm_id, [gpregion])

    def _guest_region_alignable(self, vm_id: int, gpregion: int) -> bool:
        """Can guest-physical region *gpregion* ever be covered by one
        guest huge page?  False when it holds allocated-but-unmapped guest
        frames (unmovable kernel objects): a huge host page spent there
        could never become well-aligned."""
        state = self._guests.get(vm_id)
        if state is None:
            return True
        vm = state.vm
        if vm.guest.owner_of_region(gpregion) is not None:
            return True
        if gpregion in state.booking or gpregion in state.bucket:
            return True
        # Otherwise every allocated frame must be base-owned.  Reverse-map
        # entries only exist for allocated frames, so that is exactly
        # allocated == base_owned_in_region (the guest owner index).
        free = vm.gpa_space.free_pages_in_range(
            gpregion * PAGES_PER_HUGE, PAGES_PER_HUGE
        )
        return PAGES_PER_HUGE - free == vm.guest.base_owned_in_region(gpregion)

    def _free_host_region(self) -> int | None:
        """Lowest free huge-aligned host region, or None."""
        # An aligned fit needs at least PAGES_PER_HUGE free pages, so only
        # the region index's large entries can qualify; they ascend by
        # start frame, so the first hit is the lowest such region.
        for start, npages in self.platform.memory.large_free_regions():
            aligned = huge_align_up(start)
            if aligned + PAGES_PER_HUGE <= start + npages:
                return aligned // PAGES_PER_HUGE
        return None

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Aggregate component statistics (for reports and breakdowns)."""
        booked = self.host_booking.booked_total
        reused = 0
        offered = 0
        promoted = self.host_promoter.promoted_total
        prealloc = 0
        for state in self._guests.values():
            booked += state.booking.booked_total
            offered += state.bucket.offered_total
            reused += state.bucket.reused_total
            promoted += state.promoter.promoted_total
            prealloc += state.promoter.preallocated_pages + state.policy.preallocated_pages
        return {
            "bookings": float(booked),
            "bucket_offered": float(offered),
            "bucket_reused": float(reused),
            "bucket_reuse_rate": reused / offered if offered else 0.0,
            "promotions": float(promoted),
            "preallocated_pages": float(prealloc),
            "scans": float(self.scanner.scans),
        }
