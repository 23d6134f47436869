"""Huge booking: temporary reservation of huge-page-sized memory regions.

Gemini reserves the memory regions corresponding to *type-1* mis-aligned
huge pages (Section 3): a region at one layer that a huge page at the other
layer maps onto, but into which no base pages have been allocated yet.
While booked, only huge-page allocations and contiguous base-page
allocations (via the EMA) may use the space, so the region can later become
a well-aligned huge page without migration.

Bookings expire after a timeout that Algorithm 1 adapts online: the
:class:`TimeoutController` perturbs the timeout by +/-10% and keeps the new
value when TLB misses decrease without increasing memory fragmentation.

The same reservation machinery (:class:`ReservedRegionPool`) backs the huge
bucket (Section 5), which holds *freed* well-aligned huge pages for reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable

from repro import obs
from repro.mem.buddy import AllocationError
from repro.mem.layout import PAGES_PER_HUGE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.os.mm import MemoryLayer

__all__ = ["ReservedRegionPool", "BookingTable", "TimeoutController"]


@dataclass
class _Reservation:
    pregion: int
    expiry: float
    purpose: Hashable | None = None
    #: frames handed out to the EMA (they now belong to page mappings and
    #: must not be freed when the reservation expires)
    handed: set[int] = field(default_factory=set)


class ReservedRegionPool:
    """Huge-page-sized physical regions held out of the buddy allocator.

    Regions enter the pool either by reserving free memory
    (:meth:`reserve_free`) or by absorbing an already-allocated region
    (:meth:`absorb`, used by the huge bucket when a well-aligned huge page
    is freed).  They leave by being claimed whole for a huge mapping, page
    by page through the EMA, or by expiring back to the buddy.
    """

    def __init__(self, layer: "MemoryLayer") -> None:
        self.layer = layer
        self._reservations: dict[int, _Reservation] = {}
        self._by_purpose: dict[Hashable, int] = {}

    # ------------------------------------------------------------------
    # Entry
    # ------------------------------------------------------------------

    def reserve_free(
        self, pregion: int, expiry: float, purpose: Hashable | None = None
    ) -> bool:
        """Reserve the fully-free region *pregion* until *expiry*."""
        if pregion in self._reservations:
            return False
        if purpose is not None and purpose in self._by_purpose:
            return False
        start = pregion * PAGES_PER_HUGE
        try:
            self.layer.memory.alloc_range(start, PAGES_PER_HUGE)
        except AllocationError:
            return False
        self._insert(_Reservation(pregion, expiry, purpose))
        return True

    def absorb(
        self, pregion: int, expiry: float, purpose: Hashable | None = None
    ) -> bool:
        """Take custody of an already-allocated region (freed huge page)."""
        if pregion in self._reservations:
            return False
        self._insert(_Reservation(pregion, expiry, purpose))
        return True

    def _insert(self, reservation: _Reservation) -> None:
        self._reservations[reservation.pregion] = reservation
        if reservation.purpose is not None:
            self._by_purpose[reservation.purpose] = reservation.pregion

    # ------------------------------------------------------------------
    # Exit
    # ------------------------------------------------------------------

    def claim_region(self, pregion: int | None = None, purpose: Hashable | None = None) -> int | None:
        """Hand out a whole untouched region for a huge mapping.

        Select by region index, by purpose, or (both None) any untouched
        reservation.  The region stays allocated; its reservation ends.
        """
        if purpose is not None:
            pregion = self._by_purpose.get(purpose)
        if pregion is None:
            pregion = next(
                (p for p, r in self._reservations.items() if not r.handed), None
            )
        if pregion is None:
            return None
        reservation = self._reservations.get(pregion)
        if reservation is None or reservation.handed:
            return None
        self._remove(reservation)
        return pregion

    def claim_page(self, frame: int) -> bool:
        """Hand out one page of a reserved region (EMA base allocation)."""
        reservation = self._reservations.get(frame // PAGES_PER_HUGE)
        if reservation is None or frame in reservation.handed:
            return False
        reservation.handed.add(frame)
        if len(reservation.handed) == PAGES_PER_HUGE:
            # Fully handed out: nothing left to manage or return.
            self._remove(reservation)
        return True

    def expire(self, now: float) -> int:
        """Release reservations past their expiry; return pages returned."""
        due = [r for r in self._reservations.values() if r.expiry <= now]
        released = 0
        for reservation in due:
            released += self._release(reservation)
        return released

    def release_all(self) -> int:
        """Release everything (memory-pressure path); return pages freed."""
        released = 0
        for reservation in list(self._reservations.values()):
            released += self._release(reservation)
        return released

    def release_matching(self, predicate) -> int:
        """Release every reservation whose *purpose* satisfies *predicate*.

        Used when a VM detaches from the host: its ``(vm_id, gpregion)``
        purposed bookings must return their frames to the buddy allocator
        (the reservations back EPT faults that will never come).  Returns
        pages freed.
        """
        due = [
            r for r in self._reservations.values()
            if r.purpose is not None and predicate(r.purpose)
        ]
        released = 0
        for reservation in due:
            released += self._release(reservation)
        return released

    def _release(self, reservation: _Reservation) -> int:
        self._remove(reservation)
        start = reservation.pregion * PAGES_PER_HUGE
        frames = [
            frame for frame in range(start, start + PAGES_PER_HUGE)
            if frame not in reservation.handed
        ]
        self.layer.memory.free_frames(frames)
        return len(frames)

    def _remove(self, reservation: _Reservation) -> None:
        del self._reservations[reservation.pregion]
        if reservation.purpose is not None:
            self._by_purpose.pop(reservation.purpose, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __contains__(self, pregion: int) -> bool:
        return pregion in self._reservations

    def __len__(self) -> int:
        return len(self._reservations)

    def has_purpose(self, purpose: Hashable) -> bool:
        return purpose in self._by_purpose

    def untouched_regions(self) -> list[int]:
        """Regions with no pages handed out yet (usable for huge faults)."""
        return [p for p, r in self._reservations.items() if not r.handed]

    def regions(self) -> list[int]:
        return list(self._reservations.keys())

    @property
    def reserved_pages(self) -> int:
        """Pages currently held back from the buddy allocator."""
        return sum(
            PAGES_PER_HUGE - len(r.handed) for r in self._reservations.values()
        )


class BookingTable(ReservedRegionPool):
    """The huge-booking component of one layer.

    A thin veneer over :class:`ReservedRegionPool` that stamps expiries
    from the adaptive timeout and counts booking outcomes for the
    evaluation's breakdowns.
    """

    def __init__(self, layer: "MemoryLayer", controller: "TimeoutController") -> None:
        super().__init__(layer)
        self.controller = controller
        self.booked_total = 0
        self.expired_total = 0

    def book(self, pregion: int, now: float, purpose: Hashable | None = None) -> bool:
        """Book *pregion* (type-1 mis-aligned target) for the current
        effective timeout."""
        ok = self.reserve_free(pregion, now + self.controller.effective, purpose)
        if ok:
            self.booked_total += 1
            obs.emit(
                "booking.book",
                region=pregion,
                timeout=round(self.controller.effective, 6),
                purpose=purpose,
            )
        return ok

    def expire(self, now: float) -> int:
        before = len(self)
        released = super().expire(now)
        expired = before - len(self)
        self.expired_total += expired
        if expired:
            obs.emit("booking.expire", count=expired, released=released)
        return released


class TimeoutController:
    """Algorithm 1: online booking-timeout adjustment.

    Cycles through measurement windows of *period* epochs: a baseline at
    the desired timeout, then a trial at +10%; if the trial reduced TLB
    misses without increasing fragmentation it is adopted, otherwise a
    fresh baseline is measured and -10% is trialled the same way.
    """

    _BASE_UP, _UP, _BASE_DOWN, _DOWN = range(4)

    def __init__(
        self,
        initial: float = 4.0,
        period: int = 3,
        min_timeout: float = 1.0,
        max_timeout: float = 64.0,
    ) -> None:
        if initial <= 0 or period <= 0:
            raise ValueError("initial timeout and period must be positive")
        self.desired = initial
        self.effective = initial
        self.period = period
        self.min_timeout = min_timeout
        self.max_timeout = max_timeout
        self._phase = self._BASE_UP
        self._window: list[tuple[float, float]] = []
        self._baseline: tuple[float, float] | None = None
        self.adjustments = 0

    def observe(self, tlb_misses: float, fmfi: float) -> None:
        """Feed one epoch of telemetry; advances the state machine."""
        self._window.append((tlb_misses, fmfi))
        if len(self._window) < self.period:
            return
        misses = sum(m for m, _ in self._window) / len(self._window)
        frag = sum(f for _, f in self._window) / len(self._window)
        self._window.clear()
        self._transition(misses, frag)

    def _transition(self, misses: float, frag: float) -> None:
        if self._phase in (self._BASE_UP, self._BASE_DOWN):
            self._baseline = (misses, frag)
            trial_up = self._phase == self._BASE_UP
            factor = 1.1 if trial_up else 0.9
            self.effective = self._clamp(self.desired * factor)
            self._phase = self._UP if trial_up else self._DOWN
            return
        assert self._baseline is not None
        base_misses, base_frag = self._baseline
        improved = misses < base_misses and frag <= base_frag
        if improved:
            # TestTimeout succeeded: adopt the trial value and keep probing
            # in the same (upward-first) order.
            self.desired = self.effective
            self.adjustments += 1
            obs.emit("booking.timeout", adopted=round(self.desired, 6))
            self._phase = self._BASE_UP
        else:
            self.effective = self.desired
            self._phase = (
                self._BASE_DOWN if self._phase == self._UP else self._BASE_UP
            )

    def _clamp(self, value: float) -> float:
        return min(max(value, self.min_timeout), self.max_timeout)
