"""Huge-page policy interface.

A :class:`HugePagePolicy` instance governs one layer (the guest OS or the
host/hypervisor) of one :class:`repro.os.mm.MemoryLayer`.  The layer calls
into the policy on the fault path, during background daemon passes, and on
frees; the policy calls back into the layer's promotion/allocation
primitives.  All seven systems the paper compares — Host-B-VM-B,
Misalignment, THP, Ingens, HawkEye, CA-paging, Translation-Ranger — and
Gemini itself are implementations of this interface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.os.mm import MemoryLayer

__all__ = ["EpochTelemetry", "HugePagePolicy"]


class EpochTelemetry:
    """Per-epoch feedback delivered to policies (Algorithm 1 inputs)."""

    def __init__(self, epoch: int, tlb_misses: float, fmfi: float) -> None:
        self.epoch = epoch
        self.tlb_misses = tlb_misses
        self.fmfi = fmfi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EpochTelemetry(epoch={self.epoch}, tlb_misses={self.tlb_misses:.0f}, "
            f"fmfi={self.fmfi:.2f})"
        )


class HugePagePolicy:
    """Default policy: base pages only, no coalescing (one layer of
    Host-B-VM-B)."""

    name = "base-only"

    def __init__(self) -> None:
        self.layer: "MemoryLayer | None" = None

    def attach(self, layer: "MemoryLayer") -> None:
        """Bind the policy to its layer; called once by the layer."""
        self.layer = layer

    # ------------------------------------------------------------------
    # Fault path
    # ------------------------------------------------------------------

    def wants_huge_fault(self, client: int, vregion: int) -> bool:
        """Should the fault on *vregion* be served with a whole huge page?

        Only consulted when the faulting VMA covers the full 2 MiB region
        and the region has no existing base mappings.
        """
        return False

    def alloc_huge_region(self, client: int, vregion: int) -> int | None:
        """Provide the physical region for a huge fault, or None to decline.

        The returned region must already be allocated from the layer's
        memory (the default implementation allocates from the buddy).
        """
        assert self.layer is not None
        return self.layer.alloc_huge_region()

    def choose_base_frames(
        self, client: int, vpn: int, max_pages: int
    ) -> tuple[int | None, int]:
        """Place the first pages of the unmapped, same-region run ``[vpn,
        vpn + max_pages)``; a base fault asks for a run of one page.

        * ``(frame, count)`` — page ``vpn + i`` goes to ``frame + i`` for
          the first *count* pages, and the policy has claimed those frames
          (e.g. via ``layer.memory.alloc_range``);
        * ``(None, count)`` — the first *count* pages take the default
          allocator.

        *count* is between 1 and *max_pages*.  The default places nothing;
        CA-paging and Gemini's EMA place through offset descriptors.
        """
        return (None, max_pages)

    # ------------------------------------------------------------------
    # Background daemon
    # ------------------------------------------------------------------

    def scan(self, budget: int) -> None:
        """One background promotion pass, at most *budget* regions of work."""

    # ------------------------------------------------------------------
    # Feedback and reclaim
    # ------------------------------------------------------------------

    def on_epoch(self, telemetry: EpochTelemetry) -> None:
        """Epoch-boundary feedback (TLB misses, fragmentation)."""

    def on_region_freed(self, client: int, pregion: int, aligned: bool) -> bool:
        """A huge-mapped physical region was just unmapped.

        Return True to take ownership of the (still-allocated) region —
        Gemini's huge bucket does this to recycle well-aligned huge pages —
        or False to let the layer free it to the buddy allocator.
        """
        return False

    def on_pressure(self) -> int:
        """Memory pressure callback; return the number of pages released."""
        return 0

    def on_unmap(self, client: int, vstart: int, vend: int) -> None:
        """A virtual range was unmapped; drop placement state covering it."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
