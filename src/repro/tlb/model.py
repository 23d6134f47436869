"""Analytic TLB capacity model.

Trace-driven simulation of the paper's workloads is infeasible (tens of GiB
of footprint, billions of accesses), so epoch-level results use a standard
LRU capacity approximation instead:

1. the epoch's memory accesses are summarised as *translation segments* —
   groups of TLB entries with uniform per-entry access frequency (one
   segment per VMA region class produced by the alignment analysis);
2. entries are granted TLB residency in descending order of per-entry
   frequency until the (conflict-derated) capacity is exhausted;
3. resident entries miss only compulsorily (once per entry per epoch),
   non-resident entries miss on every access.

This preserves the paper's mechanism exactly: a well-aligned huge region
needs 512x fewer entries than a splintered one, so alignment directly
shrinks the working set competing for TLB capacity.

The approximation is validated against the trace-driven
:class:`repro.tlb.cache.SetAssociativeTLB` in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tlb.costs import TLB_HIT_CYCLES

__all__ = ["TLBConfig", "TranslationSegment", "SegmentResult", "TranslationStats", "TLBModel"]


@dataclass(frozen=True)
class TLBConfig:
    """Capacity parameters of the modelled (second-level, shared) TLB.

    Defaults follow the paper's Xeon E5-2620 v4 testbed: 1536 L2 entries
    shared between 4 KiB and 2 MiB pages.  ``utilization`` derates the
    nominal capacity for set conflicts; ``hit_cycles`` is the translation
    cost of a TLB hit.
    """

    entries: int = 1536
    utilization: float = 0.85
    hit_cycles: float = TLB_HIT_CYCLES

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError(f"non-positive TLB entries: {self.entries}")
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError(f"utilization out of (0, 1]: {self.utilization}")

    @property
    def effective_entries(self) -> float:
        return self.entries * self.utilization


@dataclass(frozen=True)
class TranslationSegment:
    """A group of TLB entries accessed with uniform per-entry frequency."""

    entries: int
    accesses: float
    walk_cycles: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.entries < 0 or self.accesses < 0 or self.walk_cycles < 0:
            raise ValueError(f"negative segment parameter: {self}")

    @property
    def frequency(self) -> float:
        """Accesses per entry; the residency priority."""
        return self.accesses / self.entries if self.entries else 0.0


@dataclass(frozen=True)
class SegmentResult:
    """Per-segment outcome of a model evaluation."""

    segment: TranslationSegment
    resident_entries: float
    misses: float

    @property
    def walk_cycles(self) -> float:
        return self.misses * self.segment.walk_cycles


@dataclass
class TranslationStats:
    """Aggregate translation behaviour of one epoch."""

    accesses: float = 0.0
    misses: float = 0.0
    walk_cycles: float = 0.0
    segments: list[SegmentResult] = field(default_factory=list)

    @property
    def hits(self) -> float:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def translation_cycles(self, hit_cycles: float = TLB_HIT_CYCLES) -> float:
        """Total cycles spent translating addresses this epoch."""
        return self.hits * hit_cycles + self.walk_cycles


class TLBModel:
    """Evaluates translation segments against a TLB capacity."""

    #: Memo retention cap; the table resets wholesale when it fills so a
    #: long churn of unique signatures cannot grow it without bound.
    MEMO_LIMIT = 4096

    def __init__(self, config: TLBConfig | None = None) -> None:
        self.config = config or TLBConfig()
        #: Memo of results by segment signature.  The evaluation is a
        #: pure function of the segment tuple (all inputs are frozen
        #: dataclasses) and callers treat the returned stats as read-only,
        #: so replaying a cached result is exact.
        self._memo: dict[tuple[TranslationSegment, ...], TranslationStats] = {}

    def evaluate(self, segments: list[TranslationSegment]) -> TranslationStats:
        """Compute expected misses and walk cycles for one epoch."""
        key = tuple(segments)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        stats = TranslationStats()
        remaining = self.config.effective_entries
        ordered = sorted(
            (s for s in segments if s.accesses > 0 and s.entries > 0),
            key=lambda s: s.frequency,
            reverse=True,
        )
        for segment in ordered:
            resident = min(float(segment.entries), remaining)
            remaining -= resident
            resident_frac = resident / segment.entries
            capacity_misses = segment.accesses * (1.0 - resident_frac)
            compulsory = min(resident, segment.accesses * resident_frac)
            misses = min(segment.accesses, capacity_misses + compulsory)
            stats.segments.append(
                SegmentResult(segment=segment, resident_entries=resident, misses=misses)
            )
            stats.accesses += segment.accesses
            stats.misses += misses
            stats.walk_cycles += misses * segment.walk_cycles
        # Segments with zero accesses still appear in the result for
        # completeness of reporting.
        for segment in segments:
            if segment.accesses <= 0 or segment.entries <= 0:
                stats.segments.append(
                    SegmentResult(segment=segment, resident_entries=0.0, misses=0.0)
                )
                stats.accesses += max(segment.accesses, 0.0)
        if len(self._memo) >= self.MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = stats
        return stats
