"""Per-layer attribution for the traced run.

:class:`LayerTracer` wraps the public calls into each simulator layer
(the table in :meth:`LayerTracer.targets`) from outside the program:
class attributes are patched on their owning classes and module-level
functions at every ``repro`` module that imported them by name.  Every
wrapped call opens a ``repro.obs`` span named ``<layer>:<qualname>``,
so the program's own spans nest under it, worker snapshots carry it
home and the Chrome trace shows it.

Self time: a wrapped call's time minus the time of wrapped calls nested
inside it.  The program's own spans are not wrapped calls, so their time
counts toward the nearest enclosing wrapped call's layer.  Time outside
every wrapped call is ``unattributed_s``, which makes the layer self
times plus ``unattributed_s`` equal the traced ``run_s`` exactly.

Worker processes step their hosts while the controller waits inside
``ActorPool.drain``.  Their self times (counted under ``worker.``) are
scaled to wall-clock by the pool's measured parallelism, the summed
critical paths over the summed worker compute of every drain, and taken
out of the controller's ``exec`` self time that contains them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.mem.layout import PAGES_PER_HUGE

__all__ = ["LAYERS", "MOVES", "LayerTracer", "Target", "layer_metrics"]

LAYERS = (
    "mem", "paging", "os", "hypervisor", "metrics", "tlb", "core",
    "policies", "pressure", "cluster", "exec", "workloads",
)

#: The prediction written down before measuring: which end-to-end metric
#: each layer's metrics should move, on which workloads, and where they
#: should move it little.
MOVES = {
    "mem": ("run_s", ("matrix_fault", "fleet_churn"), ("svm_steady",)),
    "paging": ("run_s", ("matrix_fault", "fleet_churn"), ("svm_steady",)),
    "os": ("run_s", ("matrix_fault", "svm_steady"), ()),
    "hypervisor": ("run_s", ("matrix_fault", "fleet_pressure"), ()),
    "metrics": ("run_s", ("svm_steady", "fleet_churn"), ("matrix_fault",)),
    "tlb": ("run_s", ("svm_steady",), ()),
    "core": ("run_s", ("fleet_churn", "svm_steady"), ()),
    "policies": ("run_s", ("matrix_fault", "svm_steady"), ("fleet_pressure",)),
    "pressure": ("run_s", ("fleet_pressure",), ()),
    "cluster": ("run_s", ("fleet_churn",), ("fleet_pressure",)),
    "exec": ("run_s", ("fleet_pressure",), ()),
    "workloads": (
        "run_s",
        ("matrix_fault", "svm_steady", "fleet_churn", "fleet_pressure"),
        (),
    ),
}

#: Concrete policy class -> the system whose scan time it adds to (the
#: static base/huge-only policies are in no workload).
POLICY_SYSTEMS = {
    "repro.policies.systems": {
        "THPPolicy": "THP",
        "IngensPolicy": "Ingens",
        "HawkEyePolicy": "HawkEye",
        "CAPagingPolicy": "CA-paging",
        "RangerPolicy": "Translation-Ranger",
    },
    "repro.core.policy": {
        "GeminiGuestPolicy": "Gemini",
        "GeminiHostPolicy": "Gemini",
    },
}
SYSTEMS = ("THP", "Ingens", "HawkEye", "CA-paging", "Translation-Ranger", "Gemini")


def _arg(args: tuple, kwargs: dict, position: int, name: str, default=None):
    """A wrapped call's argument by position (``self`` is 0) or name."""
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


@dataclass(frozen=True)
class Target:
    """One public call to wrap."""

    layer: str
    module: str
    #: ``Class.method`` or a module-level function name.
    qualname: str
    #: ``(args, kwargs, result)`` -> work counts, recorded after the call.
    counts: Callable | None = None
    #: Inclusive-time counter the call also adds its duration to.
    timer: str | None = None
    #: ``args`` -> False to call through unrecorded.
    gate: Callable | None = None
    #: Histogram the call's duration in milliseconds is observed into.
    histogram: str | None = None

    @property
    def span(self) -> str:
        return f"{self.layer}:{self.qualname}"


class LayerTracer:
    """Installs the layer wrappers; :meth:`uninstall` restores every
    patched attribute exactly (own or inherited)."""

    def __init__(self, telemetry: obs.Telemetry) -> None:
        #: The controller's registry; any other active registry means
        #: the call runs in a forked worker.
        self.telemetry = telemetry
        self.patched: list[tuple[object, str, object, bool]] = []
        self._stack: list[float] = []
        self._seen_segments: set = set()

    # -- recording ------------------------------------------------------

    def _add_time(self, name: str, seconds: float) -> None:
        active = obs.get()
        if active is None:
            return
        active.count(name if active is self.telemetry else "worker." + name, seconds)

    def _tlb_repeat(self, args, kwargs, result):
        key = tuple(_arg(args, kwargs, 1, "segments"))
        if key in self._seen_segments:
            return {"tlb.repeats": 1}
        self._seen_segments.add(key)
        return None

    # -- the wrapped calls ---------------------------------------------

    def targets(self) -> list[Target]:
        def frames(position, name, default=0):
            return lambda a, k, r: 1 << _arg(a, k, position, name, default)

        def alloc(fn):
            return lambda a, k, r: {"mem.frames_alloc": fn(a, k, r)}

        def freed(fn):
            return lambda a, k, r: {"mem.frames_freed": fn(a, k, r)}

        def ptes(fn):
            return lambda a, k, r: {"paging.pte_writes": fn(a, k, r)}

        def attempt(kind):
            return lambda a, k, r: {f"{kind}.attempts": 1, f"{kind}.success": int(bool(r))}

        def remote(a, k):
            return not a[0].is_local

        def drained(a, k, r):
            stats = a[0].drain_window[-1]
            return {
                "exec.worker_compute_s": stats.serial_estimate,
                "exec.critical_path_s": stats.ideal_parallel,
            }

        mm, pool = "repro.os.mm", "repro.exec.actors"
        physmem, table = "repro.mem.physmem", "repro.paging.pagetable"
        platform, host = "repro.hypervisor.platform", "repro.cluster.host"
        targets = [
            Target("mem", physmem, "PhysicalMemory.alloc", alloc(frames(1, "order"))),
            Target("mem", physmem, "PhysicalMemory.alloc_at", alloc(frames(2, "order"))),
            Target("mem", physmem, "PhysicalMemory.alloc_range",
                   alloc(lambda a, k, r: _arg(a, k, 2, "npages"))),
            Target("mem", physmem, "PhysicalMemory.alloc_frames",
                   alloc(lambda a, k, r: len(r))),
            Target("mem", physmem, "PhysicalMemory.free", freed(frames(2, "order"))),
            Target("mem", physmem, "PhysicalMemory.free_range",
                   freed(lambda a, k, r: _arg(a, k, 2, "npages"))),
            Target("mem", physmem, "PhysicalMemory.free_frames",
                   freed(lambda a, k, r: len(_arg(a, k, 1, "frames")))),
            Target("mem", "repro.mem.fragmentation", "fmfi"),
            Target("paging", table, "PageTable.map_base", ptes(lambda a, k, r: 1)),
            Target("paging", table, "PageTable.map_base_run",
                   ptes(lambda a, k, r: _arg(a, k, 3, "count"))),
            Target("paging", table, "PageTable.map_huge", ptes(lambda a, k, r: 1)),
            Target("paging", table, "PageTable.unmap_base", ptes(lambda a, k, r: 1)),
            Target("paging", table, "PageTable.unmap_huge", ptes(lambda a, k, r: 1)),
            Target("paging", table, "PageTable.unmap_region_base",
                   ptes(lambda a, k, r: len(r))),
            Target("paging", table, "PageTable.promote_in_place", ptes(lambda a, k, r: 1)),
            Target("paging", table, "PageTable.remap_region",
                   ptes(lambda a, k, r: len(_arg(a, k, 2, "new_pfns")))),
            Target("paging", table, "PageTable.demote",
                   ptes(lambda a, k, r: PAGES_PER_HUGE)),
            Target("os", mm, "MemoryLayer.fault",
                   lambda a, k, r: {"os.fault_calls": 1, "os.pages_faulted": 1}),
            Target("os", mm, "MemoryLayer.fault_range",
                   lambda a, k, r: {"os.fault_calls": 1,
                                    "os.pages_faulted": _arg(a, k, 3, "npages")}),
            Target("os", mm, "MemoryLayer.try_promote_in_place", attempt("os.promote")),
            Target("os", mm, "MemoryLayer.promote_with_migration", attempt("os.promote")),
            Target("os", mm, "MemoryLayer.compact_region", attempt("os.compact")),
            Target("os", mm, "MemoryLayer.demote"),
            Target("os", mm, "MemoryLayer.unmap_range"),
            Target("os", mm, "MemoryLayer.release_client"),
            Target("os", mm, "MemoryLayer.relocate_huge"),
            Target("os", mm, "MemoryLayer.relocate_page"),
            Target("hypervisor", platform, "Platform.touch_range",
                   lambda a, k, r: {"hypervisor.pages_touched": _arg(a, k, 3, "npages")}),
            Target("hypervisor", platform, "Platform.touch",
                   lambda a, k, r: {"hypervisor.pages_touched": 1}),
            Target("hypervisor", platform, "Platform.attach_vm"),
            Target("hypervisor", platform, "Platform.detach_vm"),
            Target("hypervisor", "repro.hypervisor.balloon", "BalloonDriver.inflate",
                   lambda a, k, r: {"hypervisor.balloon_pages": r}),
            Target("hypervisor", "repro.hypervisor.balloon", "BalloonDriver.deflate",
                   lambda a, k, r: {"hypervisor.balloon_pages": r}),
            Target("hypervisor", "repro.hypervisor.ksm", "KsmDaemon.scan",
                   timer="hypervisor.ksm_s"),
            Target("metrics", "repro.metrics.alignment", "classify_region",
                   lambda a, k, r: {"metrics.regions_classified": 1}),
            Target("metrics", "repro.metrics.alignment", "alignment_report"),
            Target("tlb", "repro.tlb.model", "TLBModel.evaluate", self._tlb_repeat),
            Target("core", "repro.core.runtime", "GeminiRuntime.epoch"),
            Target("core", "repro.core.promoter", "GuestPromoter.run",
                   lambda a, k, r: {"core.promoted": r}),
            Target("core", "repro.core.promoter", "HostPromoter.run",
                   lambda a, k, r: {"core.promoted": r}),
            Target("core", "repro.core.booking", "BookingTable.book", attempt("core.book")),
            Target("core", "repro.core.booking", "BookingTable.expire",
                   lambda a, k, r: {"core.expired": r}),
            Target("pressure", "repro.pressure.controller", "PressureController.run"),
            Target("pressure", "repro.pressure.controller", "PressureController.log_dirty"),
            Target("pressure", "repro.mem.swap", "SwapDevice.swap_out",
                   lambda a, k, r: {"pressure.swap_out_pages": 1}),
            Target("pressure", "repro.mem.swap", "SwapDevice.swap_in",
                   lambda a, k, r: {"pressure.swap_in_pages": 1}),
            Target("cluster", host, "Host.step_epoch",
                   timer="cluster.step_s", histogram="cluster.step_ms"),
            Target("cluster", host, "Host.add_tenant"),
            Target("cluster", host, "Host.destroy_tenant"),
            Target("cluster", host, "Host.resize_tenant"),
            Target("cluster", "repro.cluster.placement", "PlacementPolicy.select",
                   lambda a, k, r: {"cluster.select.calls": 1,
                                    "cluster.select.fail": int(r is None)}),
            Target("cluster", "repro.cluster.migration", "migrate_out",
                   timer="cluster.migrate_s"),
            Target("cluster", "repro.cluster.migration", "migrate_in",
                   lambda a, k, r: {"cluster.migrations": 1},
                   timer="cluster.migrate_s"),
            Target("exec", pool, "ActorPool.scatter",
                   gate=lambda a, k: a[0].workers > 1 and len(_arg(a, k, 1, "states")) > 1),
            Target("exec", pool, "ActorPool.submit", gate=remote),
            Target("exec", pool, "ActorPool.drain", drained, "exec.wait_s", remote),
            Target("exec", pool, "ActorPool.transfer", drained, "exec.wait_s", remote),
            Target("exec", pool, "ActorPool.gather", None, "exec.wait_s", remote),
            Target("workloads", "repro.workloads.base", "Workload.run_epoch"),
            Target("workloads", "repro.workloads.families", "StaticArrayWorkload.setup"),
            Target("workloads", "repro.workloads.families", "DynamicChurnWorkload.setup"),
            Target("workloads", "repro.workloads.families", "DynamicChurnWorkload.run_epoch"),
        ]
        for module, classes in POLICY_SYSTEMS.items():
            for cls, system in classes.items():
                targets.append(Target(
                    "policies", module, f"{cls}.scan",
                    lambda a, k, r: {"policies.scan_calls": 1},
                    f"policies.{system}.scan_s",
                ))
        return targets

    # -- install / restore ---------------------------------------------

    def _wrap(self, target: Target, original):
        tracer = self
        span, counts, timer, gate = target.span, target.counts, target.timer, target.gate
        histogram = target.histogram
        self_key = f"{target.layer}.self_s"
        calls_key = f"{target.layer}.calls"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if gate is not None and not gate(args, kwargs):
                return original(*args, **kwargs)
            stack = tracer._stack
            stack.append(0.0)
            start = time.perf_counter()
            try:
                with obs.span(span):
                    result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                tracer._add_time(self_key, elapsed - nested)
                if timer is not None:
                    tracer._add_time(timer, elapsed)
            active = obs.get()
            if active is not None:
                active.count(calls_key)
                if histogram is not None:
                    active.observe(histogram, elapsed * 1e3)
                if counts is not None:
                    for name, value in (counts(args, kwargs, result) or {}).items():
                        active.count(name, value)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        self.patched.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for target in self.targets():
            module = importlib.import_module(target.module)
            if "." in target.qualname:
                cls_name, attr = target.qualname.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, attr, self._wrap(target, getattr(owner, attr)))
                continue
            original = getattr(module, target.qualname)
            wrapper = self._wrap(target, original)
            # Name imports (``from repro.metrics.alignment import
            # classify_region``) hold their own binding: patch each.
            for name, loaded in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and (
                    vars(loaded).get(target.qualname) is original
                ):
                    self._patch(loaded, target.qualname, wrapper)

    def uninstall(self) -> None:
        while self.patched:
            owner, attr, original, had_own = self.patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._seen_segments.clear()


def layer_metrics(
    telemetry: obs.Telemetry, run_s: float, outcomes: list
) -> dict[str, float]:
    """Per-layer metrics of one traced run (``run_s`` excludes
    constructors, which run with telemetry suspended)."""
    counters = telemetry.counters

    def get(name: str) -> float:
        return counters.get(name, 0.0)

    def ratio(part: str, whole: str) -> float:
        return get(part) / get(whole) if get(whole) else 0.0

    compute = get("exec.worker_compute_s")
    scale = get("exec.critical_path_s") / compute if compute else 0.0

    def seconds(name: str) -> float:
        return get(name) + scale * get("worker." + name)

    metrics = {f"{layer}.self_s": seconds(f"{layer}.self_s") for layer in LAYERS}
    metrics["exec.self_s"] -= scale * sum(
        get(f"worker.{layer}.self_s") for layer in LAYERS
    )
    metrics["unattributed_s"] = run_s - sum(
        metrics[f"{layer}.self_s"] for layer in LAYERS
    )
    steps = telemetry.histogram("cluster.step_ms")
    quantiles = telemetry.quantiles("cluster.step_ms", (0.5, 0.9)) or {}
    epochs = sum(outcome.epochs for outcome in outcomes)
    metrics.update({
        "mem.calls": get("mem.calls"),
        "mem.frames_alloc": get("mem.frames_alloc"),
        "mem.frames_freed": get("mem.frames_freed"),
        "paging.calls": get("paging.calls"),
        "paging.pte_writes": get("paging.pte_writes"),
        "os.fault_calls": get("os.fault_calls"),
        "os.pages_faulted": get("os.pages_faulted"),
        "os.promote.attempts": get("os.promote.attempts"),
        "os.promote.success_ratio": ratio("os.promote.success", "os.promote.attempts"),
        "os.compact.attempts": get("os.compact.attempts"),
        "os.compact.success_ratio": ratio("os.compact.success", "os.compact.attempts"),
        "hypervisor.pages_touched": get("hypervisor.pages_touched"),
        "hypervisor.fault_per_touch": ratio("os.pages_faulted", "hypervisor.pages_touched"),
        "hypervisor.balloon_pages": get("hypervisor.balloon_pages"),
        "hypervisor.ksm_s": seconds("hypervisor.ksm_s"),
        "metrics.regions_classified": get("metrics.regions_classified"),
        "tlb.calls": get("tlb.calls"),
        "tlb.repeat_ratio": ratio("tlb.repeats", "tlb.calls"),
        "core.promoted": get("core.promoted"),
        "core.book.attempts": get("core.book.attempts"),
        "core.book.success_ratio": ratio("core.book.success", "core.book.attempts"),
        "core.expired": get("core.expired"),
        "policies.scan_calls": get("policies.scan_calls"),
        **{
            f"policies.{system}.scan_s": seconds(f"policies.{system}.scan_s")
            for system in SYSTEMS
        },
        "pressure.swap_out_pages": get("pressure.swap_out_pages"),
        "pressure.swap_in_pages": get("pressure.swap_in_pages"),
        "cluster.step_ms.p50": quantiles.get(0.5, 0.0),
        "cluster.step_ms.p90": quantiles.get(0.9, 0.0),
        "cluster.step_ms.n": steps[0] if steps else 0,
        "cluster.select.calls": get("cluster.select.calls"),
        "cluster.select.fail_ratio": ratio("cluster.select.fail", "cluster.select.calls"),
        "cluster.migrations": get("cluster.migrations"),
        "cluster.migrate_s": seconds("cluster.migrate_s"),
        "cluster.controller_s": run_s - seconds("cluster.step_s") if steps else 0.0,
        "exec.wait_s": get("exec.wait_s"),
        "exec.worker_compute_s": compute,
        "exec.ipc_bytes_per_epoch": (
            sum(outcome.ipc_bytes for outcome in outcomes) / epochs if epochs else 0.0
        ),
        "exec.peer_bytes": sum(outcome.peer_bytes for outcome in outcomes),
    })
    return metrics
