"""The fleet engine: churn, placement, consolidation, parallel stepping.

One :class:`ClusterSimulation` drives N hosts epoch by epoch:

1. the epoch's trace events are applied — arrivals go through the
   configured placement policy, departures free their VM (leaving the
   host-side holes behind), resizes balloon;
2. every ``consolidation.every`` epochs the controller runs a Neat-style
   consolidation pass (overload shedding, underload draining) whose moves
   are live migrations through :func:`repro.cluster.migration.migrate_out`
   / :func:`~repro.cluster.migration.migrate_in`;
3. every host steps one epoch.

Hosts live on a :class:`~repro.exec.actors.ActorPool`: each host is owned
by one worker for the whole run, so host graphs never travel (except a
migrating tenant, which is the point of a migration).  Per-epoch traffic
is **fused** into one round-trip per worker: the controller decides the
epoch's churn events up front — patching its own
:class:`~repro.cluster.host.HostView` copies with the exact, locally
computable effect of each arrival — and ships the event ops together
with the step command as a single batch per worker.  Each host step
replies with its full view, its epoch records and, from a worker
process, the worker's telemetry snapshot.  Serial (``workers=1``, hosts
in-process) and parallel runs of the same seed are bit-identical,
because the controller makes every decision from the views alone.

When parallelism cannot win, the engine does not pay for it: fleets
smaller than ``REPRO_MIN_PARALLEL`` hosts never spawn a pool (mirroring
``run_cells``), single-core sandboxes drop to in-process hosts up front,
and an adaptive first-epoch measurement retracts the pool when IPC
overhead exceeds what parallel stepping can save.

``run_cluster`` wraps a run with the content-keyed result cache, exactly
like ``run_cells`` does for single-host experiment cells.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, replace

from repro import obs
from repro.cluster.config import ClusterConfig
from repro.cluster.host import Host, HostView
from repro.cluster.migration import build_record, migrate_in, migrate_out
from repro.cluster.placement import make_placement
from repro.cluster.results import FleetResult
from repro.cluster.trace import TraceEvent, build_trace
from repro.exec.actors import ActorPool
from repro.exec.cache import ResultCache, code_version
from repro.exec.pool import min_parallel_threshold, resolve_workers
from repro.mem.layout import MIB, PAGE_SIZE
from repro.workloads import make_workload

__all__ = [
    "MIN_PARALLEL_HOSTS",
    "ClusterSimulation",
    "fleet_key",
    "run_cluster",
]

#: Smallest fleet worth a process pool: below this the per-epoch IPC and
#: pool startup dominate what a handful of hosts can save by stepping
#: concurrently.  ``REPRO_MIN_PARALLEL`` overrides (same env var
#: ``run_cells`` honours for cells).
MIN_PARALLEL_HOSTS = 4


# ----------------------------------------------------------------------
# Actor functions: run on the worker that owns the host.  Module-level so
# the pool can pickle them by reference.  The ``_queue_*`` churn ops
# return nothing (the controller already knows, or will learn from the
# fused step's view), so they add no reply traffic.
# ----------------------------------------------------------------------


def _queue_add_tenant(
    host: Host, ordinal: int, guest_mib: int, workload_name: str, epoch: int
) -> None:
    # The worker instantiates the workload from its registry name — a
    # deterministic factory — so arrivals ship a short string instead of
    # a pickled workload model.
    host.add_tenant(ordinal, guest_mib, make_workload(workload_name), epoch)


def _queue_destroy_tenant(host: Host, ordinal: int) -> None:
    host.destroy_tenant(ordinal)


def _queue_resize_tenant(
    host: Host, ordinal: int, grow: bool, fraction: float
) -> None:
    host.resize_tenant(ordinal, grow, fraction)


def _act_refresh_view(host: Host) -> HostView:
    return host.summary()


def _act_step_fused(host: Host, epoch: int, remote: bool) -> tuple:
    """Step one host; reply ``(view, host_records, tenant_records,
    telemetry)``.

    A worker's telemetry snapshot rides every step reply, so the
    controller holds all of it after each epoch.  In-process pools send
    ``None``: they share the controller's registry, and snapshotting it
    here would drain the controller's own telemetry into itself.
    """
    host.step_epoch(epoch)
    host_records, tenant_records = host.drain_records()
    return (
        host.summary(),
        host_records,
        tenant_records,
        obs.snapshot() if remote else None,
    )


def _act_migrate_out_fused(
    host: Host, ordinal: int, migration
) -> tuple[tuple, tuple]:
    """Source half for :meth:`ActorPool.transfer`: the tenant payload
    goes straight to the destination worker; the controller gets only
    the resident-set size, the copy schedule and the view."""
    tenant, state, runs, schedule, view = migrate_out(host, ordinal, migration)
    resident = sum(count for _, count in runs)
    return (tenant, state, runs), (resident, schedule, view)


def _act_migrate_in_fused(host: Host, payload: tuple, migration) -> HostView:
    tenant, state, runs = payload
    return migrate_in(host, tenant, state, runs, migration)


class ClusterSimulation:
    """One fleet simulation: N hosts, a churn trace, a placement policy."""

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()
        if self.config.hosts <= 0:
            raise ValueError("at least one host required")
        self.hosts = [Host(i, self.config) for i in range(self.config.hosts)]
        self.placement = make_placement(self.config.placement)
        self.trace = build_trace(self.config)
        self._events: dict[int, list[TraceEvent]] = {}
        for event in self.trace:
            self._events.setdefault(event.epoch, []).append(event)
        #: The controller's picture of each host; all placement and
        #: consolidation decisions read this.  Updated by every view the
        #: workers publish, plus the controller's own exact patches for
        #: queued arrivals.
        self._views: list[HostView] = [host.summary() for host in self.hosts]
        #: ordinal -> index of the host currently running the VM.
        self._vm_host: dict[int, int] = {}
        #: ordinal -> guest size in pages (the commitment a migration
        #: must find room for).
        self._guest_pages: dict[int, int] = {}
        #: Per-host committed pages and the committed==0 available-pages
        #: baseline, so the controller can patch ``available_pages``
        #: without a round-trip (the commitment model is controller
        #: state, not host state).
        self._committed = [0] * self.config.hosts
        self._avail_base = [view.available_pages for view in self._views]
        #: Per-host consolidation scores (overloaded?, underloaded?,
        #: cheapest tenant), None = dirty.  Every view update goes through
        #: :meth:`_set_view`, which invalidates the score only when the
        #: view actually changed — so between consolidation passes only
        #: hosts touched by arrivals, departures, resizes, migrations or
        #: state-changing steps are re-scored.
        self._scores: list[tuple | None] = [None] * self.config.hosts
        #: Wire traffic per epoch (controller<->workers, both ways); all
        #: zeros for in-process runs.  Diagnostics, deliberately kept off
        #: the (serial==parallel comparable) FleetResult.
        self.ipc_bytes_epochs: list[int] = []
        #: Bulk bytes moved over direct worker-to-worker pipes (fused
        #: migrations) — the data plane the controller never serialises.
        self.ipc_peer_bytes = 0
        self.result = FleetResult(
            system=self.config.system,
            placement=self.config.placement,
            hosts=self.config.hosts,
            epochs=self.config.epochs,
            seed=self.config.seed,
        )

    @property
    def ipc_bytes_per_epoch(self) -> float:
        """Mean controller<->worker bytes per epoch of the last run."""
        if not self.ipc_bytes_epochs:
            return 0.0
        return sum(self.ipc_bytes_epochs) / len(self.ipc_bytes_epochs)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self, workers: int | None = None) -> FleetResult:
        """Run all epochs; *workers* > 1 steps hosts on a process pool."""
        config = self.config
        adaptive = config.adaptive_parallel
        pool = ActorPool(self._effective_workers(workers, adaptive))
        pool.scatter(self.hosts)
        self.ipc_bytes_epochs = []
        with pool, obs.health.armed(config) as recorder:
            if recorder is not None:
                pool.on_failure = lambda error: recorder.dump(
                    "worker-exception", config=config, error=error
                )
            for epoch in range(config.epochs):
                pool.drain_window.clear()
                bytes_before = pool.bytes_sent + pool.bytes_received
                started = time.perf_counter()
                obs.set_context(host=None, epoch=epoch)
                with obs.span("fleet.epoch"):
                    snapshots = self._epoch_fused(pool, epoch)
                # Merged after the epoch span closes: a worker's spans
                # are trace roots of their own, and merged inside they
                # would adopt the controller's closed child spans.
                for snapshot in snapshots:
                    obs.merge(snapshot)
                wall = time.perf_counter() - started
                self.ipc_bytes_epochs.append(
                    pool.bytes_sent + pool.bytes_received - bytes_before
                )
                if (
                    epoch == 0
                    and adaptive
                    and not pool.is_local
                    and self._parallel_cannot_win(pool, wall)
                ):
                    # The epoch's step replies already carried the
                    # workers' telemetry home.
                    pool.retract()
            # Bring the final host states home so callers can inspect
            # them the same way after serial and parallel runs.
            self.ipc_peer_bytes = pool.peer_bytes
            self.hosts = pool.gather()
        return self.result

    def _effective_workers(self, workers: int | None, adaptive: bool) -> int:
        workers = resolve_workers(workers)
        if workers <= 1:
            return workers
        # Tiny fleets never spawn a pool at all: per-epoch IPC plus pool
        # startup dominates what so few hosts can overlap (the fleet
        # analogue of run_cells' MIN_PARALLEL_CELLS gate).
        if len(self.hosts) < min_parallel_threshold(MIN_PARALLEL_HOSTS):
            return 1
        # Nothing to overlap with: a single-core sandbox timeshares the
        # workers and pays the IPC on top.
        if adaptive and (os.cpu_count() or 1) < 2:
            return 1
        return workers

    def _parallel_cannot_win(self, pool: ActorPool, wall: float) -> bool:
        """First-epoch measurement: does IPC overhead eat the overlap?

        Comparing the epoch's wall-clock against the workers' summed
        compute answers whether this (machine, fleet, protocol) triple
        can beat the in-process loop: parallel wins only while the
        overhead beyond the critical path stays below the compute it
        takes off the controller's thread.
        """
        ideal = sum(stats.ideal_parallel for stats in pool.drain_window)
        serial = sum(stats.serial_estimate for stats in pool.drain_window)
        return wall - ideal >= serial - ideal

    # ------------------------------------------------------------------
    # Fused protocol: one round-trip per worker per epoch
    # ------------------------------------------------------------------

    def _epoch_fused(self, pool: ActorPool, epoch: int) -> list:
        """Run one epoch; returns the step replies' telemetry snapshots."""
        consolidation = self.config.consolidation
        consolidating = (
            consolidation.every > 0
            and epoch > 0
            and epoch % consolidation.every == 0
        )
        ops: list[tuple] = []
        arrivals: list[TraceEvent] = []
        # Trace order within an epoch is departures, resizes, then
        # arrivals — so arrivals (the only events whose *decision* reads
        # views) always come after the ops queued here.
        for event in self._events.get(epoch, ()):
            if event.kind == "arrive":
                arrivals.append(event)
                continue
            if event.ordinal not in self._vm_host:
                continue
            index = self._vm_host[event.ordinal]
            if event.kind == "depart":
                ops.append((index, _queue_destroy_tenant, (event.ordinal,)))
                self._committed[index] -= self._guest_pages.pop(event.ordinal)
                del self._vm_host[event.ordinal]
                # ``on`` rather than ``host``: the envelope's host slot
                # is the *emitting* process (the controller, None here).
                obs.emit_at(
                    "fleet.depart", None, epoch, ordinal=event.ordinal, on=index
                )
            else:
                ops.append((
                    index,
                    _queue_resize_tenant,
                    (event.ordinal, event.grow, event.delta_fraction),
                ))
                obs.emit_at(
                    "fleet.resize",
                    None,
                    epoch,
                    ordinal=event.ordinal,
                    on=index,
                    grow=event.grow,
                )
        if ops and (arrivals or consolidating):
            # Departures and resizes change host state in ways only the
            # hosts know (freed frames, buddy contiguity), so the views
            # placement and consolidation are about to read must be
            # refreshed — one round-trip for all queued ops plus one
            # view per touched host.
            self._flush(pool, ops)
            ops = []
        for event in arrivals:
            self._queue_arrival(event, epoch, ops)
        if consolidating:
            if ops:
                # Arrivals must land before migrations may move them;
                # their view effect is already patched in, so no
                # refresh is needed.
                pool.submit(ops)
                pool.drain()
                ops = []
            self._consolidate(pool, epoch)
        step_args = (epoch, not pool.is_local)
        for index in range(len(self.hosts)):
            ops.append((index, _act_step_fused, step_args))
        pool.submit(ops)
        # Hosts step in index order, so appending each reply's records
        # keeps the result epoch-major and host-minor.
        snapshots = []
        for view, host_records, tenant_records, snapshot in pool.drain()[
            len(ops) - len(self.hosts):
        ]:
            self._set_view(view)
            self.result.host_epochs.extend(host_records)
            self.result.tenant_epochs.extend(tenant_records)
            snapshots.append(snapshot)
        return snapshots

    def _flush(self, pool: ActorPool, ops: list[tuple]) -> None:
        """Run queued ops and refresh the views of every touched host."""
        touched = sorted({index for index, _, _ in ops})
        pool.submit(ops + [(index, _act_refresh_view, ()) for index in touched])
        for view in pool.drain()[len(ops):]:
            self._set_view(view)

    def _queue_arrival(
        self, event: TraceEvent, epoch: int, ops: list[tuple]
    ) -> None:
        # Reserve the full guest size, not the workload footprint: guest
        # munmap never returns host frames (Section 6.3), so a VM's host
        # usage grows toward its guest size over its lifetime.  RAM is
        # not overcommitted, as on real clouds.
        guest_pages = event.guest_mib * MIB // PAGE_SIZE
        needed = int(guest_pages * self.config.placement_headroom)
        index = self.placement.select(self._views, needed)
        if index is None:
            self.result.placement_failures += 1
            obs.emit_at(
                "fleet.place_fail",
                None,
                epoch,
                ordinal=event.ordinal,
                needed=needed,
            )
            return
        obs.emit_at(
            "fleet.place",
            None,
            epoch,
            ordinal=event.ordinal,
            workload=event.workload,
            guest_mib=event.guest_mib,
            on=index,
        )
        ops.append((
            index,
            _queue_add_tenant,
            (event.ordinal, event.guest_mib, event.workload, epoch),
        ))
        self._vm_host[event.ordinal] = index
        self._guest_pages[event.ordinal] = guest_pages
        self._committed[index] += guest_pages
        # Patch the controller's view with the exact effect of the
        # queued add, so later decisions in this epoch see what a
        # blocking round-trip would have returned: adding a tenant only
        # shrinks committed capacity and registers an (empty) resident
        # set — it allocates nothing.
        view = self._views[index]
        self._set_view(replace(
            view,
            available_pages=self._avail_base[index]
            - int(self._committed[index] * self.config.placement_headroom),
            residents=tuple(sorted(view.residents + ((event.ordinal, 0),))),
        ))

    def _set_view(self, view: HostView) -> None:
        """Install a host view, invalidating its cached consolidation
        score only if the view actually changed."""
        index = view.index
        if self._scores[index] is not None and view != self._views[index]:
            self._scores[index] = None
        self._views[index] = view

    # ------------------------------------------------------------------
    # Consolidation (OpenStack-Neat-style: overload shedding, then
    # underload draining; every decision deterministic — hosts in index
    # order, tenants in ordinal order, budget-capped)
    # ------------------------------------------------------------------

    def _consolidate(self, pool: ActorPool, epoch: int) -> None:
        with obs.span("fleet.consolidate"):
            self._consolidate_body(pool, epoch)

    def _host_score(self, index: int) -> tuple:
        """(overloaded, underloaded, cheapest ordinal) of the host's
        current view; cached per host and recomputed only when
        :meth:`_set_view` saw the view change."""
        score = self._scores[index]
        if score is not None:
            return score
        view = self._views[index]
        consolidation = self.config.consolidation
        # The cheapest VM to move: the smallest resident set.
        cheapest = (
            min(view.residents, key=lambda r: (r[1], r[0]))[0]
            if view.residents
            else None
        )
        score = (
            bool(view.residents)
            and (
                view.utilization > consolidation.overload
                # A host at critical memory pressure sheds load even if
                # raw utilization looks fine (free pages say nothing
                # about swap churn on an overcommitted host).
                or view.pressure >= 1.0
            ),
            bool(view.residents) and view.utilization < consolidation.underload,
            cheapest,
        )
        self._scores[index] = score
        return score

    def _consolidate_body(self, pool: ActorPool, epoch: int) -> None:
        consolidation = self.config.consolidation
        budget = consolidation.max_migrations
        for index in range(len(self._views)):
            while budget > 0:
                with obs.span("consolidate.score"):
                    overloaded, _, cheapest = self._host_score(index)
                if not overloaded:
                    break
                with obs.span("consolidate.evict"):
                    moved = self._migrate(pool, cheapest, index, epoch, "overload")
                if not moved:
                    break
                budget -= 1
        for index in range(len(self._views)):
            if budget <= 0:
                break
            with obs.span("consolidate.score"):
                _, underloaded, _ = self._host_score(index)
            if not underloaded:
                continue
            view = self._views[index]
            for ordinal, _ in view.residents:
                if budget <= 0:
                    break
                with obs.span("consolidate.evict"):
                    moved = self._migrate(pool, ordinal, index, epoch, "underload")
                if not moved:
                    break
                budget -= 1

    def _migrate(
        self, pool: ActorPool, ordinal: int, source: int, epoch: int, reason: str
    ) -> bool:
        needed = int(
            self._guest_pages[ordinal] * self.config.placement_headroom
        )
        destination = self.placement.select(
            self._views, needed, exclude=frozenset({source})
        )
        if destination is None:
            return False
        migration = self.config.migration
        # Data-plane migration: the tenant graph moves worker-to-worker;
        # the controller sees two commands and two compact replies.
        (resident, schedule, src_view), dst_view = pool.transfer(
            source,
            destination,
            _act_migrate_out_fused,
            (ordinal, migration),
            _act_migrate_in_fused,
            (migration,),
        )
        self._set_view(src_view)
        self._set_view(dst_view)
        record = build_record(
            epoch=epoch,
            ordinal=ordinal,
            source=source,
            destination=destination,
            reason=reason,
            schedule=schedule,
            resident_pages=resident,
        )
        self.result.migrations.append(record)
        obs.emit_at(
            "fleet.migrate",
            None,
            epoch,
            ordinal=ordinal,
            source=source,
            destination=destination,
            reason=reason,
            resident=record.resident_pages,
            rounds=record.rounds,
            copied=record.copied_pages,
        )
        guest_pages = self._guest_pages[ordinal]
        self._committed[source] -= guest_pages
        self._committed[destination] += guest_pages
        self._vm_host[ordinal] = destination
        return True


# ----------------------------------------------------------------------
# Cached entry point
# ----------------------------------------------------------------------

#: ClusterConfig fields that select bit-identical execution strategies;
#: excluded from the content key so every combination shares cache
#: entries (enforced by the serial/parallel equivalence tests).
EXECUTION_STRATEGY_FIELDS = ("adaptive_parallel",)


def fleet_key(config: ClusterConfig) -> str:
    """Content key of one fleet run: same key == same result.

    The worker-pool knob (:data:`EXECUTION_STRATEGY_FIELDS` — adaptive
    retraction) is excluded so both settings share cache entries, and
    the code version is folded in, as in
    :func:`repro.exec.cache.cell_key`, so editing the simulator
    invalidates stale results.
    """
    payload = asdict(config)
    for field_name in EXECUTION_STRATEGY_FIELDS:
        payload.pop(field_name, None)
    raw = json.dumps(
        {"cluster": payload, "code": code_version()},
        sort_keys=True,
        default=repr,
    ).encode()
    return hashlib.sha256(raw).hexdigest()


def run_cluster(
    config: ClusterConfig | None = None,
    workers: int | None = None,
    cache: ResultCache | None = None,
) -> FleetResult:
    """Run (or load) one fleet simulation.

    When *cache* is None, ``REPRO_CACHE_DIR`` (if set) provides one; the
    worker count only affects wall-clock time, never the result, so it is
    not part of the cache key.  A traced run bypasses the cache, whose
    hits would leave the fleet's telemetry out of the trace.
    """
    config = config or ClusterConfig()
    if obs.enabled():
        cache = None
    elif cache is None:
        cache = ResultCache.from_env(expected=FleetResult)
    key = fleet_key(config) if cache is not None else None
    if cache is not None:
        cached = cache.get(key)
        if cached is not None:
            return cached
    result = ClusterSimulation(config).run(workers=workers)
    if cache is not None:
        cache.put(key, result)
    return result
