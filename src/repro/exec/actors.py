"""Sticky-state worker pool: workers own long-lived state (actor model).

``run_cells`` ships each work item to whichever worker is free — right
for stateless cells, hopeless for the cluster engine, where every epoch
mutates the same N multi-megabyte host graphs.  Shipping hosts back and
forth every epoch costs more than stepping them.

:class:`ActorPool` fixes the economics by pinning state to workers:
``scatter`` distributes the state objects once (while they are still
small), after which every call sends only a function reference plus its
arguments and receives only the function's return value — the state
itself never travels.  The assignment is static (state ``i`` lives on
worker ``i % workers``), so a given state is always mutated by the same
process and results cannot depend on scheduling.

The hot-path API is the asynchronous ``submit``/``drain`` pair: the
caller stages one *batch* of ``(index, fn, args)`` operations — several
ops may target the same state, and they execute in batch order — and the
pool ships **one fused message per worker**, then decodes worker replies
in arrival order while the stragglers are still computing.  ``apply``
and ``map`` are thin wrappers over one submit/drain cycle.

A batch may carry one *per-worker epilogue* (``each_worker``): a
function every worker runs once over its whole state dict after the
batch, with the per-worker returns collected in :attr:`ActorPool.extras`.
Aggregations over many states (draining spooled records, say) thus cross
the pipe as one blob per worker instead of one per state.

``transfer`` separates the data plane from the control plane: moving a
payload from one state to another (a live-migrating VM, say) ships the
bulk bytes over a direct worker-to-worker pipe — or hands the object
straight across when both states share a worker — while the parent sends
only the two commands and receives only the two compact replies.  The
payload never transits the parent, so the parent's pipes (and the
``bytes_*`` counters, which measure exactly them) carry control traffic
only; data-plane bytes are tallied separately in ``peer_bytes``.

Wire format: every message and reply is an explicit
``pickle.dumps(..., pickle.HIGHEST_PROTOCOL)`` blob moved with
``send_bytes``/``recv_bytes``, so the pool can count the exact bytes
crossing the pipes (``bytes_sent``/``bytes_received``) and callers can
measure per-step IPC traffic.  Blobs above
:data:`WIRE_COMPRESS_THRESHOLD` are zlib-compressed when that makes them
smaller (a one-byte marker keeps small messages overhead-free); byte
counters always report what actually crossed the pipe.  Each reply
carries the worker's compute seconds for the batch; ``drain_window``
collects per-drain :class:`DrainStats` so callers can compare IPC
overhead against compute and call :meth:`ActorPool.retract` — pull every
state back in-process and continue locally — when parallelism cannot
win.

Serial fallback is built in: with ``workers <= 1``, or when the sandbox
cannot fork, the pool keeps the states in-process and calls the
functions directly on them.  Both modes run the *same* caller code;
parallelism only changes where the mutation happens.

Functions passed to the pool must be module-level (they are pickled by
reference) and take the state as their first argument.  Exceptions
raised by a function are re-raised in the parent; exceptions that cannot
survive the pipe (unpicklable, or unpicklable *on the parent side*) are
normalised to a ``RuntimeError`` carrying the original ``repr`` and the
worker traceback, never left to hang the protocol.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
import zlib
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait

from repro.exec.pool import resolve_workers
from repro.obs import current_context

__all__ = ["ActorPool", "DrainStats", "WIRE_COMPRESS_THRESHOLD"]

#: Smallest pickle worth attempting wire compression on.  Steady-state
#: command/reply blobs sit well below this and skip the zlib call; the
#: big wins are bulk payloads (migrating VM graphs, record spools).
WIRE_COMPRESS_THRESHOLD = 512


@dataclass(frozen=True)
class DrainStats:
    """Timing of one submit/drain cycle, for adaptive serial fallback."""

    #: Wall-clock seconds from submit to the last reply decoded.
    wall: float
    #: Per-worker compute seconds for the batch (one entry per worker
    #: that received ops; the single entry is the whole batch when the
    #: pool runs locally).
    computes: tuple[float, ...]

    @property
    def serial_estimate(self) -> float:
        """What the batch would have cost computed in-process."""
        return sum(self.computes)

    @property
    def ideal_parallel(self) -> float:
        """The batch's critical path: the slowest worker's compute."""
        return max(self.computes) if self.computes else 0.0

    @property
    def overhead(self) -> float:
        """Wall-clock not explained by compute: IPC, pickling, waiting."""
        return self.wall - self.ideal_parallel


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)


def _encode_wire(blob: bytes) -> bytes:
    """Frame one pickle for the pipe: ``\\x00`` raw or ``\\x01`` zlib.

    Compression is attempted only above the threshold and kept only when
    it actually shrinks the blob, so small messages pay exactly one
    marker byte and incompressible ones never regress.
    """
    if len(blob) > WIRE_COMPRESS_THRESHOLD:
        packed = zlib.compress(blob, 1)
        if len(packed) < len(blob):
            return b"\x01" + packed
    return b"\x00" + blob


def _decode_wire(data: bytes) -> bytes:
    if data[:1] == b"\x01":
        return zlib.decompress(data[1:])
    return data[1:]


def _portable_exception(exc: BaseException) -> BaseException:
    """An exception guaranteed to survive the pipe in *both* directions.

    A worker exception is proven picklable by round-tripping it here, in
    the worker — an exception that pickles but cannot be *unpickled*
    (e.g. an ``__init__`` with mandatory extra arguments) would otherwise
    detonate inside the parent's ``recv`` and desynchronise the
    protocol.  Anything that fails the round trip is replaced by a
    ``RuntimeError`` carrying its ``repr``; either way the worker-side
    traceback travels along as an exception note, prefixed with the
    telemetry context — which host and epoch the worker was on — so a
    fleet failure is attributable without re-running serially.
    """
    note = "worker traceback:\n" + traceback.format_exc()
    host, epoch = current_context()
    if host is not None or epoch is not None:
        note = f"worker context: host={host} epoch={epoch}\n" + note
    try:
        clone = pickle.loads(_dumps(exc))
    except Exception:
        clone = RuntimeError(f"unpicklable worker exception: {exc!r}")
    try:
        clone.add_note(note)
    except Exception:  # pragma: no cover - its ``__notes__`` is not a list
        pass
    return clone


def _worker_main(
    conn: Connection,
    states: dict[int, object],
    peers: dict[int, Connection],
) -> None:
    """Child process loop: execute fused op batches against owned states."""
    while True:
        try:
            message = pickle.loads(_decode_wire(conn.recv_bytes()))
        except EOFError:  # parent went away
            return
        if message is None:
            return
        kind = message[0]
        try:
            started = time.perf_counter()
            if kind == "batch":
                results = [
                    fn(states[index], *args) for index, fn, args in message[1]
                ]
                extra = None
                if message[2] is not None:
                    each_fn, each_args = message[2]
                    extra = each_fn(states, *each_args)
                payload = ("ok", results, extra, time.perf_counter() - started)
            elif kind == "xfer_out":
                _, index, fn, args, dst = message
                try:
                    peer_payload, reply = fn(states[index], *args)
                except BaseException:
                    # Unblock the destination before reporting the
                    # failure, or it would wait on the peer pipe forever.
                    peers[dst].send_bytes(_encode_wire(_dumps(("err",))))
                    raise
                blob = _encode_wire(_dumps(("ok", peer_payload)))
                peers[dst].send_bytes(blob)
                payload = (
                    "ok", [reply], len(blob), time.perf_counter() - started
                )
            elif kind == "xfer_in":
                _, index, fn, args, src = message
                peer_msg = pickle.loads(
                    _decode_wire(peers[src].recv_bytes())
                )
                if peer_msg[0] == "err":
                    raise RuntimeError("transfer source failed")
                reply = fn(states[index], peer_msg[1], *args)
                payload = (
                    "ok", [reply], None, time.perf_counter() - started
                )
            elif kind == "xfer_local":
                # Source and destination share this worker: hand the
                # payload object straight across, exactly like a local
                # pool would.
                _, src_index, out_fn, out_args, dst_index, in_fn, in_args = (
                    message
                )
                peer_payload, out_reply = out_fn(states[src_index], *out_args)
                in_reply = in_fn(states[dst_index], peer_payload, *in_args)
                payload = (
                    "ok",
                    [out_reply, in_reply],
                    None,
                    time.perf_counter() - started,
                )
            elif kind == "gather":
                payload = (
                    "ok",
                    sorted(states.items()),
                    None,
                    time.perf_counter() - started,
                )
            else:  # pragma: no cover - protocol misuse
                payload = ("err", ValueError(f"unknown message {kind!r}"))
            blob = _dumps(payload)
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            blob = _dumps(("err", _portable_exception(exc)))
        conn.send_bytes(_encode_wire(blob))


class ActorPool:
    """Workers that own state objects across calls."""

    def __init__(self, workers: int | None = None) -> None:
        self.workers = resolve_workers(workers)
        self._local: list | None = None
        self._procs: list = []
        self._conns: list[Connection] = []
        self._owner: dict[int, int] = {}  # state index -> worker slot
        #: Pending submit: (per-slot op batches, op count) in parallel
        #: mode, the raw op list in local mode.
        self._pending: tuple | None = None
        self._pending_started = 0.0
        #: Exact bytes moved over the parent's pipes (0 while running
        #: locally) — the control plane.
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Bytes moved over direct worker-to-worker pipes by
        #: :meth:`transfer` — the data plane, which never transits (or
        #: serialises on) the parent.
        self.peer_bytes = 0
        #: Per-worker epilogue returns of the last drained batch, in
        #: worker-slot order (one entry for a local pool); empty when the
        #: batch carried no ``each_worker``.
        self.extras: list = []
        #: Per-drain timing, appended by every drain; callers own the
        #: window (clear it, read it) to implement adaptive fallback.
        self.drain_window: list[DrainStats] = []
        #: Optional hook invoked with the captured worker exception just
        #: before a drain/transfer re-raises it — the flight recorder
        #: dumps its postmortem bundle here, while the pool (and the
        #: controller's telemetry) still reflect the failing batch.
        self.on_failure = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def is_local(self) -> bool:
        return self._local is not None

    def scatter(self, states: list) -> None:
        """Distribute *states*; must be called exactly once, first."""
        if self._local is not None or self._procs:
            raise RuntimeError("scatter may only be called once")
        if self.workers <= 1 or len(states) <= 1:
            self._local = list(states)
            return
        try:
            pickle.dumps(states)
        except Exception:
            self._local = list(states)
            return
        slots = min(self.workers, len(states))
        owned: list[dict[int, object]] = [{} for _ in range(slots)]
        for index, state in enumerate(states):
            self._owner[index] = index % slots
            owned[index % slots][index] = state
        try:
            context = multiprocessing.get_context(
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
            # Data-plane mesh: one duplex pipe per worker pair, created
            # before any fork so every child inherits its ends.  The
            # parent uses none of them and closes its copies afterwards.
            peers: list[dict[int, Connection]] = [{} for _ in range(slots)]
            for a in range(slots):
                for b in range(a + 1, slots):
                    end_a, end_b = context.Pipe()
                    peers[a][b] = end_a
                    peers[b][a] = end_b
            for slot in range(slots):
                parent_conn, child_conn = context.Pipe()
                proc = context.Process(
                    target=_worker_main,
                    args=(child_conn, owned[slot], peers[slot]),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
            for slot_peers in peers:
                for peer_conn in slot_peers.values():
                    peer_conn.close()
        except (OSError, PermissionError):
            # Sandboxes without process support: run everything locally.
            self.close()
            self._owner.clear()
            self._local = list(states)

    def retract(self) -> None:
        """Adaptive fallback: pull every state back and go local.

        After retract the pool behaves exactly like a ``workers=1`` pool
        seeded with the workers' current states — callers keep running
        the same code, mutations just happen in-process.  Results are
        unaffected: where a deterministic function runs does not change
        what it returns.
        """
        if self._local is not None:
            return
        if self._pending is not None:
            raise RuntimeError("retract with a drain pending")
        states = self.gather()
        self.close()
        self._owner.clear()
        self._local = states

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send_bytes(_encode_wire(_dumps(None)))
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
        self._conns = []
        self._procs = []

    def __enter__(self) -> "ActorPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------

    def _send(self, conn: Connection, message) -> None:
        data = _encode_wire(_dumps(message))
        self.bytes_sent += len(data)
        conn.send_bytes(data)

    def _recv(self, conn: Connection):
        data = conn.recv_bytes()
        self.bytes_received += len(data)
        payload = pickle.loads(_decode_wire(data))
        if payload[0] == "err":
            raise payload[1]
        return payload[1], payload[2], payload[3]

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def submit(
        self, ops: list[tuple], each_worker: tuple | None = None
    ) -> None:
        """Stage one batch of ``(index, fn, args)`` ops.

        One fused message per worker that owns any of the ops; several
        ops may target the same state and run in batch order.  Exactly
        one :meth:`drain` must follow before the next submit.

        *each_worker* — optional ``(fn, args)`` epilogue every worker
        runs once, after its ops, as ``fn(states, *args)`` over its whole
        ``{index: state}`` dict; the per-worker returns land in
        :attr:`extras` (worker-slot order) at drain time.  Workers with
        no ops in the batch still run the epilogue.
        """
        if self._pending is not None:
            raise RuntimeError("submit while a previous batch is undrained")
        self._pending_started = time.perf_counter()
        if self._local is not None:
            self._pending = ("local", list(ops), each_worker)
            return
        batches: list[list] = [[] for _ in self._conns]
        positions: list[list[int]] = [[] for _ in self._conns]
        for position, (index, fn, args) in enumerate(ops):
            slot = self._owner[index]
            batches[slot].append((index, fn, args))
            positions[slot].append(position)
        sent: list[int] = []
        for slot, (conn, batch) in enumerate(zip(self._conns, batches)):
            if batch or each_worker is not None:
                self._send(conn, ("batch", batch, each_worker))
                sent.append(slot)
        self._pending = (
            "remote", positions, len(ops), sent, each_worker is not None
        )

    def drain(self) -> list:
        """Results of the pending batch, in op order.

        Worker replies are received and decoded in *arrival* order —
        the parent aggregates one worker's output while the others are
        still stepping — and only the final placement is by op order.
        """
        if self._pending is None:
            raise RuntimeError("drain without a pending submit")
        pending, self._pending = self._pending, None
        self.extras = []
        if pending[0] == "local":
            _, ops, each_worker = pending
            started = time.perf_counter()
            results = [
                fn(self._local[index], *args) for index, fn, args in ops
            ]
            if each_worker is not None:
                each_fn, each_args = each_worker
                states = dict(enumerate(self._local))
                self.extras = [each_fn(states, *each_args)]
            compute = time.perf_counter() - started
            self.drain_window.append(
                DrainStats(wall=compute, computes=(compute,))
            )
            return results
        _, positions, count, sent, has_epilogue = pending
        results: list = [None] * count
        extras: dict[int, object] = {}
        computes: list[float] = []
        waiting = {self._conns[slot]: slot for slot in sent}
        failure: BaseException | None = None
        while waiting:
            for conn in wait(list(waiting)):
                slot = waiting.pop(conn)
                try:
                    payload, extra, seconds = self._recv(conn)
                except BaseException as exc:  # noqa: BLE001 - keep draining
                    # Drain the remaining workers before raising, so the
                    # pipes stay aligned for the caller's next batch.
                    failure = failure or exc
                    continue
                computes.append(seconds)
                extras[slot] = extra
                for position, result in zip(positions[slot], payload):
                    results[position] = result
        if has_epilogue:
            self.extras = [extras[slot] for slot in sorted(extras)]
        self.drain_window.append(
            DrainStats(
                wall=time.perf_counter() - self._pending_started,
                computes=tuple(computes),
            )
        )
        if failure is not None:
            if self.on_failure is not None:
                self.on_failure(failure)
            raise failure
        return results

    def apply(self, fn, index: int, *args):
        """Run ``fn(state[index], *args)`` on the owning worker."""
        self.submit([(index, fn, args)])
        return self.drain()[0]

    def map(self, fn, args_by_index: list[tuple]) -> list:
        """Run ``fn(state[i], *args_by_index[i])`` for every state, in
        parallel across workers; returns results in state order."""
        self.submit(
            [(index, fn, args) for index, args in enumerate(args_by_index)]
        )
        return self.drain()

    def transfer(
        self,
        source: int,
        dest: int,
        out_fn,
        out_args: tuple,
        in_fn,
        in_args: tuple,
    ) -> tuple:
        """Move a payload from one state to another, worker-to-worker.

        ``out_fn(state[source], *out_args)`` must return ``(payload,
        reply)``; the payload travels over the direct peer pipe to the
        destination worker (or is handed across in-process when both
        states share a worker), where ``in_fn(state[dest], payload,
        *in_args)`` consumes it and produces the second reply.  Returns
        ``(out_reply, in_reply)``.  Only the commands and the two replies
        touch the parent's pipes.
        """
        if self._pending is not None:
            raise RuntimeError("transfer while a batch is undrained")
        started = time.perf_counter()
        if self._local is not None:
            payload, out_reply = out_fn(self._local[source], *out_args)
            in_reply = in_fn(self._local[dest], payload, *in_args)
            compute = time.perf_counter() - started
            self.drain_window.append(
                DrainStats(wall=compute, computes=(compute,))
            )
            return out_reply, in_reply
        src_slot = self._owner[source]
        dst_slot = self._owner[dest]
        if src_slot == dst_slot:
            self._send(
                self._conns[src_slot],
                ("xfer_local", source, out_fn, out_args, dest, in_fn, in_args),
            )
            replies, _, seconds = self._recv(self._conns[src_slot])
            self.drain_window.append(
                DrainStats(
                    wall=time.perf_counter() - started, computes=(seconds,)
                )
            )
            return replies[0], replies[1]
        self._send(
            self._conns[src_slot], ("xfer_out", source, out_fn, out_args, dst_slot)
        )
        self._send(
            self._conns[dst_slot], ("xfer_in", dest, in_fn, in_args, src_slot)
        )
        roles = {self._conns[src_slot]: "out", self._conns[dst_slot]: "in"}
        replies: dict[str, object] = {}
        computes: list[float] = []
        failure: BaseException | None = None
        while roles:
            for conn in wait(list(roles)):
                role = roles.pop(conn)
                try:
                    payload, extra, seconds = self._recv(conn)
                except BaseException as exc:  # noqa: BLE001 - keep draining
                    failure = failure or exc
                    continue
                computes.append(seconds)
                if role == "out":
                    self.peer_bytes += extra
                replies[role] = payload[0]
        self.drain_window.append(
            DrainStats(
                wall=time.perf_counter() - started, computes=tuple(computes)
            )
        )
        if failure is not None:
            if self.on_failure is not None:
                self.on_failure(failure)
            raise failure
        return replies["out"], replies["in"]

    def gather(self) -> list:
        """Bring every state object back to the parent (state order)."""
        if self._local is not None:
            return list(self._local)
        collected: dict[int, object] = {}
        for conn in self._conns:
            self._send(conn, ("gather",))
        for conn in self._conns:
            items, _, _ = self._recv(conn)
            collected.update(dict(items))
        return [collected[index] for index in sorted(collected)]
