"""Tests for the sticky-state actor pool."""

import pytest

from repro import obs
from repro.exec.actors import ActorPool
from repro.obs import Clock, Telemetry


def bump(state, amount):
    state["n"] += amount
    return state["n"]


def read(state):
    return state["n"]


def boom(state):
    raise RuntimeError("worker exploded")


class PicklesButWontUnpickle(Exception):
    """Pickles fine (args survive) but explodes on unpickling: the
    reconstructing call ``cls(*args)`` is missing the second argument."""

    def __init__(self, message, extra):
        super().__init__(f"{message}:{extra}")


def boom_unpicklable(state):
    exc = RuntimeError("sneaky")
    exc.payload = lambda: None  # lambdas cannot pickle
    raise exc


def boom_wont_unpickle(state):
    raise PicklesButWontUnpickle("bad", "news")


def blob_out(state, size):
    state["sent"] = True
    return bytes(size), state.get("n")


def blob_in(state, payload, tag):
    state["got"] = (len(payload), tag)
    return state["got"]


def worker_telemetry(state):
    active = obs.get()
    return dict(active.counters), len(active.events())


def _states(count=3):
    return [{"n": index * 10} for index in range(count)]


@pytest.mark.parametrize("workers", [1, 2])
def test_apply_mutates_sticky_state(workers):
    with ActorPool(workers) as pool:
        pool.scatter(_states())
        assert pool.apply(bump, 0, 5) == 5
        assert pool.apply(bump, 0, 2) == 7  # state persisted across calls
        assert pool.apply(read, 2) == 20


@pytest.mark.parametrize("workers", [1, 2])
def test_map_returns_state_order(workers):
    with ActorPool(workers) as pool:
        pool.scatter(_states())
        results = pool.map(bump, [(1,), (2,), (3,)])
        assert results == [1, 12, 23]


@pytest.mark.parametrize("workers", [1, 2])
def test_gather_returns_final_states(workers):
    with ActorPool(workers) as pool:
        pool.scatter(_states())
        pool.map(bump, [(1,)] * 3)
        assert pool.gather() == [{"n": 1}, {"n": 11}, {"n": 21}]


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_exception_propagates(workers):
    with ActorPool(workers) as pool:
        pool.scatter(_states())
        with pytest.raises(RuntimeError, match="worker exploded"):
            pool.apply(boom, 1)


def test_serial_fallback_is_local():
    pool = ActorPool(1)
    pool.scatter(_states())
    assert pool.is_local
    pool.close()


def test_parallel_mode_forks_workers():
    pool = ActorPool(2)
    try:
        pool.scatter(_states())
        assert not pool.is_local
    finally:
        pool.close()


def test_unpicklable_state_falls_back_to_local():
    states = [{"n": 0, "fh": open(__file__)}]
    pool = ActorPool(2)
    try:
        pool.scatter(states)
        assert pool.is_local
    finally:
        states[0]["fh"].close()
        pool.close()


def test_close_is_idempotent():
    pool = ActorPool(2)
    pool.scatter(_states())
    pool.close()
    pool.close()


def test_scatter_only_once():
    with ActorPool(1) as pool:
        pool.scatter(_states())
        with pytest.raises(RuntimeError, match="once"):
            pool.scatter(_states())


def test_map_order_with_fewer_workers_than_states():
    with ActorPool(2) as pool:
        pool.scatter(_states(5))
        assert pool.map(bump, [(1,)] * 5) == [1, 11, 21, 31, 41]


@pytest.mark.parametrize("workers", [1, 3])
def test_submit_runs_multiple_ops_per_state_in_batch_order(workers):
    with ActorPool(workers) as pool:
        pool.scatter(_states())
        pool.submit([
            (0, bump, (1,)),
            (1, bump, (1,)),
            (0, bump, (2,)),  # same state twice: must see the first op
            (2, read, ()),
        ])
        assert pool.drain() == [1, 11, 3, 20]


@pytest.mark.parametrize("workers", [1, 2])
def test_submit_requires_drain_between_batches(workers):
    with ActorPool(workers) as pool:
        pool.scatter(_states())
        pool.submit([(0, read, ())])
        with pytest.raises(RuntimeError, match="undrained"):
            pool.submit([(1, read, ())])
        pool.drain()
        with pytest.raises(RuntimeError, match="without a pending"):
            pool.drain()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_transfer_moves_payload_and_returns_both_replies(workers):
    # workers=3 puts states 0 and 2 on different slots, workers=2 puts
    # them on the same slot; both must behave like the local pool.
    with ActorPool(workers) as pool:
        pool.scatter(_states())
        out_reply, in_reply = pool.transfer(
            0, 2, blob_out, (4096,), blob_in, ("tag",)
        )
        assert out_reply == 0
        assert in_reply == (4096, "tag")
        states = pool.gather()
        assert states[0]["sent"] is True
        assert states[2]["got"] == (4096, "tag")


def test_transfer_counts_peer_bytes_off_the_parent_pipes():
    with ActorPool(3) as pool:
        pool.scatter(_states())
        if pool.is_local:  # pragma: no cover - forkless sandbox
            pytest.skip("sandbox cannot fork")
        before = pool.bytes_sent + pool.bytes_received
        pool.transfer(0, 1, blob_out, (1 << 20,), blob_in, ("big",))
        control = pool.bytes_sent + pool.bytes_received - before
        assert pool.peer_bytes > 0
        # The 1 MiB payload went worker-to-worker, not through the parent.
        assert control < 4096


def test_transfer_source_failure_does_not_hang_destination():
    with ActorPool(3) as pool:
        pool.scatter(_states())
        with pytest.raises(RuntimeError):
            pool.transfer(0, 1, boom, (), blob_in, ("tag",))
        # The protocol stays aligned for further calls.
        assert pool.apply(read, 1) == 10


def test_retract_pulls_states_home_and_continues_locally():
    with ActorPool(2) as pool:
        pool.scatter(_states())
        pool.apply(bump, 0, 5)
        pool.retract()
        assert pool.is_local
        assert pool.apply(bump, 0, 2) == 7  # worker-side mutation kept
        assert pool.gather() == [{"n": 7}, {"n": 10}, {"n": 20}]


def test_forked_worker_starts_with_empty_telemetry():
    # Fork copies the parent's registry; a worker must not hand the
    # parent's own counters and events back as its own.
    obs.enable(Telemetry(clock=Clock(wall=lambda: 0.0)))
    try:
        obs.count("parent.calls")
        obs.emit("parent.event")
        with ActorPool(2) as pool:
            pool.scatter(_states())
            if pool.is_local:  # pragma: no cover - forkless sandbox
                pytest.skip("sandbox cannot fork")
            assert pool.apply(worker_telemetry, 0) == ({}, 0)
    finally:
        obs.disable()
        obs.clear_context()


def test_byte_counters_track_parallel_traffic_only():
    with ActorPool(1) as local:
        local.scatter(_states())
        local.map(bump, [(1,)] * 3)
        assert local.bytes_sent == 0 and local.bytes_received == 0
    with ActorPool(2) as pool:
        pool.scatter(_states())
        if pool.is_local:  # pragma: no cover - forkless sandbox
            pytest.skip("sandbox cannot fork")
        pool.map(bump, [(1,)] * 3)
        assert pool.bytes_sent > 0 and pool.bytes_received > 0


def test_unpicklable_worker_exception_surfaces_instead_of_hanging():
    with ActorPool(2) as pool:
        pool.scatter(_states())
        if pool.is_local:  # pragma: no cover - forkless sandbox
            pytest.skip("sandbox cannot fork")
        with pytest.raises(RuntimeError, match="sneaky"):
            pool.apply(boom_unpicklable, 0)
        # The pool is still usable afterwards: pipes stayed aligned.
        assert pool.apply(read, 1) == 10


def test_exception_that_pickles_but_wont_unpickle_is_normalised():
    with ActorPool(2) as pool:
        pool.scatter(_states())
        if pool.is_local:  # pragma: no cover - forkless sandbox
            pytest.skip("sandbox cannot fork")
        with pytest.raises(RuntimeError, match="bad:news"):
            pool.apply(boom_wont_unpickle, 0)
        assert pool.apply(read, 2) == 20


def test_worker_exception_carries_traceback_note():
    with ActorPool(2) as pool:
        pool.scatter(_states())
        if pool.is_local:  # pragma: no cover - forkless sandbox
            pytest.skip("sandbox cannot fork")
        with pytest.raises(RuntimeError) as info:
            pool.apply(boom, 0)
        notes = getattr(info.value, "__notes__", [])
        assert any("worker traceback" in note for note in notes)


def boom_with_context(state):
    from repro import obs

    obs.set_context(host=1, epoch=7)
    exc = RuntimeError("located")
    exc.payload = lambda: None  # unpicklable: forces normalisation
    raise exc


def test_worker_exception_carries_host_epoch_context():
    # The obs (host, epoch) context is attached to the note even for
    # exceptions that had to be normalised, so a crash in a 40-host
    # fleet says which host and epoch it came from.
    with ActorPool(2) as pool:
        pool.scatter(_states())
        if pool.is_local:  # pragma: no cover - forkless sandbox
            pytest.skip("sandbox cannot fork")
        with pytest.raises(RuntimeError, match="located") as info:
            pool.apply(boom_with_context, 0)
        notes = getattr(info.value, "__notes__", [])
        assert any("host=1 epoch=7" in note for note in notes)
