"""Unit tests for the OS allocation noise agent."""

import pytest

from repro.hypervisor.platform import Platform
from repro.mem.layout import PAGES_PER_HUGE
from repro.policies.base import HugePagePolicy
from repro.sim.noise import NoiseAgent


def make_platform():
    platform = Platform(128 * PAGES_PER_HUGE, HugePagePolicy())
    vm = platform.create_vm(32 * PAGES_PER_HUGE, HugePagePolicy())
    return platform, vm


def test_validation():
    platform, _vm = make_platform()
    with pytest.raises(ValueError):
        NoiseAgent(platform, rate=1.5)
    with pytest.raises(ValueError):
        NoiseAgent(platform, free_fraction=-0.1)


def test_zero_rate_is_silent():
    platform, vm = make_platform()
    noise = NoiseAgent(platform, rate=0.0, seed=1)
    noise.install()
    vma = vm.mmap(200, "heap")
    platform.touch_vma(vm, vma)
    assert noise.allocations == 0
    assert noise.held_pages == 0


def test_noise_interleaves_with_faults():
    platform, vm = make_platform()
    noise = NoiseAgent(platform, rate=0.5, seed=1)
    noise.install()
    vma = vm.mmap(400, "heap")
    platform.touch_vma(vm, vma)
    assert noise.allocations > 50
    assert noise.held_pages > 0


def test_noise_clusters_in_pageblocks():
    """Unmovable noise stays grouped (migrate-type modelling): the number
    of guest regions containing noise frames is far below the number of
    noise allocations."""
    platform, vm = make_platform()
    noise = NoiseAgent(platform, rate=0.5, free_fraction=0.0, seed=1)
    noise.install()
    vma = vm.mmap(600, "heap")
    platform.touch_vma(vm, vma)
    held = noise._guest_held[vm.id]
    assert len(held) > 100
    regions = {frame // PAGES_PER_HUGE for frame in held}
    assert len(regions) <= 3


def test_transient_queue_is_bounded():
    platform, vm = make_platform()
    noise = NoiseAgent(platform, rate=1.0, seed=1)
    noise.install()
    vma = vm.mmap(400, "heap")
    platform.touch_vma(vm, vma)
    for fifo in noise._transient.values():
        assert len(fifo) <= noise.transient_hold


def test_noise_is_deterministic():
    counts = []
    for _ in range(2):
        platform, vm = make_platform()
        noise = NoiseAgent(platform, rate=0.3, seed=9)
        noise.install()
        vma = vm.mmap(300, "heap")
        platform.touch_vma(vm, vma)
        counts.append(noise.allocations)
    assert counts[0] == counts[1]


def test_act_horizon_predraw_matches_fresh_stream():
    """Pre-drawing gates through act_horizon then delivering faults must
    consume the exact RNG stream of undisturbed per-fault delivery."""
    platform_a, vm_a = make_platform()
    reference = NoiseAgent(platform_a, rate=0.2, seed=9)
    reference.install()
    platform_b, vm_b = make_platform()
    predrawn = NoiseAgent(platform_b, rate=0.2, seed=9)
    predrawn.install()

    horizon = predrawn.act_horizon(64)
    assert 0 <= horizon <= 64
    for _ in range(200):
        reference.on_fault(vm_a)
        predrawn.on_fault(vm_b)
    assert predrawn.allocations == reference.allocations
    assert predrawn.held_pages == reference.held_pages
    assert predrawn._rng.random() == reference._rng.random()


@pytest.mark.parametrize("take", ["one", "all"])
def test_bulk_quiet_then_faults_matches_fresh_stream(take):
    """act_horizon, then quiet(k) for k within the horizon, then m
    per-fault deliveries consume the RNG stream and make the allocations
    of k + m fresh on_fault calls (the test above is k = 0)."""
    platform_a, vm_a = make_platform()
    reference = NoiseAgent(platform_a, rate=0.2, seed=0)
    reference.install()
    platform_b, vm_b = make_platform()
    batched = NoiseAgent(platform_b, rate=0.2, seed=0)
    batched.install()

    horizon = batched.act_horizon(64)
    assert horizon > 1, "the seed must prove a quiet window"
    k = {"one": 1, "all": horizon}[take]
    batched.quiet(k)
    m = 200
    for _ in range(k + m):
        reference.on_fault(vm_a)
    for _ in range(m):
        batched.on_fault(vm_b)
    assert batched.allocations == reference.allocations > 0
    assert batched.held_pages == reference.held_pages
    assert batched._rng.random() == reference._rng.random()


def test_quiet_beyond_the_proven_horizon_raises_and_changes_nothing():
    platform, vm = make_platform()
    noise = NoiseAgent(platform, rate=0.3, seed=3)
    noise.install()
    with pytest.raises(ValueError):
        noise.quiet(1)  # nothing proven yet
    horizon = noise.act_horizon(64)
    assert horizon < 64, "the seed must end the window at an acting gate"
    state = (noise._quiet, noise._armed, noise._rng.getstate())
    with pytest.raises(ValueError):
        noise.quiet(horizon + 1)
    with pytest.raises(ValueError):
        noise.quiet(-1)
    assert (noise._quiet, noise._armed, noise._rng.getstate()) == state
    noise.quiet(horizon)
    noise.on_fault(vm)
    assert noise.allocations == 1


def test_act_horizon_counts_quiet_faults():
    """The returned horizon is exactly the number of leading faults that
    do not act; the next fault after the horizon acts (unless capped)."""
    platform, vm = make_platform()
    noise = NoiseAgent(platform, rate=0.3, seed=3)
    noise.install()
    horizon = noise.act_horizon(1 << 30)
    for index in range(horizon):
        before = noise.allocations
        noise.on_fault(vm)
        assert noise.allocations == before, f"fault {index} acted early"
    noise.on_fault(vm)
    assert noise.allocations == 1


def test_act_horizon_respects_limit():
    platform, _vm = make_platform()
    noise = NoiseAgent(platform, rate=0.0, seed=5)
    assert noise.act_horizon(7) == 7
    # rate 0 never acts: a second call keeps extending the quiet window.
    assert noise.act_horizon(12) == 12


def test_platform_hook_exposes_act_horizon():
    """install() publishes the agent itself, so the batched fault path can
    discover the horizon protocol on platform.fault_hook."""
    platform, vm = make_platform()
    noise = NoiseAgent(platform, rate=0.1, seed=2)
    noise.install()
    assert platform.fault_hook is noise
    assert callable(getattr(platform.fault_hook, "act_horizon"))
    platform.fault_hook(vm)  # __call__ delegates to on_fault
