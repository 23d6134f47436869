"""Golden digests: the simulator's results pinned to committed values.

Every cell of the grid below is simulated and hashed, and the hash must
equal the one in ``digests.json``:

* Redis under every registered system, in three variants — fragmented
  memory at both layers, the same with heavy OS noise, and a reused VM
  (an SVM primer runs and unmaps first);
* two single-host runs the Redis grid misses: Redis and SP.D collocated
  in two VMs under Gemini (Section 6.5), and Redis under Gemini on a host
  smaller than its footprint, where the pressure ladder swaps; the
  collocation run is also traced, pinning the identities of every
  emitted event;
* the churning ``SMALL`` fleet of the cluster engine tests and the
  overcommitted ``PRESSURED`` fleet of the pressure tests, the latter
  also with the ``lru-cold`` victim policy (naive balloon victims), all
  stepped in-process and traced, pinning both the
  :class:`~repro.cluster.results.FleetResult` and the identities of every
  emitted event.

A result digest is the SHA-256 of the sorted-key JSON of
``dataclasses.asdict(result)`` (a list of them for a multi-VM run); an
event digest is the same hash over
``[event.identity() for event in events]``.  A change that alters any
simulated number fails here.  When the change is intended, rewrite the
file from the repository root with::

    PYTHONPATH=src python -m tests.golden.test_golden
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from dataclasses import replace

import pytest

from repro import obs
from repro.cluster import ClusterSimulation
from repro.experiments.collocation import COLLOCATION_CONFIG
from repro.obs import Clock, Telemetry
from repro.policies.registry import SYSTEMS
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulation, run_workload
from repro.workloads.suite import make_workload
from tests.cluster.test_engine import SMALL
from tests.pressure.test_fleet_pressure import PRESSURED
from tests.pressure.test_sim_pressure import small_host

DIGESTS = pathlib.Path(__file__).with_name("digests.json")

BASE = SimulationConfig(
    epochs=4,
    guest_mib=128,
    host_mib=384,
    fragment_guest=0.7,
    fragment_host=0.7,
)

#: variant -> (config, primer workload name or None).
VARIANTS = {
    "base": (BASE, None),
    "noise": (replace(BASE, noise_rate=0.25, epochs=3), None),
    "primer": (replace(BASE, epochs=3), "SVM"),
}

#: Single-host Gemini runs: name -> (workload names, config).
RUNS = {
    "collocation": (("Redis", "SP.D"), replace(COLLOCATION_CONFIG, epochs=3)),
    "pressure": (("Redis",), small_host(True)),
}

#: The single-host run whose event stream is pinned.
TRACED_RUN = "collocation"

FLEETS = {
    "small": SMALL,
    "pressured": PRESSURED,
    # The same fleet with naive (lowest-free) balloon victims and the
    # lru-cold swap order: the only golden run of the naive balloon.
    "pressured-lru": replace(
        PRESSURED, pressure=replace(PRESSURED.pressure, victim_policy="lru-cold")
    ),
}

CELLS = [f"{variant}/{system}" for variant in VARIANTS for system in SYSTEMS]


def _hash(payload) -> str:
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def cell_digest(cell: str) -> str:
    variant, system = cell.split("/")
    config, primer = VARIANTS[variant]
    result = run_workload(
        make_workload("Redis"),
        system,
        config=config,
        primer=make_workload(primer) if primer else None,
    )
    return _hash(dataclasses.asdict(result))


def _run(name: str) -> list:
    workloads, config = RUNS[name]
    simulation = Simulation(
        [make_workload(workload) for workload in workloads],
        system="Gemini",
        config=config,
    )
    return simulation.run()


def run_digest(name: str) -> str:
    return _hash([dataclasses.asdict(result) for result in _run(name)])


def _traced(run):
    """Call *run* with a fresh telemetry registry on a frozen clock;
    returns its value and the digest of the events it emitted."""
    obs.disable()
    obs.clear_context()
    obs.enable(Telemetry(sample=1.0, clock=Clock(wall=lambda: 0.0)))
    try:
        value = run()
        events = obs.get().events()
    finally:
        obs.disable()
        obs.clear_context()
    return value, _hash([event.identity() for event in events])


def run_events_digest(name: str) -> str:
    """Event digest of one traced single-host run."""
    return _traced(lambda: _run(name))[1]


def fleet_digests(name: str) -> dict[str, str]:
    """Result and event digests of one traced in-process fleet run."""
    result, events = _traced(
        lambda: ClusterSimulation(FLEETS[name]).run(workers=1)
    )
    return {"result": _hash(dataclasses.asdict(result)), "events": events}


def compute() -> dict:
    return {
        "cells": {cell: cell_digest(cell) for cell in CELLS},
        "runs": {name: run_digest(name) for name in RUNS},
        "run_events": {TRACED_RUN: run_events_digest(TRACED_RUN)},
        "fleets": {name: fleet_digests(name) for name in FLEETS},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DIGESTS.read_text())


def test_grid_covers_every_golden_entry(golden):
    assert sorted(golden["cells"]) == sorted(CELLS)
    assert sorted(golden["runs"]) == sorted(RUNS)
    assert sorted(golden["run_events"]) == [TRACED_RUN]
    assert sorted(golden["fleets"]) == sorted(FLEETS)


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.replace("/", "-"))
def test_cell_matches_golden(golden, cell):
    assert cell_digest(cell) == golden["cells"][cell]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden(golden, name):
    assert run_digest(name) == golden["runs"][name]


def test_traced_run_events_match_golden(golden):
    assert run_events_digest(TRACED_RUN) == golden["run_events"][TRACED_RUN]


@pytest.mark.parametrize("name", sorted(FLEETS))
def test_fleet_matches_golden(golden, name):
    assert fleet_digests(name) == golden["fleets"][name]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
