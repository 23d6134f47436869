"""Measurement: timed rounds of a workload's instances, output checks,
and the traced per-layer run.

A run times every instance once per round and keeps going while another
round fits in ``--seconds``; each instance's run and constructor times
are medians over its rounds, summed over instances.  A short untimed
warm-up instance comes first so lazy imports and first-call costs stay
out of the figures.

Timings are scaled to a reference machine speed.  On a shared host the
same simulation runs up to 2x slower from one minute to the next, which
no number of rounds averages away.  A fixed dict-heavy loop, timed after
every instance run, slows down with it: its ratio to an instance's time
varied about a third as much as the time itself.  Each instance time is
multiplied by ``REFERENCE_S`` over the mean of the loop times around it.
"""

from __future__ import annotations

import functools
import gc
import json
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

from repro import ClusterSimulation, Simulation, obs
from repro.obs.export import write_chrome_trace

from perfbench import checks, layers
from perfbench.workloads import (
    SIMULATED_UNITS,
    WORKLOADS,
    Outcome,
    Workload,
    instance_seeds,
    simulated_stats,
)

__all__ = [
    "DEFAULT_SEED",
    "DIGESTS",
    "HELD_OUT_SEED",
    "ConstructorProbe",
    "calibration_seconds",
    "instance_configs",
    "load_digests",
    "measure",
    "measure_layers",
    "record_digests",
    "run_instance",
]

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
DIGESTS = pathlib.Path(__file__).resolve().parent / "digests.json"
#: The seed ``run.py`` uses by default and the one held out from tuning;
#: both have recorded digests.
DEFAULT_SEED = 42
HELD_OUT_SEED = 2026
IMPORT_SAMPLES = 5
SPAN_CAPACITY = 50_000
#: The calibration loop's time on the reference machine (2 x86 cores,
#: Python 3.11, unloaded).
REFERENCE_S = 0.06


@functools.cache
def _calibration_keys() -> list[int]:
    return random.Random(0).sample(range(1 << 30), 100_000)


def calibration_seconds() -> float:
    """Time of a fixed loop of dict inserts and lookups: a probe of how
    fast the machine runs dict-heavy Python right now."""
    keys = _calibration_keys()
    start = time.perf_counter()
    table = {}
    for key in keys:
        table[key] = (key, key + 1)
    total = 0
    for key in keys:
        total += table[key][1]
    return time.perf_counter() - start


class ConstructorProbe:
    """Times every ``Simulation`` / ``ClusterSimulation`` constructor
    while installed and keeps the built objects for the output checks.

    Telemetry is suspended inside constructors, so a traced run
    attributes only the work of the run calls.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.built: list = []
        self._saved: list = []

    def _timed(self, init):
        probe = self

        @functools.wraps(init)
        def timed_init(instance, *args, **kwargs):
            telemetry = obs.get()
            obs.disable()
            start = time.perf_counter()
            try:
                init(instance, *args, **kwargs)
            finally:
                probe.seconds += time.perf_counter() - start
                if telemetry is not None:
                    obs.enable(telemetry)
            probe.built.append(instance)

        return timed_init

    def __enter__(self) -> "ConstructorProbe":
        for cls in (Simulation, ClusterSimulation):
            self._saved.append((cls, cls.__init__))
            cls.__init__ = self._timed(cls.__init__)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            cls, init = self._saved.pop()
            cls.__init__ = init


@dataclass
class InstanceRun:
    outcome: Outcome
    run_s: float
    ctor_s: float
    digest: str
    #: Output-check failures: index mismatches, digest disagreements.
    problems: list[str] = field(default_factory=list)
    #: Reference over current machine speed while the instance ran.
    scale: float = 1.0


def run_instance(
    workload: Workload,
    config,
    telemetry: obs.Telemetry | None = None,
    traced: bool = False,
) -> InstanceRun:
    """Build and run one instance, with the traced run's runner when
    *traced*; with *telemetry*, collect into it."""
    runner = workload.traced_run if traced and workload.traced_run else workload.run
    with ConstructorProbe() as probe:
        if telemetry is not None:
            obs.enable(telemetry)
        start = time.perf_counter()
        try:
            outcome = runner(config)
        finally:
            wall = time.perf_counter() - start
            obs.disable()
            obs.clear_context()
    measured = InstanceRun(
        outcome,
        run_s=wall - probe.seconds,
        ctor_s=probe.seconds,
        digest=checks.digest(outcome.results),
        problems=checks.index_mismatches(probe.built),
    )
    # Free this instance's (cyclic) simulator graphs now, so they neither
    # stack up under the next instance's peak memory nor get collected
    # inside its timed region.
    del probe
    gc.collect()
    return measured


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def check_digests(
    workload: Workload, seed: int, rounds: list[list[InstanceRun]]
) -> None:
    """Every round must reproduce the first round's digests, and those
    the recorded ones when this seed has a record."""
    expected = load_digests().get(workload.name, {}).get(str(seed))
    first = [run.digest for run in rounds[0]]
    for runs in rounds:
        for index, run in enumerate(runs):
            if run.digest != first[index]:
                run.problems.append(f"digest {run.digest} != first round {first[index]}")
            elif expected is not None and run.digest != expected[index]:
                run.problems.append(f"digest {run.digest} != recorded {expected[index]}")


def import_seconds() -> float:
    """Median wall time of ``import repro`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "start = time.perf_counter(); import repro; "
        "print(time.perf_counter() - start)"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def peak_rss_mib() -> float:
    """Peak resident set of this process.  Its only children in a plain
    run are the import probes, which hold no simulation."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def instance_configs(workload: Workload, seed: int) -> list:
    return [workload.config(sub_seed) for sub_seed in instance_seeds(workload, seed)]


def _warm_up(workload: Workload, configs: list) -> None:
    workload.run(replace(configs[0], epochs=1))


@dataclass
class Report:
    """A run's result line plus what the human-readable table shows."""

    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    problems: list[str]

    def line(self) -> str:
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        })


def _tally(rounds: list[list[InstanceRun]]) -> tuple[int, int, list[str]]:
    runs = [run for runs in rounds for run in runs]
    problems = [problem for run in runs for problem in run.problems]
    return len(runs), sum(1 for run in runs if run.problems), problems


def measure(
    workload: Workload, seed: int, seconds: float
) -> tuple[Report, dict[str, tuple[float, str]]]:
    """The plain run: end-to-end metrics, plus what the table prints
    unbounded: raw wall time, machine speed, the simulated statistics
    and ``failed_frac``."""
    configs = instance_configs(workload, seed)
    before = calibration_seconds()
    import_s = import_seconds()
    import_s *= REFERENCE_S / statistics.fmean((before, calibration_seconds()))
    _warm_up(workload, configs)
    rounds: list[list[InstanceRun]] = []
    last = calibration_seconds()
    start = time.perf_counter()
    while True:
        runs = []
        for config in configs:
            run = run_instance(workload, config)
            now = calibration_seconds()
            run.scale = REFERENCE_S / statistics.fmean((last, now))
            last = now
            runs.append(run)
        rounds.append(runs)
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    check_digests(workload, seed, rounds)
    attempted, failed, problems = _tally(rounds)

    def total(seconds_of) -> float:
        return sum(
            statistics.median(seconds_of(runs[index]) for runs in rounds)
            for index in range(len(configs))
        )

    run_s = total(lambda run: run.run_s * run.scale)
    tenant_epochs = sum(run.outcome.tenant_epochs for run in rounds[0])
    report = Report(attempted, failed, {
        "setup_s": (import_s + total(lambda run: run.ctor_s * run.scale), "s"),
        "run_s": (run_s, "s"),
        "tenant_epochs_per_s": (tenant_epochs / run_s, "1/s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }, problems)
    extras = {
        "wall_run_s": (total(lambda run: run.run_s), "s"),
        "machine_speed": (
            1 / statistics.median(run.scale for runs in rounds for run in runs), "x",
        ),
    }
    extras.update(
        (name, (value, SIMULATED_UNITS[name]))
        for name, value in simulated_stats(
            [result for run in rounds[0] for result in run.outcome.results]
        ).items()
    )
    extras["failed_frac"] = (failed / attempted, "fraction")
    return report, extras


def measure_layers(
    workload: Workload, seed: int, out_dir: pathlib.Path
) -> tuple[Report, obs.Telemetry]:
    """The traced run: one plain round, then one round with the layer
    wrappers installed; writes ``layers.json`` and ``trace.json``."""
    configs = instance_configs(workload, seed)
    _warm_up(workload, configs)
    plain = [run_instance(workload, config, traced=True) for config in configs]
    telemetry = obs.Telemetry(span_capacity=SPAN_CAPACITY)
    tracer = layers.LayerTracer(telemetry)
    tracer.install()
    try:
        traced = [
            run_instance(workload, config, telemetry, traced=True)
            for config in configs
        ]
    finally:
        tracer.uninstall()
    check_digests(workload, seed, [plain, traced])
    attempted, failed, problems = _tally([plain, traced])
    plain_run_s = sum(run.run_s for run in plain)
    traced_run_s = sum(run.run_s for run in traced)
    outcomes = [run.outcome for run in traced]
    # Wire traffic comes from the plain round: traced workers also ship
    # their telemetry snapshots home.
    values = layers.layer_metrics(
        telemetry, traced_run_s, [run.outcome for run in plain]
    )
    values["traced_run_s"] = traced_run_s
    values["trace_overhead"] = traced_run_s / plain_run_s
    values.update(simulated_stats(
        [result for outcome in outcomes for result in outcome.results]
    ))
    values["failed_frac"] = failed / attempted
    units = {spec["name"]: spec["unit"] for spec in per_layer_specs()}
    report = Report(attempted, failed, {
        name: (float(values[name]), unit) for name, unit in units.items()
    }, problems)

    out_dir.mkdir(parents=True, exist_ok=True)
    calls = {
        name: stat["count"] for name, stat in sorted(telemetry.span_stats().items())
        if ":" in name
    }
    (out_dir / "layers.json").write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "plain_run_s": plain_run_s,
        "metrics": values,
        "moves": {
            layer: {"metric": metric, "on": list(on), "little_on": list(little)}
            for layer, (metric, on, little) in layers.MOVES.items()
        },
        "calls": calls,
        "spans_dropped": telemetry.spans_dropped,
    }, indent=2) + "\n")
    write_chrome_trace(telemetry, out_dir / "trace.json")
    return report, telemetry


def per_layer_specs() -> list[dict]:
    spec = json.loads(
        (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    return spec["per_layer"]


def record_digests(seeds=(DEFAULT_SEED, HELD_OUT_SEED)) -> None:
    """Write the digests of every workload's instances for *seeds*."""
    recorded: dict = {}
    for workload in WORKLOADS.values():
        recorded[workload.name] = {
            str(seed): [
                checks.digest(workload.run(config).results)
                for config in instance_configs(workload, seed)
            ]
            for seed in seeds
        }
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
