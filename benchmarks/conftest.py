"""Shared fixtures for the paper-claim tests.

The expensive simulation matrices are computed once per session and shared
by the per-figure tests.  Workload subsets and epoch counts are reduced
relative to the full experiment API (`repro.experiments`) to keep
``pytest benchmarks`` in the minutes range; every workload family (latency
server, K/V churn, static arrays) stays represented.  Each table is written
to ``benchmarks/results/`` by its experiment module's own formatter, the
one ``repro experiment`` prints; the tables are tracked, and a run that
changes one shows up in ``git status``.

The matrix fixtures run through the shared executor
(:mod:`repro.exec`): set ``REPRO_WORKERS`` to fan cells across processes,
and a session-wide result cache under ``benchmarks/.result_cache``
deduplicates cells shared between fixtures and serves unchanged cells
instantly on repeat runs (the cache key includes a code-version tag, so
simulator edits invalidate it).  Set ``REPRO_CACHE_DIR`` to relocate the
cache, or ``REPRO_CACHE_DIR=""`` to disable it.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments import clean_slate, collocation, fig02_microbench, fig03_motivation
from repro.experiments import breakdown as breakdown_mod
from repro.experiments import reused_vm as reused_mod

#: Session-wide result cache for the matrix fixtures (overridable, and
#: disabled entirely with REPRO_CACHE_DIR="").
os.environ.setdefault(
    "REPRO_CACHE_DIR", str(pathlib.Path(__file__).parent / ".result_cache")
)

#: Representative subset of Table 2 used by the benches (one per family).
BENCH_SUITE = [
    "Img-dnn",
    "Specjbb",
    "Masstree",
    "Redis",
    "RocksDB",
    "Canneal",
    "CG.D",
    "SVM",
]
BENCH_LATENCY = ["Img-dnn", "Specjbb", "Masstree", "Redis", "RocksDB"]
BENCH_EPOCHS = 12

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def clean_fragmented():
    results = clean_slate.run_clean_slate(
        fragmented=True, workloads=BENCH_SUITE, epochs=BENCH_EPOCHS
    )
    write_result(
        "clean_slate_fragmented", clean_slate.format_clean_slate(results, " (fragmented)")
    )
    return results


@pytest.fixture(scope="session")
def clean_unfragmented():
    results = clean_slate.run_clean_slate(
        fragmented=False, workloads=BENCH_SUITE, epochs=BENCH_EPOCHS
    )
    write_result(
        "clean_slate_unfragmented",
        clean_slate.format_clean_slate(results, " (unfragmented)"),
    )
    return results


@pytest.fixture(scope="session")
def reused_results():
    results = reused_mod.run_reused_vm(
        workloads=["Redis", "RocksDB", "Masstree", "Specjbb", "SVM"],
        epochs=BENCH_EPOCHS,
    )
    write_result("reused_vm", reused_mod.format_reused_vm(results))
    return results


@pytest.fixture(scope="session")
def motivation_results():
    return fig03_motivation.run_fig03(epochs=BENCH_EPOCHS)


@pytest.fixture(scope="session")
def breakdown_results():
    return breakdown_mod.run_breakdown(
        workloads=["Redis", "RocksDB", "CG.D", "SVM"], epochs=BENCH_EPOCHS
    )


@pytest.fixture(scope="session")
def collocation_results():
    return collocation.run_collocation(
        pairs=[("Masstree", "Shore"), ("CG.D", "SP.D")], epochs=10
    )


@pytest.fixture(scope="session")
def fig02_points():
    return fig02_microbench.run_fig02(sizes=[1.0, 4.0, 16.0, 64.0], epochs=5)


def average(table: dict[str, dict[str, float]], system: str) -> float:
    """Mean of one system's column across workloads."""
    values = [row[system] for row in table.values() if system in row]
    return sum(values) / len(values) if values else 0.0
