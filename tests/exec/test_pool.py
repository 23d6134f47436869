"""Tests for the parallel cell executor."""

from repro import obs
from repro.exec import Cell, ResultCache, execute_cell, resolve_workers, run_cells
from repro.exec import pool
from repro.experiments.common import run_matrix
from repro.obs import Telemetry
from repro.sim.config import SimulationConfig
from repro.workloads.suite import make_workload


CONFIG = SimulationConfig(epochs=2)
SMALL = SimulationConfig(epochs=3, fragment_guest=0.5, fragment_host=0.5)


def _svm_primer():
    return make_workload("SVM")


def traced_epochs(cells, **kwargs):
    """The ``tenant.epoch`` events of one traced ``run_cells`` call."""
    telemetry = obs.enable(Telemetry())
    try:
        run_cells(cells, **kwargs)
    finally:
        obs.disable()
        obs.clear_context()
    return [e.identity() for e in telemetry.events() if e.kind == "tenant.epoch"]


def test_resolve_workers_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(3) == 3
    monkeypatch.setenv("REPRO_WORKERS", "4")
    assert resolve_workers(None) == 4
    assert resolve_workers(2) == 2
    monkeypatch.setenv("REPRO_WORKERS", "garbage")
    assert resolve_workers(None) == 1
    monkeypatch.setenv("REPRO_WORKERS", "0")
    assert resolve_workers(None) == 1


def test_serial_matches_execute_cell():
    cells = [Cell("Redis", "THP", CONFIG), Cell("SVM", "Host-B-VM-B", CONFIG)]
    assert run_cells(cells, workers=1, cache=None) == [
        execute_cell(cells[0]),
        execute_cell(cells[1]),
    ]


def test_parallel_matches_serial(monkeypatch):
    # Three cells sit under MIN_PARALLEL_CELLS: force the pool on.
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    cells = [
        Cell("Redis", "THP", CONFIG),
        Cell("Redis", "Host-B-VM-B", CONFIG),
        Cell("SVM", "THP", CONFIG),
    ]
    assert run_cells(cells, workers=2, cache=None) == run_cells(
        cells, workers=1, cache=None
    )


def test_unpicklable_cell_falls_back_to_serial(monkeypatch):
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    cells = [
        Cell("Redis", "THP", CONFIG, primer_factory=lambda: make_workload("SVM")),
        Cell("SVM", "THP", CONFIG),
    ]
    results = run_cells(cells, workers=4, cache=None)
    assert [r.workload for r in results] == ["Redis", "SVM"]


def test_small_batch_never_starts_a_pool(monkeypatch):
    # Pool startup costs more than a batch under the threshold saves, so
    # such a batch runs in-process whatever worker count is asked for.
    monkeypatch.delenv("REPRO_MIN_PARALLEL", raising=False)
    calls = []
    monkeypatch.setattr(pool, "_run_pool", lambda *args: calls.append(args))
    cells = [Cell("Redis", "THP", CONFIG), Cell("SVM", "THP", CONFIG)]
    assert len(cells) < pool.MIN_PARALLEL_CELLS
    run_cells(cells, workers=4, cache=None)
    assert calls == []


def test_cache_dedupes_within_and_across_calls(tmp_path):
    cache = ResultCache(tmp_path)
    cell = Cell("Redis", "THP", CONFIG)
    first, second = run_cells([cell, cell], workers=1, cache=cache)
    assert first == second
    assert first is not second  # no aliasing between deduplicated results
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert cache.stats.stores == 1

    warm_cache = ResultCache(tmp_path)
    (warm,) = run_cells([cell], workers=1, cache=warm_cache)
    assert warm == first
    assert warm_cache.stats.hits == 1
    assert warm_cache.stats.misses == 0


def test_primed_cells_run_the_primer():
    plain = run_cells([Cell("Redis", "THP", CONFIG)], workers=1, cache=None)
    primed = run_cells(
        [Cell("Redis", "THP", CONFIG, primer_factory=_svm_primer)],
        workers=1,
        cache=None,
    )
    assert plain != primed


def test_run_matrix_workers_and_cache_equivalence(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    workloads = ["Redis", "SVM"]
    systems = ["Host-B-VM-B", "Gemini"]
    serial = run_matrix(workloads, systems, config=SMALL)
    parallel = run_matrix(workloads, systems, config=SMALL, workers=2)
    cache = ResultCache(tmp_path)
    cold = run_matrix(workloads, systems, config=SMALL, workers=2, cache=cache)
    warm = run_matrix(workloads, systems, config=SMALL, cache=ResultCache(tmp_path))
    for workload in workloads:
        for system in systems:
            assert serial[workload][system] == parallel[workload][system]
            assert serial[workload][system] == cold[workload][system]
            assert serial[workload][system] == warm[workload][system]


def test_traced_run_ignores_a_warm_cache(tmp_path):
    # A cache hit would leave the cell's telemetry out of the trace.
    cells = [Cell("Redis", "THP", CONFIG), Cell("SVM", "THP", CONFIG)]
    cold = traced_epochs(cells, workers=1, cache=None)
    assert len(cold) == 2 * CONFIG.epochs
    run_cells(cells, workers=1, cache=ResultCache(tmp_path))
    warm = ResultCache(tmp_path)
    assert traced_epochs(cells, workers=1, cache=warm) == cold
    assert warm.stats.requests == 0


def test_traced_run_stays_in_process(monkeypatch):
    # A worker process would keep the cell's telemetry to itself.
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "2")
    cells = [Cell("Redis", "THP", CONFIG), Cell("SVM", "THP", CONFIG)]
    assert traced_epochs(cells, workers=2, cache=None) == traced_epochs(
        cells, workers=1, cache=None
    )
