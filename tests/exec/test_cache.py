"""Tests for the content-keyed result cache."""

from dataclasses import replace

import pytest

from repro.exec import Cell, ResultCache, cell_key, code_version
from repro.sim.config import SimulationConfig
from repro.sim.results import RunResult


CONFIG = SimulationConfig(epochs=2, guest_mib=64, host_mib=192)


def make_cell(**overrides) -> Cell:
    fields = dict(workload="Redis", system="THP", config=CONFIG)
    fields.update(overrides)
    return Cell(**fields)


def test_code_version_is_stable_within_process():
    assert code_version() == code_version()
    assert len(code_version()) == 16


def test_key_is_deterministic_and_content_sensitive():
    assert cell_key(make_cell()) == cell_key(make_cell())
    assert cell_key(make_cell()) != cell_key(make_cell(system="Gemini"))
    assert cell_key(make_cell()) != cell_key(make_cell(workload="SVM"))
    reseeded = make_cell(config=replace(CONFIG, seed=7))
    assert cell_key(make_cell()) != cell_key(reseeded)


def test_key_distinguishes_primer():
    def factory():  # pragma: no cover - never called by cell_key
        raise AssertionError

    assert cell_key(make_cell()) != cell_key(make_cell(primer_factory=factory))


def test_roundtrip_and_stats(tmp_path):
    cache = ResultCache(tmp_path)
    key = cell_key(make_cell())
    assert cache.get(key) is None
    result = RunResult(system="THP", workload="Redis")
    cache.put(key, result)
    loaded = cache.get(key)
    assert loaded == result
    assert loaded is not result
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert cache.stats.stores == 1
    assert cache.stats.hit_rate == pytest.approx(0.5)


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = cell_key(make_cell())
    cache.put(key, RunResult(system="THP", workload="Redis"))
    path = cache._path(key)
    path.write_bytes(b"not a pickle")
    assert cache.get(key) is None


def test_from_env(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert ResultCache.from_env() is None
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    assert ResultCache.from_env() is None
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = ResultCache.from_env()
    assert cache is not None
    assert cache.directory == tmp_path
