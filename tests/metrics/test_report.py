"""Unit tests for the result export helpers."""

import csv

import pytest

from repro.metrics.report import (
    format_bench_fleet,
    matrix_to_markdown,
    results_to_rows,
    series_to_csv,
    write_csv,
)
from repro.sim import Simulation, SimulationConfig
from repro.workloads import make_workload


@pytest.fixture(scope="module")
def small_results():
    config = SimulationConfig(epochs=4, host_mib=512, guest_mib=128)
    results = {}
    for system in ("Host-B-VM-B", "THP"):
        results.setdefault("Shore", {})[system] = Simulation(
            make_workload("Shore"), system=system, config=config
        ).run_single()
    return results


def test_results_to_rows(small_results):
    rows = results_to_rows(small_results)
    assert len(rows) == 2
    assert {row["system"] for row in rows} == {"Host-B-VM-B", "THP"}
    assert all("throughput" in row for row in rows)
    assert all(row["workload"] == "Shore" for row in rows)


def test_write_csv_roundtrip(tmp_path, small_results):
    path = tmp_path / "out.csv"
    write_csv(small_results, str(path))
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    assert float(rows[0]["throughput"]) > 0


def test_write_csv_empty_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv({}, str(tmp_path / "out.csv"))


def test_matrix_to_markdown():
    table = {"Redis": {"THP": 1.2, "Gemini": 1.8}}
    text = matrix_to_markdown(table, title="Throughput")
    assert "**Throughput**" in text
    assert "| Redis | 1.20 | 1.80 |" in text
    assert "**average**" in text


def test_matrix_to_markdown_empty():
    assert matrix_to_markdown({}, title="x") == "x"


def test_series_to_csv(small_results):
    result = small_results["Shore"]["THP"]
    text = series_to_csv(result)
    lines = text.strip().splitlines()
    assert lines[0].startswith("epoch,throughput")
    assert len(lines) == 1 + len(result.epochs)


def test_format_bench_fleet():
    bench = {
        "fleet": {
            "hosts": 8,
            "epochs": 12,
            "workers": 4,
            "cores": 4,
            "parallel_mode": "parallel",
            "serial_seconds": 10.9065,
            "parallel_seconds": 4.21,
            "speedup_parallel_vs_serial": 2.59,
            "ipc_bytes_per_epoch_fused": 2537.0,
            "ipc_peer_bytes_fused": 5227051,
        }
    }
    table = format_bench_fleet(bench)
    assert "8 hosts x 12 epochs" in table
    assert "| fused batches | 2,537 |" in table
    assert "5,227,051" in table
    assert "2.59x" in table


def test_format_bench_fleet_tolerates_old_reports():
    assert format_bench_fleet({}) == ""
    assert format_bench_fleet({"single_cell": {}}) == ""
