"""Benchmark: Figure 2 — misaligned huge pages cannot reduce translation
overhead (random-access microbenchmark under four static configurations)."""

from conftest import write_result

from repro.experiments.fig02_microbench import format_fig02


def test_fig02_microbench(fig02_points):
    points = fig02_points
    write_result("fig02_microbench", format_fig02(points))

    by_key = {(p.dataset_mib, p.system): p for p in points}
    small, large = 1.0, 64.0
    # Small data sets: all four configurations perform alike.
    small_values = [by_key[(small, s)].throughput for s in
                    ("Host-B-VM-B", "Host-H-VM-H", "Host-B-VM-H", "Host-H-VM-B")]
    assert max(small_values) / min(small_values) < 1.1
    # Large data sets: only well-aligned huge pages cut misses...
    aligned = by_key[(large, "Host-H-VM-H")]
    base = by_key[(large, "Host-B-VM-B")]
    assert aligned.miss_rate < 0.05
    assert base.miss_rate > 0.5
    assert aligned.throughput > 1.5 * base.throughput
    # ...while the misaligned configurations splinter: same miss rate as
    # base pages, only the cheaper walk helps a little.
    for system in ("Host-B-VM-H", "Host-H-VM-B"):
        misaligned = by_key[(large, system)]
        assert abs(misaligned.miss_rate - base.miss_rate) < 0.02
        assert base.throughput < misaligned.throughput < 1.4 * base.throughput
