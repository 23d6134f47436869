"""Benchmark: ablations of Gemini's design choices (beyond the paper's
figures — booking-timeout adaptation, preallocation threshold, bucket
hold time)."""

from conftest import write_result

from repro.experiments.ablations import (
    format_ablation,
    run_bucket_hold_sweep,
    run_prealloc_sweep,
    run_timeout_ablation,
)


def test_ablation_timeout():
    results = run_timeout_ablation(workloads=["Redis"], epochs=12)
    write_result(
        "ablation_timeout", format_ablation(results, "Booking timeout (Algorithm 1)")
    )
    row = results["Redis"]
    adaptive = row["adaptive (Alg. 1)"]
    # The adaptive timeout performs at least on par with the worse of the
    # two fixed settings (it cannot be dominated by both).
    fixed = [row["fixed short (1)"], row["fixed long (32)"]]
    assert adaptive.throughput >= min(f.throughput for f in fixed) * 0.95


def test_ablation_prealloc_threshold():
    results = run_prealloc_sweep("Redis", epochs=12)
    write_result(
        "ablation_prealloc", format_ablation(results, "Huge preallocation threshold")
    )
    row = results["Redis"]
    assert all(r.throughput > 0 for r in row.values())


def test_ablation_bucket_hold():
    results = run_bucket_hold_sweep("Redis", epochs=12)
    write_result("ablation_bucket_hold", format_ablation(results, "Bucket hold time"))
    row = results["Redis"]
    # Holding freed aligned pages longer must not hurt alignment.
    short = row["hold=1"].well_aligned_rate
    long = row["hold=16"].well_aligned_rate
    assert long >= short - 0.1
