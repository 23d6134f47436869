"""Benchmark: TLB model validation — the analytic capacity model must
agree with the trace-driven set-associative TLB on real simulator states
(the foundation every figure rests on)."""

from conftest import write_result

from repro.experiments.validation import format_validation, run_validation


def test_model_validation():
    points = run_validation(
        workloads=["Masstree", "SVM"],
        systems=["Host-B-VM-B", "THP", "Gemini"],
        epochs=6,
        trace_accesses=40_000,
    )
    write_result("model_validation", format_validation(points))
    assert points
    for point in points:
        assert point.error < 0.08, f"{point.workload}/{point.system}: {point.error:.3f}"
    # The structure must be preserved: Gemini's traced miss rate is far
    # below the baseline's.
    traced = {(p.workload, p.system): p.traced_miss_rate for p in points}
    for workload in ("Masstree", "SVM"):
        assert traced[(workload, "Gemini")] < 0.5 * traced[(workload, "Host-B-VM-B")]
