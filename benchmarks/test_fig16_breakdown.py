"""Benchmark: Figure 16 — Gemini performance breakdown (EMA/HB vs huge
bucket ablations)."""

from conftest import write_result

from repro.experiments.breakdown import contributions, format_breakdown


def test_fig16_breakdown(breakdown_results):
    table = contributions(breakdown_results)
    write_result("fig16_breakdown", format_breakdown(breakdown_results))

    # Both mechanisms contribute on every workload; EMA/HB dominates on
    # average (the paper reports a 66%/34% split), and especially for the
    # allocate-once static workloads (CG.D, SVM).
    ema_shares = [row["EMA/HB"] for row in table.values()]
    assert all(0.0 < share < 1.0 for share in ema_shares)
    avg_ema = sum(ema_shares) / len(ema_shares)
    assert avg_ema > 0.5
    for static in ("CG.D", "SVM"):
        if static in table:
            assert table[static]["EMA/HB"] >= avg_ema - 0.15
    # Each ablated variant must not beat full Gemini (sanity of ablation).
    for workload, row in breakdown_results.items():
        full = row["Gemini"].throughput
        assert row["EMA/HB only"].throughput <= full * 1.15
        assert row["Bucket only"].throughput <= full * 1.1
