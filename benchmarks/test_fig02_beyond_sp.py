"""Figure 2 — stack writes beyond the interval-final SP.

Regenerates the per-interval series of total stack writes vs writes landing
below the SP value at the interval end (wasted work for SP-unaware
mechanisms), aggregated over 100 intervals as in the paper.
Paper shape: >36 % of Ycsb_mem stack writes land beyond the final SP; the
other workloads behave similarly.
"""

from repro.analysis.report import render_table
from repro.harness.figures import figure_rows


def test_fig2_beyond_final_sp(benchmark):
    results = benchmark.pedantic(
        figure_rows,
        args=("fig2", 120_000),
        kwargs={"num_intervals": 100},
        rounds=1,
        iterations=1,
    )
    print()
    print(
        render_table(
            "Figure 2: stack writes beyond interval-final SP (100 intervals)",
            ["workload", "stack writes", "beyond final SP", "fraction"],
            [
                [r["workload"], r["total_writes"], r["total_beyond"],
                 f"{r['beyond_fraction']:.3f}"]
                for r in results
            ],
        )
    )
    ycsb = next(r for r in results if r["workload"] == "ycsb_mem")
    assert ycsb["beyond_fraction"] > 0.1
    for r in results:
        assert 0 <= r["beyond_fraction"] <= 1
