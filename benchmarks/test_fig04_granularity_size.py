"""Figure 4 — checkpoint copy size: page (4 KiB) vs 8-byte dirty tracking.

Post-processes each application trace at 10 ms intervals and compares the
data that would be copied under page-granularity vs byte-granularity dirty
tracking of the stack region.
Paper shape: large reductions (300x Gapbs_pr, 56x G500_sssp, 33x Ycsb_mem),
ordered gapbs > g500 > ycsb.
"""

from repro.analysis.report import format_bytes, render_table
from repro.harness.figures import figure_rows


def test_fig4_copy_size(benchmark):
    rows = benchmark.pedantic(
        figure_rows,
        args=("fig4", 120_000),
        kwargs={"num_intervals": 50},
        rounds=1,
        iterations=1,
    )
    reduction = {
        r["workload"]: r["page_bytes_per_interval"] / r["byte_bytes_per_interval"]
        for r in rows
    }
    print()
    print(
        render_table(
            "Figure 4: mean copy size per 10ms interval, page vs 8-byte tracking",
            ["workload", "page (4KiB)", "8-byte", "reduction"],
            [
                [
                    r["workload"],
                    format_bytes(r["page_bytes_per_interval"]),
                    format_bytes(r["byte_bytes_per_interval"]),
                    f"{reduction[r['workload']]:.1f}x",
                ]
                for r in rows
            ],
        )
    )
    by_name = reduction
    assert by_name["gapbs_pr"] > by_name["g500_sssp"] > by_name["ycsb_mem"] > 1
    assert by_name["gapbs_pr"] > 20
