"""Figure 1 — fraction of memory operations in the stack region.

Regenerates the motivation bar chart: for Gapbs_pr, G500_sssp and Ycsb_mem,
the share of memory operations (and of writes) hitting the stack.
Paper shape: Gapbs_pr ~70 %, G500_sssp in between, Ycsb_mem ~15 %.
"""

from repro.analysis.report import render_table
from repro.harness.figures import figure_rows


def test_fig1_stack_fraction(benchmark):
    rows = benchmark.pedantic(
        figure_rows,
        args=("fig1", 120_000),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        render_table(
            "Figure 1: stack share of memory operations",
            ["workload", "stack op fraction", "stack write fraction"],
            [
                [r["workload"], f"{r['stack_fraction']:.3f}", f"{r['stack_write_fraction']:.3f}"]
                for r in rows
            ],
        )
    )
    by_name = {r["workload"]: r["stack_fraction"] for r in rows}
    assert by_name["gapbs_pr"] > by_name["g500_sssp"] > by_name["ycsb_mem"]
