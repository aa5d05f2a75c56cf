"""Figure 8 — stack persistence: Prosper vs Romulus, SSP, Dirtybit.

Runs each application under every mechanism with 10 ms checkpoint intervals
and reports execution time normalized to no-persistence execution.
Paper shape: Prosper lowest everywhere; Dirtybit close behind (Prosper up to
1.27x better); SSP overhead shrinking as the consolidation interval grows
from 10 us to 1 ms; Romulus worst across all workloads.
"""

from collections import defaultdict

from repro.analysis.report import render_table
from repro.harness.figures import figure_rows


def test_fig8_stack_persistence(benchmark):
    results = benchmark.pedantic(
        figure_rows,
        args=("fig8", 80_000),
        rounds=1,
        iterations=1,
    )
    table = defaultdict(dict)
    for r in results:
        table[r["workload"]][r["mechanism"]] = r["normalized_time"]
    mechanisms = ["prosper", "dirtybit", "ssp-10us", "ssp-100us", "ssp-1ms", "romulus"]
    print()
    print(
        render_table(
            "Figure 8: normalized execution time (stack persistence)",
            ["workload"] + mechanisms,
            [
                [w] + [f"{table[w][m]:.2f}" for m in mechanisms]
                for w in sorted(table)
            ],
        )
    )
    for w, row in table.items():
        assert row["prosper"] == min(row.values()), f"prosper not best on {w}"
        assert row["romulus"] == max(row.values()), f"romulus not worst on {w}"
        assert row["ssp-10us"] >= row["ssp-1ms"] * 0.98
    # Paper: up to 3.6x reduction vs SSP-10us, 2.1x average.
    ratios = [row["ssp-10us"] / row["prosper"] for row in table.values()]
    assert max(ratios) > 1.5
