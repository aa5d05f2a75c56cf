"""Figure 9 — full memory-state persistence (heap + stack).

Runs each application with SSP protecting the heap and one of {SSP,
Dirtybit, Prosper} protecting the stack, across the three SSP
consolidation-thread invocation intervals.
Paper shape: SSP+Prosper best under every setting (up to 2.6x, ~2x average
vs SSP-everything at 10 us); all combinations improve as the consolidation
interval grows.
"""

from collections import defaultdict

from repro.analysis.report import render_table
from repro.harness.figures import figure_rows


def test_fig9_memory_persistence(benchmark):
    cells = benchmark.pedantic(
        figure_rows,
        args=("fig9", 60_000),
        rounds=1,
        iterations=1,
    )
    table = defaultdict(dict)
    for c in cells:
        table[(c["workload"], c["ssp_interval_us"])][c["combination"]] = c["normalized_time"]
    combos = ["ssp", "ssp+dirtybit", "ssp+prosper"]
    print()
    print(
        render_table(
            "Figure 9: normalized execution time (memory-state persistence)",
            ["workload", "ssp interval"] + combos,
            [
                [w, f"{us:g}us"] + [f"{row[c]:.2f}" for c in combos]
                for (w, us), row in sorted(table.items())
            ],
        )
    )
    for row in table.values():
        assert row["ssp+prosper"] <= row["ssp+dirtybit"] * 1.001
        assert row["ssp+prosper"] <= row["ssp"] * 1.001
