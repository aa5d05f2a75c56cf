"""Figure 3 — flush/undo/redo with and without SP awareness.

Replays the stack activity of each application with the three per-store
persistence primitives, with the stack resident in NVM, and compares
execution time with and without the SP oracle, normalized to stack-in-DRAM
execution with no persistence.
Paper shape: SP awareness improves all three mechanisms (~30 % on average),
yet even SP-aware variants stay >35x slower than no persistence.
"""

from repro.analysis.report import render_table
from repro.harness.figures import figure_rows


def test_fig3_sp_awareness(benchmark):
    cells = benchmark.pedantic(
        figure_rows,
        args=("fig3", 60_000),
        kwargs={"num_intervals": 20},
        rounds=1,
        iterations=1,
    )
    print()
    rows = []
    for cell in cells:
        rows.append(
            [
                cell["workload"],
                cell["mechanism"],
                "yes" if cell["sp_aware"] else "no",
                f"{cell['normalized_time']:.1f}x",
            ]
        )
    print(
        render_table(
            "Figure 3: normalized execution time, stack persistence primitives",
            ["workload", "mechanism", "SP aware", "normalized time"],
            rows,
        )
    )
    # SP awareness helps every (workload, mechanism) pair.
    time = {
        (c["workload"], c["mechanism"], c["sp_aware"]): c["normalized_time"]
        for c in cells
    }
    for workload in {c["workload"] for c in cells}:
        for mech in ("flush", "undo", "redo"):
            blind = time[workload, mech, False]
            aware = time[workload, mech, True]
            assert aware <= blind
            assert aware > 2.0  # still far from free
