"""Figure 12 — dirty-tracking overhead of the Prosper hardware.

Runs the SPEC CPU 2017 models, the graph workloads and Stream under the
Prosper tracker at 8/64/128-byte granularity (Setup-II, DRAM-only demand
path) and reports user-IPC speedup relative to no tracking.
Paper shape: less than 1 % average overhead, about 3 % worst case
(G500_sssp), roughly flat across granularities.
"""

from collections import defaultdict

from repro.analysis.report import render_table
from repro.harness.figures import figure_rows


def test_fig12_tracking_overhead(benchmark):
    cells = benchmark.pedantic(
        figure_rows,
        args=("fig12", 80_000),
        rounds=1,
        iterations=1,
    )
    table = defaultdict(dict)
    for c in cells:
        table[c["workload"]][c["granularity"]] = c["speedup"]
    grans = [8, 64, 128]
    print()
    print(
        render_table(
            "Figure 12: speedup with tracking vs no tracking (user IPC)",
            ["workload"] + [f"{g}B" for g in grans],
            [
                [w] + [f"{table[w][g]:.4f}" for g in grans]
                for w in sorted(table)
            ],
        )
    )
    overheads = [1.0 - s for row in table.values() for s in row.values()]
    mean_overhead = sum(overheads) / len(overheads)
    print(f"mean overhead: {mean_overhead * 100:.2f}%  "
          f"max overhead: {max(overheads) * 100:.2f}%")
    assert mean_overhead < 0.02  # paper: <1 % average
    assert max(overheads) < 0.08  # paper: ~3 % worst case
