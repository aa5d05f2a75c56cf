"""Figure 10 — Prosper across stack usage patterns and tracking granularity.

Runs the seven Table III micro-benchmarks under Prosper at 8/16/32/64/128
byte granularity and under the page-level Dirtybit baseline, reporting
(a) mean checkpoint size and (b) checkpoint time normalized to Dirtybit.
Paper shape: Sparse benefits most (~99 % size reduction, ~22x faster
checkpoints); Stream gains nothing; granularity trades metadata against
copy size.
"""

from collections import defaultdict

from repro.analysis.report import format_bytes, render_table
from repro.harness.figures import figure_rows


def test_fig10_usage_patterns(benchmark):
    cells = benchmark.pedantic(
        figure_rows,
        args=("fig10", 60_000),
        kwargs={"scale": 0.6},
        rounds=1,
        iterations=1,
    )
    sizes = defaultdict(dict)
    times = defaultdict(dict)
    cycles = defaultdict(dict)
    for c in cells:
        sizes[c["workload"]][c["granularity"]] = c["mean_checkpoint_bytes"]
        cycles[c["workload"]][c["granularity"]] = c["mean_checkpoint_cycles"] or 0.0
    for w, row in cycles.items():
        times[w] = {g: value / row["page"] for g, value in row.items()}
    columns = ["page", 8, 16, 32, 64, 128]
    print()
    print(
        render_table(
            "Figure 10a: mean checkpoint size",
            ["workload"] + [str(c) for c in columns],
            [
                [w] + [format_bytes(sizes[w].get(c, 0)) for c in columns]
                for w in sorted(sizes)
            ],
        )
    )
    print()
    print(
        render_table(
            "Figure 10b: checkpoint time normalized to Dirtybit",
            ["workload"] + [str(c) for c in columns],
            [
                [w] + [f"{times[w].get(c, 0):.3f}" for c in columns]
                for w in sorted(times)
            ],
        )
    )
    # Sparse: huge size reduction and much faster checkpoints at 8B.
    assert sizes["sparse"][8] < sizes["sparse"]["page"] * 0.02
    assert times["sparse"][8] < 0.5
    # Stream: no meaningful size benefit from fine tracking (page rounding
    # at the interval edges is the only slack).
    assert sizes["stream"][8] >= sizes["stream"]["page"] * 0.4
