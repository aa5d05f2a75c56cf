"""Figure 13 — lookup-table sensitivity to the HWM and LWM thresholds.

Replays the mcf and SSSP stack store streams through the bare tracker,
sweeping the high-water mark (LWM fixed at 4) and the low-water mark
(HWM fixed at 24), and counts tracker-issued bitmap loads and stores.
Paper shape: SSSP (spatial locality) issues fewer ops as HWM grows and is
insensitive to LWM; mcf (scattered temporaries) issues more ops as HWM
grows and benefits from a larger LWM.
"""

from collections import defaultdict

from repro.analysis.report import render_table
from repro.harness.figures import figure_rows


def test_fig13_watermarks(benchmark):
    cells = benchmark.pedantic(
        figure_rows,
        args=("fig13", 80_000),
        rounds=1,
        iterations=1,
    )
    hwm_rows = defaultdict(dict)
    lwm_rows = defaultdict(dict)
    for c in cells:
        counts = (c["bitmap_loads"], c["bitmap_stores"])
        if c["lwm"] == 4:
            hwm_rows[c["workload"]][c["hwm"]] = counts
        if c["hwm"] == 24:
            lwm_rows[c["workload"]][c["lwm"]] = counts

    print()
    for title, rows, key in (
        ("Figure 13a/c: bitmap ops vs HWM (LWM=4)", hwm_rows, "HWM"),
        ("Figure 13b/d: bitmap ops vs LWM (HWM=24)", lwm_rows, "LWM"),
    ):
        table = []
        for workload in sorted(rows):
            for threshold in sorted(rows[workload]):
                loads, stores = rows[workload][threshold]
                table.append([workload, threshold, loads, stores])
        print(render_table(title, ["workload", key, "loads", "stores"], table))
        print()

    sssp = {h: sum(v) for h, v in hwm_rows["g500_sssp"].items()}
    mcf = {h: sum(v) for h, v in hwm_rows["605.mcf_s"].items()}
    assert sssp[max(sssp)] < sssp[min(sssp)], "SSSP should improve with HWM"
    assert mcf[max(mcf)] > mcf[min(mcf)] * 0.95, "mcf should not improve with HWM"

    mcf_lwm = {lwm: sum(v) for lwm, v in lwm_rows["605.mcf_s"].items()}
    assert mcf_lwm[max(mcf_lwm)] <= mcf_lwm[min(mcf_lwm)] * 1.05
