"""Integration tests: small-scale versions of every paper experiment.

These exercise the full pipeline (workload -> engine -> mechanism ->
analysis) and assert the *shape* of each figure's result, at sizes small
enough for the unit-test suite.  The full-scale numbers live in the
benchmarks and EXPERIMENTS.md.
"""

import pytest

from repro.experiments import overhead
from repro.harness.figures import figure_rows


OPS = 25_000  # small but big enough for stable shapes


@pytest.fixture(scope="module")
def fig1_rows():
    return figure_rows("fig1", OPS)


class TestFig1:
    def test_three_workloads(self, fig1_rows):
        assert [r["workload"] for r in fig1_rows] == [
            "gapbs_pr",
            "g500_sssp",
            "ycsb_mem",
        ]

    def test_gapbs_is_stack_heavy(self, fig1_rows):
        by_name = {r["workload"]: r["stack_fraction"] for r in fig1_rows}
        assert by_name["gapbs_pr"] > 0.6
        assert by_name["ycsb_mem"] < 0.3
        assert by_name["gapbs_pr"] > by_name["g500_sssp"] > by_name["ycsb_mem"]


class TestFig2:
    def test_ycsb_has_substantial_beyond_sp_writes(self):
        results = figure_rows("fig2", OPS, num_intervals=50)
        ycsb = next(r for r in results if r["workload"] == "ycsb_mem")
        assert 0.1 < ycsb["beyond_fraction"] < 0.8
        for r in results:
            assert r["total_beyond"] <= r["total_writes"]


class TestFig3:
    @pytest.fixture(scope="class")
    def cells(self):
        return figure_rows("fig3", 12_000, num_intervals=10)

    def test_all_cells_present(self, cells):
        assert len(cells) == 3 * 3 * 2  # workloads x mechanisms x awareness

    def test_sp_awareness_always_helps(self, cells):
        time = {
            (c["workload"], c["mechanism"], c["sp_aware"]): c["normalized_time"]
            for c in cells
        }
        for workload in {c["workload"] for c in cells}:
            for mech in ("flush", "undo", "redo"):
                assert time[workload, mech, True] <= time[workload, mech, False]

    def test_overhead_significant_even_with_awareness(self, cells):
        # Paper: >35x slowdown across all benchmarks even SP-aware.
        aware = [c for c in cells if c["sp_aware"]]
        assert all(c["normalized_time"] > 2.0 for c in aware)


class TestFig4:
    def test_page_tracking_amplifies_copy_size(self):
        rows = figure_rows("fig4", OPS, num_intervals=20)
        reduction = {
            r["workload"]: r["page_bytes_per_interval"] / r["byte_bytes_per_interval"]
            for r in rows
        }
        for factor in reduction.values():
            assert factor > 5.0
        # Gapbs shows the largest reduction, ycsb the smallest (paper order).
        assert reduction["gapbs_pr"] > reduction["ycsb_mem"]


class TestFig8:
    @pytest.fixture(scope="class")
    def results(self):
        table = {}
        for r in figure_rows("fig8", OPS):
            table.setdefault(r["workload"], {})[r["mechanism"]] = r["normalized_time"]
        return table

    def test_prosper_wins_everywhere(self, results):
        for workload, rows in results.items():
            prosper = rows["prosper"]
            for name, value in rows.items():
                if name != "prosper":
                    assert prosper <= value, f"{name} beat prosper on {workload}"

    def test_ssp_improves_with_longer_consolidation(self, results):
        for rows in results.values():
            assert rows["ssp-10us"] >= rows["ssp-1ms"] * 0.98

    def test_romulus_is_worst(self, results):
        for rows in results.values():
            assert rows["romulus"] == max(rows.values())


class TestFig9:
    def test_prosper_combination_wins(self):
        cells = figure_rows(
            "fig9", OPS, where=lambda u: u.params["ssp_interval_us"] == 10.0
        )
        for workload in {c["workload"] for c in cells}:
            rows = {c["combination"]: c["normalized_time"] for c in cells
                    if c["workload"] == workload}
            assert rows["ssp+prosper"] <= rows["ssp+dirtybit"]
            assert rows["ssp+prosper"] <= rows["ssp"]


class TestFig10:
    @pytest.fixture(scope="class")
    def cells(self):
        rows = figure_rows(
            "fig10", OPS, where=lambda u: u.params["granularity"] in ("page", 8, 64),
            scale=0.3,
        )
        return {(r["workload"], r["granularity"]): r for r in rows}

    def test_sparse_gets_huge_reduction(self, cells):
        sparse8 = cells["sparse", 8]
        sparse_page = cells["sparse", "page"]
        assert sparse8["mean_checkpoint_bytes"] < sparse_page["mean_checkpoint_bytes"] / 50
        time_vs_dirtybit = (
            (sparse8["mean_checkpoint_cycles"] or 0.0)
            / sparse_page["mean_checkpoint_cycles"]
        )
        assert time_vs_dirtybit < 1.0

    def test_stream_gets_no_size_benefit(self, cells):
        stream8 = cells["stream", 8]
        stream_page = cells["stream", "page"]
        # Stream dirties everything: fine tracking saves at most the
        # page-rounding slack at the interval's edges (compare sparse's
        # 50x+ reduction).
        assert (
            stream8["mean_checkpoint_bytes"]
            > stream_page["mean_checkpoint_bytes"] / 3
        )

    def test_coarser_granularity_never_smaller_checkpoint(self, cells):
        for workload in {w for w, _ in cells}:
            fine = cells[workload, 8]
            coarse = cells[workload, 64]
            assert coarse["mean_checkpoint_bytes"] >= fine["mean_checkpoint_bytes"] * 0.99


class TestFig11:
    @pytest.fixture(scope="class")
    def cells(self):
        rows = figure_rows(
            "fig11", OPS,
            where=lambda u: u.params["workload"] in ("quicksort", "rec-4", "rec-16"),
        )
        return {(r["workload"], r["interval_paper_ms"]): r for r in rows}

    def test_recursive_checkpoint_grows_with_interval(self, cells):
        for name in ("rec-4", "rec-16"):
            sizes = {ms: c["mean_checkpoint_bytes"]
                     for (w, ms), c in cells.items() if w == name}
            assert sizes[10.0] > sizes[1.0] * 2

    def test_quicksort_saturates_unlike_recursive(self, cells):
        qs = {ms: c["mean_checkpoint_bytes"]
              for (w, ms), c in cells.items() if w == "quicksort"}
        rec = {ms: c["mean_checkpoint_bytes"]
               for (w, ms), c in cells.items() if w == "rec-16"}
        assert qs[10.0] / qs[5.0] < rec[10.0] / rec[5.0] * 1.05

    def test_recursive_per_byte_cost_highest_at_1ms(self, cells):
        per_byte = {ms: c["ns_per_byte"]
                    for (w, ms), c in cells.items() if w == "rec-4"}
        assert per_byte[1.0] > per_byte[10.0]


class TestFig12:
    def test_tracking_overhead_small(self):
        cells = figure_rows("fig12", OPS, where=lambda u: u.params["granularity"] == 8)
        for cell in cells:
            assert cell["speedup"] > 0.9, f"{cell['workload']} overhead too large"
        overheads = [(1.0 - c["speedup"]) * 100.0 for c in cells]
        mean_overhead = sum(overheads) / len(overheads)
        assert mean_overhead < 5.0


class TestFig13:
    @pytest.fixture(scope="class")
    def cells(self):
        return [
            {**r, "memory_ops": r["bitmap_loads"] + r["bitmap_stores"]}
            for r in figure_rows(
                "fig13", OPS,
                where=lambda u: u.unit_id.endswith(("/hwm8", "/hwm32", "/lwm2", "/lwm16")),
            )
        ]

    def test_sssp_ops_decrease_with_hwm(self, cells):
        sssp = [c for c in cells if c["workload"] == "g500_sssp" and c["lwm"] == 4]
        by_hwm = {c["hwm"]: c["memory_ops"] for c in sssp}
        assert by_hwm[32] < by_hwm[8]

    def test_mcf_ops_increase_with_hwm(self, cells):
        mcf = [c for c in cells if c["workload"] == "605.mcf_s" and c["lwm"] == 4]
        by_hwm = {c["hwm"]: c["memory_ops"] for c in mcf}
        assert by_hwm[32] > by_hwm[8] * 0.95

    def test_mcf_benefits_from_higher_lwm(self, cells):
        mcf = [c for c in cells if c["workload"] == "605.mcf_s" and c["hwm"] == 24]
        by_lwm = {c["lwm"]: c["memory_ops"] for c in mcf}
        assert by_lwm[16] <= by_lwm[2] * 1.05


class TestContextSwitch:
    def test_overhead_in_paper_ballpark(self):
        result = overhead.context_switch_overhead(switches=60)
        # Paper reports ~870 cycles on average.
        assert 300 < result.mean_prosper_cycles < 2500
        assert result.switches == 60


class TestEnergy:
    def test_energy_report_positive(self):
        report = overhead.energy_report(target_ops=8_000)
        assert report.reads > 0
        assert report.writes > 0
        assert report.total_nj > 0
        assert report.area_mm2 == pytest.approx(0.000704786)
