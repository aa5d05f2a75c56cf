"""Seed-robustness validation of the headline paper shapes.

The benchmark suite asserts each figure's shape at one seed; this module
re-checks the load-bearing claims across several seeds so a reproduction
report can state that the orderings are not one-draw luck:

1. Prosper has the lowest normalized time of all mechanisms (Figure 8).
2. Romulus has the highest (Figure 8).
3. SSP-10µs costs at least as much as SSP-1ms (Figure 8).
4. SSP+Prosper beats SSP-everything for full-memory persistence (Figure 9,
   10 µs setting).
5. Sub-page tracking reduces the copy size by >5x on every application
   (Figure 4).
6. Tracking overhead stays under 2 % per workload (Figure 12).
7. mcf's bitmap traffic does not improve with a larger HWM while SSSP's
   does (Figure 13).

The checks read the rows of the figures' own run units, re-seeded:
:data:`CHECKS` names the units each figure contributes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.figures import RunUnit, figure_rows, figure_units


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one shape check at one seed."""

    name: str
    seed: int
    passed: bool
    detail: str


def _by_workload(rows: list[dict], key: str) -> dict[str, dict]:
    table: dict[str, dict] = {}
    for r in rows:
        table.setdefault(r["workload"], {})[r[key]] = r["normalized_time"]
    return table


def _fig8_checks(seed: int, rows: list[dict]) -> list[CheckResult]:
    out = []
    for workload, row in _by_workload(rows, "mechanism").items():
        best = min(row, key=row.get)
        worst = max(row, key=row.get)
        out.append(
            CheckResult(
                "fig8-prosper-best", seed, best == "prosper",
                f"{workload}: best={best} ({row[best]:.2f})",
            )
        )
        out.append(
            CheckResult(
                "fig8-romulus-worst", seed, worst == "romulus",
                f"{workload}: worst={worst} ({row[worst]:.2f})",
            )
        )
        out.append(
            CheckResult(
                "fig8-ssp-interval-trend", seed,
                row["ssp-10us"] >= row["ssp-1ms"] * 0.98,
                f"{workload}: 10us={row['ssp-10us']:.2f} 1ms={row['ssp-1ms']:.2f}",
            )
        )
    return out


def _fig9_checks(seed: int, rows: list[dict]) -> list[CheckResult]:
    return [
        CheckResult(
            "fig9-prosper-combo-best", seed,
            row["ssp+prosper"] <= row["ssp"] * 1.001,
            f"{workload}: ssp+prosper={row['ssp+prosper']:.2f} ssp={row['ssp']:.2f}",
        )
        for workload, row in _by_workload(rows, "combination").items()
    ]


def _fig4_checks(seed: int, rows: list[dict]) -> list[CheckResult]:
    out = []
    for row in rows:
        fine = row["byte_bytes_per_interval"]
        reduction = row["page_bytes_per_interval"] / fine if fine else float("inf")
        out.append(
            CheckResult(
                "fig4-reduction", seed, reduction > 5.0,
                f"{row['workload']}: {reduction:.1f}x",
            )
        )
    return out


def _fig12_checks(seed: int, rows: list[dict]) -> list[CheckResult]:
    return [
        CheckResult(
            "fig12-overhead-small", seed, row["speedup"] > 0.98,
            f"{row['workload']}: speedup={row['speedup']:.4f}",
        )
        for row in rows
    ]


def _fig13_checks(seed: int, rows: list[dict]) -> list[CheckResult]:
    by = {(r["workload"], r["hwm"]): r["bitmap_loads"] + r["bitmap_stores"] for r in rows}
    return [
        CheckResult(
            "fig13-sssp-hwm-down", seed,
            by[("g500_sssp", 32)] < by[("g500_sssp", 8)],
            f"sssp: hwm8={by[('g500_sssp', 8)]} hwm32={by[('g500_sssp', 32)]}",
        ),
        CheckResult(
            "fig13-mcf-hwm-up", seed,
            by[("605.mcf_s", 32)] > by[("605.mcf_s", 8)] * 0.95,
            f"mcf: hwm8={by[('605.mcf_s', 8)]} hwm32={by[('605.mcf_s', 32)]}",
        ),
    ]


#: Per figure: the units its checks read (``None``: all of them), and the
#: checks, in check order.
CHECKS = {
    "fig8": (None, _fig8_checks),
    "fig9": (lambda unit: unit.params["ssp_interval_us"] == 10.0, _fig9_checks),
    "fig4": (None, _fig4_checks),
    "fig12": (lambda unit: unit.params["granularity"] == 8, _fig12_checks),
    "fig13": (lambda unit: unit.unit_id.endswith(("/hwm8", "/hwm32")), _fig13_checks),
}


def check_units(seed: int, target_ops: int) -> list[RunUnit]:
    """The units the checks read at *seed*, in check order."""
    return [
        unit
        for name, (where, _) in CHECKS.items()
        for unit in figure_units(name, target_ops, where, seed=seed)
    ]


def shape_checks(seed: int, rows: dict[str, list[dict]]) -> list[CheckResult]:
    """Every check at *seed*, over the rows of each :data:`CHECKS` figure."""
    return [
        result
        for name, (_, check) in CHECKS.items()
        for result in check(seed, rows[name])
    ]


def validate_shapes(
    seeds: tuple[int, ...] = (42, 7, 1234),
    target_ops: int = 30_000,
) -> list[CheckResult]:
    """Run every shape check at every seed; returns the flat result list."""
    out: list[CheckResult] = []
    for seed in seeds:
        rows = {
            name: figure_rows(name, target_ops, where, seed=seed)
            for name, (where, _) in CHECKS.items()
        }
        out.extend(shape_checks(seed, rows))
    return out


def summarize(results: list[CheckResult]) -> dict[str, tuple[int, int]]:
    """Per check name: (passes, total) across seeds/workloads."""
    summary: dict[str, tuple[int, int]] = {}
    for r in results:
        passes, total = summary.get(r.name, (0, 0))
        summary[r.name] = (passes + (1 if r.passed else 0), total + 1)
    return summary
