"""Tests for the multicore kernel target: context switches and barriers.

The single-core sweep (tests/test_faults.py) covers the staging/commit
protocol; these tests cover the crash surfaces a second core multiplies —
tracker save/restore inside a context switch and the stop-the-world
quiesce barrier — and assert recovery never blends per-thread checkpoint
epochs.
"""

from __future__ import annotations

import pytest

from repro.faults.fuzzer import CrashSpec, KernelScenario, KernelTarget
from repro.faults.injector import (
    BARRIER_QUIESCE,
    CRASH_POINT_FAMILIES,
    CTX_RESTORE,
    CTX_SAVE,
    CrashInjected,
    FaultInjector,
)
from repro.faults.order import PersistPlan
from repro.faults.sweep import run_sweep

TARGET = KernelTarget(cores=2, threads=2, intervals=2, writes=2)


@pytest.fixture(scope="module")
def sweep():
    """The full 2-core sweep, run once for the whole module."""
    return run_sweep(TARGET)


@pytest.fixture(scope="module")
def points(sweep) -> list[tuple[str, int]]:
    return [(outcome.spec.point, outcome.spec.occurrence) for outcome in sweep[0]]


def run_case(point: str, occurrence: int):
    return TARGET.run(
        CrashSpec("point", point=point, occurrence=occurrence),
        forced_plan=PersistPlan(),
    )


class TestEnumeration:
    def test_ctx_and_barrier_points_fire(self, points):
        names = {point for point, _ in points}
        assert CTX_SAVE in names
        assert CTX_RESTORE in names
        assert BARRIER_QUIESCE in names

    def test_staging_protocol_points_also_covered(self, points):
        names = {point for point, _ in points}
        assert "metadata_write" in names
        assert "commit_flag_write" in names

    def test_new_points_are_documented_families(self):
        assert CTX_SAVE in CRASH_POINT_FAMILIES
        assert CTX_RESTORE in CRASH_POINT_FAMILIES
        assert BARRIER_QUIESCE in CRASH_POINT_FAMILIES

    def test_barrier_fires_once_per_core_per_checkpoint(self, points):
        count = sum(1 for point, _ in points if point == BARRIER_QUIESCE)
        # 2 cores x 2 checkpoints = 4 quiesce crossings.
        assert count == 4

    def test_single_core_target_reaches_the_kernel_surfaces_too(self):
        _, fired = KernelTarget(cores=1, threads=2, intervals=2, writes=2).probe()
        assert {CTX_SAVE, CTX_RESTORE, BARRIER_QUIESCE} <= set(fired)


class TestSweep:
    def test_full_sweep_has_no_violations(self, sweep):
        outcomes, violations = sweep
        assert outcomes, "sweep enumerated no cases"
        assert not violations, [v["detail"] for v in violations]

    def test_ctx_save_crash_restores_latest_checkpoint(self, points):
        occurrences = [occ for point, occ in points if point == CTX_SAVE]
        assert occurrences
        # The last ctx_save fires after checkpoint 0 committed; recovery
        # must restore checkpoint 0 exactly, not fresh state.
        case = run_case(CTX_SAVE, occurrences[-1])
        assert case.ok, case.detail
        assert case.resumed == 0
        assert case.expected == (0,)  # only the latest commit is legal
        assert case.classification == "previous"

    def test_ctx_restore_crash_recovers(self, points):
        occurrences = [occ for point, occ in points if point == CTX_RESTORE]
        assert occurrences
        case = run_case(CTX_RESTORE, occurrences[0])
        assert case.ok, case.detail

    def test_barrier_crash_falls_back_to_previous(self, points):
        occurrences = [occ for point, occ in points if point == BARRIER_QUIESCE]
        # A barrier crash happens before any staging of the in-flight
        # checkpoint, so roll-forward is impossible.
        for occurrence in occurrences:
            case = run_case(BARRIER_QUIESCE, occurrence)
            assert case.ok, case.detail
            assert case.classification in ("previous", "fresh_start")

    def test_unreachable_point_is_a_violation(self):
        case = run_case(CTX_SAVE, 10_000)
        assert not case.crashed and not case.ok
        assert case.classification == "violation"
        assert "never fired" in case.detail


class TestBlendDetection:
    """The invariant check itself must be able to catch blends."""

    def test_mismatched_epoch_is_detected(self):
        scenario = KernelScenario(TARGET)
        scenario.run()
        scenario.sim.crash()
        report = scenario.sim.recover()
        resumed = report.resumed_from_sequence
        assert resumed == 1
        # Exact match against the restored checkpoint...
        assert scenario.state_mismatch(resumed) is None
        # ...and a definite mismatch against the other epoch: if recovery
        # ever blended epochs, at least one of these comparisons would
        # wrongly succeed.
        assert scenario.state_mismatch(0) is not None

    def test_hand_blended_state_is_flagged(self):
        """Corrupt one thread's restored stack word; the check must fire."""
        scenario = KernelScenario(TARGET)
        scenario.run()
        scenario.sim.crash()
        report = scenario.sim.recover()
        resumed = report.resumed_from_sequence
        victim = next(iter(scenario.sp))
        address = scenario.sp[victim]
        stale = scenario.mem_at[0][victim][address]  # epoch-0 value
        scenario.dram_images[victim].write(address, stale)
        mismatch = scenario.state_mismatch(resumed)
        assert mismatch is not None
        assert "blend or data loss" in mismatch


class TestScenarioDeterminism:
    def test_probe_and_armed_runs_align(self):
        """The armed run must reach the same points as the probe."""
        target = KernelTarget(cores=2, threads=2, intervals=2, writes=2, seed=3)
        _, probe_points = target.probe()
        injector = FaultInjector(3)
        injector.arm(CTX_SAVE, 0)
        with pytest.raises(CrashInjected):
            KernelScenario(target, injector).run()
        assert set(injector.fired) <= set(probe_points)

    def test_violation_cases_would_carry_detail(self, sweep):
        for outcome in sweep[0]:
            if outcome.classification == "violation":
                assert outcome.detail
