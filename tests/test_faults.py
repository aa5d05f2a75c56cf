"""Tests for the fault-injection subsystem: crash-point injection, the
crash-consistency sweep, torn-record detection, and verified recovery."""

import pytest

from repro.config import TrackerConfig, setup_i
from repro.core.checkpoint import ProsperCheckpointEngine
from repro.core.tracker import ProsperTracker
from repro.faults.injector import (
    STAGE_COMPLETE,
    CrashInjected,
    FaultInjector,
    stage_run_copy,
)
from repro.faults.nvm_errors import WRITE_OK, WRITE_TORN, NvmErrorModel
from repro.faults.fuzzer import KernelTarget
from repro.faults.sweep import run_sweep, torn_metadata_demo, transient_retry_demo
from repro.kernel.checkpoint_mgr import CheckpointManager
from repro.kernel.process import Process
from repro.kernel.restore import CrashSimulator
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.image import ByteImage


class TestFaultInjector:
    def test_unarmed_injector_only_records(self):
        inj = FaultInjector()
        for _ in range(3):
            inj.reached("stage_begin")
        assert inj.fired == ["stage_begin"] * 3
        assert inj.occurrences()["stage_begin"] == 3

    def test_armed_point_fires_at_requested_occurrence(self):
        inj = FaultInjector()
        inj.arm("stage_begin", occurrence=2)
        inj.reached("stage_begin")
        inj.reached("stage_begin")
        with pytest.raises(CrashInjected) as exc:
            inj.reached("stage_begin")
        assert exc.value.point == "stage_begin"
        assert exc.value.occurrence == 2

    def test_disarm_and_reset(self):
        inj = FaultInjector()
        inj.arm("metadata_write")
        inj.disarm()
        inj.reached("metadata_write")  # no crash
        inj.reset()
        assert inj.fired == []
        assert inj.occurrences()["metadata_write"] == 0

    def test_negative_occurrence_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().arm("stage_begin", occurrence=-1)

    def test_torn_metadata_plan(self):
        inj = FaultInjector()
        inj.tear_metadata_at(1, 3)
        assert inj.should_tear_metadata(1)
        assert not inj.should_tear_metadata(2)


def make_world(injector=None, with_images=False):
    """One persistent thread + manager, two dirty clusters per interval."""
    proc = Process()
    thread = proc.spawn_thread(stack_bytes=1 << 20, persistent=True)
    thread.registers.stack_pointer = thread.stack.end - 65536
    hierarchy = MemoryHierarchy(setup_i())
    tracker = ProsperTracker(proc.tracker_config)
    tracker.configure(thread.bitmap)
    dram = {thread.tid: ByteImage()} if with_images else None
    nvm = {thread.tid: ByteImage()} if with_images else None
    mgr = CheckpointManager(
        proc,
        hierarchy,
        tracker,
        injector=injector,
        dram_images=dram,
        nvm_images=nvm,
    )
    return proc, tracker, mgr


def dirty_two_runs(proc, tracker, mgr, op_index, value=0):
    """Dirty two well-separated clusters (two staged runs per checkpoint)."""
    thread = proc.thread(1)
    sp = thread.registers.stack_pointer
    for address in (sp + 8, sp + 8192):
        tracker.observe_store(address, 8)
        if mgr.dram_images is not None:
            mgr.dram_images[thread.tid].write(address, value)
    thread.registers.op_index = op_index
    tracker.request_flush()
    tracker.poll_quiescent()


class TestPartialStagingNotPromoted:
    """Regression for the roll-forward guard: a crash mid-staging leaves a
    *partial* staging buffer, which recovery must discard — the old
    ``dirty_runs is not None`` check promoted it unconditionally."""

    def test_crash_mid_run_copy_falls_back(self):
        inj = FaultInjector()
        proc, tracker, mgr = make_world(injector=inj)
        dirty_two_runs(proc, tracker, mgr, op_index=111)
        mgr.checkpoint_process()  # sequence 0, committed

        dirty_two_runs(proc, tracker, mgr, op_index=222)
        # Crash before the 2nd run of checkpoint 1 is staged (occurrence 1:
        # checkpoint 0 already fired stage_run_copy[1] once).
        inj.arm(stage_run_copy(1), occurrence=1)
        with pytest.raises(CrashInjected):
            mgr.checkpoint_process()

        sim = CrashSimulator(proc, mgr)
        sim.crash()
        report = sim.recover()
        # The half-staged checkpoint 1 must NOT be promoted.
        assert report.resumed_from_sequence == 0
        assert not report.rolled_forward
        assert proc.thread(1).registers.op_index == 111
        assert mgr.discarded_staged == 1
        assert mgr.discarded_intervals == {1}
        assert not mgr.checkpoints[1].committed

    def test_crash_after_staging_complete_rolls_forward(self):
        inj = FaultInjector()
        proc, tracker, mgr = make_world(injector=inj)
        dirty_two_runs(proc, tracker, mgr, op_index=111)
        mgr.checkpoint_process()

        dirty_two_runs(proc, tracker, mgr, op_index=222)
        inj.arm(STAGE_COMPLETE, occurrence=1)
        with pytest.raises(CrashInjected):
            mgr.checkpoint_process()

        sim = CrashSimulator(proc, mgr)
        sim.crash()
        report = sim.recover()
        assert report.rolled_forward
        assert report.resumed_from_sequence == 1
        assert proc.thread(1).registers.op_index == 222


class TestTornRecordDetection:
    def test_torn_metadata_discards_staging(self):
        inj = FaultInjector()
        inj.tear_metadata_at(1)
        proc, tracker, mgr = make_world(injector=inj)
        dirty_two_runs(proc, tracker, mgr, op_index=111)
        mgr.checkpoint_process()

        dirty_two_runs(proc, tracker, mgr, op_index=222)
        mgr.checkpoint_process(crash_during_commit=True)  # fully staged
        sim = CrashSimulator(proc, mgr)
        sim.crash()
        report = sim.recover()
        # Staging is complete, but the metadata CRC fails: fall back.
        assert report.resumed_from_sequence == 0
        assert proc.thread(1).registers.op_index == 111
        assert mgr.discarded_staged == 1

    def test_torn_staged_run_detected_by_checksum(self):
        region_tracker = ProsperTracker(TrackerConfig())
        proc = Process()
        thread = proc.spawn_thread(stack_bytes=1 << 20, persistent=True)
        region_tracker.configure(thread.bitmap)
        hierarchy = MemoryHierarchy(setup_i())

        class TornOnce(NvmErrorModel):
            def __init__(self):
                super().__init__()
                self._queue = [(WRITE_TORN, None)]

            def draw_write(self):
                return self._queue.pop(0) if self._queue else (WRITE_OK, None)

        hierarchy.nvm.error_model = TornOnce()
        engine = ProsperCheckpointEngine(region_tracker, thread.bitmap, hierarchy)
        region_tracker.observe_store(thread.stack.end - 64, 8)
        engine.stage(0)
        staged = engine.staged
        assert staged is not None and staged.complete
        assert not staged.verify()  # the tear corrupted a staged run
        assert engine.recover_staged() is None  # discarded, nothing committed
        assert engine.staged is None


class TestCrashSimulatorMemoryRestoration:
    def test_recover_restores_stack_contents(self):
        proc, tracker, mgr = make_world(with_images=True)
        thread = proc.thread(1)
        sp = thread.registers.stack_pointer
        dirty_two_runs(proc, tracker, mgr, op_index=42, value=0xDEAD)
        mgr.checkpoint_process()

        sim = CrashSimulator(proc, mgr)
        sim.crash()
        assert mgr.dram_images[thread.tid].read(sp + 8) == 0  # DRAM died
        report = sim.recover()
        assert report.resumed_from_sequence == 0
        # Contents, not just registers, came back from the NVM image.
        assert mgr.dram_images[thread.tid].read(sp + 8) == 0xDEAD
        assert mgr.dram_images[thread.tid].read(sp + 8192) == 0xDEAD


class TestSweep:
    def test_small_sweep_has_zero_violations(self):
        target = KernelTarget(cores=1, threads=2, intervals=2, writes=2)
        outcomes, violations = run_sweep(target)
        assert not violations, violations[:1]
        # Every protocol family shows up, including per-run copy points.
        points = {outcome.spec.point for outcome in outcomes}
        assert {
            "metadata_write",
            "stage_begin",
            "stage_run_copy[0]",
            "stage_run_copy[1]",
            "stage_complete",
            "commit_flag_write",
            "persist_barrier",
            "bitmap_clear",
        } <= points
        classifications = {outcome.classification for outcome in outcomes}
        assert {"rolled_forward", "previous"} <= classifications
        # Exhaustive mode crashes under the neat plan only.
        assert all(outcome.plan.is_neat for outcome in outcomes)

    def test_sweep_is_deterministic(self):
        target = KernelTarget(cores=1, threads=1, intervals=2, writes=2, seed=5)
        assert run_sweep(target)[0] == run_sweep(target)[0]

    def test_sweep_under_transient_errors_still_consistent(self):
        target = KernelTarget(
            cores=1, threads=1, intervals=2, writes=2, seed=1, transient_rate=0.2
        )
        outcomes, violations = run_sweep(target)
        assert outcomes and not violations, violations[:1]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            KernelTarget(writes=0)
        with pytest.raises(ValueError):
            KernelTarget(cores=0)
        with pytest.raises(ValueError):
            KernelTarget(transient_rate=1.5)

    def test_transient_retry_demo_accounts_retries(self):
        result = transient_retry_demo(seed=0)
        assert result.retries > 0
        assert result.resumed_from == result.checkpoints - 1
        assert result.state_ok

    def test_torn_metadata_demo_detects_and_falls_back(self):
        result = torn_metadata_demo(seed=0)
        assert result.detected
        assert result.resumed_from == 0
        assert result.state_ok


class TestFaultsCli:
    def test_faults_sweep_subcommand(self, capsys):
        from repro.cli import main

        code = main(
            ["faults", "sweep", "--intervals", "1", "--writes", "2", "--no-demos"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 invariant violation(s)" in out
        assert "stage_run_copy[0]" in out
        assert "ctx_save" in out  # the kernel path's context switches too

    def test_faults_sweep_usage_error(self, capsys):
        from repro.cli import main

        assert main(["faults", "sweep", "--writes", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_list_mentions_faults(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        assert "faults" in capsys.readouterr().out
