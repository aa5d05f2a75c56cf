"""Exhaustive mode of the crash driver, plus two targeted recovery demos.

The paper's validation kills gem5 at a few hand-picked moments.  The sweep
is systematic: a probe pass runs the target with an unarmed
:class:`FaultInjector` and records every crash point that fires, and the
driver's schedule loop (:func:`repro.faults.fuzzer.run_schedules`) then
crashes once per (point, occurrence) under the neat persist plan — every
write issued before the crash landed — recovers, and checks the target's
invariant.  For the kernel target (:class:`~repro.faults.fuzzer.KernelTarget`)
that is:

    After recovery, the process state (registers *and* stack contents,
    DRAM and NVM images alike) equals exactly one of

    * the checkpoint being taken when power failed (fully rolled forward),
    * the previous committed checkpoint (staging discarded), or
    * the pristine initial state, only if nothing had ever committed —

    and never a blend of two checkpoints or of two threads' epochs.  A
    crash inside a context switch, between checkpoints, must restore the
    latest committed checkpoint exactly.

Every run derives from one seed, so a violation is exactly reproducible
by re-arming the same (point, occurrence).  An optional transient NVM
write-error rate exercises the retry path under the same invariant.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.faults.fuzzer import CrashSpec, KernelScenario, KernelTarget, run_schedules
from repro.faults.injector import COMMIT_FLAG_WRITE, CrashInjected, FaultInjector
from repro.faults.order import PersistPlan


def run_sweep(target):
    """Crash *target* once at every (point, occurrence) its probe fired,
    in first-fired order, under the neat plan.  Returns the schedule
    loop's ``(outcomes, violations)``."""
    _, fired = target.probe()
    counts = Counter(fired)
    specs = [
        CrashSpec("point", point=point, occurrence=occurrence)
        for point in counts
        for occurrence in range(counts[point])
    ]
    return run_schedules(
        target, ((i, spec, None, PersistPlan()) for i, spec in enumerate(specs))
    )


@dataclass(frozen=True)
class RetryDemoResult:
    """Outcome of the seeded transient-NVM-error recovery demo."""

    checkpoints: int
    retries: int
    resumed_from: int | None
    state_ok: bool


@dataclass(frozen=True)
class TornMetadataDemoResult:
    """Outcome of the torn-metadata-record detection demo."""

    resumed_from: int | None
    discarded_staged: int
    state_ok: bool

    @property
    def detected(self) -> bool:
        """The torn record was caught by its CRC and discarded."""
        return self.discarded_staged > 0


def transient_retry_demo(
    seed: int = 0,
    threads: int = 2,
    intervals: int = 3,
    writes_per_interval: int = 4,
    transient_rate: float = 0.25,
) -> RetryDemoResult:
    """Checkpoint under transient NVM write errors, crash, recover.

    The error model makes a deterministic fraction of checkpoint writes
    fail transiently; the reliable-write path retries with backoff, the
    retries are charged to the checkpoint's cycles, and recovery must
    still restore the last committed checkpoint exactly.
    """
    target = KernelTarget(
        threads=threads,
        intervals=intervals,
        writes=writes_per_interval,
        seed=seed,
        transient_rate=transient_rate,
    )
    scenario = KernelScenario(target)
    completed = scenario.run()
    retries = sum(record.retries for record in scenario.sim.manager.checkpoints)
    scenario.sim.crash()
    report = scenario.sim.recover()
    mismatch = scenario.state_mismatch(report.resumed_from_sequence)
    return RetryDemoResult(
        checkpoints=completed,
        retries=retries,
        resumed_from=report.resumed_from_sequence,
        state_ok=(report.resumed_from_sequence == completed - 1)
        and mismatch is None,
    )


def torn_metadata_demo(
    seed: int = 0,
    threads: int = 2,
    writes_per_interval: int = 4,
) -> TornMetadataDemoResult:
    """Tear checkpoint 1's metadata record, crash mid-commit, recover.

    The tear is silent at write time and survives the persist barrier, so
    no persist plan can express it; the staging for checkpoint 1 is
    complete, so a recovery that trusted completeness alone would roll it
    forward onto registers it cannot validate.  The metadata CRC catches
    the tear: the staged data is discarded and the process falls back to
    committed checkpoint 0.
    """
    injector = FaultInjector(seed)
    injector.tear_metadata_at(1)
    # Crash at the commit-flag write of checkpoint 1 (its 2nd occurrence).
    injector.arm(COMMIT_FLAG_WRITE, occurrence=1)
    target = KernelTarget(
        threads=threads, intervals=2, writes=writes_per_interval, seed=seed
    )
    scenario = KernelScenario(target, injector)
    try:
        scenario.run()
    except CrashInjected:
        pass
    injector.disarm()
    scenario.sim.crash()
    report = scenario.sim.recover()
    mismatch = scenario.state_mismatch(report.resumed_from_sequence)
    return TornMetadataDemoResult(
        resumed_from=report.resumed_from_sequence,
        discarded_staged=scenario.sim.manager.discarded_staged,
        state_ok=(report.resumed_from_sequence == 0) and mismatch is None,
    )
