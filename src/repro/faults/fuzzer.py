"""The crash-verification driver: one schedule loop, two kinds of target.

Every crash check runs through this module's loop: probe a target, pick a
crash spec, run until power fails, resolve which pending writes landed,
recover, verify against the target's state oracle, then classify, shrink
and report.  Two spec sources feed the loop:

* **sampling** (:func:`run_campaign`, ``repro faults fuzz``) — each
  seeded schedule loses power at an arbitrary *cycle* offset mid-interval
  (:meth:`FaultInjector.arm_cycle`) or at a named protocol point, and a
  :class:`~repro.faults.order.PersistPlan` sampled from the persist-order
  oracle decides which writes still pending behind the last barrier
  actually landed, with an optional torn tail;
* **enumeration** (:func:`repro.faults.sweep.run_sweep`, ``repro faults
  sweep``) — every named point x occurrence the probe saw, under the neat
  plan (everything issued before the crash landed intact).

An **engine target** (:func:`build_setup`) is one execution engine plus
one persistence mechanism, judged by a **golden image**: the mechanism is
wrapped in a recorder that assigns each store a unique value into a DRAM
:class:`~repro.memory.image.ByteImage` and snapshots that image at every
interval boundary.  After the crash the DRAM image is discarded (power
loss), recovery runs, and the durable NVM image must equal the snapshot
of the checkpoint recovery claims to have resumed from — word for word,
with no ghost words from a newer epoch.

* ``prosper`` and ``dirtybit`` stage real checksummed contents through
  their two-step protocols — the full golden-image oracle applies;
* ``ssp`` / ``flush`` / ``undo`` / ``redo`` persist in place with no
  staged protocol; for them the fuzzer checks the weaker bookkeeping
  oracle (interval-commit records are exactly-once and recovery resumes
  from the newest durable one).

Both engines are covered: arming a fault injector (or attaching the order
oracle) forces :class:`~repro.cpu.engine_fast.BatchedExecutionEngine`
through the exact scalar path, so a batched schedule is bit-identical to
its scalar twin by construction — which is itself asserted by the tier-1
tests.

A **kernel target** (:class:`KernelTarget`, mechanisms ``kernel`` and
``multicore``) is the OS path: persistent threads on per-core schedulers
with Prosper tracker save/restore at every context switch, checkpointed
stop-the-world by one :class:`~repro.kernel.checkpoint_mgr.CheckpointManager`
(per-thread staging, process metadata record, commit flag).  Its oracle is
:meth:`KernelScenario.state_mismatch`: registers plus DRAM and NVM stack
images must equal exactly one checkpoint's snapshot, never a blend of two
epochs or of two threads.  Kernel targets have no cycle clock, so they
crash at named points only.

A violation is shrunk to a minimal failing persist plan and reported with
the exact command line that reproduces it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from repro.cpu.engine import ExecutionEngine
from repro.cpu.engine_fast import BatchedExecutionEngine
from repro.cpu.ops import Op, TraceBuilder, array_to_ops
from repro.faults.injector import (
    CTX_RESTORE,
    CTX_SAVE,
    CrashInjected,
    FaultInjector,
    is_cycle_point,
)
from repro.faults.nvm_errors import NvmErrorModel
from repro.faults.order import CrashOutcome, PersistOrderOracle, PersistPlan
from repro.kernel.multicore import MultiCoreSimulation
from repro.memory.address import AddressRange
from repro.memory.image import WORD_BYTES, ByteImage
from repro.persistence.base import IntervalContext, PersistenceMechanism
from repro.persistence.dirtybit import DirtyBitPersistence
from repro.persistence.logging import (
    FlushPersistence,
    RedoLogPersistence,
    UndoLogPersistence,
)
from repro.persistence.prosper import ProsperPersistence
from repro.persistence.ssp import SspPersistence

#: Mechanisms with a staged-content checkpoint protocol: the full
#: golden-image oracle (content equality + ghost-word detection) applies.
CONTENT_MECHANISMS = ("prosper", "dirtybit")
#: In-place mechanisms verified by the bookkeeping oracle only.
INTERVAL_MECHANISMS = ("ssp", "flush", "undo", "redo")
MECHANISMS = CONTENT_MECHANISMS + INTERVAL_MECHANISMS
ENGINES = ("scalar", "batched")
#: Kernel targets by name, with their core count.  They run no execution
#: engine; reports show :data:`KERNEL_ENGINE` in the engine column.
KERNEL_TARGETS = {"kernel": 1, "multicore": 2}
KERNEL_ENGINE = "-"
#: Every name ``repro faults fuzz --mechanism`` accepts.
TARGETS = MECHANISMS + tuple(KERNEL_TARGETS)

#: Crash points that fire between checkpoints (inside a context switch)
#: rather than inside the checkpoint pipeline.
WORKLOAD_PHASE_POINTS = frozenset({CTX_SAVE, CTX_RESTORE})

#: The workload keeps every store inside a window at the top of the stack
#: while the SP (pushed below it by one large entry frame) wiggles
#: underneath — so no store is ever clipped by SP awareness or popped,
#: and the golden image covers the whole window at every snapshot.
WINDOW_BYTES = 16 * 1024
ENTRY_FRAME_BYTES = WINDOW_BYTES + 2048

_STACK_RANGE = AddressRange(0x7000_0000, 0x7010_0000)


def build_trace(seed: int, ops: int = 1200) -> list[Op]:
    """Deterministic fuzz workload: window stores/loads, CALL/RET wiggle,
    compute gaps.  Same (seed, ops) -> same trace, on any platform."""
    rng = random.Random(f"fuzz-trace:{seed}")
    tb = TraceBuilder()
    window_base = _STACK_RANGE.end - WINDOW_BYTES
    window_words = WINDOW_BYTES // WORD_BYTES
    frames: list[int] = []
    tb.call(ENTRY_FRAME_BYTES)
    for _ in range(max(0, ops - 1)):
        r = rng.random()
        if r < 0.45:
            tb.write(window_base + WORD_BYTES * rng.randrange(window_words))
        elif r < 0.60:
            tb.read(window_base + WORD_BYTES * rng.randrange(window_words))
        elif r < 0.72 and len(frames) < 8:
            frame = rng.choice((64, 128, 256))
            frames.append(frame)
            tb.call(frame)
        elif r < 0.84 and frames:
            tb.ret(frames.pop())
        else:
            tb.compute(rng.randrange(1, 30))
    return array_to_ops(tb.to_array())


# ---------------------------------------------------------------------- #
# Golden-image recorder
# ---------------------------------------------------------------------- #


@dataclass
class IntervalSnapshot:
    """The golden image at one interval boundary: what a checkpoint of
    that interval must reproduce after recovery."""

    image: ByteImage
    final_sp: int


class RecordingMechanism(PersistenceMechanism):
    """Transparent wrapper that maintains the golden image.

    Every store is assigned the next value of a monotonic counter and
    written into the shared DRAM image *before* the inner mechanism's hook
    runs; every interval boundary snapshots the image (before the inner
    checkpoint reads it, which sees identical contents — no stores happen
    in between).  Batching is disabled so store order and values are
    exact; the fuzzer always runs the scalar path anyway.
    """

    def __init__(self, inner: PersistenceMechanism, dram: ByteImage) -> None:
        super().__init__()
        self.inner = inner
        self.dram = dram
        self.name = inner.name
        self.region_in_nvm = inner.region_in_nvm
        self.supports_batching = False
        self.snapshots: list[IntervalSnapshot] = []
        self._counter = 0

    def attach(self, engine, region: AddressRange) -> None:
        super().attach(engine, region)
        self.inner.attach(engine, region)

    def on_load(self, address: int, size: int, now: int) -> int:
        return self.inner.on_load(address, size, now)

    def on_store(self, address: int, size: int, now: int) -> int:
        self._counter += 1
        self.dram.write(address, self._counter)
        return self.inner.on_store(address, size, now)

    def on_interval_start(self, ctx: IntervalContext) -> int:
        return self.inner.on_interval_start(ctx)

    def on_interval_end(self, ctx: IntervalContext) -> int:
        self.snapshots.append(IntervalSnapshot(self.dram.snapshot(), ctx.final_sp))
        return self.inner.on_interval_end(ctx)

    def persisted_state(self) -> dict:
        return self.inner.persisted_state()


class IntervalCommitRecorder(RecordingMechanism):
    """Recorder for in-place mechanisms with no staged protocol of their
    own: models "interval k is durable" as one commit record per interval,
    registered with the persist-order oracle *after* the inner mechanism's
    end-of-interval barrier — so it stays pending (losable) until the next
    interval's barrier retires it, exactly like a commit marker."""

    def __init__(
        self,
        inner: PersistenceMechanism,
        dram: ByteImage,
        oracle: PersistOrderOracle,
    ) -> None:
        super().__init__(inner, dram)
        self.oracle = oracle
        self.commits: list[int] = []

    def on_interval_end(self, ctx: IntervalContext) -> int:
        cycles = super().on_interval_end(ctx)
        index = len(self.snapshots) - 1
        self.commits.append(index)
        self.oracle.record(
            f"interval[{index}].commit",
            undo=self._lose_commit(index),
            size=8,
        )
        return cycles

    def _lose_commit(self, index: int):
        def undo() -> None:
            if index in self.commits:
                self.commits.remove(index)

        return undo

    def recover(self) -> int | None:
        """Newest interval whose commit record survived."""
        return self.commits[-1] if self.commits else None


# ---------------------------------------------------------------------- #
# Engine target
# ---------------------------------------------------------------------- #


@dataclass
class _FuzzSetup:
    """One fully wired machine, ready to run a schedule."""

    mechanism: str
    engine_name: str
    engine: ExecutionEngine
    injector: FaultInjector
    oracle: PersistOrderOracle
    recorder: RecordingMechanism
    inner: PersistenceMechanism
    dram: ByteImage
    durable: ByteImage | None  # persistent NVM contents (content mechs)

    def recover(self) -> int | None:
        if self.mechanism == "prosper":
            return self.inner.checkpoint_engine.recover_staged()
        if self.mechanism == "dirtybit":
            return self.inner.recover_staged()
        return self.recorder.recover()

    def staged_checkpoint(self):
        if self.mechanism == "prosper":
            return self.inner.checkpoint_engine.staged
        if self.mechanism == "dirtybit":
            return self.inner.staged
        return None


def build_setup(
    mechanism: str, engine_name: str, weaken: bool = False
) -> _FuzzSetup:
    """Wire one (mechanism, engine) machine with recorder, injector and
    persist-order oracle attached.  *weaken* enables the test-only
    trust-completeness recovery mutant (prosper only)."""
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if engine_name not in ENGINES:
        raise ValueError(f"unknown engine {engine_name!r}")
    if weaken and mechanism != "prosper":
        raise ValueError("the weakened recovery mutant is prosper-only")

    dram = ByteImage()
    durable: ByteImage | None = None
    oracle = PersistOrderOracle()
    if mechanism in CONTENT_MECHANISMS:
        durable = ByteImage()

        def reader(run):
            return dram.words_in_range(AddressRange(run.start, run.end))

        def writer(staged_run):
            durable.replace_range(
                AddressRange(staged_run.run.start, staged_run.run.end),
                staged_run.payload,
            )

        if mechanism == "prosper":
            inner: PersistenceMechanism = ProsperPersistence(
                content_reader=reader, content_writer=writer
            )
        else:
            inner = DirtyBitPersistence(
                content_reader=reader, content_writer=writer
            )
        recorder = RecordingMechanism(inner, dram)
    else:
        inner = {
            "ssp": SspPersistence,
            "flush": FlushPersistence,
            "undo": UndoLogPersistence,
            "redo": RedoLogPersistence,
        }[mechanism]()
        recorder = IntervalCommitRecorder(inner, dram, oracle)

    injector = FaultInjector()
    engine_cls = ExecutionEngine if engine_name == "scalar" else BatchedExecutionEngine
    engine = engine_cls(
        stack_range=_STACK_RANGE, mechanism=recorder, fault_injector=injector
    )
    nvm = engine.hierarchy.nvm
    if nvm is None:
        raise RuntimeError("fuzzing requires a machine with an NVM device")
    nvm.order_oracle = oracle
    if weaken:
        inner.checkpoint_engine.unsafe_trust_completeness = True
    return _FuzzSetup(
        mechanism, engine_name, engine, injector, oracle, recorder, inner,
        dram, durable,
    )


# ---------------------------------------------------------------------- #
# Schedules
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class CrashSpec:
    """Where one schedule loses power: a cycle deadline or the N-th
    occurrence of a named protocol point."""

    kind: str  # "cycle" | "point"
    cycle: int = 0
    point: str = ""
    occurrence: int = 0

    def to_dict(self) -> dict:
        if self.kind == "cycle":
            return {"kind": "cycle", "cycle": self.cycle}
        return {"kind": "point", "point": self.point, "occurrence": self.occurrence}

    @classmethod
    def from_dict(cls, data: dict) -> "CrashSpec":
        if data["kind"] == "cycle":
            return cls("cycle", cycle=data["cycle"])
        return cls("point", point=data["point"], occurrence=data.get("occurrence", 0))


@dataclass
class ScheduleOutcome:
    """Everything one schedule did and whether it satisfied the oracle."""

    index: int
    mechanism: str
    engine: str
    spec: CrashSpec
    crashed: bool
    crash_point: str | None
    plan: PersistPlan | None
    applied: CrashOutcome | None
    snapshots: int
    resumed: int | None
    expected: tuple
    ok: bool
    detail: str

    @property
    def classification(self) -> str:
        if not self.ok:
            return "violation"
        if not self.crashed:
            return "no_crash"
        if self.resumed is None:
            return "fresh_start"
        # Resuming the newest snapshot rolls its checkpoint forward, unless
        # power failed in a context switch: the kernel's commit flag is
        # barrier-ordered, so that checkpoint was already the previous
        # one.  An engine mechanism's newest commit marker stays pending
        # until the next interval's barrier, so a mid-interval cycle crash
        # still rolls it forward by replay.
        if (
            self.resumed == self.snapshots - 1
            and self.crash_point not in WORKLOAD_PHASE_POINTS
        ):
            return "rolled_forward"
        return "previous"

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "mechanism": self.mechanism,
            "engine": self.engine,
            "crash": self.spec.to_dict(),
            "crashed": self.crashed,
            "crash_point": self.crash_point,
            "plan": self.plan.to_dict() if self.plan is not None else None,
            "applied": self.applied.to_dict() if self.applied is not None else None,
            "snapshots": self.snapshots,
            "resumed": self.resumed,
            "expected": list(self.expected),
            "classification": self.classification,
            "ok": self.ok,
            "detail": self.detail,
        }


def _legal_resumes(snapshots: int, staged: bool, point: str) -> tuple:
    """The resume-legality rule every target is judged by.

    Snapshots are taken *before* each checkpoint runs, so during
    checkpoint S-1's pipeline there are S of them: a crash there may
    resolve to S-1 (staging rolled forward) or S-2 (staging discarded).
    A crash between checkpoints — a cycle deadline mid-interval or a
    context switch — over a staged protocol must resume from the latest
    commit, S-1: a dropped commit marker is masked by replaying the
    durable staging buffer.  Interval-commit mechanisms have no replay:
    their newest commit record stays droppable until the next barrier, so
    S-2 stays legal for them.  Indices below zero mean "nothing committed
    yet" and collapse to None.
    """
    between = is_cycle_point(point) or point in WORKLOAD_PHASE_POINTS
    if staged and between:
        candidates = (snapshots - 1,)
    else:
        candidates = (snapshots - 1, snapshots - 2)
    return tuple(dict.fromkeys(c if c >= 0 else None for c in candidates))


def _resolve_plan(
    oracle: PersistOrderOracle,
    plan_rng: random.Random | None,
    forced_plan: PersistPlan | None,
) -> tuple[PersistPlan, CrashOutcome]:
    """Power fails: apply *forced_plan*, or a plan sampled from
    *plan_rng*, to the writes still pending behind the last barrier."""
    if forced_plan is not None:
        plan = forced_plan
    else:
        plan = oracle.sample_plan(plan_rng or random.Random(0))
    return plan, oracle.apply_plan(plan)


def run_schedule(
    mechanism: str,
    engine_name: str,
    trace: list[Op],
    interval_ops: int,
    spec: CrashSpec,
    index: int = 0,
    plan_rng: random.Random | None = None,
    forced_plan: PersistPlan | None = None,
    weaken: bool = False,
) -> ScheduleOutcome:
    """Run one crash schedule end-to-end: execute, crash, resolve the
    persist plan, recover, verify against the golden image."""
    setup = build_setup(mechanism, engine_name, weaken=weaken)
    if spec.kind == "cycle":
        setup.injector.arm_cycle(spec.cycle)
    else:
        setup.injector.arm(spec.point, spec.occurrence)

    crash: CrashInjected | None = None
    try:
        setup.engine.run(trace, interval_ops=interval_ops)
    except CrashInjected as exc:
        crash = exc

    snapshots = len(setup.recorder.snapshots)
    if crash is None:
        return ScheduleOutcome(
            index, mechanism, engine_name, spec,
            crashed=False, crash_point=None, plan=None, applied=None,
            snapshots=snapshots, resumed=None, expected=(),
            ok=True, detail="crash never fired (deadline past end of trace)",
        )

    # Power fails now: resolve which pending writes landed, drop all
    # volatile state, then recover from what is durably left.
    plan, applied = _resolve_plan(setup.oracle, plan_rng, forced_plan)
    setup.injector.disarm()
    setup.dram.clear()
    resumed = setup.recover()

    ok, expected, detail = _verify(setup, crash, resumed, snapshots)
    return ScheduleOutcome(
        index, mechanism, engine_name, spec,
        crashed=True, crash_point=crash.point, plan=plan, applied=applied,
        snapshots=snapshots, resumed=resumed, expected=expected,
        ok=ok, detail=detail,
    )


def _verify(
    setup: _FuzzSetup,
    crash: CrashInjected,
    resumed: int | None,
    snapshots: int,
) -> tuple[bool, tuple, str]:
    """Judge one recovered machine.  Returns (ok, legal resumes, detail)."""
    content = setup.mechanism in CONTENT_MECHANISMS
    expected = _legal_resumes(snapshots, content, crash.point)

    problems: list[str] = []
    if resumed not in expected:
        problems.append(
            f"resumed from {resumed}, legal: {list(expected)}"
        )

    if content:
        problems.extend(_verify_content(setup, resumed))
        staged = setup.staged_checkpoint()
        if (
            staged is not None
            and staged.committed
            and staged.interval_index != resumed
        ):
            problems.append(
                f"committed staging buffer says interval "
                f"{staged.interval_index}, recovery says {resumed}"
            )
    else:
        commits = setup.recorder.commits
        if any(b <= a for a, b in zip(commits, commits[1:])):
            problems.append(f"commit records not strictly increasing: {commits}")
        if commits and resumed != commits[-1]:
            problems.append(
                f"resumed {resumed} but newest durable commit is {commits[-1]}"
            )

    if problems:
        return False, expected, "; ".join(problems)
    return True, expected, "recovered state matches the golden image"


def _verify_content(setup: _FuzzSetup, resumed: int | None) -> list[str]:
    """Golden-image comparison: the durable NVM contents must equal the
    snapshot of the recovered checkpoint — no lost words, no ghosts."""
    durable = setup.durable
    assert durable is not None
    if resumed is None:
        stray = sum(1 for _ in durable.iter_words())
        if stray:
            return [
                f"no checkpoint committed but durable image holds {stray} words"
            ]
        return []

    snap = setup.recorder.snapshots[resumed]
    problems: list[str] = []
    golden = dict(snap.image.iter_words())
    for address, value in sorted(golden.items()):
        if address < snap.final_sp:
            continue  # dead frames: legitimately dropped by SP awareness
        got = durable.read(address, -1)
        if got != value:
            problems.append(
                f"word {address:#x}: durable {got} != checkpointed {value}"
            )
            break
    for address, value in sorted(durable.iter_words()):
        if address >= snap.final_sp and address not in golden:
            problems.append(
                f"ghost word {address:#x}={value} in durable image "
                f"(epoch blending)"
            )
            break
    return problems


# ---------------------------------------------------------------------- #
# Kernel target
# ---------------------------------------------------------------------- #

#: Active stack window per thread: SP sits this far below the stack top and
#: never moves during the kernel workload, so the expected contents are exact.
ACTIVE_WINDOW_BYTES = 64 * 1024
#: Byte stride between dirty clusters, large enough that each cluster
#: coalesces into its own run (so ``stage_run_copy[i]`` fires per run).
CLUSTER_STRIDE = 4096


class KernelScenario:
    """One deterministic run of the kernel workload.

    Each interval gives every thread one quantum on its home core — a
    genuine :meth:`Scheduler.switch_to` with Prosper tracker save/restore,
    which is where the ``ctx_save``/``ctx_restore`` crash points live —
    during which the thread rewrites its active stack window with values
    encoding (thread, interval, write index), so any blend of two epochs
    shows up as a mismatched word.  After each interval the scenario
    snapshots an independent mirror of every thread's words and registers,
    then drives the stop-the-world checkpoint (``barrier_quiesce`` plus
    the staging/commit protocol).  The mirror is derived without the
    checkpoint pipeline, so a pipeline bug cannot corrupt the expectation.
    """

    def __init__(
        self,
        target: "KernelTarget",
        injector: FaultInjector | None = None,
        oracle: PersistOrderOracle | None = None,
    ) -> None:
        self.writes = target.writes
        self.intervals = target.intervals
        self.dram_images: dict[int, ByteImage] = {}
        self.nvm_images: dict[int, ByteImage] = {}
        self.sim = MultiCoreSimulation(
            thread_ops=[[] for _ in range(target.cores * target.threads)],
            num_cores=target.cores,
            stack_bytes=512 * 1024,
            injector=injector,
            dram_images=self.dram_images,
            nvm_images=self.nvm_images,
        )
        nvm = self.sim.manager.hierarchy.nvm
        if target.transient_rate:
            nvm.error_model = NvmErrorModel(
                seed=target.seed, transient_write_rate=target.transient_rate
            )
        nvm.order_oracle = oracle
        self.process = self.sim.process
        self.sp: dict[int, int] = {}
        for thread in self.process.iter_threads():
            thread.registers.stack_pointer = thread.stack.end - ACTIVE_WINDOW_BYTES
            self.sp[thread.tid] = thread.registers.stack_pointer
            self.dram_images[thread.tid] = ByteImage()
            self.nvm_images[thread.tid] = ByteImage()
        #: Independent mirror of each thread's live stack words.
        self.mirror: dict[int, dict[int, int]] = {tid: {} for tid in self.sp}
        #: Mirror + register snapshots taken just before checkpoint k.
        self.mem_at: list[dict[int, dict[int, int]]] = []
        self.regs_at: list[dict[int, int]] = []

    def _workload_interval(self, k: int) -> None:
        """One quantum per thread per core, with interval-unique values."""
        for core in self.sim.cores:
            for thread, _ops, _cursor in core.queue:
                core.scheduler.switch_to(thread)  # ctx_save / ctx_restore
                sp = self.sp[thread.tid]
                for j in range(self.writes):
                    address = sp + j * CLUSTER_STRIDE
                    value = (thread.tid << 48) | ((k + 1) << 32) | (j + 1)
                    core.tracker.observe_store(address, 8)
                    self.dram_images[thread.tid].write(address, value)
                    self.mirror[thread.tid][address] = value
                    thread.registers.op_index += 1

    def run(self) -> int:
        """Run every interval + checkpoint; returns checkpoints completed.

        An armed injector makes this raise :class:`CrashInjected` either
        mid-switch (``len(self.mem_at)`` checkpoints committed) or inside
        checkpoint ``len(self.mem_at) - 1``.
        """
        for k in range(self.intervals):
            self._workload_interval(k)
            self.mem_at.append(
                {tid: dict(words) for tid, words in self.mirror.items()}
            )
            self.regs_at.append(
                {
                    thread.tid: thread.registers.op_index
                    for thread in self.process.iter_threads()
                }
            )
            self.sim._checkpoint()  # barrier_quiesce + staging/commit points
        return self.intervals

    def state_mismatch(self, sequence: int | None) -> str | None:
        """Compare restored process state against checkpoint *sequence*'s
        snapshot: registers and stack contents (DRAM and NVM images alike)
        must equal exactly one checkpoint's snapshot — never a blend of two
        checkpoints or of two threads' epochs.  Returns None on an exact
        match, else the first divergence.  ``sequence=None`` means
        "pristine": no checkpoint ever committed.
        """
        if sequence is None:
            expected_regs = {tid: 0 for tid in self.sp}
            expected_mem: dict[int, dict[int, int]] = {tid: {} for tid in self.sp}
        else:
            expected_regs = self.regs_at[sequence]
            expected_mem = self.mem_at[sequence]
        for thread in self.process.iter_threads():
            tid = thread.tid
            if thread.registers.op_index != expected_regs[tid]:
                return (
                    f"tid {tid}: op_index {thread.registers.op_index} != "
                    f"expected {expected_regs[tid]}"
                )
            window = AddressRange(self.sp[tid], thread.stack.end)
            for label, image in (
                ("DRAM", self.dram_images[tid]),
                ("NVM", self.nvm_images[tid]),
            ):
                if dict(image.words_in_range(window)) != expected_mem[tid]:
                    return (
                        f"tid {tid}: {label} stack contents diverge from "
                        f"checkpoint {sequence} (blend or data loss)"
                    )
        return None


@dataclass(frozen=True)
class KernelTarget:
    """The kernel checkpoint path as a crash target: *threads* persistent
    threads per core on *cores* cores, *writes* dirty clusters per thread
    per interval.  One core is the ``kernel`` target, more the
    ``multicore`` one."""

    cores: int = 1
    threads: int = 2
    intervals: int = 3
    writes: int = 4
    seed: int = 0
    transient_rate: float = 0.0
    engine = KERNEL_ENGINE

    def __post_init__(self) -> None:
        if min(self.cores, self.threads, self.intervals, self.writes) < 1:
            raise ValueError("cores, threads, intervals and writes must be positive")
        if not 0.0 <= self.transient_rate <= 1.0:
            raise ValueError("transient rate must be in [0, 1]")

    @property
    def mechanism(self) -> str:
        return "kernel" if self.cores == 1 else "multicore"

    def probe(self) -> tuple[None, list[str]]:
        """Dry run with an unarmed injector: every named point that fired,
        in order.  There is no cycle clock to sample."""
        injector = FaultInjector(self.seed)
        KernelScenario(self, injector).run()
        return None, list(injector.fired)

    def run(
        self,
        spec: CrashSpec,
        index: int = 0,
        plan_rng: random.Random | None = None,
        forced_plan: PersistPlan | None = None,
    ) -> ScheduleOutcome:
        """Crash at a named point, resolve the persist plan, recover, and
        compare against the mirror snapshot recovery resumed from."""
        if spec.kind != "point":
            raise ValueError("kernel targets crash at named points only")
        injector = FaultInjector(self.seed)
        injector.arm(spec.point, spec.occurrence)
        oracle = PersistOrderOracle()
        scenario = KernelScenario(self, injector, oracle)
        try:
            scenario.run()
        except CrashInjected as exc:
            crash = exc
        else:
            return ScheduleOutcome(
                index, self.mechanism, self.engine, spec,
                crashed=False, crash_point=None, plan=None, applied=None,
                snapshots=len(scenario.mem_at), resumed=None, expected=(),
                ok=False, detail="armed crash point never fired",
            )
        snapshots = len(scenario.mem_at)
        plan, applied = _resolve_plan(oracle, plan_rng, forced_plan)
        injector.disarm()
        scenario.sim.crash()
        resumed = scenario.sim.recover().resumed_from_sequence
        expected = _legal_resumes(snapshots, True, crash.point)
        if resumed in expected:
            problem = scenario.state_mismatch(resumed)
        else:
            problem = f"resumed from {resumed}, legal: {list(expected)}"
        return ScheduleOutcome(
            index, self.mechanism, self.engine, spec,
            crashed=True, crash_point=crash.point, plan=plan, applied=applied,
            snapshots=snapshots, resumed=resumed, expected=expected,
            ok=problem is None,
            detail=problem or "recovered state matches the checkpoint snapshot",
        )


@dataclass(frozen=True)
class EngineTarget:
    """One (mechanism, engine) machine as a crash target, over one trace."""

    mechanism: str
    engine: str
    trace: list[Op]
    interval_ops: int
    weaken: bool = False

    def probe(self) -> tuple[int, list[str]]:
        return _probe(self.mechanism, self.engine, self.trace, self.interval_ops)

    def run(
        self,
        spec: CrashSpec,
        index: int = 0,
        plan_rng: random.Random | None = None,
        forced_plan: PersistPlan | None = None,
    ) -> ScheduleOutcome:
        # Resolved as a module global per call: instrumentation patches
        # ``run_schedule`` and ``_probe`` by name.
        return run_schedule(
            self.mechanism, self.engine, self.trace, self.interval_ops, spec,
            index, plan_rng=plan_rng, forced_plan=forced_plan,
            weaken=self.weaken,
        )


def _probe(
    mechanism: str, engine_name: str, trace: list[Op], interval_ops: int
) -> tuple[int, list[str]]:
    """Dry run with the injector attached but unarmed: yields the total
    cycle count (the cycle-crash sample space) and every named point that
    fired, in order (the point-crash sample space)."""
    setup = build_setup(mechanism, engine_name)
    setup.engine.run(trace, interval_ops=interval_ops)
    return setup.engine.now, list(setup.injector.fired)


# ---------------------------------------------------------------------- #
# The schedule loop
# ---------------------------------------------------------------------- #


def shrink_plan(target, spec: CrashSpec, plan: PersistPlan) -> PersistPlan:
    """Greedy ddmin-style reduction of a failing persist plan: drop the
    torn tail, then each dropped write, keeping only what is needed for
    the schedule to still violate the oracle.  Every candidate replays the
    full schedule on *target* deterministically with the candidate plan
    forced."""

    def still_fails(candidate: PersistPlan) -> bool:
        return not target.run(spec, forced_plan=candidate).ok

    current = plan
    changed = True
    while changed:
        changed = False
        if current.torn is not None:
            candidate = PersistPlan(current.dropped, None)
            if still_fails(candidate):
                current = candidate
                changed = True
                continue
        for label in sorted(current.dropped):
            candidate = PersistPlan(current.dropped - {label}, current.torn)
            if still_fails(candidate):
                current = candidate
                changed = True
                break
    return current


def run_schedules(target, schedules, shrink: bool = True, repro=None):
    """Run each ``(index, spec, plan_rng, forced_plan)`` schedule on
    *target* — crash, resolve the persist plan, recover, verify — and turn
    every violation into a report entry carrying its shrunk plan and, given
    a *repro* ``index -> command line`` function, its reproducer.  Returns
    ``(outcomes, violations)``."""
    outcomes: list[ScheduleOutcome] = []
    violations: list[dict] = []
    for index, spec, plan_rng, forced_plan in schedules:
        outcome = target.run(spec, index, plan_rng=plan_rng, forced_plan=forced_plan)
        outcomes.append(outcome)
        if outcome.ok:
            continue
        entry = outcome.to_dict()
        entry["shrunk_plan"] = None
        if shrink and outcome.plan is not None:
            entry["shrunk_plan"] = shrink_plan(target, spec, outcome.plan).to_dict()
        if repro is not None:
            entry["repro"] = repro(index)
        violations.append(entry)
    return outcomes, violations


# ---------------------------------------------------------------------- #
# Campaigns: seeded sampling
# ---------------------------------------------------------------------- #


@dataclass
class FuzzConfig:
    """One fuzzing campaign: *budget* schedules split evenly across the
    (mechanism, engine) grid, all derived from *seed*.  Kernel targets
    take one grid cell each and only *intervals* of the workload shape."""

    seed: int = 0
    budget: int = 256
    mechanisms: tuple[str, ...] = CONTENT_MECHANISMS
    engines: tuple[str, ...] = ENGINES
    ops: int = 1200
    intervals: int = 4
    weaken: bool = False  # test-only recovery mutant (prosper)
    shrink: bool = True
    only_schedule: int | None = None  # replay a single schedule index


def _point_family(point: str) -> str:
    """Protocol-step family of a named point (``stage_run_copy[17]`` ->
    ``stage_run_copy``)."""
    return point.split("[", 1)[0]


def _sample_spec(
    rng: random.Random, total_cycles: int | None, fired: list[str]
) -> CrashSpec:
    """Pick where this schedule crashes: 50/50 between an arbitrary cycle
    offset and a named protocol point (always a named point when the
    target has no cycle clock, *total_cycles* None).

    Point crashes sample the protocol-step *family* uniformly first, then
    an occurrence within it — otherwise the many ``stage_run_copy[i]``
    firings would drown out the rare steps (``stage_complete``,
    ``persist_barrier``) where the most interesting pending sets live.
    """
    if fired and (total_cycles is None or rng.random() < 0.5):
        families = sorted({_point_family(p) for p in fired})
        family = rng.choice(families)
        members = [i for i, p in enumerate(fired) if _point_family(p) == family]
        pick = rng.choice(members)
        point = fired[pick]
        occurrence = fired[:pick].count(point)
        return CrashSpec("point", point=point, occurrence=occurrence)
    return CrashSpec("cycle", cycle=rng.randint(1, max(1, total_cycles)))


def _schedule_rng(config: FuzzConfig, mechanism: str, engine: str, index: int):
    return random.Random(f"{config.seed}:{mechanism}:{engine}:{index}")


def _plan_rng(config: FuzzConfig, mechanism: str, engine: str, index: int):
    return random.Random(f"{config.seed}:{mechanism}:{engine}:{index}:plan")


def repro_command(config: FuzzConfig, mechanism: str, engine: str, index: int) -> str:
    """Exact CLI line that replays one schedule (see docs/FAULTS.md)."""
    line = f"repro faults fuzz --seed {config.seed} --mechanism {mechanism} "
    if mechanism not in KERNEL_TARGETS:
        line += f"--engine {engine} "
    line += (
        f"--ops {config.ops} --intervals {config.intervals} "
        f"--schedule {index}"
    )
    if config.weaken:
        line += " --weaken"
    return line


def _targets(config: FuzzConfig, trace: list[Op], interval_ops: int) -> list:
    targets: list = []
    for mechanism in config.mechanisms:
        if mechanism in KERNEL_TARGETS:
            targets.append(
                KernelTarget(
                    cores=KERNEL_TARGETS[mechanism],
                    intervals=config.intervals,
                    seed=config.seed,
                )
            )
            continue
        for engine in config.engines:
            targets.append(
                EngineTarget(mechanism, engine, trace, interval_ops, config.weaken)
            )
    return targets


def run_campaign(config: FuzzConfig) -> dict:
    """Run the full campaign; returns the JSON-ready report."""
    for mechanism in config.mechanisms:
        if mechanism not in TARGETS:
            raise ValueError(f"unknown mechanism {mechanism!r}")
    for engine in config.engines:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
    if config.budget <= 0:
        raise ValueError("budget must be positive")
    if config.intervals <= 0:
        raise ValueError("intervals must be positive")
    if config.weaken and set(config.mechanisms) != {"prosper"}:
        raise ValueError("the weakened recovery mutant is prosper-only")

    trace = build_trace(config.seed, config.ops)
    interval_ops = max(1, config.ops // config.intervals)
    targets = _targets(config, trace, interval_ops)
    per_combo = max(1, config.budget // len(targets))
    indices = (
        range(per_combo) if config.only_schedule is None else [config.only_schedule]
    )

    combo_reports: list[dict] = []
    violations: list[dict] = []
    total = 0
    for target in targets:
        mechanism, engine = target.mechanism, target.engine
        total_cycles, fired = target.probe()
        schedules = (
            (
                index,
                _sample_spec(
                    _schedule_rng(config, mechanism, engine, index),
                    total_cycles,
                    fired,
                ),
                _plan_rng(config, mechanism, engine, index),
                None,
            )
            for index in indices
        )
        outcomes, found = run_schedules(
            target,
            schedules,
            config.shrink,
            lambda index: repro_command(config, mechanism, engine, index),
        )
        total += len(outcomes)
        violations.extend(found)
        classifications: Counter[str] = Counter()
        crash_kinds: Counter[str] = Counter()
        plan_kinds: Counter[str] = Counter()
        for outcome in outcomes:
            classifications[outcome.classification] += 1
            if outcome.crashed:
                crash_kinds[outcome.spec.kind] += 1
                if outcome.plan is not None:
                    if outcome.plan.is_neat:
                        plan_kinds["neat"] += 1
                    else:
                        if outcome.plan.dropped:
                            plan_kinds["dropped"] += 1
                        if outcome.plan.torn is not None:
                            plan_kinds["torn"] += 1
        combo_reports.append(
            {
                "mechanism": mechanism,
                "engine": engine,
                "schedules": len(indices),
                "probe_cycles": total_cycles,
                "named_points": len(fired),
                "classifications": dict(classifications),
                "crash_kinds": dict(crash_kinds),
                "plan_kinds": dict(plan_kinds),
            }
        )

    return {
        "seed": config.seed,
        "budget": config.budget,
        "ops": config.ops,
        "intervals": config.intervals,
        "weakened": config.weaken,
        "schedules": total,
        "combos": combo_reports,
        "violations": violations,
        "ok": not violations,
    }
