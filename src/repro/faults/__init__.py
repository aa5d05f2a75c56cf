"""Fault injection and crash-consistency verification.

Cooperating layers (see ``docs/FAULTS.md``):

* :mod:`repro.faults.injector` — named crash points threaded through the
  checkpoint pipeline, armed deterministically per (point, occurrence);
* :mod:`repro.faults.nvm_errors` — a seeded NVM media error model
  (transient failures, torn writes, sticky bad blocks) consulted by the
  device's reliable-write path;
* :mod:`repro.faults.order` — the persist-order oracle: pending durable
  writes become guaranteed-durable only at a flush/commit barrier, and a
  crash may persist any subset of the pending set (torn tail optional);
* :mod:`repro.faults.fuzzer` — the one crash driver: a schedule loop
  (probe, crash, resolve the persist plan, recover, verify, classify,
  shrink) over engine targets (one execution engine plus mechanism,
  judged by a golden image) and kernel targets (the OS checkpoint path
  on one or more cores, judged by per-thread register and stack
  snapshots), fed by seeded sampling;
* :mod:`repro.faults.sweep` — the loop's exhaustive mode: every named
  crash point x occurrence under the neat plan, plus targeted
  transient-error and torn-metadata recovery demos.

``sweep`` and ``fuzzer`` are intentionally *not* imported here: they pull
in the kernel/engine layers, which in turn reach back down to
:mod:`repro.memory.devices` — a module that imports this package for the
error model and the order oracle.  Import them as ``repro.faults.sweep``
/ ``repro.faults.fuzzer`` directly.
"""

from repro.faults.injector import (
    BITMAP_CLEAR,
    COMMIT_FLAG_WRITE,
    CRASH_POINT_FAMILIES,
    METADATA_WRITE,
    PERSIST_BARRIER,
    STAGE_BEGIN,
    STAGE_COMPLETE,
    CrashInjected,
    FaultInjector,
    cycle_point,
    is_cycle_point,
    stage_run_copy,
)
from repro.faults.order import (
    CrashOutcome,
    PendingWrite,
    PersistOrderOracle,
    PersistPlan,
)
from repro.faults.nvm_errors import (
    WRITE_BAD_BLOCK,
    WRITE_OK,
    WRITE_TORN,
    WRITE_TRANSIENT,
    NvmErrorModel,
    NvmMediaError,
)

__all__ = [
    "BITMAP_CLEAR",
    "COMMIT_FLAG_WRITE",
    "CRASH_POINT_FAMILIES",
    "METADATA_WRITE",
    "PERSIST_BARRIER",
    "STAGE_BEGIN",
    "STAGE_COMPLETE",
    "CrashInjected",
    "CrashOutcome",
    "FaultInjector",
    "PendingWrite",
    "PersistOrderOracle",
    "PersistPlan",
    "cycle_point",
    "is_cycle_point",
    "stage_run_copy",
    "WRITE_BAD_BLOCK",
    "WRITE_OK",
    "WRITE_TORN",
    "WRITE_TRANSIENT",
    "NvmErrorModel",
    "NvmMediaError",
]
