#!/usr/bin/env python3
"""Fault injection: sweep every crash point, then catch a torn write.

Extends examples/crash_recovery.py from two hand-picked crashes to
systematic validation (docs/FAULTS.md):

1. the exhaustive sweep runs a deterministic two-thread kernel checkpoint
   workload, crashes at *every* point it reaches — context switches, the
   checkpoint barrier, the metadata write, each per-run staging copy,
   commit flag, persist barrier, bitmap clear — recovers, and checks that
   the restored state (registers and stack bytes) is exactly one whole
   checkpoint, never a blend;
2. a seeded campaign over the same kernel path additionally samples which
   pending NVM writes survived each crash (dropped or torn);
3. a torn-write demo silently corrupts a checkpoint's metadata record,
   crashes mid-commit, and shows the CRC32 check discarding the staged
   data instead of trusting its completeness.

Run:  python examples/fault_injection.py
"""

from collections import Counter

from repro.faults.fuzzer import FuzzConfig, KernelTarget, run_campaign
from repro.faults.sweep import run_sweep, torn_metadata_demo, transient_retry_demo


def main() -> None:
    # --- 1. the sweep: crash everywhere, recover everywhere -------------
    outcomes, violations = run_sweep(
        KernelTarget(cores=1, threads=2, intervals=3, writes=4)
    )
    counts = Counter(outcome.classification for outcome in outcomes)
    points = {outcome.spec.point for outcome in outcomes}
    print(
        f"sweep: {len(outcomes)} crashes over {len(points)} "
        f"distinct points, {len(violations)} invariant violations"
    )
    for outcome in ("rolled_forward", "previous", "fresh_start"):
        print(f"  {outcome:>14}: {counts.get(outcome, 0)} recoveries")
    assert not violations, violations

    # --- 2. sampled persist orders on the kernel path -------------------
    report = run_campaign(
        FuzzConfig(seed=0, budget=64, mechanisms=("kernel", "multicore"), intervals=3)
    )
    print(
        f"\ncampaign: {report['schedules']} crashes with sampled dropped/torn "
        f"pending writes, {len(report['violations'])} invariant violations"
    )
    assert report["ok"], report["violations"]

    # --- 3. transient NVM write errors: retry, recover, account --------
    retry = transient_retry_demo(seed=0)
    print(
        f"\ntransient errors: {retry.checkpoints} checkpoints took "
        f"{retry.retries} NVM write retries (backoff charged to cycles); "
        f"recovery restored checkpoint {retry.resumed_from} exactly"
    )
    assert retry.retries > 0 and retry.state_ok

    # --- 4. a torn metadata record, caught by its checksum --------------
    torn = torn_metadata_demo(seed=0)
    print(
        f"\ntorn metadata: staging was complete but the record's CRC failed "
        f"at recovery; {torn.discarded_staged} staged buffers discarded, "
        f"fell back to committed checkpoint {torn.resumed_from}"
    )
    assert torn.detected and torn.state_ok

    print(
        "\nEvery crash point recovers to one whole checkpoint, and torn "
        "records are detected rather than rolled forward."
    )


if __name__ == "__main__":
    main()
