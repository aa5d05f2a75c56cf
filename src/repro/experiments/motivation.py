"""Motivation-study helpers (Section II: Figures 1-4).

The Figure 1-4 sweeps are run units in :mod:`repro.harness.figures`; this
module keeps the trace reduction the Figure 3 replay study needs.
"""

from __future__ import annotations

from repro.workloads.trace import Trace


def stack_only(trace: Trace) -> Trace:
    """Reduce a trace to its stack activity (memory ops + CALL/RET).

    Mirrors the paper's replay methodology: the custom program replays only
    the stack accesses of the trace, so the no-persistence baseline is the
    cost of those accesses with the stack in DRAM.
    """
    from repro.cpu.ops import OpKind

    arr = trace.array
    kinds = arr["kind"]
    addrs = arr["address"]
    stack = trace.stack_range
    keep = (
        (kinds == int(OpKind.CALL))
        | (kinds == int(OpKind.RET))
        | (
            (kinds <= int(OpKind.WRITE))
            & (addrs >= stack.start)
            & (addrs < stack.end)
        )
    )
    return Trace(
        arr[keep],
        trace.stack_range,
        heap_range=trace.heap_range,
        name=trace.name,
        initial_sp=trace.initial_sp,
    )
