"""Probes the benchmark attaches to the simulator from the outside.

Two kinds, both installed by replacing functions and methods for the
duration of a pass and restoring them afterwards; nothing under ``src/``
is edited:

* :class:`Counters` (always on) wraps every engine run and reads the
  public stats objects afterwards: ``EngineStats``, ``CacheStats``,
  ``DeviceStats``, ``MechanismStats``, ``TableStats`` and the SSP
  counters.  One wrapper call per engine run costs microseconds against
  the milliseconds of simulation behind it.
* :class:`Tracer` (traced pass only) wraps the calls into each layer with
  parent-linked spans.  A layer's self time is its span's duration minus
  the part covered by child spans.  Spans of the hot layers (cache miss
  path, mechanism hooks, checkpoint staging) are summed per name; coarse
  spans (passes, units, trace builds, baselines, schedules) are also kept
  as records and written out at the end.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_MISSING = object()


class Patches:
    """Reversible attribute replacements on classes, modules and dicts."""

    def __init__(self) -> None:
        self._undo: list = []

    def set(self, owner, name, value) -> None:
        if isinstance(owner, dict):
            old = owner[name]
            owner[name] = value
            self._undo.append(lambda: owner.__setitem__(name, old))
            return
        old = vars(owner).get(name, _MISSING)
        setattr(owner, name, value)
        if old is _MISSING:
            self._undo.append(lambda: delattr(owner, name))
        else:
            self._undo.append(lambda: setattr(owner, name, old))

    def everywhere(self, fn, replacement) -> None:
        """Replace *fn* wherever a ``repro`` module holds it: module
        globals (``from x import fn`` copies) and module-level dicts."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, key, replacement)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is fn:
                            self.set(value, dkey, replacement)

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


@contextmanager
def patched(install):
    """Run ``install(patches)`` and undo every patch on exit."""
    patches = Patches()
    try:
        install(patches)
        yield
    finally:
        patches.undo()


# ---------------------------------------------------------------------- #
# Counters
# ---------------------------------------------------------------------- #


def _mechanisms(engine):
    for mech in (engine.mechanism, engine.heap_mechanism):
        while mech is not None and getattr(mech, "inner", None) is not None:
            mech = mech.inner  # the fuzzer's recording wrapper
        if mech is not None:
            yield mech


def engine_counts(engine) -> Counter:
    """Current totals of the public stats objects one engine reaches."""
    from repro.persistence.ssp import SspPersistence

    c = Counter(ops=engine.stats.ops_executed)
    hierarchy = engine.hierarchy
    for level in ("l1", "l2", "l3"):
        stats = getattr(hierarchy, level).stats
        c[f"{level}_hits"] = stats.hits
        c[f"{level}_misses"] = stats.misses
    if hierarchy.nvm is not None:
        c["nvm_writes"] = hierarchy.nvm.stats.writes
        c["nvm_stall_cycles"] = hierarchy.nvm.write_buffer_stalls
    for mech in _mechanisms(engine):
        c["checkpoint_bytes"] += mech.stats.total_checkpoint_bytes
        if isinstance(mech, SspPersistence):
            c["ssp_consolidations"] += mech.consolidation_invocations
            c["ssp_lines"] += mech.consolidated_lines_total
        tracker = getattr(mech, "tracker", None)
        if tracker is not None:
            c["table_hits"] += tracker.stats.hits
            c["table_misses"] += tracker.stats.misses
            c["bitmap_ops"] += tracker.stats.memory_ops
    return c


class Counters:
    """Per-pass totals of the simulator's own counters over engine runs."""

    def __init__(self) -> None:
        self.totals: Counter = Counter()
        self._depth = 0

    def take(self) -> dict:
        """Return the totals gathered since the last call and reset them."""
        out = {k: v for k, v in sorted(self.totals.items()) if v}
        self.totals = Counter()
        return out

    def install(self, patches: Patches) -> None:
        from repro.cpu.engine import ExecutionEngine
        from repro.cpu.engine_fast import BatchedExecutionEngine

        for cls in (ExecutionEngine, BatchedExecutionEngine):
            patches.set(cls, "run", self._wrap_run(vars(cls)["run"]))

    def _wrap_run(self, fn):
        def run(engine, *args, **kwargs):
            if self._depth:  # batched engine delegating to the scalar path
                return fn(engine, *args, **kwargs)
            before = engine_counts(engine)
            self._depth += 1
            try:
                return fn(engine, *args, **kwargs)
            finally:
                self._depth -= 1
                after = engine_counts(engine)
                after.subtract(before)
                self.totals.update(after)

        return run


# ---------------------------------------------------------------------- #
# Tracer
# ---------------------------------------------------------------------- #

_HOOKS = ("on_load", "on_store", "on_load_batch", "on_store_batch")
_INTERVAL_HOOKS = ("on_interval_start", "on_interval_end")
_BUILDER_MODULES = (
    "repro.workloads.apps",
    "repro.workloads.callstack",
    "repro.workloads.spec",
    "repro.workloads.synthetic",
)


class Tracer:
    """Parent-linked spans around the calls into each layer.

    ``totals[name]`` holds ``[calls, outer_calls, inclusive_s, self_s]``;
    inclusive time counts only the outermost span of a name, so recursion
    is not counted twice.  ``spans`` holds one ``(id, parent, name, start,
    end, self_s)`` record per kept span, *parent* being the nearest kept
    ancestor (-1 at the root).
    """

    def __init__(self) -> None:
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0, 0.0, 0.0])
        self.spans: list = []
        self.built_ops = 0
        self.batched_stores = 0
        self.per_op_stores = 0
        self._stack: list[list] = [[0.0, -1]]  # [child_s, kept_id]
        self._open: Counter = Counter()
        self._hook_depth = 0

    # -- spans ----------------------------------------------------------

    def wrap(self, name, fn, keep=False, on_outer_result=None):
        stack = self._stack
        open_ = self._open
        spans = self.spans
        totals = self.totals[name]
        clock = time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if keep:
                frame[1] = len(spans)
                spans.append(None)
            outer = not open_[name]
            open_[name] += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if outer and on_outer_result is not None:
                    on_outer_result(result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                open_[name] -= 1
                elapsed = t1 - t0
                parent[0] += elapsed
                self_s = elapsed - frame[0]
                totals[0] += 1
                totals[3] += self_s
                if outer:
                    totals[1] += 1
                    totals[2] += elapsed
                if keep:
                    spans[frame[1]] = (frame[1], parent[1], name, t0, t1, self_s)

        return span

    def call(self, name, fn):
        """Run ``fn()`` inside a kept span opened by the benchmark itself."""
        return self.wrap(name, fn, keep=True)()

    def self_s(self, name) -> float:
        return self.totals[name][3] if name in self.totals else 0.0

    def inclusive_s(self, name) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def outer_calls(self, name) -> int:
        return self.totals[name][1] if name in self.totals else 0

    # -- installation ---------------------------------------------------

    def install(self, patches: Patches) -> None:
        import repro.experiments.report_gen as report_gen
        import repro.experiments.runner as runner
        import repro.faults.fuzzer as fuzzer
        import repro.harness.supervisor as supervisor
        import repro.persistence as persistence
        from repro.core.checkpoint import ProsperCheckpointEngine
        from repro.cpu.engine import ExecutionEngine
        from repro.cpu.engine_fast import BatchedExecutionEngine
        from repro.memory.hierarchy import MemoryHierarchy
        from repro.persistence.base import PersistenceMechanism
        from repro.persistence.prosper import ProsperPersistence
        from repro.persistence.ssp import SspPersistence

        for method in ("access", "_access_line"):
            fn = vars(MemoryHierarchy)[method]
            patches.set(MemoryHierarchy, method, self.wrap("memory.miss_path", fn))
        for cls in (ExecutionEngine, BatchedExecutionEngine):
            fn = vars(cls)["run"]
            patches.set(cls, "run", self.wrap("cpu.engine", fn, keep=True))
        for method in ("stage", "checkpoint"):
            fn = vars(ProsperCheckpointEngine)[method]
            patches.set(
                ProsperCheckpointEngine, method, self.wrap("core.staging", fn)
            )

        # Every mechanism class gets its own wrapper around the method it
        # resolves, so the span is named after the class that runs it.
        for info in pkgutil.iter_modules(persistence.__path__):
            importlib.import_module(f"repro.persistence.{info.name}")
        classes = [PersistenceMechanism]
        for cls in classes:
            classes.extend(c for c in cls.__subclasses__() if c not in classes)
        resolved = {
            (cls, m): getattr(cls, m) for cls in classes for m in _HOOKS + _INTERVAL_HOOKS
        }
        for (cls, method), fn in resolved.items():
            if method in _INTERVAL_HOOKS:
                wrapped = self.wrap("persistence.interval", fn)
            else:
                kind = (
                    "ssp" if issubclass(cls, SspPersistence)
                    else "prosper" if issubclass(cls, ProsperPersistence)
                    else "other"
                )
                wrapped = self.wrap(f"persistence.{kind}.hook", fn)
                if method.startswith("on_store"):
                    wrapped = self._count_stores(wrapped, method == "on_store_batch")
            patches.set(cls, method, wrapped)

        for mod_name in _BUILDER_MODULES:
            module = importlib.import_module(mod_name)
            for name, fn in list(vars(module).items()):
                if callable(fn) and getattr(fn, "__module__", None) == mod_name and (
                    name.endswith("_workload") or name in ("gapbs_pr", "g500_sssp", "ycsb_mem")
                ):
                    patches.everywhere(
                        fn, self.wrap("workloads.build", fn, True, self._count_built)
                    )
        patches.everywhere(
            fuzzer.build_trace,
            self.wrap("workloads.build", fuzzer.build_trace, True, self._count_built),
        )
        for fn, name in (
            (runner.vanilla_cycles, "experiments.baseline"),
            (report_gen.generate_report, "experiments.report"),
            (supervisor.execute_unit, "harness.unit"),
            (fuzzer.run_schedule, "faults.schedule"),
            (fuzzer._probe, "faults.probe"),
        ):
            patches.everywhere(fn, self.wrap(name, fn, keep=True))

    def _count_built(self, trace) -> None:
        self.built_ops += len(getattr(trace, "array", trace))

    def _count_stores(self, fn, batched):
        """Count stack stores at the engine -> mechanism boundary."""

        def hook(mech, *args, **kwargs):
            if not self._hook_depth:
                engine = getattr(mech, "engine", None)
                if engine is not None and engine.mechanism is mech:
                    if batched:
                        self.batched_stores += len(args[0])
                    else:
                        self.per_op_stores += 1
            self._hook_depth += 1
            try:
                return fn(mech, *args, **kwargs)
            finally:
                self._hook_depth -= 1

        return hook

    def records(self) -> list:
        return [s for s in self.spans if s is not None]
