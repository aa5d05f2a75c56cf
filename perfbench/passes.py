"""The benchmark workloads, one *pass* each.

A pass builds its inputs from the seed, runs every unit through the
simulator's public entry points and records, per checked item, a digest
of the simulated output.  Nothing is carried from one pass to the next:
each unit gets a fresh engine and mechanism, traces are rebuilt, and the
figures run without a manifest, so their baseline cache lives and dies
with the pass.

A unit is one (trace, mechanism) run, one figure unit, or one fuzz
schedule.  A unit that raises, whose
digest differs from the reference, or whose output breaks an invariant is
a failed item; the pass goes on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from statistics import median

from probes import patched

DIGEST_CHARS = 12


def digest(payload) -> str:
    """Short content hash of a JSON-serialisable payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def strip_generated(text: str) -> str:
    """Figure text without the report's ``Generated <timestamp>`` line."""
    return "\n".join(
        line for line in text.split("\n") if not line.startswith("Generated ")
    )


class Pass:
    """Outputs of one pass: item digests, failures, unit latencies.

    Time the benchmark spends on its own work inside a pass is left out of
    every unit and pass time (``own_s``): digesting outputs, and the
    *probe* that, when given, runs after every unit and returns its own
    host time (run.py's host-speed probe)."""

    def __init__(self, tracer=None, probe=None) -> None:
        self.digests: dict[str, str] = {}
        self.failures: dict[str, str] = {}
        self.unit_ms: list[float] = []
        #: Pass clock (``net()``) at the start, at each unit's end, at the end.
        self.marks: list[float] = []
        #: What *probe* returned after each unit.
        self.probe_s: list[float] = []
        self.info: dict = {}
        self.wall_s = 0.0
        self.own_s = 0.0
        self.counts: dict = {}
        self._tracer = tracer
        self._probe = probe

    def net(self) -> float:
        """Host clock minus the benchmark's own time so far."""
        return time.perf_counter() - self.own_s

    def segments(self) -> list[float]:
        """The pass cut at every unit's end: seconds from the start (or the
        previous unit's end) to each unit's end, then on to the pass end.
        They sum to ``wall_s``, and segment *i* is the same work in every
        pass of one seed."""
        return [b - a for a, b in zip(self.marks, self.marks[1:])]

    def span(self, name, fn):
        return fn() if self._tracer is None else self._tracer.call(name, fn)

    def timed(self, fn):
        """Run ``fn()`` as one unit and return its result, recording the
        unit's latency even if it raises."""
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.unit_ms.append((t1 - t0) * 1e3)
            self.marks.append(t1 - self.own_s)
            if self._probe is not None:
                self.probe_s.append(self._probe())
                self.own_s += time.perf_counter() - t1

    def check(self, item: str, describe, ok: bool = True, why: str = "") -> None:
        """Digest ``describe()``, the item's output.  *describe* may also
        return ``(payload, ok)``.  Its time is the benchmark's, not the
        program's, and is left out of the pass wall time."""
        t0 = time.perf_counter()
        payload = describe()
        if isinstance(payload, tuple):
            payload, ok = payload
        self.digests[item] = digest(payload)
        if not ok:
            self.failures[item] = why
        self.own_s += time.perf_counter() - t0

    def fail(self, item: str, exc: BaseException) -> None:
        self.digests.setdefault(item, "error")
        self.failures[item] = f"{type(exc).__name__}: {exc}"

    def unit(self, item: str, fn, describe):
        """Time ``fn()`` as one unit; ``describe(result)`` gives the
        checked payload and whether the output's invariants hold."""
        try:
            result = self.timed(lambda: self.span("unit", fn))
        except Exception as exc:  # a failing unit is counted, not raised
            self.fail(item, exc)
            return None
        self.check(item, lambda: describe(result), why="output invariant broken")
        return result

    def build(self, item: str, fn):
        """Build one input trace; a failed build fails *item*."""
        try:
            return fn()
        except Exception as exc:
            self.fail(item, exc)
            return None


def _run_payload(result, mechs: dict, trace_ops: int):
    from repro.persistence.ssp import SspPersistence

    payload = {
        "label": result.mechanism_name,
        "vanilla_cycles": result.vanilla_cycles,
        "engine": dataclasses.asdict(result.stats),
    }
    for role, mech in mechs.items():
        payload[role] = dataclasses.asdict(mech.stats)
        if isinstance(mech, SspPersistence):
            payload[role + "_ssp"] = [
                mech.consolidation_invocations,
                mech.consolidated_lines_total,
                mech.interference_cycles_total,
            ]
    return payload, result.stats.ops_executed == trace_ops


def _mechanism_unit(p: Pass, item: str, trace, make, **run_kw) -> None:
    """One (trace, mechanism) unit.  ``make()`` returns the fresh
    ``{"stack": ..., "heap": ...}`` mechanisms, built inside the unit."""
    from repro.experiments import runner

    built = {}

    def run():
        built.update(make())
        return runner.run_mechanism(
            trace, built["stack"], 10.0, heap_mechanism=built.get("heap"), **run_kw
        )

    p.unit(item, run, lambda r: _run_payload(r, built, len(trace.array)))


def _vanilla_unit(p: Pass, item: str, trace):
    from repro.experiments import runner
    from repro.harness.cache import trace_fingerprint

    return p.unit(
        item,
        lambda: runner.vanilla_cycles(trace),
        lambda cycles: ({"trace": trace_fingerprint(trace), "cycles": cycles}, cycles > 0),
    )


# ---------------------------------------------------------------------- #
# apps_stack and apps_heap_ssp: the Figure 8 and Figure 9 sweeps
# ---------------------------------------------------------------------- #

APP_WORKLOADS = ("gapbs_pr", "g500_sssp", "ycsb_mem")
#: apps_stack runs the sweep on this many traces per app, of trace seeds
#: ``TRACES_PER_APP * seed + k``, so a pass has enough units for a tail.
TRACES_PER_APP = 3


def _app_trace(p: Pass, name: str, ops: int, seed: int, tag: str | None = None):
    from repro.workloads import apps

    return p.build(f"{tag or name}/vanilla", lambda: getattr(apps, name)(ops, seed))


def apps_stack(p: Pass, seed: int, ops: int) -> None:
    from repro.experiments import evaluation

    for name in APP_WORKLOADS:
        for k in range(TRACES_PER_APP):
            tag = f"{name}.{k}"
            trace = _app_trace(p, name, ops, TRACES_PER_APP * seed + k, tag)
            if trace is None:
                continue
            base = _vanilla_unit(p, f"{tag}/vanilla", trace)
            for label, factory in evaluation.stack_mechanisms().items():
                _mechanism_unit(
                    p, f"{tag}/{label}", trace, lambda: {"stack": factory()},
                    baseline_cycles=base, mechanism_label=label,
                )


def apps_heap_ssp(p: Pass, seed: int, ops: int) -> None:
    from repro.experiments import evaluation
    from repro.persistence.dirtybit import DirtyBitPersistence
    from repro.persistence.prosper import ProsperPersistence
    from repro.persistence.ssp import SspPersistence

    stack_factories = {
        "ssp": SspPersistence,
        "ssp+dirtybit": lambda _us: DirtyBitPersistence(),
        "ssp+prosper": lambda _us: ProsperPersistence(),
    }
    for name in APP_WORKLOADS:
        trace = _app_trace(p, name, ops, seed)
        if trace is None:
            continue
        base = _vanilla_unit(p, f"{name}/vanilla", trace)
        for us in evaluation.SSP_INTERVALS_US:
            for combo, factory in stack_factories.items():
                _mechanism_unit(
                    p, f"{name}/ssp{us:g}us/{combo}", trace,
                    lambda: {"stack": factory(us), "heap": SspPersistence(us)},
                    baseline_cycles=base, mechanism_label=combo,
                )


# ---------------------------------------------------------------------- #
# callstack_prosper: call-dense traces under Prosper
# ---------------------------------------------------------------------- #

GRANULARITIES = (8, 64, 512)


def callstack_prosper(
    p: Pass, seed: int, elements: int, descents16: int, descents64: int
) -> None:
    from repro.config import TrackerConfig
    from repro.persistence.prosper import ProsperPersistence
    from repro.workloads import callstack

    # The recursion generator draws nothing from its seed; the seed picks
    # its compute gap instead, which moves the interval boundaries but
    # leaves the op count, and so the pass's work, unchanged.
    gap = random.Random(seed).randint(15_000, 25_000)
    builders = {
        "quicksort": lambda: callstack.quicksort_workload(elements=elements, seed=seed),
        "rec-16": lambda: callstack.recursive_workload(
            depth=16, descents=descents16, compute_gap_cycles=gap
        ),
        "rec-64": lambda: callstack.recursive_workload(
            depth=64, descents=descents64, compute_gap_cycles=gap
        ),
    }
    for name, build in builders.items():
        trace = p.build(f"{name}/vanilla", build)
        if trace is None:
            continue
        base = _vanilla_unit(p, f"{name}/vanilla", trace)
        for granularity in GRANULARITIES:
            _mechanism_unit(
                p, f"{name}/prosper-{granularity}B", trace,
                lambda: {"stack": ProsperPersistence(
                    TrackerConfig().with_granularity(granularity)
                )},
                baseline_cycles=base,
            )


# ---------------------------------------------------------------------- #
# crash_fuzz: persist-order fuzz campaign, content mechanisms x engines
# ---------------------------------------------------------------------- #


def crash_fuzz(p: Pass, seed: int, budget: int, campaigns: int) -> None:
    """*campaigns* campaigns of *budget* schedules, of campaign seeds
    ``campaigns * seed + c``.  A campaign fuzzes one trace built from its
    seed; several per pass keep one trace from setting the pass's cost."""
    import repro.faults.fuzzer as fuzzer

    original = fuzzer.run_schedule
    prefix = [""]  # item prefix of the running campaign

    def run_schedule(mechanism, engine_name, trace, interval_ops, spec, index=0, **kw):
        if kw.get("forced_plan") is not None:  # shrinking a violation
            return original(mechanism, engine_name, trace, interval_ops, spec, index, **kw)
        item = f"{prefix[0]}/{mechanism}/{engine_name}/{index}"
        try:
            outcome = p.timed(
                lambda: original(mechanism, engine_name, trace, interval_ops, spec, index, **kw)
            )
        except Exception as exc:
            p.fail(item, exc)
            raise
        p.check(item, outcome.to_dict, outcome.ok, outcome.detail)
        return outcome

    violations = 0
    with patched(lambda patches: patches.set(fuzzer, "run_schedule", run_schedule)):
        for c in range(campaigns):
            prefix[0] = f"c{c}"
            config = fuzzer.FuzzConfig(
                seed=campaigns * seed + c,
                budget=budget,
                mechanisms=fuzzer.CONTENT_MECHANISMS,
                engines=fuzzer.ENGINES,
            )
            try:
                report = fuzzer.run_campaign(config)
            except Exception as exc:
                report = None
                p.fail(f"c{c}/campaign", exc)
            per_combo = max(1, budget // (len(config.mechanisms) * len(config.engines)))
            for mechanism in config.mechanisms:
                for engine in config.engines:
                    for index in range(per_combo):
                        item = f"c{c}/{mechanism}/{engine}/{index}"
                        if item not in p.digests:
                            p.fail(item, RuntimeError("schedule never ran"))
            if report is not None:
                p.check(f"c{c}/campaign", lambda: report, report["ok"], "fuzz violation")
                violations += len(report["violations"])
    p.info["violations"] = violations


# ---------------------------------------------------------------------- #
# figure_suite: every registered figure through the harness, jobs=1
# ---------------------------------------------------------------------- #


def figure_suite(p: Pass, seed: int, ops: int, figures=None) -> None:
    """``repro all --ops OPS``, over *figures* if given.  The figure
    definitions fix their own seeds (42; the report uses 42 and 7): *seed*
    does not reach them."""
    import repro.harness.cache as cache_mod
    import repro.harness.supervisor as supervisor
    from repro.harness.figures import figure_names

    names = list(figures) if figures is not None else figure_names()
    original = supervisor.execute_unit
    caches = []
    figure_ms: dict[str, float] = {name: 0.0 for name in names}

    def execute_unit(figure, params, attempt=0, unit_id=""):
        item = f"{figure}/{unit_id}"
        cache = cache_mod.active_cache()
        if cache is not None and (not caches or caches[-1] is not cache):
            caches.append(cache)
        try:
            payload = p.timed(lambda: p.span(
                "unit", lambda: original(figure, params, attempt=attempt, unit_id=unit_id)
            ))
        except Exception as exc:
            p.fail(item, exc)
            raise
        finally:
            figure_ms[figure] += p.unit_ms[-1]
        p.failures.pop(item, None)  # a retry that succeeded
        p.check(item, lambda: dict(payload, text=strip_generated(payload["text"]))
                if "text" in payload else payload)
        return payload

    options = supervisor.HarnessOptions(ops=ops, jobs=1)
    t0 = p.net()
    with patched(lambda patches: patches.set(supervisor, "execute_unit", execute_unit)):
        outcomes = supervisor.run_figures(names, options)
    suite_s = p.net() - t0
    for outcome in outcomes:
        for failure in outcome.failures:
            p.failures[f"{failure.figure}/{failure.unit_id}"] = failure.reason
        p.check(
            f"{outcome.name}#text", lambda: strip_generated(outcome.text), outcome.ok,
            "figure degraded",
        )
    hits = sum(c.hits for c in caches)
    misses = sum(c.misses for c in caches)
    p.info.update(
        cache_hits=hits,
        cache_misses=misses,
        figure_s={name: ms / 1e3 for name, ms in figure_ms.items()},
        harness_overhead_s=suite_s - sum(figure_ms.values()) / 1e3,
    )


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    run: object
    #: Sizes of a measured pass and of the smaller warm-up pass.
    size: dict
    warmup: dict
    #: False when the seed argument does not reach the generated inputs.
    seeded: bool = True
    why: str = ""

    def run_pass(self, seed: int, tracer=None, warmup: bool = False, probe=None) -> Pass:
        p = Pass(tracer, probe)
        kwargs = self.warmup if warmup else self.size
        p.marks.append(p.net())
        p.span("pass", lambda: self.run(p, seed, **kwargs))
        p.marks.append(p.net())
        p.wall_s = p.marks[-1] - p.marks[0]
        return p


#: Figures cheap enough to make the figure suite's warm-up pass.
WARMUP_FIGURES = ("fig1", "fig2", "fig4", "fig13", "endurance", "energy")
#: The figures of ``figure_harness``: every registered figure that takes
#: under 1 s at ``--ops 300``.  Left out: report (~48 s, its shape
#: validation is clamped to 20k ops), fig10, fig11, fig12, extensions.
HARNESS_FIGURES = (
    "fig1", "fig2", "fig3", "fig4", "fig8", "fig9", "fig13",
    "ctx-switch", "energy", "ablations", "endurance",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "apps_stack", apps_stack, {"ops": 3000}, {"ops": 500},
            why="Figure 8 sweep: L1-miss-heavy, the miss path and engine loop dominate",
        ),
        Workload(
            "apps_heap_ssp", apps_heap_ssp, {"ops": 2500}, {"ops": 500},
            why="Figure 9 sweep: SSP on the heap, per-op hooks and consolidation",
        ),
        Workload(
            "callstack_prosper", callstack_prosper,
            {"elements": 2500, "descents16": 500, "descents64": 160},
            {"elements": 300, "descents16": 60, "descents64": 20},
            why="call-dense, L1-hit-bound: batched engine + Prosper hooks",
        ),
        Workload(
            "crash_fuzz", crash_fuzz, {"budget": 40, "campaigns": 4},
            {"budget": 8, "campaigns": 1},
            why="persist-order fuzz campaign on the exact scalar path",
        ),
        Workload(
            "figure_suite", figure_suite, {"ops": 300},
            {"ops": 300, "figures": WARMUP_FIGURES}, seeded=False,
            why="repro all: every figure through the harness",
        ),
        Workload(
            "figure_harness", figure_suite, {"ops": 300, "figures": HARNESS_FIGURES},
            {"ops": 300, "figures": WARMUP_FIGURES}, seeded=False,
            why="run_figures over the figures under 1 s each: harness and experiments",
        ),
    )
}


def unit_tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample_count)``; below eleven samples no
    such percentile exists and the median stands in."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n
